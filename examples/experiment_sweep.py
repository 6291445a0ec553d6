"""The declarative experiment layer: registry, specs, and sweeps.

Run:  python examples/experiment_sweep.py

Every paper table and every telemetry scenario is a named
experiment in :mod:`repro.experiments` — a typed parameter schema plus
a run function returning a JSON-able summary.  This example:

1. browses the registry (the API behind ``repro list``);
2. runs one experiment with overridden parameters (``repro bench``);
3. runs a small parameter sweep across two worker processes into a
   resumable directory (``repro sweep``), then reads the merged
   report — byte-identical at any worker count, because each point's
   seed derives from sha256(base_seed, index) and the report is
   assembled in point order.
"""

import json
import tempfile
from pathlib import Path

from repro.experiments import registry, run_summary
from repro.experiments.sweep import SweepSpec, run_sweep


def main() -> None:
    # 1. The registry: every bench table and telemetry scenario.
    rows = registry.describe()
    benches = [r for r in rows if r["kind"] == "bench"]
    scenarios = [r for r in rows if r["kind"] == "scenario"]
    print(f"registry: {len(benches)} bench experiments, "
          f"{len(scenarios)} telemetry scenarios")
    flit = registry.get("flit_rtt")
    print(f"  flit_rtt params: "
          + ", ".join(f"{name}={param.default}"
                      for name, param in sorted(flit.params.items())))

    # 2. One experiment, parameters overridden, summary as plain data.
    summary = run_summary("flit_rtt", max_hops=4, pings=6)
    print("\nflit_rtt with max_hops=4:")
    for row in summary["rows"]:
        print(f"  {row['hops']} hop(s): {row['rtt_ns']:7.1f} ns RTT")

    # 3. A sweep: one axis, two workers, resumable output directory.
    spec = SweepSpec.from_dict({
        "experiment": "pcie_interference",
        "sweep": {"device_service_ns": [200.0, 250.0, 300.0]},
        "params": {"hosts_list": [1, 4, 16], "writes_per_host": 60},
        "seed": 7,
    })
    with tempfile.TemporaryDirectory() as out_dir:
        run_sweep(spec, out_dir, workers=2, progress=print)
        report = json.loads(
            (Path(out_dir) / "sweep.json").read_text())
    print("\nadded one-way latency at 16 hosts, by device service time:")
    for point in report["points"]:
        service = point["params"]["device_service_ns"]
        added = point["outputs"]["summary"]["rows"][-1]["added_ns"]
        print(f"  service {service:5.1f} ns -> +{added:7.1f} ns")


if __name__ == "__main__":
    main()
