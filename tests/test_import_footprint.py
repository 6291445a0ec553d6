"""A run loads only the code it uses.

``import repro``, the experiment registry and a fabric run are pure
standard library; the MIMO case study (numpy) and a parallel sweep
(``multiprocessing``) import what they need on first use.  Every
package loads a submodule only when one of its names is first used
(``repro._lazy``), so the registry and an unobserved run load neither
the FCC runtime (``repro.core``), the baselines, the control plane,
the sweep driver nor any observer module.  Each check runs in a fresh
interpreter, since the test process itself has long since loaded all
of them.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LAZY = ("numpy", "multiprocessing")

#: What the registry and an unobserved run never need: the FCC runtime,
#: the baselines, the control plane, the sweep driver and the observers.
UNUSED = ("repro.core", "repro.baselines", "repro.control",
          "repro.experiments.sweep", "repro.telemetry.health",
          "repro.telemetry.dashboard", "repro.telemetry.perfetto",
          "repro.telemetry.attribution", "repro.telemetry.sampler")

#: Child-side helper: the loaded modules that are, or live under, one of
#: the ``UNUSED`` names.
_LOADED_UNUSED = f"""
def loaded_unused():
    return sorted(m for m in sys.modules
                  if any(m == u or m.startswith(u + ".") for u in {UNUSED!r}))
"""

#: Every package whose exports load lazily.
PACKAGES = ("repro", "repro.baselines", "repro.core", "repro.mem",
            "repro.telemetry", "repro.topo", "repro.control",
            "repro.experiments", "repro.workloads")


def _python(code: str) -> str:
    """Run ``code`` in a new interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; parse its last stdout line."""
    return json.loads(_python(code).splitlines()[-1])


def test_import_and_fabric_run_load_neither_numpy_nor_multiprocessing():
    seen = _fresh(f"""
import json, sys
import repro, repro.experiments
from repro.experiments import ExperimentSpec, names, run_experiment
loaded = {{"import": [m for m in {LAZY!r} if m in sys.modules]}}
names()
loaded["registry"] = [m for m in {LAZY!r} if m in sys.modules]
result = run_experiment(ExperimentSpec("flit_rtt"))
loaded["run"] = [m for m in {LAZY!r} if m in sys.modules]
loaded["holds"] = all(result["invariants"].values())
print(json.dumps(loaded))
""")
    assert seen == {"import": [], "registry": [], "run": [],
                    "holds": True}


def test_mimo_reexport_still_resolves_and_loads_numpy():
    pytest.importorskip("numpy")
    seen = _fresh("""
import json, sys
import repro.workloads
before = "numpy" in sys.modules
from repro.workloads import MimoConfig
from repro.workloads.mimo import MimoConfig as direct
print(json.dumps([before, "numpy" in sys.modules,
                  MimoConfig is direct]))
""")
    assert seen == [False, True, True]


def test_unknown_workloads_attribute_raises_attribute_error():
    import repro.workloads
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.workloads, "no_such_name")


def test_registry_loads_no_runtime_control_sweep_or_observer():
    seen = _fresh(f"""
import json, sys
{_LOADED_UNUSED}
import repro, repro.experiments
loaded = {{"import": loaded_unused()}}
repro.experiments.names()
loaded["registry"] = loaded_unused()
print(json.dumps(loaded))
""")
    assert seen == {"import": [], "registry": []}


def test_unobserved_fabric_run_loads_no_observer():
    """The claim in ``repro.experiments.observe``: an unobserved
    environment imports no observer module."""
    seen = _fresh(f"""
import json, sys
{_LOADED_UNUSED}
from repro.experiments import ExperimentSpec, run_experiment
result = run_experiment(ExperimentSpec("flit_rtt"))
print(json.dumps([loaded_unused(), all(result["invariants"].values())]))
""")
    assert seen == [[], True]


def test_observing_health_loads_the_observers():
    seen = _fresh("""
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["bench", "interleave", "--observe", "health"])
print(json.dumps([status] + [m in sys.modules for m in (
    "repro.telemetry.health", "repro.telemetry.sampler",
    "repro.telemetry.attribution")]))
""")
    assert seen == [0, True, True, True]


def test_unobserved_bench_cli_loads_no_health_attribution_or_control():
    seen = _fresh("""
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["bench", "flit_rtt"])
print(json.dumps([status] + [m for m in (
    "repro.telemetry.health", "repro.telemetry.attribution",
    "repro.control") if m in sys.modules]))
""")
    assert seen == [0]


def test_bench_cli_reports_health_and_control_errors_from_a_cold_start(
        tmp_path):
    """``bench`` catches ``HealthError``/``ControlError`` without
    importing their modules up front."""
    missing = str(tmp_path / "missing.json")
    seen = _fresh(f"""
import contextlib, io, json, sys
from repro.cli import main
statuses = []
for argv in (["t2", "--observe", "health", "--slo", {missing!r}],
             ["starvation", "--set", "feedback=" + {missing!r}]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        statuses.append([main(["bench", *argv]),
                         err.getvalue().split(" ", 3)[:3]])
print(json.dumps(statuses))
""")
    assert seen == [[2, ["error:", "cannot", "read"]]] * 2


def test_health_module_leaves_attribution_unloaded():
    seen = _fresh("""
import json, sys
import repro.telemetry.health
print(json.dumps("repro.telemetry.attribution" in sys.modules))
""")
    assert seen is False


@pytest.mark.parametrize("name,unused", [
    ("table2_hierarchy", "repro.mem.coma"),
    ("sync_vs_async", "repro.core.heap"),
])
def test_run_loads_no_model_it_does_not_use(name, unused):
    seen = _fresh(f"""
import json, sys
from repro.experiments import ExperimentSpec, run_experiment
result = run_experiment(ExperimentSpec({name!r}))
print(json.dumps([{unused!r} in sys.modules,
                  all(result["invariants"].values())]))
""")
    assert seen == [False, True]


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_list_and_reject(package):
    if package == "repro.workloads":
        pytest.importorskip("numpy")        # the MIMO names
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_name")


def test_top_level_exports_are_the_defining_objects():
    seen = _fresh("""
import json
from repro import UniFabric, params, span
from repro.core.unifabric import UniFabric as direct
import repro.params, repro.telemetry.core
print(json.dumps([UniFabric is direct, params is repro.params,
                  span is repro.telemetry.core.span]))
""")
    assert seen == [True, True, True]


def test_readme_quickstart_runs_from_a_cold_import():
    readme = Path(SRC).parent / "README.md"
    text = readme.read_text()
    after = text[text.index("## Quickstart"):]
    code = re.search(r"```python\n(.*?)```", after, re.S).group(1)
    assert _python(code).rstrip().endswith("ns elapsed")


def test_observer_defaults_live_in_params_under_their_old_names_too():
    from repro import params
    from repro.telemetry.health import DEFAULT_WINDOW_NS
    from repro.telemetry.sampler import DEFAULT_INTERVAL_NS
    assert (DEFAULT_WINDOW_NS, DEFAULT_INTERVAL_NS) \
        == (params.HEALTH_WINDOW_NS, params.SAMPLER_INTERVAL_NS)
