"""numpy and multiprocessing load only when a run uses them.

``import repro``, the experiment registry and a fabric run are pure
standard library; the MIMO case study (numpy) and a parallel sweep
(``multiprocessing``) import what they need on first use.  Each check
runs in a fresh interpreter, since the test process itself has long
since loaded both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LAZY = ("numpy", "multiprocessing")


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


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
