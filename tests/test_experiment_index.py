"""The registry's name -> module index (``repro.experiments.defs.INDEX``).

Looking an experiment up imports only the ``defs`` module the index
names for it; listing, describing and the unknown-name error import
them all.  The index must say exactly where each ``@experiment``
definition lives, or ``get`` raises instead of loading everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ExperimentError, registry
from repro.experiments.defs import INDEX

SRC = str(Path(repro.__file__).resolve().parent.parent)

DEFS = "repro.experiments.defs"

#: Every experiment the paper reproduction registers.
EXPERIMENT_COUNT = 28


def _indexed():
    return {name: f"{DEFS}.{module}"
            for module, listed in INDEX.items() for name in listed}


def test_index_names_each_experiment_once():
    listed = [name for names in INDEX.values() for name in names]
    assert len(listed) == len(set(listed)) == EXPERIMENT_COUNT


def test_index_is_exact():
    """Every registered name sits under the module its run function
    comes from, and every index entry is registered."""
    registered = {name: registry.get(name).run.__module__
                  for name in registry.names()}
    assert registered == _indexed()


def test_listing_describing_and_the_unknown_error_cover_every_experiment():
    everything = sorted(_indexed())
    assert registry.names() == everything
    assert [row["name"] for row in registry.describe()] == everything
    with pytest.raises(registry.UnknownExperimentError) as caught:
        registry.get("no_such_experiment")
    assert str(caught.value).endswith(", ".join(everything))


def test_misfiled_name_raises_naming_experiment_and_module(monkeypatch):
    monkeypatch.delitem(registry._REGISTRY, "table1_catalog")
    monkeypatch.setitem(registry._HOME, "table1_catalog", "fabric")
    with pytest.raises(ExperimentError) as caught:
        registry.get("table1_catalog")
    assert not isinstance(caught.value, registry.UnknownExperimentError)
    assert "'table1_catalog'" in str(caught.value)
    assert f"{DEFS}.fabric" in str(caught.value)


def _defs_loaded_by(call: str) -> list:
    """The ``defs`` modules a fresh interpreter loads to run ``call``."""
    code = f"""
import json, sys
from repro.experiments import ExperimentSpec, run_experiment, run_scenario
{call}
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith({DEFS + "."!r}))))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("call,module", [
    ('run_experiment(ExperimentSpec("table1_catalog"))', "tables"),
    ('run_experiment(ExperimentSpec("table2_hierarchy"))', "tables"),
    ('run_experiment(ExperimentSpec("flit_rtt"))', "fabric"),
    ('run_scenario("interleave", telemetry=False)', "timelines"),
], ids=["table1_catalog", "table2_hierarchy", "flit_rtt", "interleave"])
def test_a_run_loads_only_its_own_defs_module(call, module):
    assert _defs_loaded_by(call) == [f"{DEFS}.{module}"]
