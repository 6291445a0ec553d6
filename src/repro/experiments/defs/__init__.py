"""Experiment definitions, one module per family.

Each module registers its experiments with the
:func:`~repro.experiments.registry.experiment` decorator when it is
imported.  Importing this package imports none of them: :data:`INDEX`
says which module defines which experiment, so the registry loads only
the module of the experiment a run names (and every module when asked
to list them all).  A new experiment goes into its module and into
this map; ``tests/test_experiment_index.py`` checks the two agree.
"""

from __future__ import annotations

#: ``{module: (experiment names, ...)}``: where each experiment is
#: defined, by the module's name within this package.
INDEX = {
    "cfc": ("cfc_allocation", "cfc_hol", "cfc_starvation", "dp4_arbiter"),
    "control": ("control_loop",),
    "fabric": ("flit_rtt", "pcie_interference", "pcie_interleave",
               "sync_vs_async", "overcommit", "hdm_interleave"),
    "health": ("fabric_health",),
    "memory": ("node_types", "reliability", "replication"),
    "mimo": ("case_study_mimo",),
    "movement": ("dp1_movement", "dp2_heap", "dp3_idempotent",
                 "graph_far_memory", "context_switch"),
    "tables": ("table2_hierarchy", "table1_catalog", "fig1_composition"),
    "timelines": ("t2", "starvation", "interleave"),
    "topo": ("xswitch_starvation",),
}
