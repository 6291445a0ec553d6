"""Experiment definitions; importing this package registers them all."""

from __future__ import annotations

from . import (cfc, control, fabric, health, memory, mimo, movement,
               tables, timelines, topo)

__all__ = ["cfc", "control", "fabric", "health", "memory", "mimo",
           "movement", "tables", "timelines", "topo"]
