"""Scenario matrix harness: YAML-driven experiment sweeps (``repro.cli matrix``).

The benchmarks and EXPERIMENTS.md used to be a dozen ad-hoc scripts; this
package makes "add a scenario" a five-line YAML diff instead.  A config file
under ``experiments/configs/`` declares either

* a **serving matrix** (``kind: serving``): axes — protocol x epsilon x
  domain size x distribution x workers x shards x transport —
  expanded into cells.  Every cell runs the offline engine reference; cells
  with ``shards >= 1`` additionally spawn a live single server or a
  K-shard cluster, stream the canonical chunk stream at it, and assert the
  served estimates equal the offline engine **bit for bit**; or
* a **paper config** (``kind: paper``): the ordered sections of
  EXPERIMENTS.md, each naming one registered experiment driver plus its
  paper-vs-measured commentary.

Committed outputs (``docs/experiments/`` tables, EXPERIMENTS.md) are
deterministic — seeded cells, host-dependent timing columns stripped — and
CI regenerates them to fail on drift.  Schema, defaults, and the
determinism policy: ``docs/experiments.md``.
"""

from repro.experiments.matrix.config import (
    AXES,
    Cell,
    ConfigError,
    MatrixConfig,
    derive_cell_seed,
    expand_cells,
    load_config,
)
from repro.experiments.matrix.runner import CellResult, run_cell, run_matrix
from repro.experiments.matrix.render import render_accuracy_csv, render_serving_md

__all__ = [
    "AXES",
    "Cell",
    "CellResult",
    "ConfigError",
    "MatrixConfig",
    "derive_cell_seed",
    "expand_cells",
    "load_config",
    "render_accuracy_csv",
    "render_serving_md",
    "run_cell",
    "run_matrix",
]
