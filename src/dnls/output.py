"""Deterministic artifact output: the writers of the trajectory CSV, the
JSON reports, the breather profile and the correlation table.  Floats are
written with 17 significant digits so they round-trip exactly."""

from __future__ import annotations

import json

import numpy as np

from .breather import BreatherSolution
from .integrator import Trajectory


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Header t,re_0,im_0,...; one sample per row."""
    cols = ["t"] + [f"{part}_{i}" for i in range(traj.values.shape[1])
                    for part in ("re", "im")]
    # the float64 view of a complex row interleaves re_i, im_i
    rows = np.column_stack([traj.times, traj.values.view(np.float64)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=",".join(cols),
               comments="")


def write_breather_profile_csv(sol: BreatherSolution, path) -> None:
    """Site amplitude profile for plotting: n, |psi_n|, re, im."""
    v = sol.state0.values
    # the scalar abs(z): numpy's array abs differs from it in the last bit
    rows = np.column_stack([np.arange(v.size) - v.size // 2,
                            [abs(z) for z in v], v.real, v.imag])
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * 3, delimiter=",",
               header="n,abs,re,im", comments="")


def write_dimension_csv(table: np.ndarray, path) -> None:
    """(radius, correlation integral) table, one row per radius."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header="epsilon,correlation", comments="")


def write_json(data: dict, path) -> None:
    """Encode before opening ``path``, so a record that is not plain JSON
    raises without leaving a partial file."""
    text = json.dumps(data, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
