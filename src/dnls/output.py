"""Deterministic artifact output: trajectory CSV, JSON reports, breather
profiles.  Floats are written with 17 significant digits so they
round-trip exactly."""

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


def trajectory_summary(traj: Trajectory) -> dict:
    out = {
        "t0": float(traj.times[0]),
        "t1": float(traj.times[-1]),
        "n_samples": int(traj.n_samples),
        "norms": [float(x) for x in traj.norms],
        "times": [float(x) for x in traj.times],
        "steps": {
            "accepted": traj.stats.accepted,
            "rejected": traj.stats.rejected,
            "rhs_evals": traj.stats.rhs_evals,
        },
    }
    if traj.tails is not None:
        out["tail_cutoff"] = traj.tail_cutoff
        out["tails"] = [float(x) for x in traj.tails]
    return out


def breather_to_dict(sol: BreatherSolution) -> dict:
    return {
        "period": sol.period,
        "phase_t0": sol.phase_t0,
        "periodicity_residual": sol.periodicity_residual,
        "iterations": sol.iterations,
        "contraction_ratio": sol.contraction_ratio,
        "localization_rate": sol.localization_rate,
        "localization_r2": sol.localization_r2,
        "amplitudes": [[z.real, z.imag] for z in sol.state0.values],
    }


def write_breather_profile_csv(sol: BreatherSolution, path) -> None:
    """Site amplitude profile for plotting: n, |psi_n|, re, im."""
    v = sol.state0.values
    # the scalar abs(z): numpy's array abs differs from it in the last bit
    rows = np.column_stack([np.arange(v.size) - v.size // 2,
                            [abs(z) for z in v], v.real, v.imag])
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * 3, delimiter=",",
               header="n,abs,re,im", comments="")


def write_dimension_csv(estimate, path) -> None:
    """(radius, correlation integral) table."""
    rows = np.column_stack([estimate.radii, estimate.correlations])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header="epsilon,correlation", comments="")


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def write_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")
