"""Seeded synthetic sensor fleets, written as ordinary run configs.

A fleet of ``n`` processes has exactly ``round(0.3 n)`` unstable ones, with
spectral radius drawn from [1.02, 1.15], and exactly ``n // 2`` of dimension
2; the rest are stable, with spectral radius in [0.2, 0.95], or 1-d. Fixing
these counts keeps the amount of curve-building work steady across seeds.
2-d processes are upper triangular, so their eigenvalues are the diagonal,
with a coupling term above it. ``C`` and ``R`` default to
identities and ``Q`` is diagonal and positive, so every process is
observable and controllable; the generator still runs
``ProcessModel.validate()`` on each one and raises if any fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from fairsched.sensors import ProcessModel

UNSTABLE_SHARE = 0.3


def _process(rng, unstable: bool, two_d: bool) -> dict:
    rho = rng.uniform(1.02, 1.15) if unstable else rng.uniform(0.2, 0.95)
    sign = 1.0 if rng.random() < 0.8 else -1.0
    if not two_d:
        return {"A": [[sign * rho]], "Q": [[rng.uniform(0.5, 4.0)]]}
    other = rng.uniform(0.0, rho)
    diag = [sign * rho, other] if rng.random() < 0.5 else [other, sign * rho]
    A = [[diag[0], rng.uniform(0.0, 1.0)], [0.0, diag[1]]]
    Q = [[rng.uniform(0.5, 4.0), 0.0], [0.0, rng.uniform(0.5, 4.0)]]
    return {"A": A, "Q": Q}


def fleet_config(n: int, seed: int, solver: dict, horizon: int) -> dict:
    """A run config for ``n`` generated processes sharing ``total_rate = 0.3 n``."""
    rng = np.random.default_rng(seed)
    unstable = rng.permutation(n) < round(UNSTABLE_SHARE * n)
    two_d = rng.permutation(n) < n // 2
    processes = [_process(rng, u, d) for u, d in zip(unstable, two_d)]
    for i, entry in enumerate(processes):
        try:
            ProcessModel(A=entry["A"], Q=entry["Q"]).validate()
        except ValueError as exc:
            raise ValueError(f"generated process {i} is invalid: {exc}") from exc
    return {
        "total_rate": 0.3 * n,
        "processes": processes,
        "solver": dict(solver),
        "simulation": {"horizon": horizon, "seed": seed},
    }


def write_fleet(path: Path, n: int, seed: int, solver: dict, horizon: int) -> Path:
    path.write_text(json.dumps(fleet_config(n, seed, solver, horizon)) + "\n")
    return path
