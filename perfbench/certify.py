"""Solver-independent optimality certificate for a max-min fair allocation.

Let ``c = max_i J_i(r_i)`` be the allocation's worst cost. If every agent
must hold more than ``need_i`` to bring its cost down to ``(1 - delta) c``
and the ``need_i`` sum to more than the budget, then no feasible allocation
has a worst cost at or below ``(1 - delta) c``: the allocation is optimal to
within ``delta`` of its own value. ``need_i`` is found per agent by
bisection on ``costs.values`` alone, so the certificate shares no code with
the solvers and works at any fleet size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BISECTION_STEPS = 60


@dataclass(frozen=True)
class Certificate:
    ok: bool
    reason: str


def certify(costs, rates, total: float, floors, delta: float, tol: float = 1e-9) -> Certificate:
    """Check that ``rates`` lies in ``{0 <= r <= 1, sum(r) <= total}`` and is optimal to within ``delta``.

    ``floors`` are the rates below which a cost must not be evaluated:
    positive for unstable agents, whose cost is unbounded at 0, and 0 for
    stable ones. Bisection keeps ``J(lo) > level >= J(hi)`` and uses ``lo``,
    which never exceeds the exact need, so rounding cannot make the
    certificate pass wrongly. An unstable agent that meets the level at its
    floor has an unknown need below it, and the certificate then fails.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < -tol) or np.any(rates > 1.0 + tol):
        return Certificate(False, "a rate lies outside [0, 1]")
    if rates.sum() > total + tol:
        return Certificate(False, f"rates sum to {float(rates.sum())!r}, above the budget {total!r}")

    level = (1.0 - delta) * float(costs.values(rates).max())
    lo = np.array(floors, dtype=float)
    hi = np.ones_like(lo)
    meets_at_floor = costs.values(lo) <= level
    if np.any(meets_at_floor & (lo > 0)):
        i = int(np.flatnonzero(meets_at_floor & (lo > 0))[0])
        return Certificate(False, f"agent {i} meets the level {level!r} at its floor {lo[i]!r}")
    misses_at_one = costs.values(hi) > level
    search = ~meets_at_floor & ~misses_at_one
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        above = costs.values(np.where(search, mid, hi)) > level
        lo = np.where(search & above, mid, lo)
        hi = np.where(search & ~above, mid, hi)
    # stable agents that meet the level at rate 0 need nothing, agents still above it at rate 1 need all of 1
    need_sum = float(np.where(misses_at_one, 1.0, lo).sum())
    if need_sum > total:
        return Certificate(True, "")
    return Certificate(False, f"rates needed at level {level!r} sum to {need_sum!r}, within the budget {total!r}")
