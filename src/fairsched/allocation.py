"""Max-min fair resource allocation via projected cost dynamics.

Each agent carries a strictly decreasing, convex, positive cost as a function
of its allocated rate. The solver looks for the allocation that minimises the
largest cost over the budget polytope ``{r : sum(r) <= total, lb <= r <= ub}``.

The core update is

    r(t+1) = P(r(t) + eps(t) * J(r(t)))

where ``J`` is the elementwise cost vector and ``P`` the Euclidean projection
onto the polytope: expensive agents pull resource toward themselves, cheap
agents donate, and the projection settles the exchange. Fixed points of this
map are max-min fair allocations. The step size follows the diminishing rule
``eps <- 1 / (1/eps + 1)`` so that it eventually enters the contraction range
without prior knowledge of the cost slopes.

``solve_maxmin`` wraps the iteration in an outer loop that manages lower
bounds for agents whose cost blows up as the rate approaches zero: such
agents start with a small positive floor which is shrunk geometrically
whenever the inner solve leaves them pinned at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CONVERGED",
    "MAX_INNER_ITERS",
    "MAX_OUTER_ITERS",
    "InfeasibleRegionError",
    "CostDomainError",
    "FeasibleRegion",
    "CostModel",
    "AffineCostModel",
    "SolverConfig",
    "SolverTrace",
    "EquilibriumReport",
    "project_feasible",
    "step_map",
    "solve_inner",
    "solve_maxmin",
    "initial_allocation",
    "recover_weights",
    "check_equilibrium",
]

CONVERGED = "converged"
MAX_INNER_ITERS = "max-inner-iterations"
MAX_OUTER_ITERS = "max-outer-iterations"


class InfeasibleRegionError(ValueError):
    """The box and budget constraints admit no interior point."""


class CostDomainError(ValueError):
    """A cost model was evaluated outside its supported rate range."""


@dataclass(frozen=True, eq=False)
class FeasibleRegion:
    """Allocation polytope ``{r : sum(r) <= total, lower <= r <= upper}``.

    Requires ``sum(lower) < total`` so the region has an interior; the budget
    itself may be slack (``total >= sum(upper)`` is allowed, every agent then
    simply saturates its upper bound).
    """

    total: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        # copies: the bound arrays are frozen read-only and must not alias caller data
        lower = np.atleast_1d(np.array(self.lower, dtype=float))
        upper = np.atleast_1d(np.array(self.upper, dtype=float))
        total = float(self.total)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise InfeasibleRegionError("lower and upper bounds must be 1-d and of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all() and math.isfinite(total)):
            raise InfeasibleRegionError("region bounds must be finite")
        if total < 0:
            raise InfeasibleRegionError(f"total resource must be nonnegative, got {total}")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise InfeasibleRegionError(f"lower[{bad}]={lower[bad]} exceeds upper[{bad}]={upper[bad]}")
        if lower.sum() >= total:
            raise InfeasibleRegionError(
                f"sum of lower bounds {lower.sum()} must be strictly below the total {total}"
            )
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n(self) -> int:
        return self.lower.size

    def contains(self, rates: np.ndarray, tol: float = 1e-9) -> bool:
        rates = np.asarray(rates, dtype=float)
        if rates.shape != self.lower.shape:
            return False
        return bool(
            np.all(rates >= self.lower - tol)
            and np.all(rates <= self.upper + tol)
            and rates.sum() <= self.total + tol
        )


class CostModel:
    """Vectorised cost evaluator ``values(rates) -> [J_i(rates_i)]``.

    Concrete models must be safe for concurrent read-only evaluation. Costs
    are expected continuous, strictly decreasing, convex and positive on the
    box of the region they are solved over; those properties are what the
    solver's convergence rests on and they are asserted by the test suite,
    not re-checked on every call.
    """

    n: int

    def values(self, rates: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def slope_bounds(self, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-agent (alpha_i, beta_i) slope-magnitude bounds on [lower_i, ub], if known."""
        return None


class AffineCostModel(CostModel):
    """Costs ``J_i(r) = intercept_i - slope_i * r`` with ``slope_i > 0``."""

    def __init__(self, intercepts, slopes):
        self.intercepts = np.atleast_1d(np.asarray(intercepts, dtype=float))
        self.slopes = np.atleast_1d(np.asarray(slopes, dtype=float))
        if self.intercepts.shape != self.slopes.shape:
            raise ValueError("intercepts and slopes must have equal length")
        if np.any(self.slopes <= 0):
            raise ValueError("slopes must be strictly positive (costs strictly decreasing)")
        self.n = self.intercepts.size

    def values(self, rates: np.ndarray) -> np.ndarray:
        rates = np.asarray(rates, dtype=float)
        return self.intercepts - self.slopes * rates

    def slope_bounds(self, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.slopes.copy(), self.slopes.copy()


@dataclass
class SolverConfig:
    """Knobs of the double-loop solver.

    eps0             initial step size of the diminishing schedule
    eta              shrink factor in (0,1); also the initial lower bound
                     installed for agents flagged unstable
    eps_r            inner-loop stopping tolerance on ||r(t) - r(t-1)||
    projection_tol   slack used when testing whether a rate sits on a bound
    """

    eps0: float = 0.1
    eta: float = 0.5
    eps_r: float = 1e-6
    max_inner_iters: int = 100_000
    max_outer_iters: int = 50
    projection_tol: float = 1e-9

    def __post_init__(self):
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly inside (0, 1)")
        if self.eps_r <= 0 or self.projection_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_inner_iters < 1 or self.max_outer_iters < 1:
            raise ValueError("iteration budgets must be at least 1")


@dataclass
class SolverTrace:
    """Per-iteration history of a solve.

    Row ``k`` holds the state after iteration ``iterations[k]``; row 0 is the
    initial point (its residual is NaN). ``outer_events`` records lower-bound
    shrinks as ``(iteration, new_lower_bounds)`` pairs.
    """

    iterations: np.ndarray
    rates: np.ndarray
    costs: np.ndarray
    step_sizes: np.ndarray
    residuals: np.ndarray
    status: str
    outer_events: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])

    def __len__(self) -> int:
        return len(self.iterations)


class _TraceRecorder:
    def __init__(self):
        self.iterations = []
        self.rates = []
        self.costs = []
        self.step_sizes = []
        self.residuals = []
        self.outer_events = []

    def add(self, t, rates, costs, eps, residual):
        self.iterations.append(t)
        self.rates.append(np.array(rates, dtype=float))
        self.costs.append(np.array(costs, dtype=float))
        self.step_sizes.append(float(eps))
        self.residuals.append(float(residual))

    def build(self, status) -> SolverTrace:
        return SolverTrace(
            iterations=np.array(self.iterations, dtype=int),
            rates=np.vstack(self.rates),
            costs=np.vstack(self.costs),
            step_sizes=np.array(self.step_sizes),
            residuals=np.array(self.residuals),
            status=status,
            outer_events=self.outer_events,
        )


def project_feasible(x, region: FeasibleRegion, tol: float = 1e-12) -> np.ndarray:
    """Euclidean projection of ``x`` onto the region.

    Clamping to the box is optimal whenever the clamped point satisfies the
    budget. Otherwise the budget is active and the projection is
    ``clamp(x - lam)`` for the unique multiplier ``lam >= 0`` solving
    ``sum(clamp(x - lam, lb, ub)) = total``; ``lam`` is bracketed on
    ``[0, max(x - lb)]`` and found by bisection (down to ``tol`` or to float
    spacing, whichever is wider), then polished to machine precision by
    solving exactly on the identified free set.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != region.lower.shape:
        raise ValueError(f"point has shape {x.shape}, region expects {region.lower.shape}")
    if not np.isfinite(x).all():
        raise ValueError("cannot project a non-finite point")

    clamped = np.clip(x, region.lower, region.upper)
    if clamped.sum() <= region.total:
        return clamped

    lo, hi = 0.0, float(np.max(x - region.lower))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # float spacing at |x| is wider than tol
            break
        if np.clip(x - mid, region.lower, region.upper).sum() > region.total:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)

    # Active sets are stable once lam is within tol of the root; one exact
    # solve on the free coordinates removes the bisection error entirely.
    for _ in range(x.size + 1):
        shifted = x - lam
        at_lower = shifted <= region.lower
        at_upper = shifted >= region.upper
        free = ~(at_lower | at_upper)
        if not free.any():
            break
        fixed_sum = region.lower[at_lower].sum() + region.upper[at_upper].sum()
        lam_exact = (x[free].sum() + fixed_sum - region.total) / free.sum()
        if lam_exact == lam:
            break
        lam = lam_exact
    return np.clip(x - lam, region.lower, region.upper)


def step_map(r, eps: float, costs: CostModel, region: FeasibleRegion) -> np.ndarray:
    """One projected cost step: ``P(r + eps * J(r))``."""
    if eps <= 0:
        raise ValueError("step size must be positive")
    r = np.asarray(r, dtype=float)
    return project_feasible(r + eps * costs.values(r), region)


def initial_allocation(region: FeasibleRegion) -> np.ndarray:
    """Default start: lower bounds plus an equal share of the slack, capped at ub."""
    slack = (region.total - region.lower.sum()) / region.n
    return np.minimum(region.lower + slack, region.upper)


def _run_inner(r, eps, t, costs, region, cfg, rec):
    """Iterate until the residual drops below eps_r; returns (r, eps, t, status)."""
    values = costs.values(r)
    status = MAX_INNER_ITERS
    for _ in range(cfg.max_inner_iters):
        r_next = project_feasible(r + eps * values, region)
        residual = float(np.linalg.norm(r_next - r))
        values = costs.values(r_next)
        t += 1
        rec.add(t, r_next, values, eps, residual)
        eps = 1.0 / (1.0 / eps + 1.0)
        r = r_next
        if residual <= cfg.eps_r:
            status = CONVERGED
            break
    return r, eps, t, status


def solve_inner(r0, costs: CostModel, region: FeasibleRegion, cfg: SolverConfig):
    """Run the projected iteration from ``r0`` with a fixed region.

    Returns ``(rates, trace)``. Non-convergence within the iteration budget
    is reported through ``trace.status``, never raised.
    """
    r = project_feasible(np.asarray(r0, dtype=float), region)
    rec = _TraceRecorder()
    rec.add(0, r, costs.values(r), cfg.eps0, math.nan)
    r, _, _, status = _run_inner(r, cfg.eps0, 0, costs, region, cfg, rec)
    return r, rec.build(status)


def solve_maxmin(costs: CostModel, region: FeasibleRegion, cfg: SolverConfig, unstable_mask):
    """Double-loop solve with lower-bound management for unstable agents.

    Agents flagged in ``unstable_mask`` have costs that diverge as their rate
    approaches zero, so they start from the floor ``cfg.eta`` (stable agents
    keep the region's own lower bound). After each inner solve, if any
    unstable agent ended up pinned at its floor, every unstable floor is
    shrunk by ``cfg.eta`` and the iteration resumes from the current point;
    the step size keeps diminishing across passes. The loop ends when all
    unstable rates sit strictly above their floors.
    """
    mask = np.atleast_1d(np.asarray(unstable_mask, dtype=bool))
    if mask.size != region.n:
        raise ValueError(f"unstable_mask has length {mask.size}, region expects {region.n}")

    lower = np.where(mask, np.maximum(cfg.eta, region.lower), region.lower)
    # eta may be too generous for tight budgets; pre-shrink until feasible
    while mask.any() and lower.sum() >= region.total and lower[mask].max() > 1e-300:
        lower = np.where(mask, np.maximum(lower * cfg.eta, region.lower), lower)
    work = FeasibleRegion(region.total, lower, region.upper)

    r = initial_allocation(work)
    rec = _TraceRecorder()
    rec.add(0, r, costs.values(r), cfg.eps0, math.nan)

    eps, t = cfg.eps0, 0
    status = MAX_OUTER_ITERS
    for _ in range(cfg.max_outer_iters):
        r, eps, t, inner_status = _run_inner(r, eps, t, costs, region=work, cfg=cfg, rec=rec)
        if inner_status != CONVERGED:
            status = inner_status
            break
        pinned = mask & (r <= work.lower + cfg.projection_tol)
        if not pinned.any():
            status = CONVERGED
            break
        lower = np.where(mask, np.maximum(lower * cfg.eta, region.lower), lower)
        rec.outer_events.append((t, lower.copy()))
        work = FeasibleRegion(region.total, lower, region.upper)
        # shrinking floors only enlarges the region, so r stays feasible
    return r, rec.build(status)


def recover_weights(rates, costs: CostModel, tol: float = 1e-6) -> np.ndarray:
    """Uniform weights over the set of agents within ``tol`` of the maximum cost.

    This is one best response of the weighting player and is reported for
    diagnostics only; the exact equilibrium weights may differ inside the
    argmax face. ``tol`` is relative to the maximum cost (floored at 1).
    """
    values = costs.values(np.asarray(rates, dtype=float))
    vmax = values.max()
    active = values >= vmax - tol * max(abs(vmax), 1.0)
    return active / active.sum()


@dataclass
class EquilibriumReport:
    """Diagnostics of a candidate solution.

    ``active_set_lemma_ok``: whenever some agent sits strictly below the
    maximum cost while holding rate strictly above its lower bound (so it
    could donate resource), every maximum-cost agent must hold its maximum
    allowable resource ``min(total, upper_i)``. A below-max agent already at
    its lower bound has nothing to give and does not trigger the check.
    ``equal_costs_ok``: with every agent active, all costs must agree.
    Both checks are vacuously true when their premise does not hold.
    """

    game_value: float
    active_set: tuple[int, ...]
    recovered_weights: np.ndarray
    fixed_point_residual: float
    active_set_lemma_ok: bool
    equal_costs_ok: bool


def check_equilibrium(
    rates,
    costs: CostModel,
    region: FeasibleRegion,
    eps_probe: float = 1e-3,
    active_tol: float = 1e-6,
    rate_tol: float = 1e-6,
) -> EquilibriumReport:
    """Probe whether ``rates`` is a fixed point and report equilibrium structure."""
    rates = np.asarray(rates, dtype=float)
    values = costs.values(rates)
    vmax = float(values.max())
    scale = max(abs(vmax), 1.0)
    active = np.flatnonzero(values >= vmax - active_tol * scale)

    residual = float(np.linalg.norm(step_map(rates, eps_probe, costs, region) - rates))

    if active.size < region.n:
        below = np.setdiff1d(np.arange(region.n), active)
        donor_exists = bool(np.any(rates[below] > region.lower[below] + rate_tol))
        if donor_exists:
            caps = np.minimum(region.total, region.upper[active])
            lemma_ok = bool(np.all(rates[active] >= caps - rate_tol))
        else:
            lemma_ok = True
        equal_ok = True
    else:
        lemma_ok = True
        equal_ok = bool(vmax - values.min() <= active_tol * scale)

    return EquilibriumReport(
        game_value=vmax,
        active_set=tuple(int(i) for i in active),
        recovered_weights=recover_weights(rates, costs, active_tol),
        fixed_point_residual=residual,
        active_set_lemma_ok=lemma_ok,
        equal_costs_ok=equal_ok,
    )
