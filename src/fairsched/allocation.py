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

On an iteration where the raw step ``eps * J`` would move some coordinate
farther than the box is wide (costs near an unstable agent's floor reach
1e157), the solver steps on ``eps * log1p(J)`` instead; such a step is at
most ~710 eps, and other iterations keep the raw step until the guard has
followed one ``_GUARD_RETURNS`` times. Then it stays on: a raw step at costs
near 1/eps lies outside the contraction range, and such steps and the guard
would otherwise take turns however small eps gets.
The fixed points do not change: ``P(r + s * g(J)) = r`` holds iff ``g(J)``
equals one multiplier ``lam`` on the free agents, is no smaller at upper
bounds and no larger at lower bounds, with ``lam = 0`` where the budget is
slack. That depends only on how ``g`` orders the costs and on its sign,
both of which ``log1p`` keeps for positive costs. ``log`` would not: costs
below 1 would turn negative and make agents give up a slack budget.

``solve_maxmin`` runs the iteration once, over rate floors from a bound on
the game value: no agent holds less at the fair point than the rate at which
its cost reaches the largest cost of a feasible point, and agents whose cost
blows up as the rate approaches zero need such a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CONVERGED",
    "MAX_INNER_ITERS",
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

    Models never change, so concurrent reads are safe. Costs
    are expected continuous, strictly decreasing, convex and positive on the
    box of the region they are solved over; those properties are what the
    solver's convergence rests on and they are asserted by the test suite,
    not re-checked on every call.
    """

    n: int

    def values(self, rates: np.ndarray) -> np.ndarray:
        """The cost of every agent at its rate; rates of any shape but ``(n,)`` raise ``ValueError``."""
        raise NotImplementedError

    def with_floor(self, lower: np.ndarray) -> CostModel:
        """A model of the same costs that evaluates agent ``i`` down to ``lower[i]``; here, this model."""
        return self

    def slope_bounds(self, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-agent (alpha_i, beta_i) slope-magnitude bounds on [lower_i, ub], if known."""
        return None

    def floors_at(self, level: float) -> np.ndarray:
        """Per agent, the rate at which its cost equals ``level``; here zeros, no bound, so that
        :func:`solve_maxmin` keeps such an agent at its start floor even if its fair rate is lower."""
        return np.zeros(self.n)


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
        if rates.shape != (self.n,):
            raise ValueError(f"expected {self.n} rates, got shape {rates.shape}")
        return self.intercepts - self.slopes * rates

    def slope_bounds(self, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.slopes.copy(), self.slopes.copy()


@dataclass
class SolverConfig:
    """Knobs of the solver.

    eps0             initial step size of the diminishing schedule
    eta              in (0,1): the rate floor of agents flagged unstable at
                     the start point, shrunk by the factor ``eta`` until the
                     floors fit the budget
    eps_r            stopping tolerance on ||r(t) - r(t-1)||
    max_inner_iters  iterations a solve may take before it stops with
                     status ``max-inner-iterations``
    """

    eps0: float = 0.1
    eta: float = 0.5
    eps_r: float = 1e-6
    max_inner_iters: int = 100_000

    def __post_init__(self):
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly inside (0, 1)")
        if self.eps_r <= 0:
            raise ValueError("eps_r must be positive")
        if self.max_inner_iters < 1:
            raise ValueError("the iteration budget must be at least 1")


@dataclass
class SolverTrace:
    """Per-iteration history of a solve.

    Row ``k`` holds the state after iteration ``iterations[k]``; row 0 is the
    initial point (its residual is NaN). ``lower`` holds the lower bounds the
    solve ran on, rate floors included.
    """

    iterations: np.ndarray
    rates: np.ndarray
    costs: np.ndarray
    step_sizes: np.ndarray
    residuals: np.ndarray
    status: str
    lower: np.ndarray
    # always empty: floor shrinks are gone, but perfbench/tracing.py still counts these
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
    """Rows ``(iteration, step size, residual, rates, costs)`` in 64 KiB blocks, 8 bytes a value:
    a solve can record ~10^5 rows, and one array object per row would cost several times as much."""

    def __init__(self, rates, costs, eps):
        self.blocks, self.filled = [], 0
        self.add(0, rates, costs, eps, math.nan)  # row 0: the initial point

    def add(self, t, rates, costs, eps, residual):
        n = rates.size
        if not self.blocks or self.filled == len(self.blocks[-1]):
            width = 3 + 2 * n
            self.blocks.append(np.empty((max(1, 8192 // width), width)))
            self.filled = 0
        row = self.blocks[-1][self.filled]
        row[0], row[1], row[2] = t, eps, residual
        row[3:3 + n] = rates
        row[3 + n:] = costs
        self.filled += 1

    def build(self, status, lower) -> SolverTrace:
        """The trace of the rows added, built once: each block is released as soon as it is
        copied, so the blocks and the table are never held whole at the same time."""
        blocks, self.blocks = self.blocks, []
        blocks[-1] = blocks[-1][:self.filled]
        table = np.empty((sum(map(len, blocks)), blocks[0].shape[1]))
        at = 0
        for i, block in enumerate(blocks):
            table[at:at + len(block)] = block
            at += len(block)
            blocks[i] = None
        n = (table.shape[1] - 3) // 2
        return SolverTrace(
            iterations=table[:, 0].astype(int),
            rates=table[:, 3:3 + n],
            costs=table[:, 3 + n:],
            step_sizes=table[:, 1],
            residuals=table[:, 2],
            status=status,
            lower=lower,
        )


def project_feasible(x, region: FeasibleRegion) -> np.ndarray:
    """Euclidean projection of ``x`` onto the region.

    Clamping to the box is optimal whenever the clamped point satisfies the
    budget. Otherwise the projection is ``clamp(x - lam)`` for the multiplier
    solving ``S(lam) = sum(clamp(x - lam, lb, ub)) = total``. ``S`` is piecewise
    linear and nonincreasing with kinks at ``x - ub`` and ``x - lb``: bisecting
    over the sorted kinks finds the segment holding the root in at most
    ``ceil(log2(2n))`` passes, and ``lam`` is solved exactly from the
    coordinates that segment leaves free. If rounding has merged the kinks
    around the root (``|x|`` some 2**52 box widths out) none is free, and the
    segment's feasible end is returned.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != region.lower.shape:
        raise ValueError(f"point has shape {x.shape}, region expects {region.lower.shape}")
    if not np.isfinite(x).all():
        raise ValueError("cannot project a non-finite point")

    lb, ub, total = region.lower, region.upper, region.total
    clamped = x.clip(lb, ub)
    if clamped.sum() <= total:
        return clamped

    # invariant S(kinks[lo]) > total >= S(kinks[hi]): S(min kink) = sum(ub), S(max kink) = sum(lb)
    to_upper, to_lower = x - ub, x - lb
    kinks = np.concatenate((to_upper, to_lower))
    kinks.sort()
    lo, hi = 0, kinks.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (x - kinks[mid]).clip(lb, ub).sum() > total:
            lo = mid
        else:
            hi = mid
    at_lower = to_lower <= kinks[lo]
    at_upper = to_upper >= kinks[hi]
    free = ~(at_lower | at_upper)
    n_free = np.count_nonzero(free)
    if not n_free:  # rounding merged the kinks around the root
        return (x - kinks[hi]).clip(lb, ub)
    fixed_sum = lb[at_lower].sum() + ub[at_upper].sum()
    lam = (x[free].sum() + fixed_sum - total) / n_free
    return (x - lam).clip(lb, ub)


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


_GUARD_RETURNS = 20  # guarded steps that may follow a raw one before every step is guarded


def solve_inner(r0, costs: CostModel, region: FeasibleRegion, cfg: SolverConfig):
    """Run the projected iteration from ``r0`` with a fixed region.

    Iterates until the residual drops below ``eps_r``, guarding steps as the
    module docstring describes. Returns ``(rates, trace)``. Non-convergence
    within the iteration budget is reported through ``trace.status``, never
    raised.
    """
    costs = costs.with_floor(region.lower)
    r = project_feasible(np.asarray(r0, dtype=float), region)
    width = float((region.upper - region.lower).max())
    values = costs.values(r)
    eps = cfg.eps0
    rec = _TraceRecorder(r, values, eps)
    raw, returns = False, 0  # whether the last step was raw; guarded steps that followed a raw one
    for t in range(1, cfg.max_inner_iters + 1):
        step = eps * values
        guarded = returns >= _GUARD_RETURNS or step.max() > width
        if guarded:
            step = eps * np.log1p(values)
            returns += raw
        raw = not guarded
        r_next = project_feasible(r + step, region)
        d = r_next - r
        residual = math.sqrt(d.dot(d))  # np.linalg.norm's own formula, without its wrapper
        values = costs.values(r_next)
        rec.add(t, r_next, values, eps, residual)
        eps = 1.0 / (1.0 / eps + 1.0)
        r = r_next
        if residual <= cfg.eps_r:
            return r, rec.build(CONVERGED, region.lower)
    return r, rec.build(MAX_INNER_ITERS, region.lower)


def solve_maxmin(costs: CostModel, region: FeasibleRegion, cfg: SolverConfig, unstable_mask):
    """One :func:`solve_inner` pass over rate floors that cannot cut off the max-min fair point.

    The start point ``r0`` is :func:`initial_allocation` over start floors: ``cfg.eta`` for the
    agents flagged in ``unstable_mask`` (their costs diverge at rate zero), shrunk by the factor
    ``cfg.eta`` until they fit the budget. Its largest cost ``U`` bounds the game value and every
    cost decreases, so an agent whose cost at ``r0`` is below ``U`` holds at least
    ``costs.floors_at(U)`` at the fair point, and that is its floor (water-filling; Bertsekas &
    Gallager, *Data Networks* §6.5). An agent at ``U`` keeps its start floor: its bound would be
    ``r0_i`` itself, and were every agent tied such floors would fill the budget. So does an agent
    whose bound is 0, which a model that knows no bound gives. ``costs`` is left as it was.
    """
    mask = np.atleast_1d(np.asarray(unstable_mask, dtype=bool))
    if mask.size != region.n:
        raise ValueError(f"unstable_mask has length {mask.size}, region expects {region.n}")

    lower = np.where(mask, np.maximum(cfg.eta, region.lower), region.lower)
    # eta may be too generous for tight budgets; pre-shrink until feasible
    while mask.any() and lower.sum() >= region.total and lower[mask].max() > 1e-300:
        lower = np.where(mask, np.maximum(lower * cfg.eta, region.lower), lower)
    costs = costs.with_floor(lower)
    r0 = initial_allocation(FeasibleRegion(region.total, lower, region.upper))
    values = costs.values(r0)
    level = values.max()
    bound = costs.floors_at(level)
    lower = np.where((values < level) & (bound > 0), np.maximum(region.lower, np.minimum(bound, r0)), lower)
    return solve_inner(r0, costs, FeasibleRegion(region.total, lower, region.upper), cfg)


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
