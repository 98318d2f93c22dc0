"""Max-min fair resource allocation via projected cost dynamics.

Each agent carries a strictly decreasing, convex, positive cost as a function
of its allocated rate. The solver looks for the allocation that minimises the
largest cost over the budget polytope ``{r : sum(r) <= total, lb <= r <= ub}``.

The paper's update is

    r(t+1) = P(r(t) + eps(t) * J(r(t)))

where ``J`` is the elementwise cost vector and ``P`` the Euclidean projection
onto the polytope: expensive agents pull resource toward themselves, cheap
agents donate, and the projection settles the exchange. Fixed points of this
map are max-min fair allocations. The step size follows the diminishing rule
``eps <- 1 / (1/eps + 1)`` so that it eventually enters the contraction range
without prior knowledge of the cost slopes. :func:`solve_inner` runs it.

On an iteration where the raw step ``eps * J`` would move some coordinate
farther than the box is wide (costs near an unstable agent's floor reach
1e157), :func:`solve_inner` steps on ``eps * log1p(J)`` instead; such a step is
at most ~710 eps, with eps capped at the float maximum / 710 so that it stays
finite. Other iterations keep the raw step until the guard has followed one
``_GUARD_RETURNS`` times. Then it stays on: a raw step at costs
near 1/eps lies outside the contraction range, and such steps and the guard
would otherwise take turns however small eps gets.
The fixed points do not change: ``P(r + s * g(J)) = r`` holds iff ``g(J)``
equals one multiplier ``lam`` on the free agents, is no smaller at upper
bounds and no larger at lower bounds, with ``lam = 0`` where the budget is
slack. That depends only on how ``g`` orders the costs and on its sign,
both of which ``log1p`` keeps for positive costs. ``log`` would not: costs
below 1 would turn negative and make agents give up a slack budget.

The paper's step contracts only while ``eps * |J_i'| < 2`` for every agent at
once, so the steepest curve sets eps for all of them. :func:`solve_maxmin`
takes the slope-scaled step instead,

    r(t+1) = clip(r + D (J(r) - lam), lb, ub),   D = diag(1 / |J_i'(r_i)|),

with ``lam`` the multiplier that meets the budget (0 where the clipped point
leaves it slack). Its fixed points are the same: free agents share the cost
``lam``. It is the projected Newton method (Bertsekas, *SIAM J. Control
Optim.* 20(2), 1982); on piecewise-linear convex costs it lands on the
water-filling level in a few steps. It needs the slopes of
:meth:`CostModel.values_and_slopes`; for a model that gives none, or where a
slope is zero or not finite, the solve runs :func:`solve_inner` instead.

``solve_maxmin`` runs over rate floors from a bound on the game value: no
agent holds less at the fair point than the rate at which its cost reaches
the largest cost of a feasible point, and agents whose cost blows up as the
rate approaches zero need such a floor.
"""

from __future__ import annotations

import math
import sys
from array import array
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

    def values_and_slopes(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(values(rates), slopes)``, ``slopes[i]`` the magnitude of agent ``i``'s cost slope at its rate, on
        the segment its value is read on; here no slopes (None), so :func:`solve_maxmin` runs
        :func:`solve_inner` on this model."""
        return self.values(rates), None

    def with_floor(self, lower: np.ndarray) -> CostModel:
        """A model of the same costs that evaluates agent ``i`` down to ``lower[i]``; here, this model."""
        return self

    def slope_bounds(self, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-agent (alpha_i, beta_i) slope-magnitude bounds on [lower_i, ub], if known."""
        return None

    def elasticity_bounds(self, lower: np.ndarray) -> np.ndarray | None:
        """Per agent, a bound on the elasticity ``J_i / |J_i'|`` over [lower_i, 1], if known. Here the cost at
        ``lower`` over the smallest slope magnitude of :meth:`slope_bounds`, or None without those bounds."""
        bounds = self.slope_bounds(lower)
        return None if bounds is None else self.values(lower) / bounds[0]

    def floors_at(self, level: float) -> tuple[np.ndarray, CostModel]:
        """``(floors, model)``: per agent, a rate at or below the one at which its cost equals ``level``,
        and a model that covers it (one a model extended to find it hands back). Here :meth:`rates_at` at
        ``level`` for every agent, and this model. The floor is 0, no bound, where the cost stays below
        ``level`` down to a rate of 2**-64."""
        return self.rates_at(level), self

    def rates_at(self, levels) -> np.ndarray:
        """Per agent, the rate in [0, 1] at which its cost equals ``levels[i]`` (a scalar serves every agent).
        Here the lower end of a bracket around that rate, narrowed by bisecting [0, 1] on :meth:`values` for
        all agents at once (``values`` is never asked at rate 0); the cost there is at least the level. It is
        0 where the cost stays below the level down to a rate of 2**-64."""
        lo, hi = np.zeros(self.n), np.ones(self.n)
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            above = self.values(mid) >= levels
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        return lo


_BISECTIONS = 64  # halvings of [0, 1] in CostModel.rates_at; its brackets end 2**-64 wide


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

    def values_and_slopes(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The costs at ``rates`` and ``slopes`` itself, the same at every rate."""
        return self.values(rates), self.slopes

    def slope_bounds(self, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.slopes.copy(), self.slopes.copy()

    def floors_at(self, level: float) -> tuple[np.ndarray, AffineCostModel]:
        """Zeros, no bound, and this model: an affine cost is finite at rate 0; its agents need no rate floor."""
        return np.zeros(self.n), self

    def rates_at(self, levels) -> np.ndarray:
        """The exact inverse ``(intercepts - levels) / slopes``, at any rate: the line has no domain to clip to."""
        return (self.intercepts - levels) / self.slopes


@dataclass
class SolverConfig:
    """Knobs of the solver.

    eps0             initial step size of the diminishing schedule; it moves
                     the point only in :func:`solve_inner`, which
                     :func:`solve_maxmin` runs on a model without slopes, and
                     is recorded in ``SolverTrace.step_sizes`` either way
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

    Row ``k`` holds the state after iteration ``k``; row 0 is the initial point
    (its residual is NaN). The arrays are views of one table grown a row per
    iteration run. ``lower`` holds the lower bounds the solve ran on, rate floors
    included. ``model`` is the cost model the solve evaluated, which covers
    ``lower``: costs at the solve's rates, and slope bounds down to ``lower``,
    are read from it without extending a model again.
    """

    rates: np.ndarray
    costs: np.ndarray
    step_sizes: np.ndarray
    residuals: np.ndarray
    status: str
    lower: np.ndarray
    model: CostModel
    # always empty: floor shrinks are gone, but perfbench/tracing.py still counts these
    outer_events: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def iterations(self) -> np.ndarray:
        """The iteration of each row: row ``k`` is iteration ``k``."""
        return np.arange(len(self))

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])

    def __len__(self) -> int:
        return len(self.residuals)


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
    return _projection(x, np.ones(x.size), region)


def _projection(x: np.ndarray, weights: np.ndarray, region: FeasibleRegion) -> np.ndarray:
    """``clamp(x - weights * lam, lb, ub)`` for a finite float ``x`` of the region's shape and finite positive
    ``weights``: ``lam = 0`` where clamping fits the budget, else the root of
    ``sum(clamp(x - weights * lam, lb, ub)) = total``, found as :func:`project_feasible` describes over the
    kinks ``(x - ub) / weights`` and ``(x - lb) / weights``. Unit weights give the Euclidean projection:
    dividing and multiplying by 1, and counting the free coordinates by a dot product with ones, are exact."""
    lb, ub, total = region.lower, region.upper, region.total
    clamped = x.clip(lb, ub)
    if clamped.sum() <= total:
        return clamped

    to_upper, to_lower = (x - ub) / weights, (x - lb) / weights
    # invariant S(kinks[lo]) > total >= S(kinks[hi]): S(min kink) = sum(ub), S(max kink) = sum(lb)
    kinks = np.concatenate((to_upper, to_lower))
    kinks.sort()
    lo, hi = 0, kinks.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (x - weights * kinks[mid]).clip(lb, ub).sum() > total:
            lo = mid
        else:
            hi = mid
    at_lower = to_lower <= kinks[lo]
    at_upper = to_upper >= kinks[hi]
    free = ~(at_lower | at_upper)
    if not free.any():  # rounding merged the kinks around the root
        return (x - weights * kinks[hi]).clip(lb, ub)
    fixed_sum = lb[at_lower].sum() + ub[at_upper].sum()
    lam = (x[free].sum() + fixed_sum - total) / weights.dot(free)
    return (x - weights * lam).clip(lb, ub)


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
# the largest step size a guarded step takes: log1p of a float is below 710, so the step stays finite
_GUARDED_EPS_MAX = sys.float_info.max / 710


def _iterate(r, read, step, region: FeasibleRegion, model: CostModel, cfg: SolverConfig):
    """Iterate ``r <- step(r, values, slopes, eps)`` from the feasible point ``r``, with ``(values, slopes) =
    read(r)`` and ``eps`` on the diminishing schedule from ``cfg.eps0``, until the residual
    ``||r(t) - r(t-1)||`` drops to ``cfg.eps_r`` or ``cfg.max_inner_iters`` steps have run. Returns
    ``(rates, trace)`` over ``region`` and ``model``, or None as soon as a step returns None. The trace's
    memory follows the iterations run."""
    rows = array("d")  # one row an iteration: step size, residual, rates, costs

    def record(eps, residual, rates, values):
        rows.extend((eps, residual))
        rows.frombytes(rates.tobytes())
        rows.frombytes(np.asarray(values, dtype=float).tobytes())  # 8 bytes a cost, whatever values returns

    values, slopes = read(r)
    eps = cfg.eps0
    record(eps, math.nan, r, values)  # row 0: the initial point
    status = MAX_INNER_ITERS
    for _ in range(cfg.max_inner_iters):
        r_next = step(r, values, slopes, eps)
        if r_next is None:
            return None
        d = r_next - r
        residual = math.sqrt(d.dot(d))  # np.linalg.norm's own formula, without its wrapper
        values, slopes = read(r_next)
        record(eps, residual, r_next, values)
        eps = 1.0 / (1.0 / eps + 1.0)
        r = r_next
        if residual <= cfg.eps_r:
            status = CONVERGED
            break
    table = np.frombuffer(rows).reshape(-1, 2 + 2 * r.size)
    rates, values = np.hsplit(table[:, 2:], 2)
    trace = SolverTrace(rates=rates, costs=values, step_sizes=table[:, 0], residuals=table[:, 1],
                        status=status, lower=region.lower, model=model)
    return r, trace


def solve_inner(r0, costs: CostModel, region: FeasibleRegion, cfg: SolverConfig):
    """Run the paper's projected iteration from ``r0`` with a fixed region.

    Iterates until the residual drops below ``eps_r``, guarding steps as the
    module docstring describes, on ``costs.with_floor(region.lower)``, which
    ``trace.model`` holds. Returns ``(rates, trace)``. Non-convergence
    within the iteration budget is reported through ``trace.status``, never
    raised. ``cfg.max_inner_iters`` only caps the loop: the trace's memory
    follows the iterations run.
    """
    costs = costs.with_floor(region.lower)
    width = float((region.upper - region.lower).max())
    raw, returns = False, 0  # whether the last step was raw; guarded steps that followed a raw one

    def step(r, values, _, eps):
        nonlocal raw, returns
        # a Python float product overflows to inf silently, where eps * values would warn
        guarded = returns >= _GUARD_RETURNS or eps * float(values.max()) > width
        if guarded:
            move = min(eps, _GUARDED_EPS_MAX) * np.log1p(values)
            returns += raw
        else:
            move = eps * values
        raw = not guarded
        return project_feasible(r + move, region)

    return _iterate(project_feasible(r0, region), lambda r: (costs.values(r), None), step, region, costs, cfg)


def solve_maxmin(costs: CostModel, region: FeasibleRegion, cfg: SolverConfig, unstable_mask):
    """The slope-scaled iteration of the module docstring over rate floors that cannot cut off the max-min
    fair point.

    The start point ``r0`` is :func:`initial_allocation` over start floors: ``cfg.eta`` for the
    agents flagged in ``unstable_mask`` (their costs diverge at rate zero), shrunk by the factor
    ``cfg.eta`` until they fit the budget. Its largest cost ``U`` bounds the game value and every
    cost decreases, so each agent holds at least its rate from ``costs.floors_at(U)``, capped at
    ``r0_i``, at the fair point (water-filling; Bertsekas & Gallager, *Data Networks* §6.5). That is the
    floor of every agent whose cost at ``r0`` is below ``U``, and of every unstable agent at ``U``,
    whose bound is its start rate ``r0_i``. A stable agent at ``U`` keeps its start floor, the region's
    bound, as its curve is built to its tail anyway. If no agent's cost lies below ``U``, every agent
    keeps its start floor: floors at ``r0`` would fill the budget. So does an agent whose bound is 0,
    which a model gives where it knows no bound.

    From ``r0``, each step reads ``costs.values_and_slopes`` and solves the weighted projection for the
    multiplier that meets the budget. It stops on :func:`solve_inner`'s rule, ``eps_r`` and
    ``max_inner_iters``, and records the same trace; ``trace.step_sizes`` holds the paper's schedule
    from ``cfg.eps0``, which the step does not read. The one fallback: on a model that gives no slopes,
    or at an iterate where a slope is zero or not finite, the whole solve is :func:`solve_inner` from
    ``r0`` over the same floors and model, the paper's step with its log1p guard.

    ``costs`` is extended along one chain, only as deep as the solve reads it: down to ``r0`` before
    ``J(r0)`` is read, by ``floors_at`` to ``U``, then down to the final floors; a curve model continues
    each row where the last extension stopped it. ``costs`` itself is left as it was; ``trace.model`` is
    the extended model.
    """
    mask = np.atleast_1d(np.asarray(unstable_mask, dtype=bool))
    if mask.size != region.n:
        raise ValueError(f"unstable_mask has length {mask.size}, region expects {region.n}")

    lower = np.where(mask, np.maximum(cfg.eta, region.lower), region.lower)
    # eta may be too generous for tight budgets; pre-shrink until feasible
    while mask.any() and lower.sum() >= region.total and lower[mask].max() > 1e-300:
        lower = np.where(mask, np.maximum(lower * cfg.eta, region.lower), lower)
    r0 = initial_allocation(FeasibleRegion(region.total, lower, region.upper))
    costs = costs.with_floor(r0)
    values = costs.values(r0)
    level = values.max()
    bound, costs = costs.floors_at(level)
    below = values < level
    raised = (below | (mask & below.any())) & (bound > 0)
    lower = np.where(raised, np.maximum(region.lower, np.minimum(bound, r0)), lower)
    floored = FeasibleRegion(region.total, lower, region.upper)
    costs = costs.with_floor(lower)

    def scaled(r, values, slopes, _):
        if slopes is None:
            return None
        weights = 1.0 / slopes
        x = r + weights * values
        # a NaN, infinite, negative or zero slope makes a weight NaN, 0 or negative, or x not finite
        if not (weights.min() > 0 and math.isfinite(x.sum())):
            return None
        return _projection(x, weights, floored)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a bad slope gives up the step
        solved = _iterate(project_feasible(r0, floored), costs.values_and_slopes, scaled, floored, costs, cfg)
    return solve_inner(r0, costs, floored, cfg) if solved is None else solved


@dataclass
class EquilibriumReport:
    """Diagnostics of a candidate solution.

    ``recovered_weights``: uniform over ``active_set``, one best response of
    the weighting player, for diagnostics only; the exact equilibrium weights
    may differ inside the argmax face. ``active_set_lemma_ok``: whenever some
    agent sits strictly below the maximum cost while holding rate strictly
    above its lower bound (so it could donate resource), every maximum-cost
    agent must hold its maximum allowable resource ``min(total, upper_i)``.
    A below-max agent already at its lower bound has nothing to give and does
    not trigger the check.
    ``equal_costs_ok``: with every agent active, all costs must agree.
    Both checks are vacuously true when their premise does not hold.
    ``fixed_point_residual``: ``||P(r + s J(r)) - r||`` at the probe step
    ``s = max(ub - lb) / max J``, not at any solver's step size.
    """

    game_value: float
    active_set: tuple[int, ...]
    recovered_weights: np.ndarray
    fixed_point_residual: float
    active_set_lemma_ok: bool
    equal_costs_ok: bool


# a rate within this of a bound counts as at it; the default solve resolves rates to eps_r = 1e-6
_RATE_TOL = 1e-6


def check_equilibrium(
    rates,
    costs: CostModel,
    region: FeasibleRegion,
    active_tol: float = 1e-6,
) -> EquilibriumReport:
    """Probe whether ``rates`` is a fixed point of ``P(r + s J)``, the same for every ``s > 0``, and report
    equilibrium structure. ``s = max(ub - lb) / max J``, :func:`solve_inner`'s guard bound, keeps the raw
    move within the widest box; a box of width 0 has residual 0."""
    rates = np.asarray(rates, dtype=float)
    values = costs.values(rates)
    vmax = float(values.max())
    scale = max(abs(vmax), 1.0)
    top = values >= vmax - active_tol * scale
    active = np.flatnonzero(top)

    width = float((region.upper - region.lower).max())
    residual = float(np.linalg.norm(step_map(rates, width / vmax, costs, region) - rates)) if width > 0 else 0.0

    if active.size < region.n:
        below = np.setdiff1d(np.arange(region.n), active)
        donor_exists = bool(np.any(rates[below] > region.lower[below] + _RATE_TOL))
        if donor_exists:
            caps = np.minimum(region.total, region.upper[active])
            lemma_ok = bool(np.all(rates[active] >= caps - _RATE_TOL))
        else:
            lemma_ok = True
        equal_ok = True
    else:
        lemma_ok = True
        equal_ok = bool(vmax - values.min() <= active_tol * scale)

    return EquilibriumReport(
        game_value=vmax,
        active_set=tuple(int(i) for i in active),
        recovered_weights=top / top.sum(),
        fixed_point_residual=residual,
        active_set_lemma_ok=lemma_ok,
        equal_costs_ok=equal_ok,
    )
