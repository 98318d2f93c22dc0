"""Shared test utilities: brute-force oracles, fit helpers and a wall-clock bound.

The oracles here are deliberately independent of the library's own numerics:
projections are checked against dense grid search, against the
real-valued bisection they replaced and against a frozen copy of the
sorted-kink bisection whose array work was later trimmed, solver optimality against grid
enumeration of the max-min objective and, for cost curves of any number of
agents, against the water-filling level, the cost model's inverse against
each curve's knots, the batched cost-curve build against
a scalar one-process-at-a-time recursion, the vectorised
distributed round against a node-by-node neighbour-list round, the chunked
Monte Carlo against a step-by-step simulation, the array-pass Monte Carlo
against the per-process loop with ``SeedSequence.spawn`` streams it
replaced, the batched rank tests against one process at a time, the batched config load against the
per-entry load it replaced, the windowed trace recursion against the
recursion that checks its stop rules after every step, the streaming
CSV writer against the per-cell formatting rule it replaced, and the cost
model's values and slope bounds against one curve's own arrays, read one
segment at a time.
"""

from __future__ import annotations

import contextlib
import json
import math
import signal
import sys
from types import SimpleNamespace

import numpy as np

from fairsched import CostCurve, CostDomainError, FeasibleRegion, NumericalError, classify_stability
from fairsched.allocation import CONVERGED, MAX_INNER_ITERS, initial_allocation, project_feasible
from fairsched.config import ConfigError
from fairsched.distributed import DistributedTrace, DualState, GraphError
from fairsched.sensors import _TAIL_TOL, CurveCostModel, _grouped, _traced, stable_mask, threshold_from_rate
from fairsched.simulate import SimResult


def row_ends(model) -> list:
    """Each row's end state in a curve model of processes, the covariances of its last two steps, or None
    where the row stopped for good; read from the model's per-group stacks and its ``_held`` mask."""
    return _row_ends(model._groups, model._ends, model._held)


def _row_ends(groups, stacks, held) -> list:
    """Per row, its stack entry in its group, or None where ``held`` is not set."""
    ends = [None] * len(held)
    for group, stack in zip(groups, stacks):
        for i, end in zip(group.rows.tolist(), stack):
            if held[i]:
                ends[i] = end
    return ends


def prediction_traces(ps, caps, rates, stable=None, max_steps=None, levels=None, starts=None):
    """``sensors._traced`` of a list of processes, one group per shape of ``C``, with one end state per row:
    ``(traces, first, lengths, cumsums, ends)``, where ``ends[i]`` stacks row ``i``'s last two covariances, or
    is None where it stopped for good. ``starts = (depths, ends, sums)`` takes such ends back."""
    groups = _grouped(ps)
    if starts is not None:  # each group's start covariances as one stack
        starts = starts[0], [np.array([starts[1][i] for i in g.rows.tolist()]) for g in groups], starts[2]
    traces, first, lengths, cumsums, stacks, held = _traced(groups, caps, rates, stable, max_steps, levels, starts)
    return traces, first, lengths, cumsums, _row_ends(groups, stacks, held)


@contextlib.contextmanager
def time_limit(seconds, what):
    """Raise ``TimeoutError`` in the block if it runs longer than ``seconds``."""
    def hung(signum, frame):
        raise TimeoutError(f"{what} did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def grid_project(x, region: FeasibleRegion, resolution: float = 1e-3) -> np.ndarray:
    """Brute-force projection oracle: grid-minimize ||x - r|| over the polytope (2-d only)."""
    assert region.n == 2, "grid oracle implemented for two dimensions"
    g0 = np.arange(region.lower[0], region.upper[0] + resolution / 2, resolution)
    g1 = np.arange(region.lower[1], region.upper[1] + resolution / 2, resolution)
    r0, r1 = np.meshgrid(g0, g1, indexing="ij")
    feasible = r0 + r1 <= region.total + 1e-12
    dist = (r0 - x[0]) ** 2 + (r1 - x[1]) ** 2
    dist[~feasible] = np.inf
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return np.array([g0[i], g1[j]])


def reference_project(x, region: FeasibleRegion, tol: float = 1e-12) -> np.ndarray:
    """Projection by bisection on the multiplier, then a polish on the free set.

    The box clamp is returned when it meets the budget. Otherwise ``lam`` is
    bracketed on ``[0, max(x - lb)]`` and bisected down to ``tol`` or to float
    spacing, then re-solved exactly on the free coordinates it identifies
    until it stops moving. Far from the box (``|x|`` some 10**6 box widths
    and more) the result can leave the region, so comparisons check that first.
    """
    x = np.asarray(x, dtype=float)
    clamped = np.clip(x, region.lower, region.upper)
    if clamped.sum() <= region.total:
        return clamped
    lo, hi = 0.0, float(np.max(x - region.lower))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.clip(x - mid, region.lower, region.upper).sum() > region.total:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
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


def reference_kink_project(x, region: FeasibleRegion, branches: list) -> np.ndarray:
    """``project_feasible`` as it stood before its array work was trimmed: bisection over the
    sorted kinks, then the exact multiplier on the free coordinates.

    Kept frozen so that the library's projection can be compared with it bit
    for bit. The name of the return taken is appended to ``branches``:
    ``"clamp"`` (the box clamp meets the budget), ``"merged"`` (rounding
    merged the kinks around the root) or ``"solved"``.
    """
    x = np.asarray(x, dtype=float)
    lb, ub, total = region.lower, region.upper, region.total
    clamped = np.clip(x, lb, ub)
    if clamped.sum() <= total:
        branches.append("clamp")
        return clamped
    kinks = np.sort(np.concatenate([x - ub, x - lb]))
    lo, hi = 0, kinks.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.clip(x - kinks[mid], lb, ub).sum() > total:
            lo = mid
        else:
            hi = mid
    at_lower = x - lb <= kinks[lo]
    at_upper = x - ub >= kinks[hi]
    free = ~(at_lower | at_upper)
    if not free.any():
        branches.append("merged")
        return np.clip(x - kinks[hi], lb, ub)
    branches.append("solved")
    fixed_sum = lb[at_lower].sum() + ub[at_upper].sum()
    lam = (x[free].sum() + fixed_sum - total) / free.sum()
    return np.clip(x - lam, lb, ub)


def grid_maxmin_value(costs, region: FeasibleRegion, resolution: float = 1e-3) -> float:
    """Brute-force optimum of max_i J_i over the region for 2 or 3 agents.

    Exploits monotonicity only in the last coordinate: for fixed leading
    rates, the best last rate is the largest feasible one.
    """
    lb, ub = region.lower, region.upper
    if region.n == 2:
        g0 = np.arange(lb[0], ub[0] + resolution / 2, resolution)
        r1 = np.minimum(ub[1], region.total - g0)
        ok = r1 >= lb[1] - 1e-12
        g0, r1 = g0[ok], np.clip(r1[ok], lb[1], ub[1])
        worst = np.maximum(costs.intercepts[0] - costs.slopes[0] * g0,
                           costs.intercepts[1] - costs.slopes[1] * r1)
        return float(worst.min())
    if region.n == 3:
        g0 = np.arange(lb[0], ub[0] + resolution / 2, resolution)
        g1 = np.arange(lb[1], ub[1] + resolution / 2, resolution)
        r0, r1 = np.meshgrid(g0, g1, indexing="ij")
        r2 = np.minimum(ub[2], region.total - r0 - r1)
        ok = r2 >= lb[2] - 1e-12
        r2 = np.clip(r2, lb[2], ub[2])
        worst = np.maximum.reduce([
            costs.intercepts[0] - costs.slopes[0] * r0,
            costs.intercepts[1] - costs.slopes[1] * r1,
            costs.intercepts[2] - costs.slopes[2] * r2,
        ])
        worst[~ok] = np.inf
        return float(worst.min())
    raise NotImplementedError


def _curve_knots(curve: CostCurve) -> tuple[np.ndarray, np.ndarray]:
    """Rates (decreasing) and costs (increasing) at the kinks of a piecewise-linear curve.

    The curve passes through ``(1/(k+1), cumsums[k]/(k+1))`` for every stored
    ``k``, the mean of the first ``k+1`` traces, and is linear in between; a
    stable curve ends with its affine tail at ``(0, stable_limit)``.
    """
    k = np.arange(curve.traces.size)
    rates, costs = 1.0 / (k + 1.0), curve.cumsums / (k + 1.0)
    if curve.stable_limit is not None:
        rates, costs = np.append(rates, 0.0), np.append(costs, curve.stable_limit)
    return rates, costs


def _inverse_rate(knots, level: float) -> float:
    """The rate at which a curve costs ``level``: inf above its knots, 0 past a stable curve's limit."""
    rates, costs = knots
    if level <= costs[0]:
        return math.inf
    k = int(np.searchsorted(costs, level))  # costs[k-1] < level <= costs[k]
    if k == costs.size:
        assert rates[-1] == 0.0, f"level {level} lies beyond the curve's domain floor"
        return 0.0
    # the share of the segment taken first, so that a level at either knot reads that knot's rate exactly
    return float(rates[k - 1] + (rates[k] - rates[k - 1]) * ((level - costs[k - 1]) / (costs[k] - costs[k - 1])))


def reference_floors_at(curves, level: float) -> np.ndarray:
    """The rate at which each curve costs ``level``, read off its knots and clipped to [0, 1]."""
    return np.array([min(max(_inverse_rate(_curve_knots(curve), level), 0.0), 1.0) for curve in curves])


def solve_level(costs, region: FeasibleRegion) -> float:
    """Max-min fair level of curve costs by water-filling (Bertsekas & Gallager, *Data Networks* §6.5).

    Each curve is inverted exactly per segment from its ``traces``/``cumsums``,
    and the level ``c`` solves ``S(c) = sum(clip(J_i^-1(c), lb_i, ub_i)) = total``
    for the monotone ``S``, by geometric bisection of a bracket. With a slack
    budget every agent takes its upper bound and the level is the largest cost
    there. No solver code is used.
    """
    knots = [_curve_knots(curve) for curve in costs.curves]
    lb, ub = region.lower.tolist(), region.upper.tolist()

    def used(level):
        return sum(min(max(_inverse_rate(k, level), lo), hi) for k, lo, hi in zip(knots, lb, ub))

    at_upper = max(float(np.interp(-min(hi, 1.0), -k[0], k[1])) for k, hi in zip(knots, ub))
    if used(at_upper) <= region.total:
        return at_upper
    # top of the bracket: the lowest cost at which an unstable curve's stored range ends,
    # else the largest stable limit, above which every stable rate is 0
    unstable_tops = [float(c[-1]) for r, c in knots if r[-1] > 0]
    lo, hi = at_upper, min(unstable_tops) if unstable_tops else max(float(c[-1]) for _, c in knots)
    assert used(hi) <= region.total, "the curves do not reach the level; lower their floors"
    while True:  # invariant used(lo) > total >= used(hi)
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            return hi
        if used(mid) > region.total:
            lo = mid
        else:
            hi = mid


def log_linear_fit(ts, values):
    """Least-squares fit of log(values) against ts; returns (slope, r_squared)."""
    ts = np.asarray(ts, dtype=float)
    logs = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(ts, logs, 1)
    pred = slope * ts + intercept
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    return float(slope), 1.0 - ss_res / ss_tot


def random_feasible_point(region: FeasibleRegion, rng) -> np.ndarray:
    """A random point of the region: uniform in the box, then projected."""
    from fairsched import project_feasible

    x = rng.uniform(region.lower, region.upper)
    return project_feasible(x, region)


def random_feasible_cloud(region: FeasibleRegion, rng, count: int) -> np.ndarray:
    """``count`` feasible points, rows of a (count, n) array, no projection needed.

    Box-uniform draws are pulled toward the lower bounds just enough to meet
    the budget: ``r = lb + t (u - lb)`` stays in the box for t in [0, 1] and
    its sum is affine in t.
    """
    u = rng.uniform(region.lower, region.upper, size=(count, region.n))
    lb = region.lower
    excess = u.sum(axis=1) - lb.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(excess > 0, (region.total - lb.sum()) / excess, 1.0)
    t = np.minimum(1.0, 0.999 * t)
    return lb + t[:, None] * (u - lb)


def reference_filter_cov(p, tol: float = 1e-12, max_iters: int = 10**6) -> np.ndarray:
    """Scalar predict-then-update Riccati iteration from ``Pi0`` (zero by default), the update taken as
    ``(I + Xp C' R^-1 C)^-1 Xp``; it stops once no entry moves by more than ``tol`` times the largest."""
    X = np.zeros((p.dim, p.dim)) if p.Pi0 is None else np.array(p.Pi0)
    A, Q, C, R = p.A, p.Q, p.C, p.R_meas
    G = C.T @ np.linalg.solve(R, C)
    for _ in range(max_iters):
        Xp = A @ X @ A.T + Q
        X_new = np.linalg.solve(Xp @ G + np.eye(p.dim), Xp)
        X_new = 0.5 * (X_new + X_new.T)
        if np.abs(X_new - X).max() <= tol * np.abs(X_new).max():
            return X_new
        X = X_new
    raise NumericalError("filter covariance iteration did not converge")


def reference_no_comm_limit(p) -> float:
    """Trace of the solution of ``P = A P A' + Q``, one 2-d Kronecker system per process."""
    d = p.dim
    P = np.linalg.solve(np.eye(d * d) - np.kron(p.A, p.A), p.Q.reshape(d * d))
    return float(np.trace(P.reshape(d, d)))


def reference_cost_curve(p, domain_floor: float, tail_tol: float = 1e-10) -> CostCurve:
    """One process's cost curve from the scalar recursion, one 2-d matrix product per step.

    Same stop rule as ``build_cost_curve``: stop after the segment holding
    the domain floor, or once a stable sequence is within ``tail_tol``
    (relative) of its limit.
    """
    stable = classify_stability(p.A)
    if not stable and domain_floor == 0:
        raise CostDomainError("an unstable process needs a positive rate floor")
    limit = reference_no_comm_limit(p) if stable else None
    xi_cap = max(0, math.floor((1.0 + 1e-12) / domain_floor - 1.0)) if domain_floor > 0 else None
    M = reference_filter_cov(p)
    traces = [float(np.trace(M))]
    tail_cut = None if limit is None else tail_tol * max(limit, 1e-300)
    t = 0
    while True:
        if xi_cap is not None and t >= xi_cap + 1:
            break
        if tail_cut is not None and abs(traces[-1] - limit) <= tail_cut and t >= 1:
            break
        M = p.A @ M @ p.A.T + p.Q
        M = 0.5 * (M + M.T)
        t += 1
        tr = float(np.trace(M))
        if not math.isfinite(tr):
            raise NumericalError(f"trace sequence overflowed at step {t}")
        traces.append(tr)
    traces = np.array(traces)
    return CostCurve(traces=traces, cumsums=np.cumsum(traces), stable_limit=limit, domain_floor=float(domain_floor))


def _reference_xi(r: float) -> int:
    """Threshold index of the segment holding rate ``r``; a reciprocal that overflows takes the largest float."""
    return max(0, math.floor(min((1.0 + 1e-12) / r, sys.float_info.max) - 1.0))


def reference_cost_eval(curve: CostCurve, r: float) -> float:
    """One curve's cost at rate ``r`` from its own arrays, or the error ``cost_eval`` raises."""
    r = float(r)
    if r == 0.0:
        if curve.stable_limit is None:
            raise CostDomainError("rate 0 is outside the domain of an unstable cost curve")
        return curve.stable_limit
    if not 0 <= r <= 1 + 1e-12:  # NaN too
        raise CostDomainError(f"rate must lie in [0, 1], got {r}")
    if r < curve.domain_floor * (1.0 - 1e-9):
        raise CostDomainError(f"rate {r} lies below the curve's domain floor {curve.domain_floor}")

    xi = _reference_xi(min(r, 1.0))
    if xi + 1 < curve.traces.size:
        anchor = curve.traces[xi + 1]
        return float(r * curve.cumsums[xi] + anchor * (1.0 - (xi + 1) * r))
    if curve.stable_limit is None:
        raise CostDomainError(f"rate {r} lies below the curve's domain floor {curve.domain_floor}")
    return float(r * curve.cumsums[-1] + curve.stable_limit * (1.0 - curve.traces.size * r))


def reference_lipschitz_bounds(curve: CostCurve, lb: float) -> tuple[float, float]:
    """One curve's (alpha, beta) on [lb, 1] from a list of its slopes, or the error ``slope_bounds`` raises."""
    lb = float(lb)
    if not 0 <= lb <= 1:  # NaN too
        raise CostDomainError(f"lower bound must lie in [0, 1], got {lb}")
    if lb == 0 and curve.stable_limit is None:
        raise CostDomainError("an unstable curve has no slope bound down to rate 0")
    if lb > 0 and lb < curve.domain_floor * (1.0 - 1e-9):
        raise CostDomainError(f"lower bound {lb} lies below the curve's domain floor {curve.domain_floor}")

    size = curve.traces.size
    stored = curve.cumsums[: size - 1] - np.arange(1, size) * curve.traces[1:]
    if lb > 0:
        xi_lb = _reference_xi(lb)
        slopes = list(stored[: xi_lb + 1])
        if xi_lb + 1 >= size:
            slopes.append(curve.segment_slope(xi_lb))
    else:
        slopes = list(stored)
        slopes.append(curve.segment_slope(size))
    mags = np.abs(np.array(slopes))
    alpha, beta = float(mags.min()), float(mags.max())
    if alpha <= 1e-14:
        raise CostDomainError("cost curve has a flat segment; strict monotonicity is violated")
    return alpha, beta


def reference_node(costs, i, lb: float):
    """Node ``i``'s own best-response inverse and elasticity bound over [lb, 1], from its curve's knots
    (a curve model) or its line (an affine one), one node at a time."""
    if not hasattr(costs, "curves"):
        a, s = float(costs.intercepts[i]), float(costs.slopes[i])
        return (lambda level: (a - level) / s), (a - s * lb) / s
    rates, costs_ = _curve_knots(costs.curves[i])

    def inverse(level):
        if level > costs_[-1]:  # past the stored range: below the box, whose floor the curve covers
            return 0.0
        return _inverse_rate((rates, costs_), level)

    bound = 0.0
    for k in range(rates.size - 1):  # segment k runs from knot k + 1 (left) to knot k (right)
        if rates[k] < lb:
            break
        slope = (costs_[k + 1] - costs_[k]) / (rates[k] - rates[k + 1])
        left = costs_[k + 1] if rates[k + 1] >= lb else costs_[k] + (rates[k] - lb) * slope
        bound = max(bound, left / slope)
    return inverse, bound


def reference_neighbor_lists(graph) -> list[list[int]]:
    """Each node's sorted neighbours, read pair by pair off ``graph.edges``."""
    neighbors = [[] for _ in range(graph.n)]
    for i, j in graph.edges.tolist():
        neighbors[i].append(j)
        neighbors[j].append(i)
    return [sorted(a) for a in neighbors]


def reference_metropolis_weights(graph) -> list[dict]:
    """Node by node: node ``i`` weighs neighbour ``j`` by ``1 / (1 + max(deg_i, deg_j))`` and itself by what
    is left of 1. What is left is summed as numpy sums a row of ``n`` entries, zeros included: from 9 nodes
    up, numpy's pairwise sum and a left-to-right one can part in the last bit."""
    neighbors = reference_neighbor_lists(graph)
    weights = []
    for i in range(graph.n):
        row = {j: 1.0 / (1 + max(len(neighbors[i]), len(neighbors[j]))) for j in neighbors[i]}
        dense = np.zeros(graph.n)
        dense[list(row)] = list(row.values())
        row[i] = 1.0 - dense.sum()
        weights.append(row)
    return weights


def reference_metropolis_matrix(graph) -> np.ndarray:
    """The node-by-node Metropolis weights, written into a dense matrix."""
    W = np.zeros((graph.n, graph.n))
    for i, row in enumerate(reference_metropolis_weights(graph)):
        for j, w in row.items():
            W[i, j] = w
    return W


def reference_connected(graph) -> bool:
    """Breadth-first search from node 0 over the neighbour lists."""
    neighbors = reference_neighbor_lists(graph)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [j for i in frontier for j in neighbors[i] if j not in seen and not seen.add(j)]
    return len(seen) == graph.n


def reference_solve_distributed(
    costs,
    region: FeasibleRegion,
    graph,
    alpha: float = 0.3,
    beta: float = 1.0,
    max_iters: int = 200_000,
    eps_r: float = 1e-6,
    init_lambdas=None,
):
    """``solve_distributed`` node by node, each node reading only its neighbours' values and its own curve.

    Node ``i`` weighs neighbour ``j`` by ``1 / (1 + max(deg_i, deg_j))`` and itself by what is left. Each
    node inverts its own curve on its knots, or its own line, and bounds its own elasticity segment by
    segment; the step reads the largest of those bounds and nothing of the graph. Per round every node
    moves its rate toward its best response to its price, mixes its neighbours' excess estimates twice and
    adds its own change of rate, then mixes its neighbours' log prices twice and steps along its new
    estimate. The residual's norms are ``math.hypot``'s, which no finite change overflows.
    """
    if graph.n != region.n:
        raise GraphError(f"graph has {graph.n} nodes but the region has {region.n} agents")
    n = region.n
    weights = reference_metropolis_weights(graph)

    def mix(values, i):
        return sum(w * values[j] for j, w in sorted(weights[i].items()))

    lb, ub = region.lower.tolist(), region.upper.tolist()
    costs = costs.with_floor(region.lower)
    nodes = [reference_node(costs, i, lb[i]) for i in range(n)]
    step = beta * (2.0 - alpha) / (4.0 * alpha * max(e for _, e in nodes))

    def exp(m):
        try:
            return math.exp(m)
        except OverflowError:
            return math.inf

    r = initial_allocation(region).tolist()
    prices = costs.values(r).tolist()
    if init_lambdas is not None:
        prices = [float(v) if v > 0 else p for v, p in zip(init_lambdas, prices)]
    mu = [math.log(p) for p in prices]
    y = [ri - region.total / n for ri in r]
    slack = sum(ub) <= region.total

    residuals, spreads, mins = [], [], []
    status = MAX_INNER_ITERS
    for _ in range(max_iters):
        targets = [min(max(inverse(p), lo), hi) for (inverse, _), p, lo, hi in zip(nodes, prices, lb, ub)]
        if alpha == 1.0 or (slack and targets == ub):
            r_new = targets
        else:
            r_new = [ri + alpha * (t - ri) for ri, t in zip(r, targets)]
        once = [mix(y, i) for i in range(n)]
        y = [mix(once, i) + r_new[i] - r[i] for i in range(n)]
        once = [mix(mu, i) for i in range(n)]
        mu = [mix(once, i) + step * y[i] for i in range(n)]
        new = [exp(m) for m in mu]

        residual = math.hypot(*(a - b for a, b in zip(r_new, r))) + math.hypot(*(a - b for a, b in zip(new, prices)))
        r, prices = r_new, new
        residuals.append(residual)
        spreads.append(max(prices) - min(prices))
        mins.append(min(prices))
        if not math.isfinite(residual):
            raise NumericalError("distributed iteration diverged (a price or the residual is not finite)")
        if residual <= eps_r or (slack and r == ub):
            status = CONVERGED
            break

    r, prices = np.array(r), np.array(prices)
    trace = DistributedTrace(
        residuals=np.array(residuals), lambda_spreads=np.array(spreads), lambda_mins=np.array(mins), status=status
    )
    return project_feasible(r, region), DualState(lambdas=prices, rates=r), trace


def reference_rank_failure(p) -> str | None:
    """One process's observability and controllability rank tests, 2-d matrices only."""
    n = p.dim
    obs = np.vstack([p.C @ np.linalg.matrix_power(p.A, k) for k in range(n)])
    if np.linalg.matrix_rank(obs) < n:
        return "(A, C) is not observable"
    vals, vecs = np.linalg.eigh(0.5 * (p.Q + p.Q.T))
    sq = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    ctr = np.hstack([np.linalg.matrix_power(p.A, k) @ sq for k in range(n)])
    if np.linalg.matrix_rank(ctr) < n:
        return "(A, sqrt(Q)) is not controllable"
    return None


def _reference_check_symmetric_psd(M, name, definite):
    if not (np.abs(M - M.T) <= 1e-9 + 1e-5 * np.abs(M.T)).all():
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if definite and eigs.min() <= 0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {eigs.min():.3g})")
    if not definite and eigs.min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue {eigs.min():.3g})")


def reference_process(A, Q, C=None, R_meas=None, Pi0=None) -> SimpleNamespace:
    """The fields of one ``ProcessModel``, converted and checked one matrix at a time.

    Read-only float arrays of at least two dimensions, ``C`` and ``R_meas``
    defaulting to identities; ``ValueError`` names the first failed check.
    """
    A = np.atleast_2d(np.array(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    n = A.shape[0]
    Q = np.atleast_2d(np.array(Q, dtype=float))
    C = np.eye(n) if C is None else np.atleast_2d(np.array(C, dtype=float))
    R = np.eye(C.shape[0]) if R_meas is None else np.atleast_2d(np.array(R_meas, dtype=float))
    Pi0 = None if Pi0 is None else np.atleast_2d(np.array(Pi0, dtype=float))
    for name, arr in (("A", A), ("Q", Q), ("C", C), ("R_meas", R), ("Pi0", Pi0)):
        if arr is not None and not np.isfinite(arr).all():
            raise ValueError(f"{name} must have finite entries (NaN or infinity found)")
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
    if C.shape[1] != n:
        raise ValueError(f"C must have {n} columns, got {C.shape}")
    if R.shape != (C.shape[0], C.shape[0]):
        raise ValueError(f"R_meas must be {C.shape[0]}x{C.shape[0]}, got {R.shape}")
    _reference_check_symmetric_psd(Q, "Q", definite=False)
    _reference_check_symmetric_psd(R, "R_meas", definite=True)
    if Pi0 is not None:
        if Pi0.shape != (n, n):
            raise ValueError(f"Pi0 must be {n}x{n}, got {Pi0.shape}")
        _reference_check_symmetric_psd(Pi0, "Pi0", definite=False)
    for arr in (A, Q, C, R, Pi0):
        if arr is not None:
            arr.setflags(write=False)
    return SimpleNamespace(A=A, Q=Q, C=C, R_meas=R, Pi0=Pi0, dim=n)


def _reference_matrix(entry, key, idx, optional=False):
    if key not in entry:
        if optional:
            return None
        raise ConfigError(f"processes[{idx}]: missing required matrix '{key}'")
    value = entry[key]
    if not (isinstance(value, list) and value and all(isinstance(row, list) for row in value)):
        raise ConfigError(f"processes[{idx}]: '{key}' must be a non-empty row-major nested list")
    for row in value:
        for cell in row:
            if isinstance(cell, (str, bool)):
                raise ConfigError(f"processes[{idx}]: '{key}' must hold numbers only, got {json.dumps(cell)}")
    return value


def reference_build_processes(entries) -> list:
    """A config's ``processes`` list built one entry at a time, each converted and checked in full.

    The first entry that fails ends the loop; the rank tests
    (:func:`reference_rank_failure`) then run over the entries before it,
    so a rank failure before it is named instead. Each message names the
    index once.
    """
    processes, error = [], None
    for idx, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise ConfigError(f"processes[{idx}] must be an object")
            matrices = dict(
                A=_reference_matrix(entry, "A", idx),
                Q=_reference_matrix(entry, "Q", idx),
                C=_reference_matrix(entry, "C", idx, optional=True),
                R_meas=_reference_matrix(entry, "R", idx, optional=True),
                Pi0=_reference_matrix(entry, "Pi0", idx, optional=True),
            )
            try:
                processes.append(reference_process(**matrices))
            except ValueError as exc:
                raise ConfigError(f"processes[{idx}]: {exc}") from exc
        except ConfigError as exc:
            error = exc
            break
    for i, p in enumerate(processes):
        reason = reference_rank_failure(p)
        if reason is not None:
            raise ConfigError(f"processes[{i}]: {reason}")
    if error is not None:
        raise error
    return processes


def reference_prediction_traces(ps, caps, rates, stable=None, tail_tol: float = 0.0):
    """:func:`prediction_traces` with every stop rule checked after every step.

    Processes are batched by the shape of ``C``; the filter steady states and
    the no-communication limits come from :func:`reference_filter_cov` and
    :func:`reference_no_comm_limit`. A process leaves the batch at the first
    step that meets a stop rule; a non-finite trace raises at once, naming
    the first process in the batch that has one.
    """
    ps = list(ps)
    caps, rates = np.asarray(caps, dtype=float), np.asarray(rates, dtype=float)
    stable = np.zeros(len(ps), dtype=bool) if stable is None else np.asarray(stable, dtype=bool)
    limits = np.full(len(ps), np.nan)
    lengths = np.empty(len(ps), dtype=np.intp)
    groups = {}
    for i, p in enumerate(ps):
        groups.setdefault(p.C.shape, []).append(i)
    blocks = []
    for group in map(np.array, groups.values()):
        members = [ps[i] for i in group]
        A, Q, s = np.stack([p.A for p in members]), np.stack([p.Q for p in members]), stable[group]
        for i in group[s]:
            limits[i] = reference_no_comm_limit(ps[i])
        rows, cap, limit = group, caps[group], limits[group]
        M = np.stack([reference_filter_cov(p) for p in members])
        cut = tail_tol * np.maximum(limit, 1e-300)
        tails = bool(s.any())
        tr = np.trace(M, axis1=1, axis2=2)
        steps, t0 = [tr], 0
        prev, prev_tr = back, back_tr = M, tr
        t = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                stop = t > cap
                if t and tails:
                    stop |= np.abs(tr - limit) <= cut
                if t >= 2:
                    again = tr == back_tr
                    if again.any():
                        stop[again] |= (M[again] == back[again]).all(axis=(1, 2))
                if stop.any() or len(steps) == 1024:
                    blocks.append((t0, rows, np.stack(steps)))
                    steps, t0 = [], t + 1
                    lengths[rows[stop]] = t + 1
                    keep = ~stop
                    rows, A, Q, M, tr, prev, prev_tr, cap, limit, cut = (
                        x[keep] for x in (rows, A, Q, M, tr, prev, prev_tr, cap, limit, cut)
                    )
                    if not rows.size:
                        break
                back, back_tr, prev, prev_tr = prev, prev_tr, M, tr
                M = A @ M @ A.swapaxes(-1, -2) + Q
                M = 0.5 * (M + M.swapaxes(-1, -2))
                t += 1
                tr = np.trace(M, axis1=1, axis2=2)
                finite = np.isfinite(tr)
                if not finite.all():
                    rate = rates[rows[~finite][0]]
                    raise NumericalError(f"trace sequence overflowed at step {t}; the rate {rate} is too small")
                steps.append(tr)

    first = np.cumsum(lengths + 1) - (lengths + 1)
    traces = np.empty(int((lengths + 1).sum()))
    for t0, rows, block in blocks:
        traces[first[rows] + np.arange(t0, t0 + len(block))[:, None]] = block
    traces[first + lengths] = limits
    return traces, first, lengths


def reference_run_cycles(p, pbar, policy, horizon: int, rng) -> tuple[float, int]:
    """(total error, transmissions) of the covariance recursion run one step at a time.

    Each cycle draws one ``rng.random()`` when it starts; the fusion center's
    covariance is propagated by the recursion itself and its trace summed
    step by step.
    """
    xi, b = policy.xi, policy.b
    P, age, u = pbar, 0, rng.random()
    err_sum, n_tx = 0.0, 0
    for _ in range(horizon):
        err_sum += float(np.trace(P))
        if age == xi + 1 or (age == xi and u < b):
            n_tx += 1
            P, age, u = pbar, 0, rng.random()
        else:
            P = p.A @ P @ p.A.T + p.Q
            P = 0.5 * (P + P.T)
            age += 1
    return err_sum, n_tx


def reference_simulate_allocation(ps, rates, horizon: int, seed: int = 0) -> list:
    """``simulate_allocation`` one process at a time, as it ran before its array passes: a
    ``SeedSequence(seed).spawn`` child and a closure over each curve's running sums per process, and the
    error summed from Python-int cycle counts. The simulator matches it bit for bit."""

    def summed(seq, sums, limit=None):
        tail = limit is not None and abs(seq[-1] - limit) <= _TAIL_TOL * max(limit, 1e-300)

        def total(k):
            if k <= seq.size:
                return sums[k - 1] if k else 0.0
            m = k - seq.size
            if tail:
                return sums[-1] + m * limit
            return sums[-1] + ((m + 1) // 2) * seq[-2] + (m // 2) * seq[-1]

        return total

    def run_cycles(total, policy, rng):
        xi, b = policy.xi, policy.b
        short_len, long_len = xi + 1, xi + 2
        n_short = n_long = 0
        done = 0
        while m := (horizon - done) // long_len:
            k_short = int(rng.binomial(m, b))
            n_short += k_short
            n_long += m - k_short
            done += m * long_len - k_short
        if done + short_len <= horizon and rng.random() < b:
            n_short += 1
            done += short_len
        err_sum = (n_short * total(min(short_len, horizon)) + n_long * total(min(long_len, horizon))
                   + total(horizon - done))
        return float(err_sum), n_short + n_long

    rates = np.asarray(rates, dtype=float)
    idle = np.flatnonzero(rates == 0.0)
    refused = idle[~stable_mask([ps[i].A for i in idle.tolist()])]
    if refused.size:
        raise CostDomainError(f"process {refused[0]} is unstable and cannot run at rate 0: its error is unbounded")
    children = np.random.SeedSequence(seed).spawn(len(ps))
    policies = [None if r == 0.0 else threshold_from_rate(r) for r in rates.tolist()]
    model = CurveCostModel.from_floors(ps, np.minimum(rates, 1.0))
    costs, totals = model.values(rates).tolist(), [summed(c.traces, c.cumsums, c.stable_limit) for c in model.curves]
    results = []
    for i, (cost, total, policy, child) in enumerate(zip(costs, totals, policies, children)):
        with np.errstate(over="ignore", invalid="ignore"):
            err_sum, n_tx = ((total(horizon), 0) if policy is None
                             else run_cycles(total, policy, np.random.default_rng(child)))
        if not np.isfinite(err_sum):
            raise NumericalError(f"the simulated error sum of process {i} overflowed; the model is ill posed")
        results.append(SimResult(n_tx / horizon, float(err_sum) / horizon, cost, horizon, seed))
    return results


def reference_trace_table(p, pbar, upto: int, lag: int = 1) -> tuple[np.ndarray, int | None]:
    """Tr(P) after 0..upto prediction steps, stepping the recursion every time, and the
    first step whose covariance equals the one ``lag`` steps before it bit for bit (None
    if none does)."""
    Ms, repeat = [pbar], None
    for t in range(1, upto + 1):
        M = p.A @ Ms[-1] @ p.A.T + p.Q
        M = 0.5 * (M + M.T)
        if repeat is None and t >= lag and np.array_equal(M, Ms[-lag]):
            repeat = t
        Ms.append(M)
    return np.array([float(np.trace(M)) for M in Ms]), repeat


def reference_trace_sum(p, pbar, horizon: int, settle: int = 1000) -> float:
    """``math.fsum`` of Tr(P) over the first ``horizon`` prediction steps.

    The recursion is stepped ``settle`` times, by which the covariance must
    equal the one two steps back; from there the deterministic recursion
    repeats its last two traces, which fill the rest of the ``horizon``
    terms before the exact sum.
    """
    ref, repeat = reference_trace_table(p, pbar, settle, lag=2)
    assert repeat is not None, "the covariance did not settle into period 1 or 2"
    head = ref[:repeat + 1]
    tail = np.resize(head[-2:], max(horizon - head.size, 0))
    return math.fsum(np.concatenate([head, tail])[:horizon].tolist())


def reference_csv_bytes(schema: str, header: list[str], rows) -> bytes:
    """The CSV cell rule cell by cell: Python and numpy floats and Python ints print as
    ``repr(float(v))``, anything else (numpy ints) as ``str(v)``."""
    lines = [f"# fairsched {schema} v1", ",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v) for v in row
        ))
    return ("\n".join(lines) + "\n").encode()
