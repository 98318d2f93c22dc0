"""Shared test utilities: brute-force oracles, fit helpers and a wall-clock bound.

The oracles here are deliberately independent of the library's own numerics:
projections are checked against dense grid search and against the
real-valued bisection they replaced, solver optimality against grid
enumeration of the max-min objective, the batched cost-curve build against
a scalar one-process-at-a-time recursion, the vectorised
distributed round against a node-by-node neighbour-list round, the chunked
Monte Carlo against a step-by-step simulation, the batched rank tests
against one process at a time, and the streaming CSV writer against the
per-cell formatting rule it replaced.
"""

from __future__ import annotations

import contextlib
import math
import signal

import numpy as np

from fairsched import CostCurve, CostDomainError, FeasibleRegion, NumericalError, classify_stability
from fairsched.allocation import CONVERGED, MAX_INNER_ITERS, initial_allocation, project_feasible
from fairsched.distributed import DistributedTrace, DualState, GraphError


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
    """Scalar predict-then-update Riccati iteration from ``Pi0`` (zero by default)."""
    X = np.zeros((p.dim, p.dim)) if p.Pi0 is None else np.array(p.Pi0)
    A, Q, C, R = p.A, p.Q, p.C, p.R_meas
    for _ in range(max_iters):
        Xp = A @ X @ A.T + Q
        G = Xp @ C.T
        X_new = Xp - G @ np.linalg.solve(C @ Xp @ C.T + R, G.T)
        X_new = 0.5 * (X_new + X_new.T)
        if np.linalg.norm(X_new - X) <= tol:
            return X_new
        X = X_new
    raise NumericalError("filter covariance iteration did not converge")


def reference_no_comm_limit(p, tol: float = 1e-12, max_iters: int = 10**6) -> float:
    """Scalar prediction-only iteration from zero; trace of its fixed point."""
    X = np.zeros((p.dim, p.dim))
    for _ in range(max_iters):
        X_new = p.A @ X @ p.A.T + p.Q
        X_new = 0.5 * (X_new + X_new.T)
        if np.linalg.norm(X_new - X) <= tol:
            return float(np.trace(X_new))
        X = X_new
    raise NumericalError("prediction covariance iteration did not converge")


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


def reference_solve_distributed(
    costs,
    region: FeasibleRegion,
    graph,
    alpha: float = 0.01,
    beta: float = 1.0,
    max_iters: int = 200_000,
    eps_r: float = 1e-6,
    init_rates=None,
    init_lambdas=None,
):
    """``solve_distributed`` node by node, each node reading only its neighbours' values.

    Node ``i`` weighs neighbour ``j`` by ``1 / (1 + max(deg_i, deg_j))`` and
    itself by what is left; no weight matrix is formed. Per round every node
    steps its rate on its own cost and multiplier copy, mixes its neighbours'
    excess estimates and adds its own change of rate, then mixes the
    neighbours' multiplier copies and steps along its new estimate.
    """
    if graph.n != region.n:
        raise GraphError(f"graph has {graph.n} nodes but the region has {region.n} agents")
    n = region.n
    neighbors = graph.neighbor_lists()
    weights = []
    for i in range(n):
        row = {j: 1.0 / (1 + max(len(neighbors[i]), len(neighbors[j]))) for j in neighbors[i]}
        row[i] = 1.0 - sum(row.values())
        weights.append(row)

    def mix(values, i):
        return sum(w * values[j] for j, w in sorted(weights[i].items()))

    lb, ub = region.lower.tolist(), region.upper.tolist()
    r = (initial_allocation(region) if init_rates is None else np.array(init_rates, dtype=float)).tolist()
    lam = costs.values(r).tolist() if init_lambdas is None else [float(v) for v in init_lambdas]
    lam = [max(v, 0.0) for v in lam]
    y = [ri - region.total / n for ri in r]

    residuals, spreads, mins = [], [], []
    status = MAX_INNER_ITERS
    for _ in range(max_iters):
        values = costs.values(r).tolist()
        r_new = [min(max(r[i] + alpha * (values[i] - lam[i]), lb[i]), ub[i]) for i in range(n)]
        y = [mix(y, i) + r_new[i] - r[i] for i in range(n)]
        lam_new = [max(mix(lam, i) + beta * y[i], 0.0) for i in range(n)]

        residual = (math.sqrt(sum((a - b) ** 2 for a, b in zip(r_new, r)))
                    + math.sqrt(sum((a - b) ** 2 for a, b in zip(lam_new, lam))))
        r, lam = r_new, lam_new
        residuals.append(residual)
        spreads.append(max(lam) - min(lam))
        mins.append(min(lam))
        if not math.sqrt(sum(v * v for v in lam)) < 1e6:
            raise NumericalError("distributed iteration diverged (multiplier norm exceeded 1e6)")
        if residual <= eps_r:
            status = CONVERGED
            break

    r, lam = np.array(r), np.array(lam)
    trace = DistributedTrace(
        residuals=np.array(residuals), lambda_spreads=np.array(spreads), lambda_mins=np.array(mins), status=status
    )
    return project_feasible(r, region), DualState(lambdas=lam, rates=r), trace


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
