"""Distributed computation of the max-min fair allocation.

The centralized projected iteration is gradient descent on the separable
objective ``sum_i I_i(r_i)`` with ``I_i(r) = integral of -J_i`` subject to the
budget. Dualizing the budget with one multiplier copy per node turns the
problem into a consensus-constrained dual ascent that needs only neighbor
communication: each node updates its own rate from its own cost and its own
multiplier copy, and the copies are driven toward agreement over the graph.

The round is gradient tracking with constant steps (DIGing; Nedic, Olshevsky
and Shi, SIAM J. Optim. 2017) applied to the dual of the budget constraint,
as in Xiao and Boyd 2006. Each node also keeps an estimate ``y_i`` of the
network-average budget excess: it mixes the neighbours' estimates with fixed
Metropolis weights and adds its own change of rate. The multiplier copies mix
the same way and step along ``y``. Because the weights are doubly
stochastic, ``sum(y)`` always equals ``sum(r) - R``, so at a fixed point the
budget is met, the copies agree and every free agent's cost equals the
common multiplier: the centralized max-min fair allocation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .allocation import (
    CONVERGED,
    MAX_INNER_ITERS,
    CostModel,
    FeasibleRegion,
    SolverConfig,
    initial_allocation,
    project_feasible,
    solve_maxmin,
)
from .sensors import NumericalError

__all__ = [
    "GraphError",
    "CommGraph",
    "DualState",
    "DistributedTrace",
    "ComparisonReport",
    "metropolis_matrix",
    "solve_distributed",
    "compare_with_centralized",
]

STALLED = "stalled"
_STALL_ROUNDS = 10_000  # rounds the best residual may go without a 1 % drop


class GraphError(ValueError):
    """The communication graph cannot support consensus."""


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected connected graph over ``n`` nodes, no self-loops."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one node")
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge {e} references a node outside 0..{self.n - 1}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))
        if not self._connected():
            raise GraphError("graph is disconnected; consensus is unattainable")

    def _connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        adj = self.neighbor_lists()
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == self.n

    def neighbor_lists(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.neighbor_lists()])

    @classmethod
    def from_adjacency(cls, adjacency) -> "CommGraph":
        n = len(adjacency)
        edges = {(i, int(j)) for i, neigh in enumerate(adjacency) for j in neigh}
        return cls(n, frozenset(edges))

    @classmethod
    def ring(cls, n: int) -> "CommGraph":
        if n == 1:
            return cls(1, frozenset())
        if n == 2:
            return cls.path(2)
        return cls(n, frozenset((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def path(cls, n: int) -> "CommGraph":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def complete(cls, n: int) -> "CommGraph":
        return cls(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def star(cls, n: int) -> "CommGraph":
        return cls(n, frozenset((0, i) for i in range(1, n)))


def metropolis_matrix(g: CommGraph) -> np.ndarray:
    """Symmetric doubly stochastic averaging weights: ``1/(1 + max(deg_i, deg_j))`` per edge."""
    W = np.zeros((g.n, g.n))
    deg = g.degrees()
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


@dataclass
class DualState:
    """Per-node multiplier copies and the primal iterate they pair with."""

    lambdas: np.ndarray
    rates: np.ndarray


@dataclass
class DistributedTrace:
    residuals: np.ndarray
    lambda_spreads: np.ndarray
    lambda_mins: np.ndarray
    status: str

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def __len__(self) -> int:
        return len(self.residuals)


def solve_distributed(
    costs: CostModel,
    region: FeasibleRegion,
    graph: CommGraph,
    alpha: float = 0.01,
    beta: float = 1.0,
    max_iters: int = 200_000,
    eps_r: float = 1e-6,
    init_rates=None,
    init_lambdas=None,
):
    """Constant-step gradient tracking over the communication graph.

    Per round, with ``g(r) = r - R/n`` the local budget excess,
    ``y = g(r)`` at the start and ``W`` the Metropolis weights of the graph:

        r'   = P_box(r + alpha * (J(r) - lam))
        y'   = W y + g(r') - g(r)
        lam' = max(W lam + beta * y', 0)

    ``alpha`` must stay below about 2 / (the cost slope where the iterates
    live); ``beta`` near 1 suits Metropolis weights. Stops once
    ``||dr|| + ||dlam|| <= eps_r``, or with status ``"stalled"`` once the best
    residual has not dropped by 1 % in 10,000 rounds (a step too large for
    the slopes makes the iterate cycle). The returned allocation is the final
    primal iterate projected onto the full region, so it is always feasible;
    the raw iterate is available through the dual state.

    Returns ``(rates, DualState, DistributedTrace)``.
    """
    if graph.n != region.n:
        raise GraphError(f"graph has {graph.n} nodes but the region has {region.n} agents")
    if not (alpha > 0 and beta > 0):
        raise ValueError("step sizes must be positive")

    lb, ub = region.lower, region.upper
    W = metropolis_matrix(graph)

    r = initial_allocation(region) if init_rates is None else np.array(init_rates, dtype=float)
    # warm-start the multiplier copies at the local costs: each node can
    # evaluate its own cost, and the dual settles near the common cost level
    lam = costs.values(r).copy() if init_lambdas is None else np.array(init_lambdas, dtype=float)
    lam = np.maximum(lam, 0.0)
    y = r - region.total / region.n

    residuals = np.empty(max_iters)
    spreads = np.empty(max_iters)
    mins = np.empty(max_iters)
    status = MAX_INNER_ITERS
    used = 0
    best, best_round = np.inf, 0
    for k in range(max_iters):
        r_new = np.clip(r + alpha * (costs.values(r) - lam), lb, ub)
        dr = r_new - r
        y = W @ y + dr  # g(r') - g(r) = r' - r
        lam_new = np.maximum(W @ lam + beta * y, 0.0)

        residual = float(np.linalg.norm(dr) + np.linalg.norm(lam_new - lam))
        r, lam = r_new, lam_new
        residuals[k] = residual
        spreads[k] = lam.max() - lam.min()
        mins[k] = lam.min()
        used = k + 1
        # NaN and inf fail the comparison too
        if not np.linalg.norm(lam) < 1e6:
            raise NumericalError("distributed iteration diverged (multiplier norm exceeded 1e6)")
        if residual <= eps_r:
            status = CONVERGED
            break
        if residual < 0.99 * best:
            best, best_round = residual, k
        elif k - best_round >= _STALL_ROUNDS:
            status = STALLED
            break

    rates = project_feasible(r, region)
    trace = DistributedTrace(
        residuals=residuals[:used], lambda_spreads=spreads[:used], lambda_mins=mins[:used], status=status
    )
    return rates, DualState(lambdas=lam, rates=r), trace


@dataclass
class ComparisonReport:
    rates_centralized: np.ndarray
    rates_distributed: np.ndarray
    linf_gap: float
    game_value_gap: float
    lambda_spread: float
    centralized_status: str
    distributed_status: str
    dual_state: DualState = None
    distributed_trace: DistributedTrace = None


def compare_with_centralized(
    costs: CostModel,
    region: FeasibleRegion,
    graph: CommGraph,
    unstable_mask=None,
    solver_cfg: SolverConfig | None = None,
    **distributed_kwargs,
) -> ComparisonReport:
    """Solve the same instance both ways and report the allocation and value gaps.

    Agents flagged unstable get the positive rate floor ``cfg.eta`` in the
    distributed solve's box (their cost is unbounded at rate zero); the
    centralized solver manages the same floors through its outer loop.
    """
    cfg = solver_cfg or SolverConfig()
    mask = np.zeros(region.n, dtype=bool) if unstable_mask is None else np.asarray(unstable_mask, dtype=bool)

    r_c, trace_c = solve_maxmin(costs, region, cfg, mask)

    dist_region = region
    if mask.any():
        floored = np.where(mask, np.maximum(cfg.eta, region.lower), region.lower)
        dist_region = FeasibleRegion(region.total, floored, region.upper)
    r_d, dual, trace_d = solve_distributed(costs, dist_region, graph, **distributed_kwargs)

    worst_c = float(costs.values(r_c).max())
    worst_d = float(costs.values(r_d).max())
    return ComparisonReport(
        rates_centralized=r_c,
        rates_distributed=r_d,
        linf_gap=float(np.max(np.abs(r_d - r_c))),
        game_value_gap=abs(worst_d - worst_c),
        lambda_spread=float(dual.lambdas.max() - dual.lambdas.min()),
        centralized_status=trace_c.status,
        distributed_status=trace_d.status,
        dual_state=dual,
        distributed_trace=trace_d,
    )
