"""Distributed computation of the max-min fair allocation.

Max-min fairness depends only on how the costs are ordered, so the fair
point is also the optimum of a separable problem whose dual has one price
``p`` for the budget: at price ``p`` each agent's best response is the rate at
which its cost equals ``p``, ``BR_i(p) = clip(J_i^-1(p), lb_i, ub_i)``, and the
fair point is where the best responses fill the budget. That is dual
decomposition (Palomar and Chiang, IEEE JSAC 24(8), 2006): a node needs only
its own curve.

Each node keeps a log price ``mu_i`` and an estimate ``y_i`` of the
network-average budget excess, and a round is gradient tracking with a
constant step (DIGing; Nedic, Olshevsky and Shi, SIAM J. Optim. 27(4), 2017):
each node answers its price ``exp(mu_i)`` with its exact best response, mixes
its neighbours' estimates with fixed Metropolis weights and adds its own
change of rate, then mixes its neighbours' log prices and steps along its new
estimate. Because the weights are doubly stochastic, ``sum(y)`` always equals
``sum(r) - R``, so at a fixed point the budget is met, the prices agree and
every free agent's cost equals the common price: the centralized max-min fair
allocation. In log prices the best response moves by the elasticity
``J_i / |J_i'|`` per unit step, which stays bounded over a curve's whole box
(1.44 on the paper's fixture, whose slopes span four orders of magnitude) where
a slope does not, so one step, taken from that bound and the mixing weights,
suits every budget.
"""

from __future__ import annotations

import math
from array import array
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
    "DivergenceError",
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


class DivergenceError(NumericalError):
    """The distributed iteration diverged: a price or the residual stopped being finite."""


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
    """Per-node prices, in cost units, and the primal iterate they pair with."""

    lambdas: np.ndarray
    rates: np.ndarray


@dataclass
class DistributedTrace:
    """Per-round history of a distributed solve: entry ``k`` of each array is round ``k``."""

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
    alpha: float = 0.3,
    beta: float = 1.0,
    max_iters: int = 200_000,
    eps_r: float = 1e-6,
    init_lambdas=None,
):
    """Log-price gradient tracking over the communication graph, each node answering with its best response.

    Per round, with ``p = exp(mu)`` the prices, ``y = r - R/n`` and ``mu = log J(r)`` at the start
    (:func:`initial_allocation`) and ``W`` the Metropolis weights of the graph:

        r'  = r + alpha * (clip(J^-1(p), lb, ub) - r)
        y'  = W y + (r' - r)
        mu' = W mu + step * y',    step = beta (2 - alpha) (1 + lam_min)^2 / (4 alpha e_max)

    ``J^-1`` is ``costs.rates_at``. ``alpha`` in (0, 1] relaxes the move to the best response; at 1 the
    rate is the best response itself. ``beta`` scales the step of the log prices. ``e_max`` is the largest
    elasticity ``J_i / |J_i'|`` over the agents' boxes, from ``costs.elasticity_bounds`` (a
    :class:`ValueError` on a model that gives none), and ``lam_min`` the smallest eigenvalue of ``W``.
    Linearized with every agent at elasticity ``e``, the round is stable on the mode of ``W`` with
    eigenvalue ``lam`` exactly while ``step * e < (2 - alpha) (1 + lam)^2 / (2 alpha)``: ``beta = 1`` takes
    half the largest step stable at ``e = e_max`` on every mode. A full best response on a graph whose
    weights have a negative eigenvalue (an even ring's -1/3) oscillates between neighbours under a step
    blind to it. ``init_lambdas``, if given, are the starting prices; an entry that is not a positive
    price starts at the node's own cost, as by default.

    Stops with status ``"converged"`` once ``||dr|| + ||dp|| <= eps_r``, the change of rates and prices
    (in cost units), or, on a slack budget (``sum(ub) <= R``, where the prices fall forever), once every
    rate sits at its upper bound; with status ``"stalled"`` once the best residual has not dropped by 1 %
    in 10,000 rounds. A price or residual that is not finite raises :class:`DivergenceError`. The
    returned allocation is the final primal iterate projected onto the full region, so it is always
    feasible; the raw iterate and the prices are in the dual state. Costs are read on
    ``costs.with_floor(region.lower)``, which continues a curve model's rows down to the box: no step at
    all on a centralized solve's ``trace.model``.

    Returns ``(rates, DualState, DistributedTrace)``; the trace records the residual and the prices'
    spread and minimum each round. It is one table grown a row per round run: ``max_iters`` only caps
    the loop.
    """
    if graph.n != region.n:
        raise GraphError(f"graph has {graph.n} nodes but the region has {region.n} agents")
    if not (alpha > 0 and beta > 0):
        raise ValueError("step sizes must be positive")
    if alpha > 1:
        raise ValueError(f"alpha relaxes the move to the best response and must lie in (0, 1], got {alpha}")

    costs = costs.with_floor(region.lower)
    lb, ub = region.lower, region.upper
    elasticities = costs.elasticity_bounds(lb)
    if elasticities is None:
        raise ValueError("the cost model gives no elasticity bound, which the distributed step is taken from")
    W = metropolis_matrix(graph)
    step = beta * (2.0 - alpha) * (1.0 + np.linalg.eigvalsh(W)[0]) ** 2 / (4.0 * alpha * float(elasticities.max()))

    r = initial_allocation(region)
    prices = costs.values(r)
    if init_lambdas is not None:
        init = np.asarray(init_lambdas, dtype=float)
        prices = np.where(init > 0, init, prices)
    y = r - region.total / region.n
    slack = ub.sum() <= region.total

    rows = array("d")  # one row a round: residual, price spread, smallest price
    status = MAX_INNER_ITERS
    best, best_round = np.inf, 0
    # a cost that is not positive has no log, and a price may overflow: either ends in DivergenceError below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = np.log(prices)
        for k in range(max_iters):
            target = costs.rates_at(prices).clip(lb, ub)  # the best responses
            # a slack budget's answer is every upper bound: once the best responses reach it, take them
            r_new = target if alpha == 1.0 or (slack and (target == ub).all()) else r + alpha * (target - r)
            dr = r_new - r
            y = W @ y + dr  # g(r') - g(r) = r' - r
            mu = W @ mu + step * y
            new = np.exp(mu)

            # the norms are np.linalg.norm's own formula, sqrt(x . x), without its wrapper
            dp = new - prices
            residual = math.sqrt(dr.dot(dr)) + math.sqrt(dp.dot(dp))
            r, prices = r_new, new
            low = prices.min()
            rows.extend((residual, prices.max() - low, low))
            if not math.isfinite(residual):  # NaN too
                raise DivergenceError("distributed iteration diverged (a price or the residual is not finite)")
            if residual <= eps_r or (slack and (r == ub).all()):
                status = CONVERGED
                break
            if residual < 0.99 * best:
                best, best_round = residual, k
            elif k - best_round >= _STALL_ROUNDS:
                status = STALLED
                break

    rates = project_feasible(r, region)
    trace = DistributedTrace(*np.frombuffer(rows).reshape(-1, 3).T, status=status)  # views of the table's columns
    return rates, DualState(lambdas=prices, rates=r), trace


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

    Agents flagged unstable have costs unbounded at rate zero; the centralized
    solver sets every agent's rate floor from its value bound, the distributed
    box uses those floors (``trace.lower``), and both solves evaluate the
    centralized solve's model (``trace.model``), which covers them.
    """
    cfg = solver_cfg or SolverConfig()
    mask = np.zeros(region.n, dtype=bool) if unstable_mask is None else np.asarray(unstable_mask, dtype=bool)

    r_c, trace_c = solve_maxmin(costs, region, cfg, mask)
    costs = trace_c.model
    dist_region = FeasibleRegion(region.total, trace_c.lower, region.upper)
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
