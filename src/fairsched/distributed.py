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
constant step (DIGing; Nedic, Olshevsky and Shi, SIAM J. Optim. 27(4), 2017)
over fixed Metropolis weights read off the graph's edge array
(:func:`solve_distributed`). Because the weights are doubly stochastic,
``sum(y)`` always equals ``sum(r) - R``, so at a fixed point the budget is
met, the prices agree and every free agent's cost equals the common price:
the centralized max-min fair allocation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain

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
    """Undirected connected graph over ``n`` nodes, no self-loops, held as one edge array.

    Any iterable of node pairs is normalised to ``edges``: a read-only ``(m, 2)`` integer array with
    ``i < j`` in each row, sorted, without duplicates.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise GraphError("graph needs at least one node")
        pairs = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        pairs = np.array(pairs).reshape(len(pairs), 2)  # Python ints past int64 stay objects, refused below
        if pairs.size and pairs.dtype.kind not in "iuO":
            raise GraphError(f"node indices must be integers, got {pairs.dtype} pairs")
        lo, hi = np.sort(pairs, axis=1).T
        if (lo == hi).any():
            raise GraphError(f"self-loop at node {lo[lo == hi][0]}")
        outside = (lo < 0) | (hi >= n)
        if outside.any():
            raise GraphError(f"edge {tuple(pairs[outside][0].tolist())} references a node outside 0..{n - 1}")
        key = np.unique((lo * n + hi).astype(np.int64))  # sorted and deduplicated in one pass over scalars
        edges = np.column_stack((key // n, key % n))
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        # connectivity by min-label propagation: each edge hooks the larger of its ends' labels to the
        # smaller, then every node jumps to its label's label, until every edge's ends agree
        i, j = edges.T
        label = np.arange(n)
        while (label[i] != label[j]).any():
            a, b = label[i], label[j]
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            label = label[label]
        if label.any():  # each component settles on its smallest node's label
            raise GraphError("graph is disconnected; consensus is unattainable")

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @classmethod
    def from_adjacency(cls, adjacency) -> "CommGraph":
        heads = np.repeat(np.arange(len(adjacency)), [len(neigh) for neigh in adjacency])
        tails = np.array(list(chain.from_iterable(adjacency)))
        return cls(len(adjacency), np.column_stack((heads, tails)))

    @classmethod
    def ring(cls, n: int) -> "CommGraph":
        # below three nodes the closing edge would repeat an edge or loop on node 0: that ring is the path
        i = np.arange(n if n > 2 else n - 1)
        return cls(n, np.column_stack((i, (i + 1) % n)))

    @classmethod
    def path(cls, n: int) -> "CommGraph":
        return cls(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))

    @classmethod
    def complete(cls, n: int) -> "CommGraph":
        return cls(n, np.column_stack(np.triu_indices(n, 1)))

    @classmethod
    def star(cls, n: int) -> "CommGraph":
        leaves = np.arange(1, n)
        return cls(n, np.column_stack((np.zeros_like(leaves), leaves)))


def _metropolis_arcs(g: CommGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric doubly stochastic weights (Xiao & Boyd, *Systems & Control Letters* 53, 2004) on arcs ``tails ->
    heads``: each node's loop at the rest of its row, then each edge both ways at ``1/(1 + max(deg_i, deg_j))``."""
    deg, nodes = g.degrees(), np.arange(g.n)
    i, j = g.edges.T
    w = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    own = 1.0 - np.bincount(np.r_[i, j], np.r_[w, w], g.n)
    return np.r_[nodes, j, i], np.r_[nodes, i, j], np.r_[own, w, w]


def _norm(x: np.ndarray) -> float:
    """``sqrt(x . x)``, np.linalg.norm's own formula; past the float maximum ``math.hypot``'s, which scales."""
    total = x.dot(x)
    return math.sqrt(total) if math.isfinite(total) else math.hypot(*x)


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
    (:func:`initial_allocation`) and ``W`` the Metropolis weights, mixed in two gossip exchanges a round:

        r'  = r + alpha * (clip(J^-1(p), lb, ub) - r)
        y'  = W (W y) + (r' - r)
        mu' = W (W mu) + step * y',    step = beta (2 - alpha) / (4 alpha e_max)

    ``J^-1`` is ``costs.rates_at``. ``alpha`` in (0, 1] relaxes the move to the best response; at 1 the
    rate is the best response itself. ``beta`` scales the step of the log prices. ``e_max`` is the largest
    elasticity ``J_i / |J_i'|`` over the agents' boxes, from ``costs.elasticity_bounds`` (a
    :class:`ValueError` on a model that gives none). Linearized with every agent at elasticity ``e``, the
    round is stable on a mode of ``W^2`` with eigenvalue ``lam``, in [0, 1] on any graph, exactly while
    ``step * e < (2 - alpha) (1 + lam)^2 / (2 alpha)``: ``beta = 1`` takes half the largest step stable at
    ``e = e_max`` on every mode. ``init_lambdas``, if given, are the starting prices; an entry that is not
    a positive price starts at the node's own cost.

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
    step = beta * (2.0 - alpha) / (4.0 * alpha * float(elasticities.max()))

    n = region.n
    tails, heads, weights = _metropolis_arcs(graph)  # repeated on n..2n - 1, where mu sits beside y
    tails, heads, weights = np.r_[tails, tails + n], np.r_[heads, heads + n], np.r_[weights, weights]
    r = initial_allocation(region)
    prices = costs.values(r)
    if init_lambdas is not None:
        init = np.asarray(init_lambdas, dtype=float)
        prices = np.where(init > 0, init, prices)
    y = r - region.total / n
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
            mixed = np.concatenate((y, mu))
            for _ in range(2):  # a gossip exchange: node h sums w x_t over the arcs t -> h into it
                mixed = np.bincount(heads, weights * mixed[tails], 2 * n)
            y = mixed[:n] + dr  # g(r') - g(r) = r' - r
            mu = mixed[n:] + step * y
            new = np.exp(mu)

            residual = _norm(dr) + _norm(new - prices)
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
