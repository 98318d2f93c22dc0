from types import SimpleNamespace

import numpy as np
import pytest

import fairsched as fs
from fairsched.distributed import GraphError, _metropolis_arcs
from helpers import (
    reference_connected,
    reference_metropolis_matrix,
    reference_metropolis_weights,
    reference_neighbor_lists,
    reference_solve_distributed,
)


def chord_graph(n: int, chords: int, seed: int) -> fs.CommGraph:
    """A ring over ``n`` nodes plus ``chords`` seeded random node pairs, self-pairs dropped."""
    pairs = np.random.default_rng(seed).integers(0, n, size=(chords, 2))
    ring = [(i, (i + 1) % n) for i in range(n)]
    return fs.CommGraph(n, ring + [(i, j) for i, j in pairs.tolist() if i != j])


class TestCommGraph:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            fs.CommGraph(2, frozenset())
        with pytest.raises(GraphError, match="disconnected"):
            fs.CommGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop at node 0"):
            fs.CommGraph(2, frozenset({(0, 0)}))

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_graph_rejected(self, n):
        with pytest.raises(GraphError, match="at least one node"):
            fs.CommGraph(n, [])

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 1), (2, 10**30), (-10**30, 0)])
    def test_node_out_of_range_rejected(self, edge):
        with pytest.raises(GraphError, match=r"references a node outside 0\.\.2"):
            fs.CommGraph(3, [(0, 1), (1, 2), edge])

    @pytest.mark.parametrize("edge", [(1, 2.0), (1.5, 2)])
    def test_node_that_is_no_integer_rejected(self, edge):
        with pytest.raises(GraphError, match="node indices must be integers"):
            fs.CommGraph(3, [(0, 1), edge])

    def test_adjacency_round_trip(self):
        g = fs.CommGraph.from_adjacency([[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]])
        np.testing.assert_array_equal(g.edges, fs.CommGraph.ring(5).edges)
        assert g.edges.tolist() == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]

    def test_edges_are_one_sorted_read_only_array(self):
        # reversed pairs, repeats and any iterable of pairs all normalise to the same (m, 2) array, i < j
        pairs = [(3, 2), (0, 1), (1, 0), (2, 1), (3, 2), (0, 3)]
        want = [[0, 1], [0, 3], [1, 2], [2, 3]]
        for given in (pairs, frozenset(pairs), iter(pairs), np.array(pairs)):
            g = fs.CommGraph(4, given)
            assert g.edges.shape == (4, 2) and g.edges.dtype.kind == "i"
            assert g.edges.tolist() == want
            assert not g.edges.flags.writeable
        for n, edges in ((1, []), (2, [[0, 1]]), (3, [[0, 1], [0, 2], [1, 2]])):
            assert fs.CommGraph.ring(n).edges.tolist() == edges
        assert fs.CommGraph(1, frozenset()).edges.shape == (0, 2)

    def test_degrees(self):
        assert list(fs.CommGraph.star(4).degrees()) == [3, 1, 1, 1]
        assert list(fs.CommGraph.ring(1).degrees()) == [0]
        g = chord_graph(30, 20, seed=1)
        assert g.degrees().tolist() == [len(a) for a in reference_neighbor_lists(g)]

    @pytest.mark.parametrize("seed", range(4))
    def test_connectivity_agrees_with_breadth_first_search(self, seed):
        # sparse random pair sets on 1-40 nodes land on both sides of connectivity; GraphError is the verdict
        rng = np.random.default_rng(seed)
        verdicts = set()
        for _ in range(100):
            n = int(rng.integers(1, 41))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            try:
                fs.CommGraph(n, pairs)
                connected = True
            except GraphError:
                connected = False
            verdicts.add(connected)
            # a graph built without the check, on the same normalised array, through the reference search
            edges = np.unique(np.sort(pairs, axis=1), axis=0).reshape(-1, 2)
            assert connected == reference_connected(SimpleNamespace(n=n, edges=edges))
        assert verdicts == {True, False}

    def test_connectivity_on_long_rings(self):
        # a 10^4-node ring has diameter 5,000: pointer jumping needs no pass per unit of it
        n = 10_000
        assert fs.CommGraph.ring(n).degrees().tolist() == [2] * n
        with pytest.raises(GraphError, match="disconnected"):
            fs.CommGraph(n, [(i, i + 1) for i in range(n - 1) if i != n // 2])


def metropolis_graphs(fixture_adjacency):
    for n in range(1, 13):
        for family in ("ring", "path", "star", "complete"):
            yield f"{family}({n})", getattr(fs.CommGraph, family)(n)
    yield "fixture", fs.CommGraph.from_adjacency(fixture_adjacency)
    yield "chords", chord_graph(60, 60, seed=5)


class TestConsensusMatrix:
    """The Metropolis weights that mix the dual copies, as weighted arcs: each node's loop, each edge both ways."""

    def test_metropolis_doubly_stochastic(self):
        for g in (fs.CommGraph.ring(5), fs.CommGraph.ring(6), fs.CommGraph.star(4), fs.CommGraph.path(3)):
            W = np.zeros((g.n, g.n))
            tails, heads, weights = _metropolis_arcs(g)
            W[heads, tails] = weights
            np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_array_equal(W, W.T)
            assert np.all(W >= 0)
            # a round mixes twice: W^2 has its spectrum in [0, 1], also where W's reaches down to -1/3
            spectrum = np.linalg.eigvalsh(W @ W)
            assert spectrum.min() >= -1e-15 and spectrum.max() <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(reference_metropolis_matrix(fs.CommGraph.ring(6)))[0] == pytest.approx(-1 / 3)

    def test_metropolis_weights_match_node_by_node_reference(self, bench_config):
        # each edge's weight is bitwise the reference's; each node's own weight is 1 less its row, which
        # the two sum in different orders, so they part by at most an ulp of 1
        for name, g in metropolis_graphs(bench_config.distributed.adjacency):
            tails, heads, weights = _metropolis_arcs(g)
            ref = reference_metropolis_weights(g)
            assert tails[:g.n].tolist() == heads[:g.n].tolist() == list(range(g.n)), name
            np.testing.assert_allclose(weights[:g.n], [ref[k][k] for k in range(g.n)], rtol=0,
                                       atol=np.finfo(float).eps, err_msg=name)
            arcs = list(zip(tails[g.n:].tolist(), heads[g.n:].tolist()))
            assert sorted(arcs) == sorted((t, h) for h in range(g.n) for t in ref[h] if t != h), name
            assert weights[g.n:].tolist() == [ref[h][t] for t, h in arcs], name


class TestSolveDistributed:
    def test_single_node_matches_centralized(self):
        p = fs.ProcessModel(A=[[0.5]], Q=[[1.0]])
        costs = fs.CurveCostModel.from_processes([p])
        region = fs.FeasibleRegion(0.6, [0.0], [1.0])
        graph = fs.CommGraph(1, frozenset())
        report = fs.compare_with_centralized(costs, region, graph, max_iters=300_000, eps_r=1e-8)
        assert report.distributed_status == fs.CONVERGED
        assert report.linf_gap <= 1e-3

    def test_stable_triangle_matches_centralized(self):
        ps = [fs.ProcessModel(A=[[a]], Q=[[q]]) for a, q in ((0.5, 1.0), (0.7, 0.8), (0.3, 1.5))]
        costs = fs.CurveCostModel.from_processes(ps)
        region = fs.FeasibleRegion(1.0, np.zeros(3), np.ones(3))
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.complete(3),
            max_iters=600_000, eps_r=3e-9,
        )
        assert report.distributed_status == fs.CONVERGED
        assert report.linf_gap <= 1e-3
        assert report.lambda_spread <= 1e-4

    def test_example1_on_path_agrees_in_value(self, example1):
        costs, region = example1
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.path(3),
            max_iters=500_000, eps_r=1e-8,
        )
        assert report.game_value_gap <= 1e-3

    def test_identical_agents_complete_graph(self):
        costs = fs.AffineCostModel([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        region = fs.FeasibleRegion(1.5, np.zeros(3), np.ones(3))
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.complete(3),
            max_iters=300_000, eps_r=1e-8,
        )
        np.testing.assert_allclose(report.rates_distributed, 0.5, atol=1e-6)
        assert report.game_value_gap <= 1e-4

    def test_lambdas_stay_nonnegative_and_final_point_feasible(self, example1):
        costs, region = example1
        init = np.array([-1.0, 5.0, 0.0])  # entries that are no price start at the node's own cost
        rates, dual, trace = fs.solve_distributed(
            costs, region, fs.CommGraph.ring(3), max_iters=50_000, eps_r=1e-7, init_lambdas=init,
        )
        assert np.all(trace.lambda_mins > 0.0)  # after every round, not just the last: exp of the log prices
        assert np.all(dual.lambdas > 0.0)
        assert region.contains(rates, tol=1e-9)
        assert rates.sum() <= region.total + 1e-6
        own = np.where(init > 0, init, costs.values(fs.initial_allocation(region)))
        again = fs.solve_distributed(costs, region, fs.CommGraph.ring(3), max_iters=50_000, eps_r=1e-7,
                                     init_lambdas=own)
        assert again[2].residuals.tobytes() == trace.residuals.tobytes()

    def test_round_cap_allocates_nothing(self):
        # the trace grows a row per round run: a cap of 10^12 rounds asks for no memory up front
        costs = fs.AffineCostModel([2.0, 3.0, 2.5, 2.0], [1.0, 2.0, 1.5, 1.0])
        region = fs.FeasibleRegion(1.5, np.zeros(4), np.ones(4))
        capped = fs.solve_distributed(costs, region, fs.CommGraph.ring(4), max_iters=10**12, eps_r=1e-8)
        default = fs.solve_distributed(costs, region, fs.CommGraph.ring(4), eps_r=1e-8)
        assert capped[2].converged and 0 < len(capped[2]) < 200_000
        assert capped[0].tobytes() == default[0].tobytes()
        assert capped[1].lambdas.tobytes() == default[1].lambdas.tobytes()
        for name in ("residuals", "lambda_spreads", "lambda_mins"):
            assert getattr(capped[2], name).tobytes() == getattr(default[2], name).tobytes(), name

    def test_divergence_detector(self, example1):
        # beta 1e7 scales the log-price step until a price overflows
        costs, region = example1
        with pytest.raises(fs.NumericalError, match="diverged"):
            fs.solve_distributed(
                costs, region, fs.CommGraph.path(3),
                alpha=1.0, beta=1e7, max_iters=10_000, eps_r=1e-9,
            )

    def test_steps_must_be_positive(self, example1):
        costs, region = example1
        for steps in ({"alpha": 0.0}, {"beta": -1.0}):
            with pytest.raises(ValueError, match="step sizes must be positive"):
                fs.solve_distributed(costs, region, fs.CommGraph.path(3), **steps)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\], got 1.5"):
            fs.solve_distributed(costs, region, fs.CommGraph.path(3), alpha=1.5)

    def test_model_without_an_elasticity_bound_is_refused(self):
        class Reciprocal(fs.CostModel):  # J_i(r) = 1 / r, no slope bounds
            n = 2

            def values(self, rates):
                return 1.0 / np.asarray(rates, dtype=float)

        region = fs.FeasibleRegion(1.0, [0.1, 0.1], [1.0, 1.0])
        with pytest.raises(ValueError, match="no elasticity bound"):
            fs.solve_distributed(Reciprocal(), region, fs.CommGraph.path(2))

    @pytest.mark.parametrize("budget", [2.5, 4.0, 9.0])
    def test_slack_budget_ends_converged_at_the_upper_bounds(self, budget):
        # sum(ub) = 2 < R: the prices fall forever; the run ends once every rate reaches its upper bound
        costs = fs.AffineCostModel([2.0, 3.0, 2.5, 2.0], [1.0, 2.0, 1.5, 1.0])
        region = fs.FeasibleRegion(budget, np.zeros(4), [0.5, 0.2, 0.8, 0.5])
        for alpha in (1.0, 0.5):
            rates, dual, trace = fs.solve_distributed(costs, region, fs.CommGraph.ring(4), alpha=alpha, eps_r=1e-300)
            assert trace.converged and len(trace) < 1000
            assert rates.tolist() == dual.rates.tolist() == region.upper.tolist()

    def test_fixture_budget_2_converges_within_200_rounds(self, bench_instance):
        # the old round, r' = clip(r + alpha (J(r) - lam)), took 338 rounds here
        cfg, region, costs, mask = bench_instance
        settings = cfg.distributed
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.from_adjacency(settings.adjacency), unstable_mask=mask,
            solver_cfg=cfg.solver, alpha=settings.alpha, beta=settings.beta, max_iters=1000, eps_r=settings.eps_r,
        )
        assert report.distributed_status == fs.CONVERGED and len(report.distributed_trace) <= 200
        # the step reads the largest elasticity J / |J'| over the boxes, that of the stable process 4 at rate 0
        elasticities = costs.elasticity_bounds(mask * cfg.solver.eta)
        assert elasticities.max() == pytest.approx(1.44, abs=5e-3) and elasticities.argmax() == 4

    @pytest.mark.parametrize("graph", ["ring", "path", "star", "complete"])
    def test_fixture_converges_in_hundreds_of_rounds(self, bench_instance, graph):
        # the fixture's constant steps suit every graph shape, not just its ring
        cfg, region, costs, mask = bench_instance
        settings = cfg.distributed
        graph = getattr(fs.CommGraph, graph)(region.n)
        report = fs.compare_with_centralized(
            costs, region, graph, unstable_mask=mask, solver_cfg=cfg.solver,
            alpha=settings.alpha, beta=settings.beta, max_iters=1000, eps_r=settings.eps_r,
        )
        assert report.distributed_status == fs.CONVERGED
        assert len(report.distributed_trace) <= 400
        assert report.linf_gap <= 1e-5
        assert report.lambda_spread <= 1e-6

    def test_price_change_whose_square_overflows_reads_finite(self, bench_config):
        # processes[0].R = 1e308 I: process 0 starts at price 3.4e307, and its first mixed log price moves it
        # by about as much, past the 1.3e154 whose square overflows; every price stays finite
        cfg = bench_config
        ps = list(cfg.processes)
        ps[0] = fs.ProcessModel(A=ps[0].A, Q=ps[0].Q, C=ps[0].C, R_meas=1e308 * np.eye(2), Pi0=ps[0].Pi0)
        costs = fs.CurveCostModel.from_processes(ps, unstable_floor=1.0)
        region = fs.FeasibleRegion(cfg.total_rate, np.zeros(len(ps)), np.ones(len(ps)))
        graph = fs.CommGraph.from_adjacency(cfg.distributed.adjacency)
        settings = dict(alpha=cfg.distributed.alpha, beta=cfg.distributed.beta, eps_r=cfg.distributed.eps_r)
        report = fs.compare_with_centralized(costs, region, graph, unstable_mask=~costs.stable,
                                             solver_cfg=cfg.solver, max_iters=1, **settings)
        first = report.distributed_trace.residuals[0]
        assert 1e307 < first < np.inf
        report = fs.compare_with_centralized(costs, region, graph, unstable_mask=~costs.stable,
                                             solver_cfg=cfg.solver, max_iters=5000, **settings)
        assert report.distributed_status == fs.CONVERGED and report.linf_gap <= 1e-6

    def test_graph_size_must_match_region(self, example1):
        costs, region = example1
        with pytest.raises(GraphError):
            fs.solve_distributed(costs, region, fs.CommGraph.path(2))

    def test_no_dual_mode_argument(self, example1):
        costs, region = example1
        with pytest.raises(TypeError):
            fs.solve_distributed(costs, region, fs.CommGraph.path(3), dual_mode="mixing")
        with pytest.raises(TypeError):
            fs.compare_with_centralized(costs, region, fs.CommGraph.path(3), dual_mode="mixing")


@pytest.fixture
def affine_path(example1):
    costs, region = example1
    kwargs = dict(alpha=0.05, beta=1.5, init_lambdas=np.array([-1.0, 5.0, -0.25]))
    return costs, region, fs.CommGraph.path(3), kwargs


@pytest.fixture
def fixture_ring(bench_instance):
    cfg, region, costs, mask = bench_instance
    floored = np.where(mask, np.maximum(cfg.solver.eta, region.lower), region.lower)
    region = fs.FeasibleRegion(region.total, floored, region.upper)
    kwargs = dict(alpha=1.0, beta=1.0, init_lambdas=np.array([3.0, -2.0, 40.0, -0.5, 7.0]))
    return costs, region, fs.CommGraph.from_adjacency(cfg.distributed.adjacency), kwargs


class TestFusedRoundMatchesReference:
    """The vectorised round reproduces the node-by-node neighbour-list round."""

    @pytest.mark.parametrize("instance", ["affine_path", "fixture_ring"])
    def test_matches_reference(self, request, instance):
        costs, region, graph, kwargs = request.getfixturevalue(instance)
        kwargs = dict(kwargs, max_iters=300, eps_r=1e-12)
        rates, dual, trace = fs.solve_distributed(costs, region, graph, **kwargs)
        ref_rates, ref_dual, ref_trace = reference_solve_distributed(costs, region, graph, **kwargs)
        assert len(trace) == len(ref_trace) == 300
        for got, want in ((rates, ref_rates), (dual.lambdas, ref_dual.lambdas), (dual.rates, ref_dual.rates),
                          (trace.lambda_mins, ref_trace.lambda_mins)):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        # residuals and spreads are differences of the O(1)-O(10) prices, so the two
        # summation orders and the two inverses leave them a few ulps of those apart
        for got, want in ((trace.residuals, ref_trace.residuals), (trace.lambda_spreads, ref_trace.lambda_spreads)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        assert trace.status == ref_trace.status

    def test_both_detect_divergence(self, example1):
        costs, region = example1
        kwargs = dict(alpha=1.0, beta=1e7, max_iters=10_000, eps_r=1e-9)
        for solve in (fs.solve_distributed, reference_solve_distributed):
            with pytest.raises(fs.NumericalError, match="diverged"):
                solve(costs, region, fs.CommGraph.path(3), **kwargs)


def sweep_graph(family: str, n: int, rng) -> fs.CommGraph:
    if family in ("ring", "path", "star", "complete"):
        return getattr(fs.CommGraph, family)(n)
    tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]  # each node hangs off an earlier one
    if family == "tree":
        return fs.CommGraph(n, tree)
    chords = [(i, j) for i, j in rng.integers(0, n, size=(n, 2)).tolist() if i != j]
    return fs.CommGraph(n, tree + chords)


GRAPH_FAMILIES = ("ring", "path", "star", "complete", "tree", "tree+chords")


def test_seeded_graph_sweep_converges_to_the_centralized_point(bench_config):
    # 36 seeded instances of 2-12 agents, alternately affine and Kalman (fixture processes drawn with
    # replacement), each on the next of six graph families in turn, at budgets U(0.15, 0.85) n. All
    # converge within 1,988 rounds (14,127 in all), at most 2.2e-7 from the centralized rates; one mixing
    # pass a round with a step from the smallest eigenvalue of W took up to 3,577 (26,554 in all)
    rng = np.random.default_rng(38)
    for k in range(36):
        n = int(rng.integers(2, 13))
        if k % 2 == 0:
            slopes = rng.uniform(0.5, 3.0, n)
            costs, mask = fs.AffineCostModel(slopes + rng.uniform(0.1, 3.0, n), slopes), None  # J > 0 on [0, 1]
        else:
            ps = [bench_config.processes[i] for i in rng.integers(0, len(bench_config.processes), n)]
            costs = fs.CurveCostModel.from_processes(ps, unstable_floor=1.0)
            mask = ~costs.stable
        region = fs.FeasibleRegion(rng.uniform(0.15, 0.85) * n, np.zeros(n), np.ones(n))
        family = GRAPH_FAMILIES[k % len(GRAPH_FAMILIES)]
        report = fs.compare_with_centralized(
            costs, region, sweep_graph(family, n, rng), unstable_mask=mask, solver_cfg=bench_config.solver,
            alpha=0.3, eps_r=1e-8, max_iters=50_000,
        )
        where = f"instance {k}: {n} agents, {family}"
        assert report.centralized_status == report.distributed_status == fs.CONVERGED, where
        assert report.linf_gap <= 1e-5, where
        assert len(report.distributed_trace) <= 3_577, where
