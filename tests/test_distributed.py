import numpy as np
import pytest

import fairsched as fs
from fairsched.distributed import GraphError
from helpers import reference_solve_distributed


class TestCommGraph:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            fs.CommGraph(2, frozenset())
        with pytest.raises(GraphError):
            fs.CommGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            fs.CommGraph(2, frozenset({(0, 0)}))

    def test_adjacency_round_trip(self):
        g = fs.CommGraph.from_adjacency([[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]])
        assert g.edges == fs.CommGraph.ring(5).edges

    def test_degrees(self):
        assert list(fs.CommGraph.star(4).degrees()) == [3, 1, 1, 1]


class TestConsensusMatrix:
    """The Metropolis weights that mix the dual copies."""

    def test_metropolis_doubly_stochastic(self):
        for g in (fs.CommGraph.ring(5), fs.CommGraph.star(4), fs.CommGraph.path(3)):
            W = fs.metropolis_matrix(g)
            np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(W, W.T)
            assert np.all(W >= 0)


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
        rates, dual, trace = fs.solve_distributed(
            costs, region, fs.CommGraph.ring(3),
            max_iters=50_000, eps_r=1e-7,
            init_lambdas=np.array([-1.0, 5.0, 0.0]),  # projected to >= 0 on entry
        )
        assert np.all(trace.lambda_mins >= 0.0)  # after every iteration, not just the last
        assert np.all(dual.lambdas >= 0.0)
        assert region.contains(rates, tol=1e-9)
        assert rates.sum() <= region.total + 1e-6

    def test_divergence_detector(self, example1):
        costs, region = example1
        with pytest.raises(fs.NumericalError):
            fs.solve_distributed(
                costs, region, fs.CommGraph.path(3),
                alpha=1.0, beta=1e7, max_iters=10_000, eps_r=1e-9,
            )

    def test_steps_must_be_positive(self, example1):
        costs, region = example1
        for steps in ({"alpha": 0.0}, {"beta": -1.0}):
            with pytest.raises(ValueError, match="step sizes must be positive"):
                fs.solve_distributed(costs, region, fs.CommGraph.path(3), **steps)

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
    kwargs = dict(alpha=0.01, beta=1.0, init_lambdas=np.array([3.0, -2.0, 40.0, -0.5, 7.0]))
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
        # residuals and spreads are differences of the O(1)-O(10) multiplier
        # copies, so the two summation orders leave them a few ulps of those apart
        for got, want in ((trace.residuals, ref_trace.residuals), (trace.lambda_spreads, ref_trace.lambda_spreads)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        assert trace.status == ref_trace.status

    def test_both_detect_divergence(self, example1):
        costs, region = example1
        kwargs = dict(alpha=1.0, beta=1e7, max_iters=10_000, eps_r=1e-9)
        for solve in (fs.solve_distributed, reference_solve_distributed):
            with pytest.raises(fs.NumericalError):
                solve(costs, region, fs.CommGraph.path(3), **kwargs)
