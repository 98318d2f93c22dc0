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
        report = fs.compare_with_centralized(
            costs, region, graph, schedule=fs.StepSchedule(2.0, 10.0), max_iters=300_000, eps_r=1e-8
        )
        assert report.distributed_status == fs.CONVERGED
        assert report.linf_gap <= 1e-3

    def test_stable_triangle_matches_centralized(self):
        ps = [fs.ProcessModel(A=[[a]], Q=[[q]]) for a, q in ((0.5, 1.0), (0.7, 0.8), (0.3, 1.5))]
        costs = fs.CurveCostModel.from_processes(ps)
        region = fs.FeasibleRegion(1.0, np.zeros(3), np.ones(3))
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.complete(3),
            schedule=fs.StepSchedule(2.0, 10.0), max_iters=600_000, eps_r=3e-9,
        )
        assert report.distributed_status == fs.CONVERGED
        assert report.linf_gap <= 1e-3
        assert report.lambda_spread <= 1e-4

    def test_example1_on_path_agrees_in_value(self, example1):
        costs, region = example1
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.path(3),
            schedule=fs.StepSchedule(2.0, 10.0), max_iters=500_000, eps_r=1e-8,
        )
        assert report.game_value_gap <= 1e-3

    def test_identical_agents_complete_graph(self):
        costs = fs.AffineCostModel([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        region = fs.FeasibleRegion(1.5, np.zeros(3), np.ones(3))
        report = fs.compare_with_centralized(
            costs, region, fs.CommGraph.complete(3),
            schedule=fs.StepSchedule(2.0, 10.0), max_iters=300_000, eps_r=1e-8,
        )
        np.testing.assert_allclose(report.rates_distributed, 0.5, atol=1e-6)
        assert report.game_value_gap <= 1e-4

    def test_lambdas_stay_nonnegative_and_final_point_feasible(self, example1):
        costs, region = example1
        rates, dual, trace = fs.solve_distributed(
            costs, region, fs.CommGraph.ring(3),
            schedule=fs.StepSchedule(2.0, 10.0), max_iters=50_000, eps_r=1e-7,
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
                schedule=fs.StepSchedule(1e7, 1.0), max_iters=10_000, eps_r=1e-9,
            )

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
    kwargs = dict(schedule=fs.StepSchedule(2.0, 10.0), hat_schedule=fs.StepSchedule(1.5, 4.0),
                  init_lambdas=np.array([-1.0, 5.0, -0.25]))
    return costs, region, fs.CommGraph.path(3), kwargs


@pytest.fixture
def fixture_ring(bench_instance):
    cfg, region, costs, mask = bench_instance
    floored = np.where(mask, np.maximum(cfg.solver.eta, region.lower), region.lower)
    region = fs.FeasibleRegion(region.total, floored, region.upper)
    kwargs = dict(schedule=fs.StepSchedule(4.0, 10.0), hat_schedule=fs.StepSchedule(3.0, 10.0),
                  init_lambdas=np.array([3.0, -2.0, 40.0, -0.5, 7.0]))
    return costs, region, fs.CommGraph.from_adjacency(cfg.distributed.adjacency), kwargs


class TestFusedRoundMatchesReference:
    """The fused round reproduces the two-dual-step loop bit for bit."""

    @pytest.mark.parametrize("instance", ["affine_path", "fixture_ring"])
    def test_bitwise_equal(self, request, instance):
        costs, region, graph, kwargs = request.getfixturevalue(instance)
        kwargs = dict(kwargs, max_iters=5000, eps_r=1e-12)
        rates, dual, trace = fs.solve_distributed(costs, region, graph, **kwargs)
        ref_rates, ref_dual, ref_trace = reference_solve_distributed(costs, region, graph, **kwargs)
        assert len(trace) == 5000
        np.testing.assert_array_equal(rates, ref_rates)
        np.testing.assert_array_equal(dual.lambdas, ref_dual.lambdas)
        np.testing.assert_array_equal(dual.rates, ref_dual.rates)
        np.testing.assert_array_equal(trace.residuals, ref_trace.residuals)
        np.testing.assert_array_equal(trace.lambda_spreads, ref_trace.lambda_spreads)
        np.testing.assert_array_equal(trace.lambda_mins, ref_trace.lambda_mins)
        assert trace.status == ref_trace.status

    def test_both_detect_divergence(self, example1):
        costs, region = example1
        kwargs = dict(schedule=fs.StepSchedule(1e7, 1.0), max_iters=10_000, eps_r=1e-9)
        for solve in (fs.solve_distributed, reference_solve_distributed):
            with pytest.raises(fs.NumericalError):
                solve(costs, region, fs.CommGraph.path(3), **kwargs)
