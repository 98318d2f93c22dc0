import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched as fs
from fairsched import sensors
from fairsched.allocation import CostDomainError
from fairsched.config import ConfigError, load_config
from fairsched.sensors import _WINDOW, _WINDOW_CELLS, _no_comm_covs
from helpers import (
    prediction_traces,
    reference_build_processes,
    reference_cost_curve,
    reference_cost_eval,
    reference_filter_cov,
    reference_floors_at,
    reference_lipschitz_bounds,
    reference_no_comm_limit,
    reference_node,
    reference_prediction_traces,
    reference_rank_failure,
    row_ends,
    time_limit,
)
from test_simulate import PERIOD_TWO


class TestStability:
    def test_diagonal_unstable(self):
        assert fs.classify_stability([[1.2, 0.0], [0.0, 0.0]]) is False

    def test_triangular_stable(self):
        # spectral radius 0.3 despite the off-diagonal 1
        assert fs.classify_stability([[0.3, 1.0], [0.0, 0.1]]) is True

    def test_zero_matrix_stable(self):
        assert fs.classify_stability(np.zeros((3, 3))) is True

    def test_boundary_counts_as_unstable(self):
        assert fs.classify_stability([[1.0]]) is False

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            fs.classify_stability(np.ones((2, 3)))


class TestFilterSteadyState:
    def test_scalar_static_closed_form(self):
        for q in (0.3, 1.0, 4.2):
            p = fs.ProcessModel(A=[[0.0]], Q=[[q]])
            pbar = fs.steady_state_filter_cov(p)
            assert pbar[0, 0] == pytest.approx(q / (q + 1.0), abs=1e-9)

    def test_scalar_random_walk_closed_form(self):
        for q in (0.5, 1.0, 3.0):
            p = fs.ProcessModel(A=[[1.0]], Q=[[q]])
            pred = (q + math.sqrt(q * q + 4 * q)) / 2.0
            pbar = fs.steady_state_filter_cov(p)
            assert pbar[0, 0] == pytest.approx(pred / (pred + 1.0), abs=1e-9)

    def test_no_noise_gives_zero(self):
        p = fs.ProcessModel(A=[[0.4, 0.1], [0.0, 0.2]], Q=np.zeros((2, 2)))
        np.testing.assert_allclose(fs.steady_state_filter_cov(p), 0.0, atol=1e-12)

    def test_cancelled_update_raises_and_names_the_process(self):
        # A = 0.5, C = R = 1: the steady state is 1 - O(1/Q). The subtracting update cancelled it to 0 from
        # Q = 1e16 on, and raised; the update by the matrix inversion lemma has no difference to cancel
        ps = [fs.ProcessModel(A=[[0.5]], Q=[[1.0]]), fs.ProcessModel(A=[[0.5]], Q=[[1e17]])]
        assert fs.steady_state_filter_cov(ps[1])[0, 0] == pytest.approx(1.0, rel=1e-12, abs=0)
        model = fs.CurveCostModel.from_processes(ps)
        assert model.values([1.0, 1.0])[1] == pytest.approx(1.0, rel=1e-12, abs=0)
        assert fs.steady_state_filter_cov(fs.ProcessModel(A=[[0.5]], Q=[[1e8]]))[0, 0] > 0.99

    @pytest.mark.parametrize("a", [0.5, 1.2, 30.0])
    def test_scalar_closed_form_at_every_scale(self, a):
        # C = R = 1: the prior P solves P^2 + b P - Q = 0, b = 1 - a^2 - Q, and the steady state is
        # X = 1 / (1/P + 1); the root is taken without cancellation, and the discriminant without overflow.
        # A stop at a relative change of 1e-12 leaves 1e-12 rho / (1 - rho) of X, rho = a^2 (1 - X)^2 the
        # map's contraction there: 2.3e-12 at a = 1.2 and a small Q
        for q in 10.0 ** np.arange(-30, 301, 5):
            b, q = 1.0 - a * a - q, float(q)
            root = math.hypot(b, 2.0 * math.sqrt(q))
            prior = 2.0 * q / (b + root) if b > 0 else (root - b) / 2.0
            exact = 1.0 / (1.0 / prior + 1.0)
            rho = a * a * (1.0 - exact) ** 2
            pbar = fs.steady_state_filter_cov(fs.ProcessModel(A=[[a]], Q=[[q]]))[0, 0]
            assert pbar == pytest.approx(exact, rel=1e-12 / (1.0 - rho), abs=0), q

    @pytest.mark.parametrize("seed", range(4))
    def test_three_dimensional_rows_at_extreme_scales_end_at_once(self, seed):
        # A uniform in [-30, 30], Q and R at scales far apart: the subtracting update ran some of these past
        # 3 s or cancelled them to 0. With C = I the steady state lies below R, and above 0 as Q > 0
        rng = np.random.default_rng(seed)
        for q_scale in (1.0, 1e30, 1e100, 1e200):
            for r_scale in (1e-30, 1.0, 1e100, 1e300):
                B = rng.normal(size=(3, 3))
                p = fs.ProcessModel(A=rng.uniform(-30.0, 30.0, (3, 3)), Q=q_scale * (B @ B.T + np.eye(3)),
                                    R_meas=r_scale * np.eye(3))
                with time_limit(1, "the Riccati iteration"):
                    pbar = fs.steady_state_filter_cov(p)
                assert 0 < np.trace(pbar) <= 3 * r_scale * (1 + 1e-9)
                assert np.linalg.eigvalsh(r_scale * np.eye(3) - pbar).min() >= -1e-9 * r_scale

    def test_update_that_overflows_names_the_process(self):
        # G = C' R^-1 C is 1e300, so I + Xp G overflows at the first step
        ps = [fs.ProcessModel(A=[[0.5]], Q=[[1.0]]), fs.ProcessModel(A=[[0.5]], Q=[[1e10]], R_meas=[[1e-300]])]
        with pytest.raises(fs.NumericalError, match="^the filter covariance of process 1 overflowed"):
            fs.CurveCostModel.from_processes(ps)

    def test_a_row_that_rounds_to_a_singular_update_overflows(self):
        # a rank-one Q of 1e300: I + Xp G rounds to a singular matrix, whose solve fails; the row overflows
        # and the other row of the batch is left as it would be alone
        v = np.array([[1.0], [1.0]])
        ps = [fs.ProcessModel(A=[[0.9, 0.3], [-0.3, 0.9]], Q=np.eye(2)),
              fs.ProcessModel(A=[[0.9, 0.3], [-0.3, 0.9]], Q=1e300 * (v @ v.T))]
        with pytest.raises(fs.NumericalError, match="^the filter covariance of process 1 overflowed"):
            fs.CurveCostModel.from_processes(ps)
        np.testing.assert_array_equal(sensors._filter_covs(sensors._grouped(ps)[0])[0],
                                      sensors._filter_covs(sensors._grouped(ps[:1])[0])[0])

    def test_fixed_point_residual_and_symmetry(self, bench_config):
        for p in bench_config.processes:
            pbar = fs.steady_state_filter_cov(p)
            pred = p.A @ pbar @ p.A.T + p.Q
            gain = pred @ p.C.T
            updated = pred - gain @ np.linalg.solve(p.C @ pred @ p.C.T + p.R_meas, gain.T)
            assert np.linalg.norm(updated - pbar) <= 1e-10
            assert np.linalg.norm(pbar - pbar.T) <= 1e-12
            assert np.all(np.linalg.eigvalsh(pbar) >= -1e-12)

    @pytest.mark.parametrize("seed, scale", [(0, 1e4), (0, 1e6), (1, 1e6), (2, 1e6), (1, 1e9)])
    def test_large_covariance_stops_on_a_cycle(self, seed, scale):
        # the last bits of Pbar keep moving above an absolute change of 1e-12, in a 2- or 4-cycle; a
        # change relative to the iterate stops it
        B = np.random.default_rng(seed).normal(size=(2, 2))
        p = fs.ProcessModel(A=[[0.9, 0.3], [0.0, 0.7]], Q=scale * (B @ B.T + np.eye(2)))
        with time_limit(1, "the Riccati iteration"):
            pbar = fs.steady_state_filter_cov(p)
        assert np.trace(pbar) == pytest.approx(2.0, rel=1e-3)


class TestThresholdPolicy:
    def test_always_transmit(self):
        pol = fs.threshold_from_rate(1.0)
        assert (pol.xi, pol.b) == (0, 1.0)

    def test_one_third(self):
        pol = fs.threshold_from_rate(1.0 / 3.0)
        assert pol.xi == 2
        assert pol.b == pytest.approx(1.0, abs=1e-9)
        assert pol.rate == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_two_fifths(self):
        pol = fs.threshold_from_rate(0.4)
        assert pol.xi == 1
        assert pol.b == pytest.approx(0.5, abs=1e-12)
        assert pol.rate == pytest.approx(0.4, abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(CostDomainError):
                fs.threshold_from_rate(bad)

    @pytest.mark.parametrize("xi", [2.5, 2.0, np.float64(3.0), -1, np.int64(-1)])
    def test_threshold_must_be_a_nonnegative_integer(self, xi):
        with pytest.raises(ValueError, match="threshold must be a nonnegative integer"):
            fs.ThresholdPolicy(xi=xi, b=0.5)

    @pytest.mark.parametrize("xi", [2, np.int64(2), np.int32(2)])
    def test_integer_thresholds_accepted(self, xi, scalar_unit_process):
        policy = fs.ThresholdPolicy(xi=xi, b=0.5)
        assert policy.rate == pytest.approx(1.0 / 3.5)
        assert fs.simulate_policy(scalar_unit_process, policy, 1000).empirical_rate > 0

    @settings(max_examples=500, deadline=None)
    @given(r=st.floats(1e-4, 1.0, allow_nan=False))
    def test_rate_identity(self, r):
        pol = fs.threshold_from_rate(r)
        assert 0 <= pol.b <= 1
        # expected cycle length b(xi+1) + (1-b)(xi+2) must equal 1/r
        cycle = pol.b * (pol.xi + 1) + (1 - pol.b) * (pol.xi + 2)
        assert cycle == pytest.approx(1.0 / r, rel=1e-12)
        assert pol.rate == pytest.approx(r, rel=1e-12)

    def test_rate_identity_bulk(self):
        rng = np.random.default_rng(101)
        for r in rng.uniform(1e-3, 1.0, 1000):
            pol = fs.threshold_from_rate(float(r))
            cycle = pol.b * (pol.xi + 1) + (1 - pol.b) * (pol.xi + 2)
            assert abs(cycle - 1.0 / r) <= 1e-12 * (1.0 / r)


class TestCostCurve:
    def test_scalar_unit_curve(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        np.testing.assert_allclose(curve.traces, [0.5, 1.0])
        assert curve.stable_limit == pytest.approx(1.0)

    def test_rate_one_domain_has_two_entries(self):
        p = fs.ProcessModel(A=[[1.3]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 1.0)
        assert curve.traces.size == 2

    def test_unstable_recursion(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.05)
        for t in range(curve.traces.size - 1):
            assert curve.traces[t + 1] == pytest.approx(1.44 * curve.traces[t] + 1.0, rel=1e-12)

    def test_unstable_needs_positive_floor(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        with pytest.raises(CostDomainError):
            fs.build_cost_curve(p, 0.0)

    def test_small_limit_ends_at_its_tail_cut(self):
        # an iterated limit stopped 3.1e-13 off the fixed point, beyond the
        # 1.3e-13 tail cut; the solved limit is exact, so the sequence reaches
        # the cut before its covariance repeats
        p = fs.ProcessModel(A=[[0.5]], Q=[[1e-3]])
        with time_limit(5, "build_cost_curve"):
            curve = fs.build_cost_curve(p, 0.0)
        assert curve.stable_limit == 1e-3 / 0.75
        assert abs(curve.traces[-1] - curve.stable_limit) <= 1e-10 * curve.stable_limit
        assert curve.traces[-2] != curve.traces[-1]

    def test_traces_nondecreasing(self, bench_config):
        for p in bench_config.processes:
            floor = 0.0 if fs.classify_stability(p.A) else 0.01
            curve = fs.build_cost_curve(p, floor)
            assert np.all(np.diff(curve.traces) >= -1e-12)

    def test_segment_slopes_negative_and_nonincreasing(self, bench_config):
        for p in bench_config.processes:
            floor = 0.0 if fs.classify_stability(p.A) else 0.05
            curve = fs.build_cost_curve(p, floor)
            slopes = [curve.segment_slope(k) for k in range(curve.traces.size - 1)]
            assert all(s <= 0 for s in slopes)
            assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


class TestCostEval:
    def test_rate_one_is_filter_steady_state(self, bench_config):
        for p in bench_config.processes:
            floor = 0.0 if fs.classify_stability(p.A) else 0.1
            curve = fs.build_cost_curve(p, floor)
            pbar = fs.steady_state_filter_cov(p)
            assert fs.cost_eval(curve, 1.0) == pytest.approx(float(np.trace(pbar)), rel=1e-12)

    def test_scalar_unit_closed_form(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        for r in (1.0, 0.75, 0.5, 0.2, 0.01):
            assert fs.cost_eval(curve, r) == pytest.approx(1.0 - 0.5 * r, rel=1e-12)
        assert fs.cost_eval(curve, 0.5) == pytest.approx(0.75)
        assert fs.cost_eval(curve, 0.0) == pytest.approx(1.0)

    def test_breakpoint_continuity(self, bench_config):
        # both neighbouring segment formulas agree at each breakpoint 1/(k+1)
        for p in bench_config.processes:
            floor = 0.0 if fs.classify_stability(p.A) else 0.05
            curve = fs.build_cost_curve(p, floor)
            for k in range(1, 8):
                bp = 1.0 / (k + 1.0)
                left = curve.traces[k + 1] + bp * curve.segment_slope(k) if k + 1 < curve.traces.size \
                    else curve.stable_limit + bp * curve.segment_slope(k)
                right = curve.traces[k] + bp * curve.segment_slope(k - 1)
                assert left == pytest.approx(right, rel=1e-12)

    def test_strictly_decreasing_and_convex(self, bench_config):
        for p in bench_config.processes:
            floor = 0.0 if fs.classify_stability(p.A) else 0.05
            curve = fs.build_cost_curve(p, floor)
            rs = np.linspace(0.05, 1.0, 97)
            vals = np.array([fs.cost_eval(curve, r) for r in rs])
            assert np.all(np.diff(vals) < 0)
            for i in range(0, len(rs) - 2, 3):
                mid = fs.cost_eval(curve, (rs[i] + rs[i + 2]) / 2)
                assert (vals[i] + vals[i + 2]) / 2 >= mid - 1e-10

    def test_below_floor_rejected_for_unstable(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.2)
        with pytest.raises(CostDomainError):
            fs.cost_eval(curve, 0.1)
        with pytest.raises(CostDomainError):
            fs.cost_eval(curve, 0.0)

    def test_nan_rate_rejected(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        with pytest.raises(CostDomainError, match=r"^rate must lie in \[0, 1\], got nan$"):
            fs.cost_eval(curve, math.nan)
        with pytest.raises(CostDomainError, match=r"^rate must lie in \[0, 1\], got nan$"):
            fs.CurveCostModel([curve, curve]).values([math.nan, 0.5])


class TestNoCommLimit:
    def test_static_process(self):
        p = fs.ProcessModel(A=np.zeros((2, 2)), Q=[[2.0, 0.0], [0.0, 0.5]])
        assert fs.no_comm_limit(p) == pytest.approx(2.5, abs=1e-12)

    def test_scalar_closed_form(self):
        p = fs.ProcessModel(A=[[0.5]], Q=[[1.0]])
        assert fs.no_comm_limit(p) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_unstable_rejected(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        with pytest.raises(CostDomainError):
            fs.no_comm_limit(p)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solved_covariance_satisfies_its_equation(self, dim):
        # the residual of P = A P A' + Q, which the solve does not look at
        rng = np.random.default_rng(40 + dim)
        A = rng.normal(size=(200, dim, dim))
        A *= (rng.uniform(0.0, 0.9999, 200) / np.abs(np.linalg.eigvals(A)).max(axis=1))[:, None, None]
        B = rng.normal(size=(200, dim, dim)) * rng.uniform(1e-3, 1e3, (200, 1, 1))
        Q = B @ B.swapaxes(1, 2)
        P = _no_comm_covs(A, Q)
        residual = np.linalg.norm(A @ P @ A.swapaxes(1, 2) + Q - P, axis=(1, 2))
        assert (residual <= 1e-12 * np.linalg.norm(P, axis=(1, 2))).all()
        p = fs.ProcessModel(A=A[0], Q=Q[0])
        assert fs.no_comm_limit(p) == np.trace(P[0]) == reference_no_comm_limit(p)

    def test_stable_sequence_past_the_step_budget_raises(self, monkeypatch):
        # rho = 0.99 needs ~1150 steps to come within the tail cut; the fast process meets it in time
        monkeypatch.setattr(sensors, "_MAX_STEPS", 2 * _WINDOW)
        slow, fast = fs.ProcessModel(A=[[0.99]], Q=[[1.0]]), fs.ProcessModel(A=[[0.5]], Q=[[1.0]])
        assert fs.build_cost_curve(fast, 0.0).traces.size < 2 * _WINDOW
        with pytest.raises(fs.NumericalError, match=r"within 64 steps; .* spectral radius 0\.99 is too close to 1"):
            fs.CurveCostModel.from_floors([fast, slow], [0.0, 0.0])

    def test_unstable_sequence_past_the_step_budget_raises(self, monkeypatch):
        # rho = 1 never overflows, so only the step budget stops a floor too small for it; at 0.05 it
        # needs 21 steps, at 0.001 it would need 1001
        monkeypatch.setattr(sensors, "_MAX_STEPS", 2 * _WINDOW)
        walk = fs.ProcessModel(A=[[1.0]], Q=[[1.0]])
        assert fs.build_cost_curve(walk, 0.05).traces.size == 21
        with pytest.raises(fs.NumericalError, match=r"within 64 steps; the rate floor 0\.001 is too small"):
            fs.CurveCostModel.from_floors([walk, walk], [0.05, 1e-3])
        # the simulator's sequences keep their horizon-sized caps
        assert prediction_traces([walk], [1000], [1e-3])[2].tolist() == [1002]


class TestLipschitzBounds:
    def test_single_slope_curve(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        alpha, beta = slope_bounds_of(curve, 0.0)
        assert alpha == pytest.approx(0.5, rel=1e-12)
        assert beta == pytest.approx(0.5, rel=1e-12)

    def test_beta_on_segment_holding_lb(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.05)
        alpha, beta = slope_bounds_of(curve, 0.05)
        xi_lb = fs.threshold_from_rate(0.05).xi
        assert beta == pytest.approx(abs(curve.segment_slope(xi_lb)), rel=1e-12)
        assert alpha == pytest.approx(abs(curve.segment_slope(0)), rel=1e-12)
        assert 0 < alpha <= beta

    def test_lb_one_uses_last_segment(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.05)
        alpha, beta = slope_bounds_of(curve, 1.0)
        assert alpha == beta == pytest.approx(abs(curve.segment_slope(0)), rel=1e-12)

    def test_flat_curve_flagged(self):
        p = fs.ProcessModel(A=[[0.4, 0.1], [0.0, 0.2]], Q=np.zeros((2, 2)))
        curve = fs.build_cost_curve(p, 0.5)
        with pytest.raises(CostDomainError):
            slope_bounds_of(curve, 0.5)

    def test_nan_lower_bound_rejected(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        with pytest.raises(CostDomainError, match=r"^lower bound must lie in \[0, 1\], got nan$"):
            slope_bounds_of(curve, math.nan)
        costs = fs.CurveCostModel([curve, fs.build_cost_curve(fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), 0.05)])
        with pytest.raises(CostDomainError, match=r"^lower bound must lie in \[0, 1\], got nan$"):
            costs.slope_bounds([math.nan, 0.05])


class TestProcessModelValidation:
    def test_negative_q_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            fs.ProcessModel(A=[[0.5]], Q=[[-0.1]])

    def test_semidefinite_r_rejected(self):
        with pytest.raises(ValueError):
            fs.ProcessModel(A=[[0.5]], Q=[[1.0]], R_meas=[[0.0]])

    def test_unobservable_pair_flagged_by_validate(self):
        p = fs.ProcessModel(A=[[1.1, 0.0], [0.0, 0.9]], Q=np.eye(2), C=[[0.0, 1.0]], R_meas=[[1.0]])
        with pytest.raises(ValueError, match="observable"):
            p.validate()

    def test_uncontrollable_pair_flagged_by_validate(self):
        p = fs.ProcessModel(A=[[0.5, 0.0], [0.0, 0.4]], Q=[[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="controllable"):
            p.validate()

    def test_paper_processes_validate(self, bench_config):
        for p in bench_config.processes:
            p.validate()

    @pytest.mark.parametrize("name", ["A", "Q"])
    def test_integer_too_large_for_a_float_rejected(self, name):
        kwargs = {"A": [[0.5]], "Q": [[1.0]]}
        kwargs[name] = [[10**400]]
        with pytest.raises(ValueError, match=rf"^{name} must hold numbers only: "):
            fs.ProcessModel(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["A", "Q", "C", "R_meas", "Pi0"])
    def test_non_finite_entry_rejected(self, name, bad):
        kwargs = {"A": np.eye(2) * 0.5, "Q": np.eye(2), "C": np.eye(2), "R_meas": np.eye(2), "Pi0": np.eye(2)}
        kwargs[name] = kwargs[name].copy()
        kwargs[name][1, 0] = bad
        with pytest.raises(ValueError, match=rf"^{name} must have finite entries"):
            fs.ProcessModel(**kwargs)


def rank_test_mix(seed=7):
    """The seeded mix of ``mixed_processes`` plus unobservable and uncontrollable ones, shuffled."""
    rng = np.random.default_rng(seed)
    processes, _ = mixed_processes()
    for dim in (2, 3):
        A = np.diag(rng.uniform(0.2, 1.3, dim))
        C = np.eye(dim)[1:]  # fewer outputs than states, the first state unseen
        Q = np.diag([0.0] + [1.0] * (dim - 1))  # no noise drives the first state
        processes += [
            fs.ProcessModel(A=A, Q=np.eye(dim), C=C, R_meas=np.eye(dim - 1)),
            fs.ProcessModel(A=A, Q=Q),
            fs.ProcessModel(A=A, Q=Q, C=C, R_meas=np.eye(dim - 1)),
        ]
    processes.append(fs.ProcessModel(A=[[0.4]], Q=[[0.0]]))
    return [processes[i] for i in rng.permutation(len(processes))]


class TestBatchedValidation:
    def test_rank_tests_match_per_process(self, tmp_path):
        processes = rank_test_mix()
        reasons = [reference_rank_failure(p) for p in processes]
        assert any(r is None for r in reasons)
        assert {r for r in reasons if r} == {"(A, C) is not observable", "(A, sqrt(Q)) is not controllable"}
        assert any(r and p.C.shape[0] < p.dim for p, r in zip(processes, reasons))
        # each shape group as one stack, tested from every row on: the first failing row, as each alone
        groups = {}
        for p, reason in zip(processes, reasons):
            groups.setdefault((p.A.shape, p.C.shape), []).append((p, reason))
        assert any(len({r for _, r in g}) == 2 and g[0][0].C.shape[0] < g[0][0].dim for g in groups.values())
        for group in groups.values():
            A, Q, C = (np.array([getattr(p, name) for p, _ in group]) for name in ("A", "Q", "C"))
            for start in range(len(group)):
                expected = next(((i - start, r) for i, (_, r) in enumerate(group) if i >= start and r), None)
                assert sensors._stack_rank_failure(A[start:], Q[start:], C[start:]) == expected
        # loaded as a config from every start: the processes, or the message, that checking each entry in turn gives
        entries = [{"A": p.A.tolist(), "Q": p.Q.tolist(), "C": p.C.tolist(), "R": p.R_meas.tolist(),
                    **({} if p.Pi0 is None else {"Pi0": p.Pi0.tolist()})} for p in processes]
        path = tmp_path / "mix.json"
        for start in range(len(entries)):
            path.write_text(json.dumps({"total_rate": 1.0, "processes": entries[start:]}))
            try:
                expected = reference_build_processes(entries[start:])
            except ConfigError as exc:
                with pytest.raises(ConfigError) as raised:
                    load_config(path)
                assert str(raised.value) == str(exc)
            else:
                for p, ref in zip(load_config(path).processes, expected, strict=True):
                    for name in ("A", "Q", "C", "R_meas", "Pi0"):
                        got, want = getattr(p, name), getattr(ref, name)
                        assert got is want is None or got.tobytes() == want.tobytes()
        for p, reason in zip(processes, reasons):
            if reason is None:
                p.validate()
            else:
                with pytest.raises(ValueError, match=re.escape(reason)):
                    p.validate()

    def test_stable_mask_matches_classify_stability(self):
        processes = rank_test_mix()
        mask = fs.stable_mask([p.A for p in processes])
        assert mask.tolist() == [fs.classify_stability(p.A) for p in processes]
        assert 0 < mask.sum() < len(processes)
        assert fs.stable_mask([]).shape == (0,)
        valid, _ = mixed_processes()
        model = fs.CurveCostModel.from_processes(valid, unstable_floor=0.05)
        np.testing.assert_array_equal(model.stable, fs.stable_mask([p.A for p in valid]))


class TestCurveCostModel:
    def test_with_floor_extends_unstable_curve(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        model = fs.CurveCostModel.from_processes([p], unstable_floor=0.5)
        floored = model.with_floor([0.05])
        assert floored.values([0.1])[0] == reference_cost_eval(reference_cost_curve(p, 0.05), 0.1)
        assert floored.curves[0].domain_floor == 0.05
        # the model asked is left as it was
        assert model.curves[0].domain_floor == 0.5
        with pytest.raises(CostDomainError):
            model.values([0.1])

    def test_with_floor_returns_a_model_that_covers_it(self, bench_instance):
        cfg, _, costs, mask = bench_instance
        for lower in (np.where(mask, cfg.solver.eta, 0.0), np.where(mask, 0.5, 0.0), np.zeros(5)):
            assert costs.with_floor(lower) is costs
        fixed = fs.CurveCostModel(costs.curves)
        assert fixed.with_floor(np.where(mask, 1e-4, 0.0)) is fixed  # no processes to rebuild from
        affine = fs.AffineCostModel([2.0, 1.0], [1.0, 0.5])
        assert affine.with_floor([0.1, 0.1]) is affine
        with pytest.raises(ValueError, match="expected 5 floors"):
            costs.with_floor([0.1])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_floors_at_inverts_every_curve_through_its_kinks(self, seed):
        processes, _ = mixed_processes(seed)
        costs = fs.CurveCostModel.from_processes(processes, unstable_floor=0.004)
        curves = costs.curves
        knot_costs = np.concatenate([c.cumsums / np.arange(1.0, c.cumsums.size + 1.0) for c in curves])
        limits = [c.stable_limit for c in curves if c.stable_limit is not None]
        top = min(c.cumsums[-1] / c.cumsums.size for c, s in zip(curves, costs.stable) if not s)
        rng = np.random.default_rng(seed)
        levels = [*rng.choice(knot_costs[knot_costs <= top], 20), *rng.uniform(knot_costs.min(), top, 20),
                  *[limit for limit in limits if limit <= top], knot_costs.min() / 2]
        for level in levels:
            floors, model = costs.floors_at(level)
            assert model is costs  # no row is short of the level
            np.testing.assert_allclose(floors, reference_floors_at(curves, level), rtol=1e-12)
            inside = (floors > 0) & (floors < 1)
            got = costs.with_floor(floors).values(floors)
            np.testing.assert_allclose(got[inside], level, rtol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_rates_at_searches_the_knots_one_level_per_agent(self, seed):
        processes, _ = mixed_processes(seed)
        costs = fs.CurveCostModel.from_processes(processes, unstable_floor=0.004)
        curves = costs.curves
        knot_costs = np.concatenate([c.cumsums / np.arange(1.0, c.cumsums.size + 1.0) for c in curves])
        top = min(c.cumsums[-1] / c.cumsums.size for c, s in zip(curves, costs.stable) if not s)
        rng = np.random.default_rng(seed)
        levels = [*rng.choice(knot_costs[knot_costs <= top], 20), *rng.uniform(knot_costs.min(), top, 20),
                  *[c.stable_limit for c in curves if c.stable_limit is not None and c.stable_limit <= top],
                  knot_costs.min() / 2]
        for level in levels:
            # at equal levels, the scalar floors_at bit for bit
            assert costs.rates_at(np.full(costs.n, level)).tobytes() == costs.floors_at(level)[0].tobytes()
        for row in rng.choice(levels, (10, costs.n)):
            want = [reference_floors_at([curve], level)[0] for curve, level in zip(curves, row)]
            np.testing.assert_allclose(costs.rates_at(row), want, rtol=1e-12)
        with pytest.raises(ValueError, match=f"expected {costs.n} levels"):
            costs.rates_at(levels[:3])

    def test_rates_at_past_the_stored_range_reads_below_it(self):
        # both rows stop short: the unstable one at its floor 0.5, the stable one at its cap for floor 0.3
        ps = [fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), fs.ProcessModel(A=[[0.9]], Q=[[1.0]])]
        shallow = fs.CurveCostModel.from_floors(ps, [0.5, 0.3])
        curves = shallow.curves
        lowest = np.array([1.0 / c.traces.size for c in curves])  # each row's last knot
        last = np.array([c.cumsums[-1] / c.cumsums.size for c in curves])
        limit = curves[1].stable_limit
        for levels in (last * (1 + 1e-9), [last[0] * 2, (last[1] + limit) / 2], [1e300, limit], [np.inf, np.inf]):
            rates = shallow.rates_at(levels)
            assert np.isfinite(rates).all() and (0 <= rates).all() and (rates < lowest).all(), levels
        assert shallow.rates_at([np.inf, np.inf]).tolist() == [0.0, 0.0]
        # the deeper model that floors_at continues to reads the level itself
        level = float(last[0] * 1.5)
        rates, deep = shallow.floors_at(level)
        assert deep.rates_at([level, level]).tobytes() == rates.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_elasticity_bounds_equal_the_segment_by_segment_bound(self, seed):
        processes, floors = mixed_processes(seed)
        costs = fs.CurveCostModel(fs.CurveCostModel.from_floors(processes, floors).curves)
        rng = np.random.default_rng(seed)
        floors = np.array(floors)
        for lower in (floors, floors + rng.uniform(0, 1, floors.size) * (1 - floors), np.maximum(floors, 0.5)):
            want = [reference_node(costs, i, lb)[1] for i, lb in enumerate(lower.tolist())]
            np.testing.assert_allclose(costs.elasticity_bounds(lower), want, rtol=1e-12)
        with pytest.raises(CostDomainError, match="below the curve's domain floor"):
            costs.elasticity_bounds(np.where(floors > 0, floors / 2, 0.0))

    def test_floors_at_builds_short_curves_to_the_level(self):
        ps = [fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), fs.ProcessModel(A=[[0.9]], Q=[[1.0]])]
        costs = fs.CurveCostModel.from_processes(ps, unstable_floor=0.5)
        deep = fs.CurveCostModel.from_processes(ps, unstable_floor=1e-3)
        assert costs.curves[0].traces.size == 3
        for k in (40, 41.5):
            level = float(np.interp(k, np.arange(deep.curves[0].cumsums.size), deep.curves[0].cumsums)) / (k + 1)
            # the continued row is a prefix of the deeper one, so the floors are bitwise those of the deeper model
            floors, model = costs.floors_at(level)
            assert floors.tobytes() == deep.floors_at(level)[0].tobytes()
            np.testing.assert_allclose(floors, reference_floors_at(deep.curves, level), rtol=1e-12)
            # the returned model holds the row up to its first knot that reaches the level, at the floor
            # it had; down to the floors, it takes no step inside that knot's segment, and at the knot
            # itself the one step to the next
            assert model._sizes.tolist() == [math.ceil(k) + 1, costs._sizes[1]] and model._floors.tolist() == [0.5, 0]
            floored = model.with_floor(floors)
            assert floored._sizes[0] - model._sizes[0] == (k == 40)
            assert (floored._traces is model._traces) == (k != 40)
            assert_same_table(floored, fs.CurveCostModel.from_floors(ps, floors))
            np.testing.assert_allclose(floored.values(floors)[0], level, rtol=1e-12)
        assert costs.curves[0].domain_floor == 0.5 and costs._sizes[0] == 3  # the model asked is left as it was
        with pytest.raises(CostDomainError, match="past the stored range of curve 0"):
            fs.CurveCostModel(costs.curves).floors_at(level)
        blowup = fs.CurveCostModel.from_processes([fs.ProcessModel(A=[[1e5]], Q=[[1.0]])], unstable_floor=0.5)
        with pytest.raises(fs.NumericalError, match="overflowed at step 31; its mean has not reached the level"):
            blowup.floors_at(1e300)
        affine = fs.AffineCostModel([2.0, 1.0], [1.0, 0.5])
        floors, model = affine.floors_at(1.5)
        assert floors.tolist() == [0.0, 0.0] and model is affine

    def test_floors_at_continues_a_stable_row_short_of_its_tail(self):
        # built to floor 0.3, the row stops at its cap; the cost at rate 0.05 lies past its stored knots,
        # and the straight segment from its last knot to the stable limit would give 0.0865
        p = fs.ProcessModel(A=[[0.9]], Q=[[1.0]])
        deep = fs.CurveCostModel.from_floors([p], [0.0])
        level = float(deep.values([0.05])[0])
        shallow = fs.CurveCostModel.from_floors([p], [0.3])
        assert stop_kinds(shallow) == ["cap"] and stop_kinds(deep) == ["tail"]
        floors, model = shallow.floors_at(level)
        assert floors.tobytes() == deep.floors_at(level)[0].tobytes()
        assert floors[0] == pytest.approx(0.05, rel=1e-12)
        # the row runs on to its tail, as built at floor 0; its floor stays where it was
        assert model._sizes.tolist() == deep._sizes.tolist() and stop_kinds(model) == ["tail"]
        assert model._traces.tobytes() == deep._traces.tobytes() and model._floors.tolist() == [0.3]
        assert shallow._sizes.tolist() == [4] and stop_kinds(shallow) == ["cap"]  # the model asked is left as it was
        with pytest.raises(CostDomainError, match="past the stored range of curve 0"):
            fs.CurveCostModel(shallow.curves).floors_at(level)  # no process to continue the row from
        assert fs.CurveCostModel(deep.curves).floors_at(level)[0].tobytes() == floors.tobytes()

    def test_fixed_curves_raise_below_floor(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        model = fs.CurveCostModel([fs.build_cost_curve(p, 0.5)])
        with pytest.raises(CostDomainError):
            model.values([0.1])

    def test_slope_bounds_per_agent(self, bench_instance):
        _, region, costs, mask = bench_instance
        lower = np.where(mask, 0.01, 0.0)
        alphas, betas = costs.slope_bounds(lower)
        assert alphas.shape == betas.shape == (5,)
        assert np.all(alphas > 0) and np.all(betas >= alphas)
        with pytest.raises(ValueError, match="expected 5 lower bounds"):
            costs.slope_bounds(lower[:4])

    def test_slope_bounds_equal_lipschitz_bounds_on_fixture(self, bench_instance):
        cfg, _, costs, mask = bench_instance
        for lower in (np.where(mask, cfg.solver.eta, 0.0), np.where(mask, 0.01, 0.3), np.ones(5)):
            assert assert_slope_bounds_equal_scalar(costs.with_floor(lower), lower) == "equal"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slope_bounds_equal_lipschitz_bounds_on_random_fleets(self, seed):
        processes, floors = mixed_processes(seed)
        costs = fs.CurveCostModel(fs.CurveCostModel.from_floors(processes, floors).curves)
        rng = np.random.default_rng(seed)
        floors = np.array(floors)
        for lower in (floors, floors + rng.uniform(0, 1, floors.size) * (1 - floors), np.maximum(floors, 0.5)):
            assert assert_slope_bounds_equal_scalar(costs, lower) == "equal"

    @pytest.mark.parametrize("changes", [
        {1: 1e-4, 2: 0.0},  # below the floor, then no bound down to 0
        {0: 0.0, 1: 1e-4},
        {3: -0.5, 4: 1.5},
        {4: 1.5},
        {2: math.nan, 3: -0.5},
    ])
    def test_slope_bounds_raise_for_first_failing_agent(self, bench_instance, changes):
        cfg, _, costs, mask = bench_instance
        assert mask.tolist() == [True, True, True, False, False] and cfg.solver.eta == 1e-3
        lower = np.where(mask, cfg.solver.eta, 0.0)
        lower[list(changes)] = list(changes.values())
        assert assert_slope_bounds_equal_scalar(costs, lower) == "raised"

    def test_rate_within_tolerance_of_the_floor_past_the_stored_range_raises(self):
        # 1/floor lies just below 2, so the curve stores segment 0 only; rate 0.5 is within the
        # floor's tolerance but needs segment 1
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.5 * (1 + 1e-11))
        assert curve.traces.size == 2
        costs = fs.CurveCostModel([curve])
        assert assert_slope_bounds_equal_scalar(costs, [0.5]) == "raised"
        assert_same_error(lambda: reference_cost_eval(curve, 0.5), lambda: costs.values([0.5]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_values_and_slopes_read_the_segment_values_reads(self, seed):
        # the slope magnitude is -segment_slope of the segment each value is read on, bit for bit: at a
        # knot 1/(k+1) segment k, the steeper one left of it; at a stable row's rate 0, its affine tail
        processes, floors = mixed_processes(seed)
        costs = fs.CurveCostModel.from_floors(processes, floors)
        curves, floors, rng = costs.curves, np.array(floors), np.random.default_rng(seed)
        last = np.array([c.traces.size - (1 if c.stable_limit is not None else 2) for c in curves])
        knots = 1.0 / (1.0 + np.floor(rng.uniform(0, 1, last.size) * (last + 1)))
        knots = np.where(knots >= floors, knots, 1.0)
        cases = [floors + rng.uniform(0, 1, floors.size) * (1 - floors), knots, np.where(costs.stable, 0.0, floors),
                 np.ones(floors.size)]
        for rates in cases:
            values, slopes = costs.values_and_slopes(rates)
            assert values.tobytes() == costs.values(rates).tobytes()
            segments = [curve.traces.size if r == 0 else fs.threshold_from_rate(r).xi
                        for curve, r in zip(curves, rates.tolist())]
            expected = [-curve.segment_slope(k) for curve, k in zip(curves, segments)]
            assert slopes.tobytes() == np.array(expected).tobytes()
        assert (slopes > 0).all()
        at_knots = costs.values_and_slopes(knots)[1]
        assert (at_knots >= costs.values_and_slopes(np.minimum(knots * (1 + 1e-9), 1.0))[1]).all()
        with pytest.raises(CostDomainError, match="rate 0 is outside the domain of an unstable cost curve"):
            costs.values_and_slopes(np.zeros(floors.size))

    def test_slope_bounds_raise_for_flat_curve(self, bench_config):
        flat = fs.ProcessModel(A=[[0.4]], Q=[[0.0]])
        costs = fs.CurveCostModel.from_processes([*bench_config.processes, flat, flat])
        lower = np.where(~costs.stable, bench_config.solver.eta, 0.0)
        assert assert_slope_bounds_equal_scalar(costs, lower) == "raised"


def slope_bounds_of(curve, lb) -> tuple[float, float]:
    """``(alpha, beta)`` of one curve on [lb, 1]: ``slope_bounds`` of the model that holds it alone."""
    alphas, betas = fs.CurveCostModel([curve]).slope_bounds([lb])
    return float(alphas[0]), float(betas[0])


def assert_same_error(reference, call) -> None:
    """``call()`` raises the :class:`CostDomainError` that ``reference()`` raises, message and all."""
    with pytest.raises(CostDomainError) as expected:
        reference()
    with pytest.raises(CostDomainError, match=f"^{re.escape(str(expected.value))}$"):
        call()


def assert_slope_bounds_equal_scalar(costs, lower) -> str:
    """``costs.slope_bounds`` returns the reference bounds per agent bitwise, or raises its first error."""
    try:
        bounds = [reference_lipschitz_bounds(curve, lb) for curve, lb in zip(costs.curves, np.asarray(lower).tolist())]
    except CostDomainError as exc:
        with pytest.raises(CostDomainError) as raised:
            costs.slope_bounds(lower)
        assert str(raised.value) == str(exc)
        return "raised"
    alphas, betas = costs.slope_bounds(lower)
    assert alphas.tobytes() == np.array([a for a, _ in bounds]).tobytes()
    assert betas.tobytes() == np.array([b for _, b in bounds]).tobytes()
    return "equal"


def mixed_processes(seed=20261018):
    """Seeded 1-, 2- and 3-d processes, stable, unstable and with rho = 1, and their floors.

    ``A`` is upper triangular, so its spectral radius is the largest diagonal
    magnitude. Every other process has a non-identity ``C``/``R`` (fewer
    outputs than states) and a ``Pi0``. Stable processes alternate between
    floor 0 and a positive floor; the order is shuffled so the dimensions
    interleave.
    """
    rng = np.random.default_rng(seed)
    processes, floors = [], []
    for dim in (1, 2, 3):
        for rho in (0.3, 0.9, 1.0, 1.1, 1.25):
            for variant in range(2):
                A = np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
                A[np.diag_indices(dim)] = rng.uniform(0.0, rho, dim)
                A[0, 0] = rho * rng.choice([-1.0, 1.0])
                B = rng.normal(size=(dim, dim))
                kwargs = {"A": A, "Q": B @ B.T + 0.1 * np.eye(dim)}
                if variant:
                    m = max(1, dim - 1)
                    S = rng.normal(size=(m, m))
                    P = rng.normal(size=(dim, dim))
                    kwargs.update(C=rng.normal(size=(m, dim)), R_meas=S @ S.T + 0.5 * np.eye(m), Pi0=P @ P.T)
                processes.append(fs.ProcessModel(**kwargs))
                if rho < 1:
                    floors.append(0.0 if variant else 0.02)
                else:
                    floors.append(float(rng.choice([0.2, 0.01, 0.004])))
    order = rng.permutation(len(processes))
    return [processes[i] for i in order], [floors[i] for i in order]


class TestBatchedBuild:
    def test_curves_equal_scalar_reference(self):
        processes, floors = mixed_processes()
        curves = fs.CurveCostModel.from_floors(processes, floors).curves
        for p, floor, curve in zip(processes, floors, curves):
            ref = reference_cost_curve(p, floor)
            np.testing.assert_array_equal(curve.traces, ref.traces)
            np.testing.assert_array_equal(curve.cumsums, ref.cumsums)
            assert curve.stable_limit == ref.stable_limit
            assert curve.domain_floor == floor

    def test_batch_covers_every_kind(self):
        processes, floors = mixed_processes()
        assert {p.dim for p in processes} == {1, 2, 3}
        rhos = [max(abs(np.linalg.eigvals(p.A))) for p in processes]
        assert min(rhos) < 1 and max(rhos) > 1
        assert any(abs(p.A[0, 0]) == 1.0 and not fs.classify_stability(p.A) for p in processes)
        assert any(p.Pi0 is not None and p.C.shape[0] < p.dim for p in processes)

    def test_filter_covs_equal_scalar_reference(self):
        # the reference stops only on the Frobenius change, so the cycle stop moves no converging Pbar
        processes, _ = mixed_processes()
        groups = {}
        for p in processes:
            groups.setdefault(p.C.shape, []).append(p)
        assert len(groups) > 1
        for group in groups.values():  # one batched iteration per shape
            for p, X in zip(group, sensors._filter_covs(sensors._grouped(group)[0])):
                np.testing.assert_array_equal(X, reference_filter_cov(p))
                np.testing.assert_array_equal(fs.steady_state_filter_cov(p), X)

    def test_concurrent_builds_keep_the_same_steady_state(self):
        # threads that build from the same processes at once each get the table built alone
        processes, floors = mixed_processes()
        want = fs.CurveCostModel.from_floors(mixed_processes()[0], floors)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with time_limit(60, "the concurrent builds"), ThreadPoolExecutor(4) as pool:
                models = list(pool.map(lambda _: fs.CurveCostModel.from_floors(processes, floors), range(8)))
        finally:
            sys.setswitchinterval(interval)
        for model in models:
            assert_same_table(model, want)

    def test_one_element_calls_match_batch(self):
        processes, floors = mixed_processes()
        for p, floor, curve in zip(processes, floors, fs.CurveCostModel.from_floors(processes, floors).curves):
            single = fs.build_cost_curve(p, floor)
            np.testing.assert_array_equal(single.traces, curve.traces)
            if curve.stable_limit is not None:
                assert fs.no_comm_limit(p) == curve.stable_limit

    def test_overflow_in_healthy_batch_raises(self):
        processes, floors = mixed_processes()
        blowup = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        with pytest.raises(fs.NumericalError, match="overflowed.*1e-09"):
            fs.CurveCostModel.from_floors([*processes, blowup], [*floors, 1e-9])

    def test_one_floor_per_process(self):
        processes, floors = mixed_processes()
        with pytest.raises(ValueError):
            fs.CurveCostModel.from_floors(processes, floors[:-1])


class TestWindowedTraces:
    """``prediction_traces`` checks its stop rules once per window of steps: ``_WINDOW`` steps while a row
    left has a stable tail or a level to look for, else a window run to the latest cap of the rows left, at
    most ``max(_WINDOW, _WINDOW_CELLS // rows)`` steps. Each sequence still stops, and raises, at the step
    where the recursion that checks after every step did, with the same bits."""

    def check(self, ps, caps, rates, stable=None):
        """The traces, starts and lengths, bitwise those of the per-step recursion, or its error."""
        try:  # 1e-10: the relative tail cut of stable rows in prediction_traces
            expected = reference_prediction_traces(ps, caps, rates, stable, 1e-10)
        except fs.NumericalError as exc:
            with pytest.raises(fs.NumericalError) as raised:
                prediction_traces(ps, caps, rates, stable)
            assert str(raised.value) == str(exc)
            return None
        got = prediction_traces(ps, caps, rates, stable)[:3]  # the reference has no sums or end states
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        return got

    @pytest.mark.parametrize("d", range(1, 13))
    def test_diagonal_sums_are_np_trace_bit_for_bit(self, d):
        # summed in order up to d = 7, where np.trace sums in order too, and by np.trace from d = 8 on
        rng = np.random.default_rng(d)
        Ms = rng.standard_normal((_WINDOW + 2, 9, d, d)) * 10.0 ** rng.integers(-12, 12, (_WINDOW + 2, 9, d, d))
        got, expected = sensors._traces(Ms), np.trace(Ms, axis1=2, axis2=3)
        assert got.dtype == expected.dtype and got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_caps_at_step_zero_and_around_window_edges(self, bench_config):
        ps = [fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), bench_config.processes[0]]
        caps = [-1, _WINDOW - 2, _WINDOW - 1, 2 * _WINDOW - 2, 2 * _WINDOW - 1, 5]
        batch = [p for p in ps for _ in caps]
        _, _, lengths = self.check(batch, caps * 2, [0.5] * len(batch))
        # a sequence stops after step cap + 1: step 0, the last step of a window or the first of the next
        assert lengths.tolist() == [cap + 2 for cap in caps] * 2

    def test_repeat_across_a_window_edge(self, bench_config):
        noiseless = fs.ProcessModel(A=[[0.5]], Q=[[0.0]])  # its covariance is 0 from step 0 on
        ps = [PERIOD_TWO, bench_config.processes[3], bench_config.processes[4], noiseless]
        _, _, lengths = self.check(ps, [1000] * 4, [0.5] * 4)
        # the 2-cycle stops at step _WINDOW + 1 on the covariance of step _WINDOW - 1, in the window
        # before; a zero covariance repeats at step 2, the first with one two steps back
        assert lengths.tolist() == [_WINDOW + 2, 172, 20, 3]

    def test_tail_cuts_in_a_mixed_batch(self):
        processes, floors = mixed_processes()
        stable = fs.stable_mask([p.A for p in processes])
        caps = [np.inf if f == 0 else math.floor(1.0 / f) - 1 for f in floors]
        _, _, lengths = self.check(processes, caps, [0.5] * len(processes), stable)
        assert (lengths[np.isinf(caps)] > 1).all()

    @pytest.mark.parametrize("a, step", [(1e5, _WINDOW - 1), (8e4, _WINDOW), (5.5e4, _WINDOW + 1)])
    def test_overflow_around_the_cap(self, a, step):
        blowup = fs.ProcessModel(A=[[a]], Q=[[1.0]])
        with pytest.raises(fs.NumericalError, match=f"overflowed at step {step};"):
            reference_prediction_traces([blowup], [10 * _WINDOW], [0.01])
        healthy = fs.ProcessModel(A=[[1.1]], Q=[[1.0]])
        for cap in range(step - 3, step + 2):
            # the sequence runs through step cap + 1: it raises from cap = step - 1 on
            raised = self.check([healthy, blowup, healthy], [10 * _WINDOW, cap, 3], [0.3, 0.01, 0.2]) is None
            assert raised == (cap >= step - 1)
        # of two sequences that overflow, the first to do so is named, then the first in the batch
        self.check([fs.ProcessModel(A=[[5.5e4]], Q=[[1.0]]), blowup], [200, 200], [0.2, 0.1])
        self.check([blowup, blowup], [200, 200], [0.2, 0.1])

    def test_level_stop_ends_at_the_first_knot_reaching_the_level(self, bench_config):
        # each row is a prefix of its deeper build and ends at the first knot k whose mean
        # (traces[0] + ... + traces[k]) / (k + 1) reaches its level: levels on knots and just past them,
        # at step 0 and around window edges, for three shapes and rho = 1
        unstable = [fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), bench_config.processes[0], bench_config.processes[1],
                    fs.ProcessModel(A=[[1.0]], Q=[[1.0]]), fs.ProcessModel(A=[[1.002]], Q=[[1e-3]])]
        deep = reference_prediction_traces(unstable, [4 * _WINDOW] * len(unstable), [0.5] * len(unstable))
        batch, levels, expected = [], [], []
        for i, p in enumerate(unstable):
            row = deep[0][deep[1][i]:deep[1][i] + deep[2][i]]
            means = np.cumsum(row) / np.arange(1.0, row.size + 1.0)
            for k in (0, 1, _WINDOW - 1, _WINDOW, 2 * _WINDOW + 3):
                for level in (means[k], np.nextafter(means[k], math.inf)):
                    batch.append(p)
                    levels.append(level)
                    expected.append(row[:int(np.argmax(means >= level)) + 1])
        stable = fs.ProcessModel(A=[[0.9]], Q=[[1.0]])  # keeps its tail cut: a level stops unstable rows only
        n = len(batch)
        traces, first, lengths, *_ = prediction_traces([*batch, stable], [math.inf] * (n + 1), [0.0] * (n + 1),
                                                       [False] * n + [True], None, levels + [0.0])
        for i, want in enumerate(expected):
            assert traces[first[i]:first[i] + lengths[i]].tobytes() == want.tobytes(), i
        assert [len(want) for want in expected[:4]] == [1, 2, 2, 3]  # on the knot, then one past it
        assert lengths[n] == prediction_traces([stable], [math.inf], [0.0], [True])[2][0] > 2

    def test_level_stop_after_an_overflow_raises(self):
        blowup = fs.ProcessModel(A=[[1e5]], Q=[[1.0]])  # its trace overflows at step _WINDOW - 1
        with pytest.raises(fs.NumericalError, match=f"overflowed at step {_WINDOW - 1}; its mean has not reached "
                                                    "the level 1e[+]300"):
            prediction_traces([blowup], [math.inf], [0.0], levels=[1e300])
        row = reference_prediction_traces([blowup], [_WINDOW - 4], [0.5])[0][:-1]
        means = np.cumsum(row) / np.arange(1.0, row.size + 1.0)
        assert prediction_traces([blowup], [math.inf], [0.0], levels=[1e200])[2].tolist() == [np.argmax(means >= 1e200) + 1]

    def test_runs_past_a_block(self):
        ps = [fs.ProcessModel(A=[[1.0005]], Q=[[1.0]]), fs.ProcessModel(A=[[1.0002, 0.1], [0.0, 0.5]], Q=np.eye(2))]
        caps = [1021, 1022, 1023, 1024, 2100]
        batch = [p for p in ps for _ in caps]
        _, _, lengths = self.check(batch, caps * 2, [0.001] * len(batch))
        assert lengths.max() > 2048

    def test_lone_long_run(self):
        _, _, lengths = self.check([fs.ProcessModel(A=[[1.0002]], Q=[[1.0]])], [5000], [1e-4])
        assert lengths.tolist() == [5002]

    @pytest.mark.parametrize("k", [1, 3, 200, 600])
    def test_capped_rows_around_the_sized_window(self, k):
        # every row stops at its cap: the window runs to the latest cap, within the cell bound b. Caps put
        # stops on the last step of a window, the one before and the one after, at the bound and short of it
        b = max(_WINDOW, _WINDOW_CELLS // k)
        ps = ([fs.ProcessModel(A=[[1.0002]], Q=[[1.0]])] if k == 1
              else [fs.ProcessModel(A=[[1.0002, 0.1], [0.0, 0.5]], Q=np.eye(2)),
                    fs.ProcessModel(A=[[-1.0001, 0.0], [0.3, 0.9]], Q=np.diag([1.0, 2.0]))] if k == 3
              else [fs.ProcessModel(A=[[a]], Q=[[1.0]]) for a in (1.0, -1.01, 1.2, 1.05)])
        short = b // 2
        for pattern in ([b - 3, b - 2, b - 1], [b, b + 1], [short - 1, short], [short - 1, b + 1]):
            for caps in ([[cap] for cap in pattern] if k == 1 else [np.resize(pattern, k)]):
                _, _, lengths = self.check((ps * k)[:k], caps, [0.5] * k)
                assert lengths.tolist() == [cap + 2 for cap in caps]

    def test_caps_spread_over_200_steps(self, bench_config):
        caps = np.random.default_rng(5).permutation(np.arange(1, 201))
        for ps in ([fs.ProcessModel(A=[[1.05]], Q=[[1.0]])], bench_config.processes[:3]):
            _, _, lengths = self.check((list(ps) * 200)[:200], caps, [0.5] * 200)
            assert lengths.tolist() == (caps + 2).tolist()

    def test_repeat_and_overflow_in_a_sized_window(self):
        # with no tail or level to look for, one window runs to the cap of 1000: the 2-cycle's repeat at step
        # _WINDOW + 1, and the overflow at step _WINDOW + 1, lie inside it, past the first _WINDOW steps
        for caps in ([_WINDOW - 1], [_WINDOW], [_WINDOW + 1], [1000], [_WINDOW, 1000, 5, 2 * _WINDOW]):
            _, _, lengths = self.check([PERIOD_TWO] * len(caps), caps, [0.5] * len(caps))
            assert lengths.tolist() == [min(cap + 2, _WINDOW + 2) for cap in caps]
        blowup, healthy = fs.ProcessModel(A=[[5.5e4]], Q=[[1.0]]), fs.ProcessModel(A=[[1.1]], Q=[[1.0]])
        for caps in ([1000], [1000, 3000], [3000, _WINDOW - 1], [_WINDOW + 5, 20]):
            with pytest.raises(fs.NumericalError, match=f"overflowed at step {_WINDOW + 1}; the rate 0.01 is too"):
                prediction_traces([blowup, healthy][:len(caps)], caps, [0.01, 0.2][:len(caps)])
            assert self.check([blowup, healthy][:len(caps)], caps, [0.01, 0.2][:len(caps)]) is None
        # stopped at its cap just before the overflow, the row is returned
        assert self.check([blowup, healthy], [_WINDOW - 1, 3000], [0.01, 0.2])[2].tolist() == [_WINDOW + 1, 3002]

    @pytest.mark.parametrize("extra", [1, 2])
    def test_continuation_by_one_or_two_steps(self, bench_config, extra):
        # a row continued from its end state through starts runs a window of extra steps, and splices into the
        # sequence built at once to the deeper cap
        ps = [*bench_config.processes[:3], fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), fs.ProcessModel(A=[[1.0]], Q=[[1.0]])]
        caps, rates = np.array([0, 5, _WINDOW - 2, _WINDOW, 100]), [0.5] * len(ps)
        traces, first, lengths, cumsums, ends = prediction_traces(ps, caps, rates)
        sums = cumsums[first + lengths - 1]
        deep_traces, deep_first, deep_lengths = self.check(ps, caps + extra, rates)
        deep_cumsums = prediction_traces(ps, caps + extra, rates)[3]
        got, got_first, got_lengths, got_cumsums, _ = prediction_traces(ps, caps + extra, rates,
                                                                        starts=(lengths, ends, sums))
        assert got_lengths.tolist() == deep_lengths.tolist() == (lengths + extra).tolist()
        for i, depth in enumerate(lengths.tolist()):
            new = slice(got_first[i], got_first[i] + extra)
            old = slice(deep_first[i] + depth, deep_first[i] + depth + extra)
            assert got[new].tobytes() == deep_traces[old].tobytes()
            assert got_cumsums[new].tobytes() == deep_cumsums[old].tobytes()

    @pytest.mark.parametrize("budget", [100, _WINDOW_CELLS - 1, _WINDOW_CELLS, _WINDOW_CELLS + 1, 20000])
    def test_lone_row_runs_to_the_step_budget(self, monkeypatch, budget):
        # a lone capped row runs windows sized to the budget, and fails at it with the same text
        monkeypatch.setattr(sensors, "_MAX_STEPS", budget)
        walk = fs.ProcessModel(A=[[1.0]], Q=[[1.0]])
        with pytest.raises(fs.NumericalError) as raised:
            fs.CurveCostModel.from_floors([walk], [1e-5])
        assert str(raised.value) == (f"trace sequence did not stop within {budget} steps; "
                                     "the rate floor 1e-05 is too small")
        # a cap one step short of the budget: the row stops at its last step
        assert fs.CurveCostModel.from_floors([walk], [1.0 / (budget - 1)])._sizes.tolist() == [budget]
        with pytest.raises(fs.NumericalError, match=f"within {budget} steps"):
            fs.CurveCostModel.from_floors([walk], [1.0 / budget])


def probe_rates(curve, rng, count=40):
    """``count`` shuffled rates with r = 1, r = 1/k, the floor and, if stable, 0, -0.0 and one past the stored range."""
    points = [1.0, curve.domain_floor if curve.domain_floor > 0 else 1e-3]
    points += [1.0 / k for k in range(2, min(curve.traces.size + 2, 26))]
    if curve.stable_limit is not None:
        points += [0.0, -0.0, 1e-7]
    points = [r for r in points if r >= curve.domain_floor or r == 0.0]
    points += list(rng.uniform(curve.domain_floor, 1.0, 8))
    assert len(points) <= count
    return rng.permutation(np.resize(points, count))


def exact_cost(curve, r: float) -> Fraction:
    """A curve's cost at rate ``r``, read on the segment ``values`` reads, in exact arithmetic on its stored
    traces and running sums."""
    k = sensors._xi_of(min(r, 1.0)) if r > 0 else math.inf
    if k + 1 < curve.traces.size:
        anchor, total, count = curve.traces[k + 1], curve.cumsums[k], k + 1
    else:  # a stable curve's affine tail
        anchor, total, count = curve.stable_limit, curve.cumsums[-1], curve.traces.size
    anchor = Fraction(anchor)
    return anchor + Fraction(r) * (Fraction(total) - count * anchor)


class TestValuesAgainstExactArithmetic:
    """``values`` lies within 1e-13 of exact arithmetic on the table. Read as ``anchor - r * slope``, a cost
    near rate 1 lost every trace below ``ulp(anchor)``: 6.5e-6 relative where ``Tr(h(Pbar))`` lies 1e12
    times above ``Tr(Pbar)``, and 0 in place of 2 at 1e20 times."""

    def check(self, processes, unstable_floor, rates):
        model = fs.CurveCostModel.from_processes(processes, unstable_floor=unstable_floor)
        for row in rates(model.curves):
            got = model.values(row)
            for curve, r, value in zip(model.curves, row.tolist(), got.tolist()):
                exact = exact_cost(curve, r)
                assert abs(Fraction(value) - exact) <= Fraction(1e-13) * abs(exact), (r, value, float(exact))

    @pytest.mark.parametrize("factor", [1e12, 1e20])
    def test_a_steep_stable_row_near_rate_1(self, bench_config, factor):
        ps = list(bench_config.processes)
        p = ps[3]
        ps[3] = fs.ProcessModel(A=p.A, Q=factor * p.Q, C=p.C, R_meas=p.R_meas)
        stable = fs.stable_mask([p.A for p in ps])
        near_one = [1.0, 1.0 - 4e-13, 1.0 - 1e-9, 0.75, 0.5 + 1e-12, 0.5, 0.3, 0.01, 0.0]
        self.check(ps, 0.005, lambda curves: [np.where(stable, r, max(r, 0.005)) for r in near_one])
        model = fs.CurveCostModel.from_processes(ps, unstable_floor=0.005)
        assert model.values(np.ones(len(ps)))[3] == np.trace(fs.steady_state_filter_cov(ps[3]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_fleets_at_probe_points(self, seed):
        processes, _ = mixed_processes(seed)
        rng = np.random.default_rng(seed)
        self.check(processes, 0.004, lambda curves: np.array([probe_rates(c, rng) for c in curves]).T)


@pytest.mark.parametrize("n", [5, 43])
class TestValuesMatchCostEval:
    def model(self, n):
        processes, floors = mixed_processes()
        processes, floors = (processes * n)[:n], (floors * n)[:n]
        curves = fs.CurveCostModel.from_floors(processes, floors).curves
        return fs.CurveCostModel(curves), curves, processes

    def test_bitwise_at_probe_points(self, n):
        model, curves, _ = self.model(n)
        rng = np.random.default_rng(7)
        probes = np.array([probe_rates(c, rng) for c in curves])
        stable = np.array([c.stable_limit is not None for c in curves])
        assert (probes[stable] == 0.0).any() and np.signbit(probes[stable]).any() and (probes == 1.0).any()
        for rates in probes.T:
            expected = [reference_cost_eval(c, r) for c, r in zip(curves, rates)]
            assert model.values(rates).tolist() == expected

    def test_with_floor_below_floor_bitwise(self, n):
        _, curves, processes = self.model(n)
        unstable = np.array([c.stable_limit is None for c in curves])
        assert unstable.any()
        floors = np.where(unstable, [c.domain_floor for c in curves], 0.0)
        model = fs.CurveCostModel.from_processes(processes, unstable_floor=1.0).with_floor(floors)
        for i in np.flatnonzero(unstable):
            assert model.curves[i].traces.tobytes() == curves[i].traces.tobytes()
        rates = np.array([1.0 / (k % 7 + 1) for k in range(n)])
        rates[unstable] = 0.5 * floors[unstable]
        with pytest.raises(CostDomainError):
            model.values(rates)
        extended = model.with_floor(np.where(unstable, rates, 0.0))
        got = extended.values(rates)
        for i, (p, r) in enumerate(zip(processes, rates)):
            assert got[i] == reference_cost_eval(reference_cost_curve(p, r if unstable[i] else 0.0), r)
        assert [extended.curves[i].domain_floor for i in np.flatnonzero(unstable)] == rates[unstable].tolist()

    def test_out_of_domain_raises(self, n):
        model, curves, _ = self.model(n)
        for bad in (1.5, -0.1):
            rates = np.full(n, 0.5)
            rates[n - 1] = bad
            with pytest.raises(CostDomainError):
                model.values(rates)
        unstable = next(i for i, c in enumerate(curves) if c.stable_limit is None)
        rates = np.full(n, 0.5)
        rates[unstable] = 0.5 * curves[unstable].domain_floor
        with pytest.raises(CostDomainError):
            model.values(rates)


@pytest.mark.parametrize("kind, low, high", [
    ("above", 1.5, 2.0),
    ("negative", -0.25, -0.5),
    ("nan", math.nan, math.nan),
    ("zero on an unstable curve", 0.0, -0.0),
    ("below the floor", 0.5, 0.25),  # fractions of the agent's floor
])
def test_values_raise_for_the_first_agent_out_of_its_domain(kind, low, high):
    processes, floors = mixed_processes()
    curves = fs.CurveCostModel.from_floors(processes, floors).curves
    stable = [c.stable_limit is not None for c in curves]
    ahead = stable.index(True)  # a stable curve with a positive floor, read at -0.0: its limit, no error
    a = stable.index(False, ahead)
    b = len(stable) - 1 - stable[::-1].index(False)
    assert floors[ahead] > 0 and a < b
    rates = np.full(len(curves), 0.5)
    rates[ahead] = -0.0
    for i, bad in ((a, low), (b, high)):
        rates[i] = bad * floors[i] if kind == "below the floor" else bad
    assert_same_error(lambda: reference_cost_eval(curves[a], rates[a]), lambda: fs.CurveCostModel(curves).values(rates))


def test_curves_built_down_to_their_rates_read_as_the_floored_model():
    """Each curve built only down to its own rate (what ``simulate`` reads) gives, bit for bit, what
    the eta-floored model gives once extended down to the unstable rates (what the solvers read)."""
    processes, _ = mixed_processes()
    floored = fs.CurveCostModel.from_processes(processes, unstable_floor=0.05)
    unstable = ~floored.stable
    rng = np.random.default_rng(16)
    positive = [1.0, 1.0 + 5e-13, 0.5, 1.0 / 3.0, 0.05, 0.01, 0.004]
    for _ in range(20):
        rates = rng.choice(positive, unstable.size)
        rates = np.where(unstable, rates, rng.choice(positive + [0.0, -0.0, 1e-7, 1e-150], unstable.size))
        rates = np.where(rng.random(rates.size) < 0.3, rng.uniform(0.004, 1.0, rates.size), rates)
        expected = floored.with_floor(np.where(unstable, rates, 0.0)).values(rates)
        got = fs.CurveCostModel(fs.CurveCostModel.from_floors(processes, np.minimum(rates, 1.0)).curves).values(rates)
        assert got.tobytes() == expected.tobytes()


def test_model_from_floors_reads_as_its_curves_packed_again():
    """The table ``from_floors`` builds (what ``simulate`` reads) gives, bit for bit, the values of the
    model packed again from its curves."""
    processes, _ = mixed_processes()
    rng = np.random.default_rng(17)
    for _ in range(20):
        floors = rng.choice([1.0, 0.5, 1.0 / 3.0, 0.05, 0.01, 0.004], len(processes))
        rates = np.where(rng.random(floors.size) < 0.5, floors, rng.uniform(floors, 1.0))
        model = fs.CurveCostModel.from_floors(processes, floors)
        packed = fs.CurveCostModel(fs.CurveCostModel.from_floors(processes, floors).curves)
        assert model.values(rates).tobytes() == packed.values(rates).tobytes()
        assert model.stable.tolist() == packed.stable.tolist()


@pytest.mark.parametrize("model", [
    fs.AffineCostModel([3.0, 2.0, 1.5], [1.0, 0.5, 0.25]),
    fs.CurveCostModel(fs.CurveCostModel.from_floors([fs.ProcessModel(A=[[a]], Q=[[1.0]]) for a in (0.5, 1.2, 0.9)],
                                                    [0.0, 0.05, 0.0]).curves),
], ids=["affine", "curve"])
@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (), (2,), (4,)], ids=["column", "row", "scalar", "short", "long"])
def test_values_require_one_rate_per_agent(model, shape):
    with pytest.raises(ValueError, match=re.escape(f"expected 3 rates, got shape {shape}")):
        model.values(np.full(shape, 0.5))
    assert model.values(np.full(3, 0.5)).shape == (3,)


class TestSubnormalRate:
    """A positive rate whose reciprocal overflows lies past every stored segment."""

    RATE = 5e-324
    STABLE = fs.ProcessModel(A=[[0.9, 0.2], [0.0, 0.5]], Q=[[1.0, 0.0], [0.0, 2.0]])
    UNSTABLE = fs.ProcessModel(A=[[1.1]], Q=[[1.0]])

    def test_threshold_from_rate_raises(self):
        with pytest.raises(CostDomainError, match="overflows"):
            fs.threshold_from_rate(self.RATE)

    def test_cost_eval_is_the_affine_tail(self):
        curve = fs.build_cost_curve(self.STABLE, 0.0)
        got = fs.cost_eval(curve, self.RATE)
        tail = curve.stable_limit + self.RATE * curve.segment_slope(curve.traces.size)
        assert got == reference_cost_eval(curve, self.RATE) == tail == curve.stable_limit
        unstable = fs.build_cost_curve(self.UNSTABLE, 1e-3)
        assert_same_error(lambda: reference_cost_eval(unstable, self.RATE), lambda: fs.cost_eval(unstable, self.RATE))

    def test_lipschitz_bounds_reach_the_affine_tail(self):
        curve = fs.build_cost_curve(self.STABLE, 0.0)
        got = slope_bounds_of(curve, self.RATE)
        assert got == reference_lipschitz_bounds(curve, self.RATE) == slope_bounds_of(curve, 0.0)
        unstable = fs.build_cost_curve(self.UNSTABLE, 1e-3)
        assert_same_error(lambda: reference_lipschitz_bounds(unstable, self.RATE),
                          lambda: slope_bounds_of(unstable, self.RATE))

    def test_values_without_a_warning(self):
        curves = [fs.build_cost_curve(self.STABLE, 0.0), fs.build_cost_curve(self.UNSTABLE, 1e-3)]
        model = fs.CurveCostModel(curves)
        got = model.values([self.RATE, 0.5])
        assert got.tolist() == [reference_cost_eval(curves[0], self.RATE), reference_cost_eval(curves[1], 0.5)]
        with pytest.raises(CostDomainError):
            model.values([0.5, self.RATE])

    def test_curve_built_down_to_the_rate(self):
        curve = fs.build_cost_curve(self.STABLE, self.RATE)
        reference = fs.build_cost_curve(self.STABLE, 0.0)
        assert curve.traces.tolist() == reference.traces.tolist()
        assert curve.stable_limit == reference.stable_limit


# an unstable row whose covariance grows by 1 a step until it reaches 2**53, where adding 1 leaves it as
# it is: from its filter steady state 2**53 - 40, one step past Pi0, it repeats from step 41 on, and the
# repeat rule stops it at step 42, two steps back
SATURATING = fs.ProcessModel(A=[[1.0]], Q=[[1.0]], R_meas=[[2.0**106]], Pi0=[[2.0**53 - 41]])


def assert_same_table(got, want) -> None:
    """Two curve models hold the same table, limit slots included, floors and end states, bit for bit."""
    assert got._sizes.tolist() == want._sizes.tolist()
    for name in ("_traces", "_cumsums", "_floors", "stable"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for a, b in zip(row_ends(got), row_ends(want), strict=True):
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


def assert_same_answer(got, want) -> None:
    """``got()`` returns ``want()``'s arrays bit for bit, or raises its error."""
    try:
        expected = want()
    except (CostDomainError, fs.NumericalError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            got()
        return
    assert np.asarray(got()).tobytes() == np.asarray(expected).tobytes()


def stop_kinds(model) -> list[str]:
    """Why each row stopped: at its "cap", at its stable "tail", or at a "repeat"ed covariance."""
    kinds = []
    for curve, end in zip(model.curves, row_ends(model)):
        limit = curve.stable_limit
        tail = limit is not None and abs(curve.traces[-1] - limit) <= sensors._TAIL_TOL * limit
        kinds.append("cap" if end is not None else "tail" if tail else "repeat")
    return kinds


class TestContinuedRows:
    """A row continued from its end state equals, bit for bit, the row built at once from ``Pbar``."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_model_extended_in_stages_equals_a_fresh_build(self, seed):
        processes, floors = mixed_processes(seed)
        final = np.array(floors)
        unstable = ~fs.stable_mask([p.A for p in processes])
        # rate 1 (the stable rows at a positive floor stop at their cap), then a start point, then the
        # floors of a cost level, then the final floors; every stage equals the model built at once
        stages = [np.where(final > 0, 1.0, 0.0), np.where(final > 0, np.maximum(final, 0.3), 0.0)]
        model = fs.CurveCostModel.from_floors(processes, stages[0])
        model = model.with_floor(stages[1])
        assert_same_table(model, fs.CurveCostModel.from_floors(processes, stages[1]))
        fresh = fs.CurveCostModel.from_floors(processes, final)
        assert {"cap", "tail"} <= set(stop_kinds(fresh))
        level = float(fresh.values(final)[unstable].min())  # each unstable row reaches it by its final floor
        short = model._level_rates(level)[1]
        # rows that floors_at continues: unstable ones until they stop at the level, and stable ones
        # that stopped at their cap short of their tail, to it
        assert (~model.stable[short]).any() and model.stable[short].any()
        at_once = fs.CurveCostModel.from_floors(processes, stages[1])
        floors, deeper = model.floors_at(level)
        assert_same_table(model, at_once)  # the model asked is left as it was
        k = short.size
        traces, first, lengths, cumsums, _ = prediction_traces(
            [processes[i] for i in short], np.full(k, np.inf), np.zeros(k), model.stable[short], sensors._MAX_STEPS,
            np.full(k, level))
        for j, curve in enumerate(deeper.curves[i] for i in short):
            span = slice(first[j], first[j] + lengths[j])
            assert curve.traces.tobytes() == traces[span].tobytes()
            assert curve.cumsums.tobytes() == cumsums[span].tobytes()
        assert deeper._floors.tobytes() == model._floors.tobytes()  # a level extension moves no floor
        assert_same_answer(lambda: model.floors_at(level)[0], lambda: at_once.floors_at(level)[0])
        stages.append(np.where(final > 0, np.clip(floors, final, stages[1]), 0.0))
        # down to the level's floors the returned model takes at most the one step from a knot to its
        # segment, and its unstable rows are the ones built at once
        chained, built = deeper.with_floor(stages[2]), fs.CurveCostModel.from_floors(processes, stages[2])
        assert ((chained._sizes - deeper._sizes)[short] <= 1).all()
        for i in np.flatnonzero(unstable):
            assert chained.curves[i].traces.tobytes() == built.curves[i].traces.tobytes()
            assert chained.curves[i].cumsums.tobytes() == built.curves[i].cumsums.tobytes()
        model = model.with_floor(stages[2])
        assert_same_table(model, fs.CurveCostModel.from_floors(processes, stages[2]))
        model = model.with_floor(final)
        assert_same_table(model, fresh)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            rates = np.where(rng.random(final.size) < 0.3, final, rng.uniform(final, 1.0))
            assert_same_answer(lambda: model.values(rates), lambda: fresh.values(rates))
        assert_same_answer(lambda: model.slope_bounds(final), lambda: fresh.slope_bounds(final))
        for level in (level, level / 3, np.median(fresh.values(final)), fresh.values(final).min()):
            assert_same_answer(lambda: model.floors_at(level)[0], lambda: fresh.floors_at(level)[0])

    def test_a_repeat_at_the_first_continued_step(self):
        # built to its cap at step 40, the row repeats from step 41 on: the repeat rule compares step 42
        # with step 40, which only the end state holds
        shallow = fs.CurveCostModel.from_floors([SATURATING], [1 / 40])
        assert shallow._sizes.tolist() == [41] and stop_kinds(shallow) == ["cap"]
        deep = shallow.with_floor([1 / 250])
        assert deep._sizes.tolist() == [43] and stop_kinds(deep) == ["repeat"]
        assert_same_table(deep, fs.CurveCostModel.from_floors([SATURATING], [1 / 250]))

    def test_a_rate_past_a_row_that_stopped_for_good_names_the_stop(self):
        model = fs.CurveCostModel.from_floors([SATURATING], [0.004])
        assert model._sizes.tolist() == [43] and stop_kinds(model) == ["repeat"]
        past = "lies past segment 41, where the curve's trace sequence stopped for good$"
        for rate in (0.01, 0.004):
            with pytest.raises(CostDomainError, match=f"^rate {rate} {past}"):
                model.values([rate])
        with pytest.raises(CostDomainError, match=f"^lower bound 0.004 {past}"):
            model.slope_bounds([0.004])
        with pytest.raises(CostDomainError, match="^rate 0.003 lies below the curve's domain floor 0.004$"):
            model.values([0.003])
        # the simulator reads the same model
        with pytest.raises(CostDomainError, match=f"^rate 0.004 {past}"):
            fs.simulate_policy(SATURATING, fs.threshold_from_rate(0.004), horizon=100)

    def test_rows_that_need_no_step_take_none(self, monkeypatch):
        walk, stable = fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), fs.ProcessModel(A=[[0.5]], Q=[[1.0]])
        ps = [walk, stable, SATURATING]
        model = fs.CurveCostModel.from_floors(ps, [0.1, 0.02, 1 / 250])
        assert stop_kinds(model) == ["cap", "tail", "repeat"]
        lower = [0.0999, 1e-3, 1e-3]  # 0.0999 lies in 0.1's segment: the row holds it already
        calls = []
        monkeypatch.setattr(sensors, "_traced", lambda *args: calls.append(args))
        moved = model.with_floor(lower)
        assert not calls and moved._traces is model._traces and moved._cumsums is model._cumsums
        assert moved._floors.tolist() == lower and model._floors.tolist() == [0.1, 0.02, 1 / 250]
        monkeypatch.undo()
        assert_same_table(moved, fs.CurveCostModel.from_floors(ps, lower))

    def test_an_overflow_raises_as_in_a_fresh_build(self):
        healthy, blowup = fs.ProcessModel(A=[[1.1]], Q=[[1.0]]), fs.ProcessModel(A=[[1e5]], Q=[[1.0]])
        staged = fs.CurveCostModel.from_floors([healthy, blowup], [0.5, 0.5])
        assert_same_answer(lambda: staged.with_floor([0.01, 0.01]),
                           lambda: fs.CurveCostModel.from_floors([healthy, blowup], [0.01, 0.01]))
        # the second row overflows at step 40, the first at step 45; the first starts 28 steps deeper, so
        # its overflow comes a window earlier, and the second row runs on until it has passed step 45
        late, early = fs.ProcessModel(A=[[2645.0]], Q=[[1.0]]), fs.ProcessModel(A=[[7080.0]], Q=[[1.0]])
        staged = fs.CurveCostModel.from_floors([late, early], [1 / 30, 0.5])
        with pytest.raises(fs.NumericalError, match=r"^trace sequence overflowed at step 40; the rate 0\.002 "):
            staged.with_floor([0.01, 0.002])
        assert_same_answer(lambda: staged.with_floor([0.01, 0.002]),
                           lambda: fs.CurveCostModel.from_floors([late, early], [0.01, 0.002]))

    def test_the_step_budget_holds_as_in_a_fresh_build(self, monkeypatch):
        # rho = 1 never overflows: only the budget of 64 steps stops it; the second row, 38 steps deeper,
        # runs out of it a window earlier than the first, which a fresh build names
        monkeypatch.setattr(sensors, "_MAX_STEPS", 2 * _WINDOW)
        walk = fs.ProcessModel(A=[[1.0]], Q=[[1.0]])
        staged = fs.CurveCostModel.from_floors([walk, walk], [0.5, 1 / 40])
        with pytest.raises(fs.NumericalError, match=r"within 64 steps; the rate floor 0\.001 is too small$"):
            staged.with_floor([1e-3, 2e-3])
        assert_same_answer(lambda: staged.with_floor([1e-3, 2e-3]),
                           lambda: fs.CurveCostModel.from_floors([walk, walk], [1e-3, 2e-3]))
