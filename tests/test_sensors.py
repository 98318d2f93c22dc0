import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched as fs
from fairsched import sensors
from fairsched.allocation import CostDomainError
from fairsched.sensors import _WINDOW, _no_comm_covs, prediction_traces
from helpers import (
    reference_cost_curve,
    reference_cost_eval,
    reference_filter_cov,
    reference_floors_at,
    reference_lipschitz_bounds,
    reference_no_comm_limit,
    reference_prediction_traces,
    reference_rank_failure,
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
        # the last bits of Pbar keep moving, above the 1e-12 Frobenius change, in a 2- or 4-cycle
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
            fs.build_cost_curves([fast, slow], [0.0, 0.0])

    def test_unstable_sequence_past_the_step_budget_raises(self, monkeypatch):
        # rho = 1 never overflows, so only the step budget stops a floor too small for it; at 0.05 it
        # needs 21 steps, at 0.001 it would need 1001
        monkeypatch.setattr(sensors, "_MAX_STEPS", 2 * _WINDOW)
        walk = fs.ProcessModel(A=[[1.0]], Q=[[1.0]])
        assert fs.build_cost_curve(walk, 0.05).traces.size == 21
        with pytest.raises(fs.NumericalError, match=r"within 64 steps; the rate floor 0\.001 is too small"):
            fs.build_cost_curves([walk, walk], [0.05, 1e-3])
        # the simulator's sequences keep their horizon-sized caps
        assert prediction_traces([walk], [1000], [1e-3])[2].tolist() == [1002]


class TestLipschitzBounds:
    def test_single_slope_curve(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        alpha, beta = fs.lipschitz_bounds(curve, 0.0)
        assert alpha == pytest.approx(0.5, rel=1e-12)
        assert beta == pytest.approx(0.5, rel=1e-12)

    def test_beta_on_segment_holding_lb(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.05)
        alpha, beta = fs.lipschitz_bounds(curve, 0.05)
        xi_lb = fs.threshold_from_rate(0.05).xi
        assert beta == pytest.approx(abs(curve.segment_slope(xi_lb)), rel=1e-12)
        assert alpha == pytest.approx(abs(curve.segment_slope(0)), rel=1e-12)
        assert 0 < alpha <= beta

    def test_lb_one_uses_last_segment(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        curve = fs.build_cost_curve(p, 0.05)
        alpha, beta = fs.lipschitz_bounds(curve, 1.0)
        assert alpha == beta == pytest.approx(abs(curve.segment_slope(0)), rel=1e-12)

    def test_flat_curve_flagged(self):
        p = fs.ProcessModel(A=[[0.4, 0.1], [0.0, 0.2]], Q=np.zeros((2, 2)))
        curve = fs.build_cost_curve(p, 0.5)
        with pytest.raises(CostDomainError):
            fs.lipschitz_bounds(curve, 0.5)

    def test_nan_lower_bound_rejected(self, scalar_unit_process):
        curve = fs.build_cost_curve(scalar_unit_process, 0.0)
        with pytest.raises(CostDomainError, match=r"^lower bound must lie in \[0, 1\], got nan$"):
            fs.lipschitz_bounds(curve, math.nan)
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
    def test_rank_tests_match_per_process(self):
        processes = rank_test_mix()
        reasons = [reference_rank_failure(p) for p in processes]
        assert any(r is None for r in reasons)
        assert {r for r in reasons if r} == {"(A, C) is not observable", "(A, sqrt(Q)) is not controllable"}
        assert any(r and p.C.shape[0] < p.dim for p, r in zip(processes, reasons))
        for start in range(len(processes)):
            expected = next(((i - start, r) for i, r in enumerate(reasons) if i >= start and r), None)
            assert fs.first_rank_failure(processes[start:]) == expected
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
            floors = costs.floors_at(level)
            np.testing.assert_allclose(floors, reference_floors_at(curves, level), rtol=1e-12)
            inside = (floors > 0) & (floors < 1)
            got = costs.with_floor(floors).values(floors)
            np.testing.assert_allclose(got[inside], level, rtol=1e-12)

    def test_floors_at_builds_short_curves_to_the_level(self):
        ps = [fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), fs.ProcessModel(A=[[0.9]], Q=[[1.0]])]
        costs = fs.CurveCostModel.from_processes(ps, unstable_floor=0.5)
        deep = fs.CurveCostModel.from_processes(ps, unstable_floor=1e-3)
        assert costs.curves[0].traces.size == 3
        for k in (40, 41.5):
            level = float(np.interp(k, np.arange(deep.curves[0].cumsums.size), deep.curves[0].cumsums)) / (k + 1)
            # the rebuilt row is a prefix of the deeper one, so the floors are bitwise those of the deeper model
            assert costs.floors_at(level).tobytes() == deep.floors_at(level).tobytes()
            np.testing.assert_allclose(costs.floors_at(level), reference_floors_at(deep.curves, level), rtol=1e-12)
        assert costs.curves[0].domain_floor == 0.5  # the model asked is left as it was
        with pytest.raises(CostDomainError, match="past the stored range of curve 0"):
            fs.CurveCostModel(costs.curves).floors_at(level)
        blowup = fs.CurveCostModel.from_processes([fs.ProcessModel(A=[[1e5]], Q=[[1.0]])], unstable_floor=0.5)
        with pytest.raises(fs.NumericalError, match="overflowed at step 31; its mean has not reached the level"):
            blowup.floors_at(1e300)
        assert fs.AffineCostModel([2.0, 1.0], [1.0, 0.5]).floors_at(1.5).tolist() == [0.0, 0.0]

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
        costs = fs.CurveCostModel(fs.build_cost_curves(processes, floors))
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

    def test_slope_bounds_raise_for_flat_curve(self, bench_config):
        flat = fs.ProcessModel(A=[[0.4]], Q=[[0.0]])
        costs = fs.CurveCostModel.from_processes([*bench_config.processes, flat, flat])
        lower = np.where(~costs.stable, bench_config.solver.eta, 0.0)
        assert assert_slope_bounds_equal_scalar(costs, lower) == "raised"


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
        curves = fs.build_cost_curves(processes, floors)
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
            for p, X in zip(group, sensors._filter_covs(group)):
                np.testing.assert_array_equal(X, reference_filter_cov(p))
                np.testing.assert_array_equal(fs.steady_state_filter_cov(p), X)

    def test_one_element_calls_match_batch(self):
        processes, floors = mixed_processes()
        for p, floor, curve in zip(processes, floors, fs.build_cost_curves(processes, floors)):
            single = fs.build_cost_curve(p, floor)
            np.testing.assert_array_equal(single.traces, curve.traces)
            if curve.stable_limit is not None:
                assert fs.no_comm_limit(p) == curve.stable_limit

    def test_overflow_in_healthy_batch_raises(self):
        processes, floors = mixed_processes()
        blowup = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        with pytest.raises(fs.NumericalError, match="overflowed.*1e-09"):
            fs.build_cost_curves([*processes, blowup], [*floors, 1e-9])

    def test_one_floor_per_process(self):
        processes, floors = mixed_processes()
        with pytest.raises(ValueError):
            fs.build_cost_curves(processes, floors[:-1])


class TestWindowedTraces:
    """``prediction_traces`` checks its stop rules once per window of ``_WINDOW`` steps; each sequence
    still stops, and raises, at the step where the recursion that checks after every step did."""

    def check(self, ps, caps, rates, stable=None, tail_tol=0.0):
        """The traces, starts and lengths, bitwise those of the per-step recursion, or its error."""
        try:
            expected = reference_prediction_traces(ps, caps, rates, stable, tail_tol)
        except fs.NumericalError as exc:
            with pytest.raises(fs.NumericalError) as raised:
                prediction_traces(ps, caps, rates, stable, tail_tol)
            assert str(raised.value) == str(exc)
            return None
        got = prediction_traces(ps, caps, rates, stable, tail_tol)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        return got

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
        _, _, lengths = self.check(processes, caps, [0.5] * len(processes), stable, 1e-10)
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
        traces, first, lengths = prediction_traces([*batch, stable], [math.inf] * (n + 1), [0.0] * (n + 1),
                                                   [False] * n + [True], 1e-10, None, levels + [0.0])
        for i, want in enumerate(expected):
            assert traces[first[i]:first[i] + lengths[i]].tobytes() == want.tobytes(), i
        assert [len(want) for want in expected[:4]] == [1, 2, 2, 3]  # on the knot, then one past it
        assert lengths[n] == prediction_traces([stable], [math.inf], [0.0], [True], 1e-10)[2][0] > 2

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


@pytest.mark.parametrize("n", [5, 43])
class TestValuesMatchCostEval:
    def model(self, n):
        processes, floors = mixed_processes()
        processes, floors = (processes * n)[:n], (floors * n)[:n]
        curves = fs.build_cost_curves(processes, floors)
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
    curves = fs.build_cost_curves(processes, floors)
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
        got = fs.CurveCostModel(fs.build_cost_curves(processes, np.minimum(rates, 1.0))).values(rates)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", [
    fs.AffineCostModel([3.0, 2.0, 1.5], [1.0, 0.5, 0.25]),
    fs.CurveCostModel(fs.build_cost_curves([fs.ProcessModel(A=[[a]], Q=[[1.0]]) for a in (0.5, 1.2, 0.9)],
                                           [0.0, 0.05, 0.0])),
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
        got = fs.lipschitz_bounds(curve, self.RATE)
        assert got == reference_lipschitz_bounds(curve, self.RATE) == fs.lipschitz_bounds(curve, 0.0)
        unstable = fs.build_cost_curve(self.UNSTABLE, 1e-3)
        assert_same_error(lambda: reference_lipschitz_bounds(unstable, self.RATE),
                          lambda: fs.lipschitz_bounds(unstable, self.RATE))

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
