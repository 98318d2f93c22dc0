import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched as fs
from fairsched.allocation import CostDomainError
from helpers import reference_cost_curve, reference_filter_cov, reference_rank_failure, time_limit


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

    def test_tail_cut_out_of_reach_ends_at_the_repeat(self):
        # the no-communication limit is 3.1e-13 off the recursion's fixed point,
        # beyond the 1.3e-13 tail cut, and floor 0 sets no cap: the sequence
        # ends where the covariance repeats
        p = fs.ProcessModel(A=[[0.5]], Q=[[1e-3]])
        with time_limit(5, "build_cost_curve"):
            curve = fs.build_cost_curve(p, 0.0)
        assert abs(curve.traces[-1] - curve.stable_limit) > 1e-10 * curve.stable_limit
        assert curve.traces[-1] == curve.traces[-2] == curve.traces[-3]

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
    def test_extends_unstable_curve_on_demand(self):
        p = fs.ProcessModel(A=[[1.2]], Q=[[1.0]])
        model = fs.CurveCostModel.from_processes([p], unstable_floor=0.5)
        direct = fs.build_cost_curve(p, 0.05)
        assert model.values([0.1])[0] == pytest.approx(fs.cost_eval(direct, 0.1), rel=1e-12)
        assert model.curves[0].domain_floor <= 0.1

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
        processes, _ = mixed_processes()
        for p, X in zip(processes, fs.steady_state_filter_covs(processes)):
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


def probe_rates(curve, rng, count=40):
    """``count`` shuffled rates holding each of: r = 1, r = 1/k, the floor, 0 and below the stored range (stable)."""
    points = [1.0, curve.domain_floor if curve.domain_floor > 0 else 1e-3]
    points += [1.0 / k for k in range(2, min(curve.traces.size + 2, 26))]
    if curve.stable_limit is not None:
        points += [0.0, 1e-7]
    points = [r for r in points if r >= curve.domain_floor or r == 0.0]
    points += list(rng.uniform(curve.domain_floor, 1.0, 8))
    assert len(points) <= count
    return rng.permutation(np.resize(points, count))


@pytest.mark.parametrize("n", [5, 43])
class TestValuesMatchCostEval:
    def model(self, n, extend=False):
        processes, floors = mixed_processes()
        processes, floors = (processes * n)[:n], (floors * n)[:n]
        curves = fs.build_cost_curves(processes, floors)
        return fs.CurveCostModel(curves, processes=processes if extend else None), curves, processes

    def test_bitwise_at_probe_points(self, n):
        model, curves, _ = self.model(n)
        rng = np.random.default_rng(7)
        probes = np.array([probe_rates(c, rng) for c in curves])
        stable = np.array([c.stable_limit is not None for c in curves])
        assert (probes[stable] == 0.0).any() and (probes == 1.0).any()
        for rates in probes.T:
            expected = [fs.cost_eval(c, r) for c, r in zip(curves, rates)]
            assert model.values(rates).tolist() == expected

    def test_below_floor_extends_bitwise(self, n):
        model, curves, processes = self.model(n, extend=True)
        rates = np.array([1.0 / (k % 7 + 1) for k in range(n)])
        unstable = [i for i, c in enumerate(curves) if c.stable_limit is None]
        assert unstable
        rates[unstable] = [0.5 * curves[i].domain_floor for i in unstable]
        got = model.values(rates)
        for i, (p, r) in enumerate(zip(processes, rates)):
            expected = fs.cost_eval(reference_cost_curve(p, 0.5 * r) if i in unstable else curves[i], r)
            assert got[i] == expected
        assert all(model.curves[i].domain_floor == 0.5 * rates[i] for i in unstable)

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


def test_concurrent_extension_keeps_values_exact():
    # readers racing on-demand rebuilds must only ever see complete curves
    processes = [fs.ProcessModel(A=[[1.2]], Q=[[1.0]]), fs.ProcessModel(A=[[0.5]], Q=[[1.0]])] * 30
    model = fs.CurveCostModel.from_processes(processes, unstable_floor=0.5)
    reference = [reference_cost_curve(p, 0.0 if i % 2 else 0.005) for i, p in enumerate(processes)]
    schedules = [np.linspace(0.45, 0.01, 12) + 1e-4 * w for w in range(4)]
    failures = []

    def reader(rates_schedule):
        for rate in rates_schedule:
            rates = np.full(len(processes), rate)
            got = model.values(rates)
            if got.tolist() != [fs.cost_eval(c, rate) for c in reference]:
                failures.append(rate)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(s,)) for s in schedules]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
