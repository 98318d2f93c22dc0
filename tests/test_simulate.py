import numpy as np
import pytest

import fairsched as fs
from fairsched import simulate
from fairsched.allocation import CostDomainError
from fairsched.sensors import prediction_traces

from helpers import reference_run_cycles, reference_trace_sum, reference_trace_table, time_limit

# process 33 of the seed-7 perfbench fleet: its covariance settles into a
# last-bit 2-cycle and never repeats with period 1
PERIOD_TWO = fs.ProcessModel(
    A=[[0.5155432572351986, 0.7297554323949981], [0.0, -0.5474647790516991]],
    Q=np.diag([2.870295047681087, 1.4463690327439993]),
)


def test_always_transmit_is_exact(scalar_unit_process):
    res = fs.simulate_policy(scalar_unit_process, fs.ThresholdPolicy(0, 1.0), horizon=10_000, seed=3)
    assert res.empirical_rate == 1.0
    assert res.empirical_avg_error == pytest.approx(0.5, rel=1e-12)


def test_deterministic_three_cycle(scalar_unit_process):
    # xi=2, b=1: cycle visits ages 0,1,2; with the horizon a multiple of 3
    # the average is exactly S_2 / 3 = (0.5 + 1 + 1) / 3
    res = fs.simulate_policy(scalar_unit_process, fs.ThresholdPolicy(2, 1.0), horizon=999_999, seed=5)
    assert res.empirical_rate == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.empirical_avg_error == pytest.approx(2.5 / 3.0, rel=1e-12)

    # a horizon that cuts mid-cycle differs only by edge effects O(1/horizon)
    res2 = fs.simulate_policy(scalar_unit_process, fs.ThresholdPolicy(2, 1.0), horizon=1_000_000, seed=5)
    assert res2.empirical_avg_error == pytest.approx(2.5 / 3.0, abs=5.0 / 1_000_000)


def test_randomized_policy_matches_closed_form(scalar_unit_process):
    policy = fs.threshold_from_rate(0.4)
    res = fs.simulate_policy(scalar_unit_process, policy, horizon=10**6, seed=11)
    assert res.empirical_avg_error == pytest.approx(0.8, rel=0.01)
    assert res.empirical_rate == pytest.approx(0.4, abs=0.005)


def test_rate_consistency_bound(scalar_unit_process):
    horizon = 10**5
    rng = np.random.default_rng(17)
    for r in rng.uniform(0.05, 1.0, 8):
        policy = fs.threshold_from_rate(float(r))
        res = fs.simulate_policy(scalar_unit_process, policy, horizon=horizon, seed=int(r * 1e6))
        target = policy.rate
        bound = 3.0 * np.sqrt(target * (1 - target) / horizon)
        assert abs(res.empirical_rate - target) <= bound + 1.0 / horizon


def test_bit_identical_given_seed(bench_config):
    p = bench_config.processes[1]
    policy = fs.threshold_from_rate(0.37)
    a = fs.simulate_policy(p, policy, horizon=200_000, seed=99)
    b = fs.simulate_policy(p, policy, horizon=200_000, seed=99)
    assert a == b
    c = fs.simulate_policy(p, policy, horizon=200_000, seed=100)
    assert c != a


def test_allocation_all_ones_exact(bench_config):
    ps = bench_config.processes
    results = fs.simulate_allocation(ps, np.ones(len(ps)), horizon=50_000, seed=1)
    for p, res in zip(ps, results):
        pbar = fs.steady_state_filter_cov(p)
        assert res.empirical_rate == 1.0
        assert res.empirical_avg_error == pytest.approx(float(np.trace(pbar)), rel=1e-12)


def test_allocation_zero_rate_stable_hits_prediction_limit(bench_config):
    p5 = bench_config.processes[4]
    res = fs.simulate_allocation([p5], [0.0], horizon=10**6, seed=2)[0]
    assert res.empirical_rate == 0.0
    assert res.empirical_avg_error == pytest.approx(fs.no_comm_limit(p5), rel=0.01)


def test_allocation_zero_rate_unstable_rejected(bench_config):
    p1 = bench_config.processes[0]
    with pytest.raises(CostDomainError):
        fs.simulate_allocation([p1], [0.0], horizon=1000, seed=0)


def test_allocation_substreams_are_stable_under_order(bench_config):
    # per-process results depend only on (seed, index), not on the other rates
    ps = bench_config.processes[:3]
    both = fs.simulate_allocation(ps, [0.5, 0.4, 0.3], horizon=100_000, seed=5)
    again = fs.simulate_allocation(ps, [0.5, 0.9, 0.3], horizon=100_000, seed=5)
    assert both[0] == again[0]
    assert both[2] == again[2]


def test_oracle_agreement_spanning_segments(bench_config):
    # light version of the acceptance check: two processes, three rates each
    for idx in (0, 3):
        p = bench_config.processes[idx]
        floor = 0.0 if fs.classify_stability(p.A) else 0.05
        curve = fs.build_cost_curve(p, floor)
        for r in (0.9, 0.45, 0.21):
            res = fs.simulate_policy(p, fs.threshold_from_rate(r), horizon=4 * 10**5, seed=idx * 31 + int(100 * r))
            assert res.empirical_avg_error == pytest.approx(fs.cost_eval(curve, r), rel=0.015)


def check_continued_traces(p, lag, repeat):
    # the shared recursion stops once the covariance equals the one two steps
    # back; continued with period 2 it is bitwise the step-every-time table
    # at sizes around the step where the covariance first repeats, and far past it
    pbar = fs.steady_state_filter_cov(p)
    ref, first = reference_trace_table(p, pbar, 1000, lag)
    assert first == repeat
    stop = repeat + 2 - lag  # the first step whose covariance equals the one two steps back
    sizes = (repeat - 1, repeat, repeat + 1, 1000)
    traces, starts, lengths = prediction_traces([p] * 4, [upto - 1 for upto in sizes], [0.5] * 4)
    for upto, start, length in zip(sizes, starts, lengths):
        assert length == min(upto + 1, stop + 1)
        seq = traces[start:start + length]
        np.testing.assert_array_equal(np.concatenate([seq, np.resize(seq[-2:], upto + 1 - length)]), ref[:upto + 1])


@pytest.mark.parametrize("idx, repeat", [(3, 170), (4, 18)])
def test_trace_table_stops_at_a_repeated_covariance(bench_config, idx, repeat):
    check_continued_traces(bench_config.processes[idx], 1, repeat)


def test_trace_table_stops_at_a_two_cycle():
    assert reference_trace_table(PERIOD_TWO, fs.steady_state_filter_cov(PERIOD_TWO), 1000)[1] is None
    check_continued_traces(PERIOD_TWO, 2, 33)


def test_sums_past_the_stored_sequence_alternate_its_last_two_entries():
    total = simulate._summed(np.array([1.0, 2.0, 4.0]))
    continued = [1.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0]
    assert [total(k) for k in range(9)] == [sum(continued[:k]) for k in range(9)]


def test_tiny_rate_on_a_two_cycle_is_fast():
    # one 10^6-step cycle, whose trace sums past step 33 are closed forms
    with time_limit(5, "simulate_policy"):
        res = fs.simulate_policy(PERIOD_TWO, fs.threshold_from_rate(1e-9), horizon=10**6, seed=3)
    assert res.empirical_rate == 0.0


@pytest.mark.parametrize("which", ["fixture-3", "fixture-4", "fleet-33"])
def test_zero_rate_error_is_the_exact_trace_sum(bench_config, which):
    # fixture processes by 0-based index; a constant tail from the first step
    # where successive traces agree to 1e-13 was 4.0e-13 off on fixture-3
    p = PERIOD_TWO if which == "fleet-33" else bench_config.processes[int(which[-1])]
    horizon = 10**6
    res = fs.simulate_allocation([p], [0.0], horizon=horizon, seed=2)[0]
    exact = reference_trace_sum(p, fs.steady_state_filter_cov(p), horizon) / horizon
    assert res.empirical_avg_error == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_invalid_horizon():
    p = fs.ProcessModel(A=[[0.0]], Q=[[1.0]])
    with pytest.raises(ValueError):
        fs.simulate_policy(p, fs.ThresholdPolicy(0, 1.0), horizon=0, seed=0)


class TestChunkedCyclesMatchReference:
    """The chunked, counted Monte Carlo against a step-by-step run on the same stream."""

    PROCESS = fs.ProcessModel(A=[[1.05, 0.3], [0.0, 0.6]], Q=[[1.0, 0.2], [0.2, 0.5]])

    def _check(self, policy, horizon, seed=4):
        pbar = fs.steady_state_filter_cov(self.PROCESS)
        (total,) = simulate._trace_sums([self.PROCESS], [policy], horizon)
        err, n_tx = simulate._run_cycles(total, policy, horizon, np.random.default_rng(seed))
        ref_err, ref_tx = reference_run_cycles(self.PROCESS, pbar, policy, horizon, np.random.default_rng(seed))
        assert n_tx == ref_tx
        assert err == pytest.approx(ref_err, rel=1e-12)

    @pytest.mark.parametrize("xi", [0, 1, 5])
    @pytest.mark.parametrize("b", [0.0, 0.37, 1.0])
    def test_horizons(self, xi, b):
        policy = fs.ThresholdPolicy(xi, b)
        for horizon in (
            max(xi, 1),  # shorter than one cycle (for xi = 0, shorter than a long one)
            (xi + 1) * (xi + 2) * 40,  # an exact multiple of both cycle lengths
            20_011,
        ):
            self._check(policy, horizon)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_small_chunks(self, monkeypatch, chunk):
        # chunks far below the cycle count are used up again and again, some
        # ending exactly at the horizon; the draws and results stay the same
        monkeypatch.setattr(simulate, "_chunk_size", lambda steps, policy: chunk)
        for xi, b in ((0, 0.37), (1, 0.0), (5, 1.0), (2, 0.6)):
            for horizon in (1, 3 * (xi + 2), 997):
                self._check(fs.ThresholdPolicy(xi, b), horizon)

    def test_chunk_used_up_at_the_horizon(self, monkeypatch):
        # a deterministic policy whose chunk holds exactly the cycles that fill the horizon
        monkeypatch.setattr(simulate, "_chunk_size", lambda steps, policy: max(1, steps // (policy.xi + 2)))
        self._check(fs.ThresholdPolicy(3, 0.0), 5 * 1000)
        self._check(fs.ThresholdPolicy(3, 0.0), 5 * 1000 + 4)

    @pytest.mark.parametrize("b", [0.0, 0.37, 1.0])
    def test_cycles_longer_than_the_horizon(self, b):
        # xi + 1 >= horizon: the trace table stops at the horizon, not at xi + 1
        for xi, horizons in ((48, (1, 47, 48, 49, 50, 51)), (10**5, (1, 2, 500))):
            for horizon in horizons:
                self._check(fs.ThresholdPolicy(xi, b), horizon)

    def test_default_chunk_covers_the_horizon(self):
        # the expected cycle count plus 4 sigma plus 16 exceeds the cycles of a typical run
        policy = fs.threshold_from_rate(0.37)
        horizon = 100_000
        (total,) = simulate._trace_sums([self.PROCESS], [policy], horizon)
        _, n_tx = simulate._run_cycles(total, policy, horizon, np.random.default_rng(1))
        assert n_tx < simulate._chunk_size(horizon, policy)
