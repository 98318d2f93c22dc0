import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fairsched as fs
from fairsched import simulate
from fairsched.allocation import CostDomainError

from helpers import (
    prediction_traces,
    reference_run_cycles,
    reference_simulate_allocation,
    reference_trace_sum,
    reference_trace_table,
    time_limit,
)

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
    # processes 1 (unstable) and 3 (stable) at rate 0: the error names the first unstable one
    with pytest.raises(CostDomainError, match="^process 1 is unstable and cannot run at rate 0: its error is unbounded$"):
        fs.simulate_allocation(bench_config.processes, [0.5, 0.0, 0.5, 0.0, 0.5], horizon=1000, seed=0)


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
    traces, starts, lengths, *_ = prediction_traces([p] * 4, [upto - 1 for upto in sizes], [0.5] * 4)
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
    # three rows of one table holding the same sequence: no limit, a stable limit that the last entry has not
    # reached, which changes nothing, and one it has reached, which goes on
    seq, limits = np.array([1.0, 2.0, 4.0]), [None, 4.0 * (1.0 + 1e-9), 4.0 * (1.0 + 1e-11)]
    model = fs.CurveCostModel([fs.CostCurve(seq, np.cumsum(seq), limit, 0.0) for limit in limits])
    sums = simulate._cycle_sums(model, np.tile(np.arange(9, dtype=np.uint64), (3, 1))).tolist()
    continued = [1.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0]
    assert sums[0] == sums[1] == [sum(continued[:k]) for k in range(9)]
    assert sums[2] == [7.0 + (k - 3) * limits[2] if k > 3 else sum(continued[:k]) for k in range(9)]


def test_running_sums_the_simulator_reads_are_the_cumsum_of_its_traces(bench_config):
    # the cycle sums read the model's running sums: they must be np.cumsum of each row, bit for bit
    rng = np.random.default_rng(7)
    fleet = [fs.ProcessModel(A=[[rng.uniform(0.2, 1.15)]], Q=[[rng.uniform(0.5, 4.0)]]) for _ in range(30)]
    for ps, rates in ((bench_config.processes, [0.01, 0.02, 0.05, 0.0, 0.3]), (fleet, rng.uniform(1e-3, 1.0, 30))):
        for curve in fs.CurveCostModel.from_floors(ps, rates).curves:
            assert curve.cumsums.tobytes() == np.cumsum(curve.traces).tobytes()


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


def test_analytical_error_is_the_cost_models_value(bench_config):
    # the cycle sums and the analytical errors are read from one model, each curve down to its rate
    ps = bench_config.processes
    rates = np.array([0.45, 0.21, 1.0 + 1e-13, 0.0, 0.3])
    results = fs.simulate_allocation(ps, rates, horizon=10_000, seed=4)
    want = fs.CurveCostModel.from_floors(ps, np.minimum(rates, 1.0)).values(rates)
    assert np.array([res.analytical_error for res in results]).tobytes() == want.tobytes()
    policy = fs.ThresholdPolicy(2, 0.37)
    res = fs.simulate_policy(ps[1], policy, horizon=10_000, seed=4)
    assert res.analytical_error == fs.CurveCostModel.from_floors([ps[1]], [policy.rate]).values([policy.rate])[0]


def test_marginal_row_at_a_tiny_rate_raises_at_its_step_budget():
    # the random walk's curve reaches the segment of rate 1e-7 only after ~10^7 steps; its build stops at 10^6
    ps = [fs.ProcessModel(A=[[1.0]], Q=[[1.0]]), fs.ProcessModel(A=[[0.5]], Q=[[1.0]])]
    message = "^trace sequence did not stop within 1000000 steps; the rate floor 1e-07 is too small$"
    with time_limit(30, "simulate_allocation"), pytest.raises(fs.NumericalError, match=message):
        fs.simulate_allocation(ps, [1e-7, 0.4], horizon=10**6, seed=0)


def test_invalid_horizon():
    p = fs.ProcessModel(A=[[0.0]], Q=[[1.0]])
    for horizon in (0, 2**64):
        with pytest.raises(ValueError, match=r"^horizon must lie in \[1, 2\*\*64 - 1\]"):
            fs.simulate_policy(p, fs.ThresholdPolicy(0, 1.0), horizon=horizon, seed=0)
        with pytest.raises(ValueError, match=r"^horizon must lie in \[1, 2\*\*64 - 1\]"):
            fs.simulate_allocation([p], [1.0], horizon=horizon, seed=0)


def tallied(p, policy, horizon, rng) -> tuple[float, int]:
    """(error sum, transmissions) of one process, its cycles drawn from ``rng``; the sum is the tallied mean
    times the horizon, within an ulp of the sum."""
    model = fs.CurveCostModel.from_floors([p], [policy.rate])
    errors, n_tx = simulate._tallied(model, [0], [policy.xi], np.array([policy.b]), horizon, [rng])
    return float(errors[0]) * horizon, n_tx[0]


class SpyGenerator:
    """A ``Generator`` that records its draws: each ``binomial`` as (trials, successes), each ``random`` as its uniform."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def binomial(self, n, p):
        k = self.rng.binomial(n, p)
        self.draws.append((n, k))
        return k

    def random(self):
        u = self.rng.random()
        self.draws.append(u)
        return u

    def replay(self):
        """A stream that takes a step-by-step run through the cycles drawn here: each run's short cycles, then
        its long ones, then the uniform that decided the last cycle; a cycle after that is cut by the horizon."""
        uniforms = []
        for d in self.draws:
            uniforms += [0.0] * int(d[1]) + [1.0] * int(d[0] - d[1]) if isinstance(d, tuple) else [d]
        return Replayed(uniforms)


class Replayed:
    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms, 1.0)


class TestChunkedCyclesMatchReference:
    """The counted Monte Carlo against a step-by-step run through the same cycles."""

    PROCESS = fs.ProcessModel(A=[[1.05, 0.3], [0.0, 0.6]], Q=[[1.0, 0.2], [0.2, 0.5]])

    def _check(self, policy, horizon, seed=4):
        # at b in {0, 1} every stream gives the same cycles, so the step-by-step run takes the seeded one;
        # otherwise it replays the cycles counted, which checks the error and the last cycle, not the law
        pbar = fs.steady_state_filter_cov(self.PROCESS)
        spy = SpyGenerator(seed)
        err, n_tx = tallied(self.PROCESS, policy, horizon, spy)
        if policy.b in (0.0, 1.0):
            # numpy's binomial is exact there, so the counts, and the error's bits, are those of a uniform per cycle
            assert all(d[1] == d[0] * policy.b for d in spy.draws if isinstance(d, tuple))
            rng = np.random.default_rng(seed)
        else:
            rng = spy.replay()
        ref_err, ref_tx = reference_run_cycles(self.PROCESS, pbar, policy, horizon, rng)
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

    @pytest.mark.parametrize("b", [0.0, 0.37, 1.0])
    def test_cycles_longer_than_the_horizon(self, b):
        # xi + 1 >= horizon: the cycles read the trace table only up to the horizon
        for horizon in (1, 47, 48, 49, 50, 51):
            self._check(fs.ThresholdPolicy(48, b), horizon)
        # the table is built down to the rate's segment whatever the horizon, and this unstable one overflows first
        for horizon in (1, 2, 500):
            with pytest.raises(fs.NumericalError, match="^trace sequence overflowed at step .*; the rate .* is too small$"):
                fs.simulate_policy(self.PROCESS, fs.ThresholdPolicy(10**5, b), horizon)


def exact_cycle_law(xi, b, horizon) -> dict:
    """{(short, long): probability} of the cycles completed within ``horizon`` steps.

    k cycles with j long have probability C(k, j) (1 - b)^j b^(k - j); the next one does not fit with
    probability 1 if fewer than xi + 1 steps remain, 1 - b if exactly xi + 1 remain, else 0.
    """
    law = {}
    for k in range(horizon // (xi + 1) + 1):
        for j in range(min(k, horizon - k * (xi + 1)) + 1):
            rest = horizon - k * (xi + 1) - j
            stop = 1.0 if rest < xi + 1 else 1.0 - b if rest == xi + 1 else 0.0
            if stop:
                law[k - j, j] = math.comb(k, j) * (1.0 - b) ** j * b ** (k - j) * stop
    return law


# with no filter step the traces are the ages 0, 1, 2, ..., and a run's (error, transmissions) tells its
# short and long cycle counts apart: one more short cycle in place of a long one lowers the error
AGES, AGES_PBAR = fs.ProcessModel(A=[[1.0]], Q=[[1.0]]), np.zeros((1, 1))


@pytest.mark.parametrize("run", ["step-by-step", "counted"])
@pytest.mark.parametrize("xi, b, horizon", [(0, 0.37, 9), (1, 0.6, 11), (3, 0.25, 14), (2, 0.8, 40)])
def test_cycle_counts_follow_their_exact_law(run, xi, b, horizon):
    # in every case the counted run at binomial(m, 0.98 b) misses a cell by over 4 sigma, and with no last
    # short cycle by over 40
    law = exact_cycle_law(xi, b, horizon)
    assert sum(law.values()) == pytest.approx(1.0, rel=1e-12)

    def summed(k):
        return k * (k - 1) / 2

    outcome = {(n_short * summed(xi + 1) + n_long * summed(xi + 2) + summed(horizon - n_short * (xi + 1) - n_long * (xi + 2)),
                n_short + n_long): (n_short, n_long) for n_short, n_long in law}
    assert len(outcome) == len(law)
    seeds = 20_000 if run == "counted" else 2_000
    policy = fs.ThresholdPolicy(xi, b)
    counts = dict.fromkeys(law, 0)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        if run == "counted":
            n_short, n_long, done = simulate._cycles(policy.xi, policy.b, horizon, rng)
            assert done == n_short * (xi + 1) + n_long * (xi + 2)
            cell = n_short, n_long
        else:
            cell = outcome[reference_run_cycles(AGES, AGES_PBAR, policy, horizon, rng)]
        counts[cell] += 1  # a KeyError is an outcome the law rules out
    for cell, p in law.items():
        assert abs(counts[cell] - seeds * p) <= 4.0 * math.sqrt(seeds * p * (1.0 - p)), (cell, counts[cell], seeds * p)


class TestBoundedMemory:
    """The Monte Carlo's draws, time and working memory do not grow with the horizon."""

    @pytest.mark.parametrize("xi, b", [(0, 1.0), (0, 0.5), (1, 0.37), (5, 0.9)])
    def test_draws_at_a_long_horizon(self, xi, b):
        # each run of cycles leaves a share of the steps it started from; at (0, 1) a half, ~27 runs at 10^8
        p, policy, horizon = TestChunkedCyclesMatchReference.PROCESS, fs.ThresholdPolicy(xi, b), 10**8
        spy = SpyGenerator(5)
        got = tallied(p, policy, horizon, spy)
        assert len(spy.draws) <= 64
        assert got == tallied(p, policy, horizon, np.random.default_rng(5))

    def test_horizon_of_a_trillion_steps(self, bench_config):
        p, policy = bench_config.processes[1], fs.threshold_from_rate(0.37)
        with time_limit(5, "simulate_policy"):
            res = fs.simulate_policy(p, policy, horizon=10**12, seed=3)
        assert res.empirical_rate == pytest.approx(policy.rate, abs=1e-4)

    @pytest.mark.parametrize("rate", [1.0, 0.6, 0.37])
    def test_longest_horizon(self, bench_config, rate):
        # a run of at most horizon // 2 cycles: 2**63 - 1, the largest count rng.binomial takes
        with time_limit(5, "simulate_allocation"):
            (res,) = fs.simulate_allocation(bench_config.processes[1:2], [rate], horizon=2**64 - 1, seed=3)
        assert res.empirical_rate == pytest.approx(rate, abs=1e-9)

    def test_traced_peak_at_a_long_horizon(self, bench_config):
        # a chunk covering all ~3.7e6 cycles would trace ~32 MB
        p, policy = bench_config.processes[1], fs.threshold_from_rate(0.37)
        tracemalloc.start()
        try:
            res = fs.simulate_policy(p, policy, horizon=10**7, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert res.empirical_rate == pytest.approx(0.37, rel=1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**40])
@pytest.mark.parametrize("n", [1, 2, 5, 1000])
def test_hashed_states_are_those_of_spawn(seed, n):
    # one to five entropy words: a seed past four words mixes its fifth in before the key
    children = np.random.SeedSequence(seed).spawn(n)
    states = simulate._spawned_states(seed, n)
    assert states.dtype == np.uint64
    assert states.tobytes() == np.array([c.generate_state(4, np.uint64) for c in children]).tobytes()
    for rng, child in zip(simulate._spawned_rngs(seed, n, np.arange(n)), children, strict=True):
        want = np.random.default_rng(child)
        assert (rng.random(), rng.binomial(10**12, 0.3)) == (want.random(), want.binomial(10**12, 0.3))


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random costs some 6 MB of resident memory, which commands that never simulate should not pay
    code = "import sys, fairsched; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fs.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_negative_seed_fails_as_seed_sequence_does():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(-1)
    message = f"^{re.escape(str(want.value))}$"
    with pytest.raises(ValueError, match=message):
        simulate._spawned_states(-1, 3)
    with pytest.raises(ValueError, match=message):
        fs.simulate_allocation([fs.ProcessModel(A=[[0.5]], Q=[[1.0]])], [0.5], horizon=10, seed=-1)


def assert_as_reference(ps, rates, horizon, seed):
    got = fs.simulate_allocation(ps, rates, horizon, seed)
    want = reference_simulate_allocation(ps, rates, horizon, seed)
    assert got == want

    def bits(results):
        return np.array([(r.empirical_rate, r.empirical_avg_error, r.analytical_error) for r in results]).tobytes()

    assert bits(got) == bits(want)


@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 10**5, 10**12, 2**64 - 1])
@pytest.mark.parametrize("seed", [0, 4])
def test_fixture_simulates_as_the_per_process_loop(bench_config, horizon, seed):
    # a stable row at rate 0 and a rate past 1 by 1e-13; horizons 1 to 3 are shorter than a cycle at 0.21
    assert_as_reference(bench_config.processes, [0.45, 0.21, 1.0 + 1e-13, 0.0, 0.3], horizon, seed)


def seeded_fleet(n: int, seed: int) -> list:
    """The processes of ``perfbench/fleet.py``'s fleet of ``n`` sensors for ``seed``."""
    spec = importlib.util.spec_from_file_location("fleet", Path(__file__).parents[1] / "perfbench" / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleet)
    solver = json.loads(fs.fixture_path("paper_sec4").read_text())["solver"]
    return [fs.ProcessModel(A=e["A"], Q=e["Q"]) for e in fleet.fleet_config(n, seed, solver, 10)["processes"]]


@pytest.mark.parametrize("fleet_seed", [3, 11])
def test_seeded_fleets_simulate_as_the_per_process_loop(fleet_seed):
    ps = seeded_fleet(200, fleet_seed)
    rng = np.random.default_rng(fleet_seed)
    stable = fs.stable_mask([p.A for p in ps])
    rates = np.where(stable, rng.uniform(0.0, 1.0, len(ps)), rng.uniform(0.05, 1.0, len(ps)))
    rates[np.flatnonzero(stable)[:10]] = 0.0
    rates[np.flatnonzero(~stable)[0]] = 1.0 + 1e-13
    for horizon in (4, 10**5, 2**64 - 1):
        assert_as_reference(ps, rates, horizon, fleet_seed)


@pytest.mark.parametrize("horizon", [10**6, 10**12, 2**64 - 1])
def test_sums_past_a_two_cycle_as_the_per_process_loop(horizon):
    # PERIOD_TWO's table ends at step 33: at rate 0 and at 1e-9 the sums read far past it, alternating
    assert_as_reference([PERIOD_TWO] * 3, [0.0, 1e-9, 0.5], horizon, 9)


def test_empty_allocation():
    assert fs.simulate_allocation([], [], horizon=10, seed=0) == reference_simulate_allocation([], [], 10, 0) == []


def test_error_sum_overflow_raises_in_both_entry_points():
    # traces ~1e306: at rate 0.5 the curve's own sums fit, and so does the mean of 10^6 steps of error, though
    # their sum does not; at rate 1e-3 a cycle's own sum, ~1e309, overflows, and the mean with it
    p, ok = fs.ProcessModel(A=[[0.5]], Q=[[1e306]]), fs.ProcessModel(A=[[0.5]], Q=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fs.simulate_policy(p, fs.threshold_from_rate(0.5), horizon=10**6)
        assert res.empirical_avg_error == pytest.approx(res.analytical_error, rel=1e-2)
        message = "^the simulated error sum of process 0 overflowed; the model is ill posed$"
        with pytest.raises(fs.NumericalError, match=message):
            fs.simulate_policy(p, fs.threshold_from_rate(1e-3), horizon=10**6)
        for run in (fs.simulate_allocation, reference_simulate_allocation):
            with pytest.raises(fs.NumericalError, match="^the simulated error sum of process 1 overflowed"):
                run([ok, p, p], [0.3, 1e-3, 1e-3], 10**6, 0)
