"""Monte Carlo simulation of the remote-estimation covariance recursion.

Serves as the independent oracle for the closed-form cost curves: it never
touches the piecewise-linear formula, only the raw recursion
``P(k+1) = Pbar`` after a transmission and ``P(k+1) = A P A' + Q`` otherwise,
driven by the randomized threshold rule on the age counter. The recursion
itself, the trace sequence ``Tr(h^t(Pbar))``, is shared with the curve
builder (``sensors.prediction_traces``); what the simulator checks is the
formula built on it.

The age sequence is a renewal process, so the step loop is not executed:
each cycle is short (``xi + 1`` steps) with probability ``b``, else long,
and the error is summed from the counts of short and long cycles, each
cycle's cost being a prefix sum of the trace sequence, so it can differ from
the scalar loop's running sum in the last bits. The cycles are taken in runs
of as many as surely fit; the short ones among a run's ``m`` are one draw
from their Binomial(m, b) law. A process thus takes about log(horizon)
draws, and the cycles' time and memory do not grow with the horizon. A
rate so small that the recursion overflows within the horizon raises
``NumericalError``. Results are deterministic given (inputs, horizon, seed);
per-process streams in ``simulate_allocation`` are split off a single
``SeedSequence`` (PCG64), so they are independent and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import CostDomainError
from .sensors import (
    ProcessModel,
    ThresholdPolicy,
    prediction_traces,
    stable_mask,
    threshold_from_rate,
)

__all__ = ["SimResult", "simulate_policy", "simulate_allocation"]

# the longest horizon: a run's cycle count, at most horizon // 2, must fit the int64 of rng.binomial
_MAX_HORIZON = 2**64 - 1


@dataclass(frozen=True)
class SimResult:
    empirical_rate: float
    empirical_avg_error: float
    horizon: int
    seed: int


def _summed(seq: np.ndarray):
    """``k -> seq[0] + ... + seq[k - 1]``, with ``seq`` continued past its end by its last two entries, alternating."""
    prefix = np.concatenate(([0.0], np.cumsum(seq)))

    def total(k: int) -> float:
        if k <= seq.size:
            return prefix[k]
        m = k - seq.size
        return prefix[-1] + ((m + 1) // 2) * seq[-2] + (m // 2) * seq[-1]

    return total


def _trace_sums(ps, policies, horizon: int) -> list:
    """Per process, ``k -> Tr(P)`` summed over its first ``k`` steps from its filter steady state.

    ``policies[i]`` is None for a process that never transmits. No cycle reads
    past step ``xi + 1``, nor the run past step ``horizon - 1``, so the
    sequences stop there, or earlier at a repeated covariance.
    """
    caps = [horizon - 2 if pol is None else min(pol.xi, horizon - 2) for pol in policies]
    rates = [0.0 if pol is None else pol.rate for pol in policies]
    traces, first, lengths, _, _ = prediction_traces(ps, caps, rates)
    return [_summed(traces[f:f + n]) for f, n in zip(first.tolist(), lengths.tolist())]


def _run_cycles(total, policy: ThresholdPolicy, horizon: int, rng) -> tuple[float, int]:
    """(total error, transmissions) over `horizon` steps of the recursion.

    Starting right after a transmission the age visits 0..xi and the cycle
    closes there with probability b, else it runs one step longer. A cycle of
    length L contributes ``total(L)``, the sum of the first L traces, and
    exactly one transmission, decided at its last step. The cycles are taken
    in runs of as many as surely fit, even if all of them are long; the short
    ones among a run's m are Binomial(m, b), one draw. The steps left shrink
    geometrically, and once fewer than a long cycle remain, one uniform decides
    whether a last short cycle fits. A cycle cut by the horizon contributes its
    first entries and no transmission.
    """
    xi, b = policy.xi, policy.b
    short_len, long_len = xi + 1, xi + 2

    n_short = n_long = 0
    done = 0
    while m := (horizon - done) // long_len:
        k_short = int(rng.binomial(m, b))
        n_short += k_short
        n_long += m - k_short
        done += m * long_len - k_short
    if done + short_len <= horizon and rng.random() < b:
        n_short += 1
        done += short_len
    # a cycle longer than the horizon never completes; its count is 0 and its
    # clamped sum adds exactly 0.0
    err_sum = n_short * total(min(short_len, horizon)) + n_long * total(min(long_len, horizon)) + total(horizon - done)
    return float(err_sum), n_short + n_long


def simulate_policy(p: ProcessModel, policy: ThresholdPolicy, horizon: int, seed: int = 0) -> SimResult:
    """Simulate one sensor under a randomized threshold policy."""
    if not 1 <= horizon <= _MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, 2**64 - 1], got {horizon}")
    (total,) = _trace_sums([p], [policy], horizon)
    err_sum, n_tx = _run_cycles(total, policy, horizon, np.random.default_rng(seed))
    return SimResult(
        empirical_rate=n_tx / horizon,
        empirical_avg_error=float(err_sum) / horizon,
        horizon=horizon,
        seed=seed,
    )


def simulate_allocation(ps, rates, horizon: int, seed: int = 0) -> list[SimResult]:
    """Simulate every process at its allocated rate with independent substreams.

    A rate of exactly 0 means the sensor never transmits, which is only
    meaningful for stable processes; its error is the trace sum over the
    whole horizon. An unstable process at rate 0 raises
    :class:`CostDomainError` naming it. The trace sequences of all processes
    come from the curve builder's batched recursion (``prediction_traces``);
    its piecewise-linear formula is never evaluated. A rate so small that the recursion overflows
    within the horizon raises :class:`NumericalError`.
    """
    rates = np.asarray(rates, dtype=float)
    if len(ps) != rates.size:
        raise ValueError(f"{len(ps)} processes but {rates.size} rates")
    if not 1 <= horizon <= _MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, 2**64 - 1], got {horizon}")

    idle = np.flatnonzero(rates == 0.0)
    refused = idle[~stable_mask([ps[i].A for i in idle.tolist()])]
    if refused.size:
        raise CostDomainError(f"process {refused[0]} is unstable and cannot run at rate 0: its error is unbounded")

    children = np.random.SeedSequence(seed).spawn(len(ps))
    policies = [None if r == 0.0 else threshold_from_rate(r) for r in rates.tolist()]
    totals = _trace_sums(ps, policies, horizon)
    results = []
    for total, policy, child in zip(totals, policies, children):
        if policy is None:
            err_sum, n_tx = total(horizon), 0
        else:
            err_sum, n_tx = _run_cycles(total, policy, horizon, np.random.default_rng(child))
        results.append(SimResult(n_tx / horizon, float(err_sum) / horizon, horizon, seed))
    return results
