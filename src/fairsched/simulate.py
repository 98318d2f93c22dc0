"""Monte Carlo simulation of the remote-estimation covariance recursion.

Serves as the independent oracle for the closed-form cost curves: it never
touches the piecewise-linear formula, only the raw recursion
``P(k+1) = Pbar`` after a transmission and ``P(k+1) = A P A' + Q`` otherwise,
driven by the randomized threshold rule on the age counter. The recursion
itself, the trace sequence ``Tr(h^t(Pbar))``, is shared with the curve
builder (``sensors.prediction_traces``); what the simulator checks is the
formula built on it.

The age sequence is a renewal process, so the step loop is executed in
vectorized form: one uniform draw decides each cycle's length, and the
draws come in chunks sized to the expected cycle count. The cycles and
transmissions are those of the scalar loop with the same draws. The error is
summed from the counts of short and long cycles, each cycle's cost being a
prefix sum of the trace sequence, so it can differ from the scalar loop's
running sum in the last bits. A rate so small that the recursion overflows
within the horizon raises ``NumericalError``. Results are deterministic given
(inputs, horizon, seed); per-process streams in ``simulate_allocation`` are
split off a single ``SeedSequence`` (PCG64), so they are independent and
order-insensitive.
"""

from __future__ import annotations

import math
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
    traces, first, lengths = prediction_traces(ps, caps, rates)
    return [_summed(traces[f:f + n]) for f, n in zip(first.tolist(), lengths.tolist())]


def _chunk_size(steps: int, policy: ThresholdPolicy) -> int:
    """Uniforms to draw for ``steps`` more steps: the expected cycle count plus 4 sigma plus 16.

    Cycles last ``xi + 1`` steps with probability ``b``, else ``xi + 2``; over
    ``steps`` steps their count has mean ``steps / mu`` and variance
    ``steps * b (1 - b) / mu^3``, ``mu = xi + 2 - b``. One chunk almost
    always covers the horizon.
    """
    mean = policy.xi + 2.0 - policy.b
    sigma = math.sqrt(steps * policy.b * (1.0 - policy.b) / mean**3)
    return int(steps / mean + 4.0 * sigma) + 16


def _run_cycles(total, policy: ThresholdPolicy, horizon: int, rng) -> tuple[float, int]:
    """(total error, transmissions) over `horizon` steps of the recursion.

    Starting right after a transmission the age visits 0..xi and the cycle
    closes there with probability b, else it runs one step longer. A cycle of
    length L contributes ``total(L)``, the sum of the first L traces, and
    exactly one transmission, decided at its last step. Cycle i draws the
    i-th uniform of the stream, in chunks of any size; a cycle cut by the
    horizon contributes its first entries and no transmission.
    """
    xi, b = policy.xi, policy.b
    short_len, long_len = xi + 1, xi + 2

    n_short = n_long = 0
    done = 0
    while done < horizon:
        chunk = _chunk_size(horizon - done, policy)
        short = rng.random(chunk) < b
        # Take cycles in runs that surely fit, even if all of them are long;
        # the steps left shrink geometrically, and once fewer than a long
        # cycle remain, only one more short cycle can fit.
        k = 0
        while True:
            m = min((horizon - done) // long_len, chunk - k)
            if not m:
                break
            k_short = int(np.count_nonzero(short[k:k + m]))
            n_short += k_short
            n_long += m - k_short
            done += m * long_len - k_short
            k += m
        if k == chunk:
            continue
        if short[k] and done + short_len <= horizon:
            n_short += 1
            done += short_len
        break
    # a cycle longer than the horizon never completes; its count is 0 and its
    # clamped sum adds exactly 0.0
    err_sum = n_short * total(min(short_len, horizon)) + n_long * total(min(long_len, horizon)) + total(horizon - done)
    return float(err_sum), n_short + n_long


def simulate_policy(p: ProcessModel, policy: ThresholdPolicy, horizon: int, seed: int = 0) -> SimResult:
    """Simulate one sensor under a randomized threshold policy."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
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
    whole horizon. The trace sequences of all processes come from the curve
    builder's batched recursion (``prediction_traces``); its piecewise-linear
    formula is never evaluated. A rate so small that the recursion overflows
    within the horizon raises :class:`NumericalError`.
    """
    rates = np.asarray(rates, dtype=float)
    if len(ps) != rates.size:
        raise ValueError(f"{len(ps)} processes but {rates.size} rates")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    if not stable_mask([p.A for p, r in zip(ps, rates) if r == 0.0]).all():
        raise CostDomainError("an unstable process cannot run at rate 0: its error is unbounded")

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
