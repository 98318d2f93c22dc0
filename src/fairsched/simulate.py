"""Monte Carlo simulation of the remote-estimation covariance recursion.

Serves as the independent oracle for the closed-form cost curves: it never
touches the piecewise-linear formula, only the raw recursion
``P(k+1) = Pbar`` after a transmission and ``P(k+1) = A P A' + Q`` otherwise,
driven by the randomized threshold rule on the age counter.

The age sequence is a renewal process, so the step loop is executed in
vectorized form: one uniform draw decides each cycle's length, and the
draws come in chunks sized to the expected cycle count. The cycles and
transmissions are those of the scalar loop with the same draws. The error is
summed from the counts of short and long cycles, each cycle's cost being a
prefix sum of the recursion's own trace table, so it can differ from the
scalar loop's running sum in the last bits. Results are deterministic given
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
    stable_mask,
    steady_state_filter_cov,
    steady_state_filter_covs,
    threshold_from_rate,
)

__all__ = ["SimResult", "simulate_policy", "simulate_allocation"]


@dataclass(frozen=True)
class SimResult:
    empirical_rate: float
    empirical_avg_error: float
    horizon: int
    seed: int


def _trace_table(p: ProcessModel, pbar: np.ndarray, upto: int) -> np.ndarray:
    """Tr(P) after 0..upto prediction steps from the filter steady state ``pbar``.

    The recursion is deterministic, so once the covariance repeats bit for bit
    every later step repeats it too, and the rest of the table is its trace.
    """
    M = pbar
    out = np.empty(upto + 1)
    out[0] = M.trace()
    # the first non-finite trace raises, so numpy's overflow warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, upto + 1):
            M_next = p.A @ M @ p.A.T + p.Q
            M_next = 0.5 * (M_next + M_next.T)
            out[t] = tr = M_next.trace()
            if not math.isfinite(tr):
                raise OverflowError("covariance recursion overflowed; the policy rate is too small")
            if tr == out[t - 1] and np.array_equal(M_next, M):
                out[t + 1:] = tr
                break
            M = M_next
    return out


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


def _run_cycles(p: ProcessModel, pbar: np.ndarray, policy: ThresholdPolicy, horizon: int, rng) -> tuple[float, int]:
    """(total error, transmissions) over `horizon` steps of the recursion.

    Starting right after a transmission the age visits 0..xi and the cycle
    closes there with probability b, else it runs one step longer. A cycle of
    length L contributes the first L entries of the trace table and exactly
    one transmission, decided at its last step. Cycle i draws the i-th
    uniform of the stream, in chunks of any size; a cycle cut by the horizon
    contributes its first entries and no transmission. No cycle reads past
    entry ``horizon - 1``, so the table stops there.
    """
    xi, b = policy.xi, policy.b
    traces = _trace_table(p, pbar, min(xi + 1, horizon - 1))
    prefix = np.concatenate(([0.0], np.cumsum(traces)))
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
    # clamped prefix term adds exactly 0.0
    top = prefix.size - 1
    err_sum = n_short * prefix[min(short_len, top)] + n_long * prefix[min(long_len, top)] + prefix[horizon - done]
    return float(err_sum), n_short + n_long


def _no_comm_error_sum(p: ProcessModel, pbar: np.ndarray, horizon: int) -> float:
    """Sum of Tr(P) over `horizon` prediction-only steps from the steady state.

    The trace sequence converges for stable processes; once successive values
    agree to machine precision the remaining steps contribute a constant.
    """
    M = pbar
    err_sum = 0.0
    prev = None
    t = 0
    while t < horizon:
        tr = float(M.trace())
        if prev is not None and abs(tr - prev) <= 1e-13 * max(abs(tr), 1.0):
            err_sum += (horizon - t) * tr
            return err_sum
        err_sum += tr
        prev = tr
        t += 1
        M = p.A @ M @ p.A.T + p.Q
        M = 0.5 * (M + M.T)
    return err_sum


def simulate_policy(p: ProcessModel, policy: ThresholdPolicy, horizon: int, seed: int = 0) -> SimResult:
    """Simulate one sensor under a randomized threshold policy."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rng = np.random.default_rng(seed)
    err_sum, n_tx = _run_cycles(p, steady_state_filter_cov(p), policy, horizon, rng)
    return SimResult(
        empirical_rate=n_tx / horizon,
        empirical_avg_error=float(err_sum) / horizon,
        horizon=horizon,
        seed=seed,
    )


def simulate_allocation(ps, rates, horizon: int, seed: int = 0) -> list[SimResult]:
    """Simulate every process at its allocated rate with independent substreams.

    A rate of exactly 0 means the sensor never transmits, which is only
    meaningful for stable processes.
    """
    rates = np.asarray(rates, dtype=float)
    if len(ps) != rates.size:
        raise ValueError(f"{len(ps)} processes but {rates.size} rates")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    if not stable_mask([p.A for p, r in zip(ps, rates) if r == 0.0]).all():
        raise CostDomainError("an unstable process cannot run at rate 0: its error is unbounded")

    children = np.random.SeedSequence(seed).spawn(len(ps))
    pbars = steady_state_filter_covs(ps)
    results = []
    for p, pbar, r, child in zip(ps, pbars, rates.tolist(), children):
        if r == 0.0:
            err_sum = _no_comm_error_sum(p, pbar, horizon)
            results.append(SimResult(0.0, float(err_sum) / horizon, horizon, seed))
            continue
        policy = threshold_from_rate(r)
        rng = np.random.default_rng(child)
        err_sum, n_tx = _run_cycles(p, pbar, policy, horizon, rng)
        results.append(SimResult(n_tx / horizon, float(err_sum) / horizon, horizon, seed))
    return results
