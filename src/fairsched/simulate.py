"""Monte Carlo simulation of the remote-estimation covariance recursion.

Serves as the independent oracle for the closed-form cost curves: it never
touches the piecewise-linear formula, only the raw recursion
``P(k+1) = Pbar`` after a transmission and ``P(k+1) = A P A' + Q`` otherwise,
driven by the randomized threshold rule on the age counter.

The age sequence is a renewal process, so the step loop is executed in
vectorized form: one uniform draw decides each cycle's length, and the error
accumulated over a cycle is a prefix sum of the recursion's own trace table.
This is step-for-step identical to the scalar loop with the same draws.
Results are deterministic given (inputs, horizon, seed); per-process streams
in ``simulate_allocation`` are split off a single ``SeedSequence`` (PCG64),
so they are independent and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import CostDomainError
from .sensors import (
    ProcessModel,
    ThresholdPolicy,
    classify_stability,
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
    """Tr(P) after 0..upto prediction steps from the filter steady state ``pbar``."""
    M = pbar
    out = np.empty(upto + 1)
    out[0] = np.trace(M)
    for t in range(1, upto + 1):
        M = p.A @ M @ p.A.T + p.Q
        M = 0.5 * (M + M.T)
        out[t] = np.trace(M)
    if not np.isfinite(out).all():
        raise OverflowError("covariance recursion overflowed; the policy rate is too small")
    return out


def _run_cycles(p: ProcessModel, pbar: np.ndarray, policy: ThresholdPolicy, horizon: int, rng) -> tuple[float, int]:
    """(total error, transmissions) over `horizon` steps of the recursion.

    Starting right after a transmission the age visits 0..xi and the cycle
    closes there with probability b, else it runs one step longer. A cycle of
    length L contributes the first L entries of the trace table and exactly
    one transmission, decided at its last step.
    """
    xi, b = policy.xi, policy.b
    traces = _trace_table(p, pbar, xi + 1)
    prefix = np.concatenate(([0.0], np.cumsum(traces)))
    short_len, long_len = xi + 1, xi + 2
    cost_short, cost_long = prefix[short_len], prefix[long_len]

    err_sum = 0.0
    n_tx = 0
    done = 0
    while done < horizon:
        block = max(1024, (horizon - done) // short_len + 16)
        u = rng.random(block)
        short = u < b
        lengths = np.where(short, short_len, long_len)
        ends = done + np.cumsum(lengths)
        k = int(np.searchsorted(ends, horizon, side="right"))
        if k == block:
            err_sum += np.where(short, cost_short, cost_long).sum()
            n_tx += block
            done = int(ends[-1])
            continue
        if k > 0:
            err_sum += np.where(short[:k], cost_short, cost_long).sum()
            n_tx += k
            done = int(ends[k - 1])
        remainder = horizon - done
        if remainder > 0:
            err_sum += float(prefix[remainder])
            done = horizon
    return err_sum, n_tx


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
        tr = float(np.trace(M))
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

    children = np.random.SeedSequence(seed).spawn(len(ps))
    pbars = steady_state_filter_covs(ps)
    results = []
    for p, pbar, r, child in zip(ps, pbars, rates, children):
        r = float(r)
        if r == 0.0:
            if not classify_stability(p.A):
                raise CostDomainError("an unstable process cannot run at rate 0: its error is unbounded")
            err_sum = _no_comm_error_sum(p, pbar, horizon)
            results.append(SimResult(0.0, float(err_sum) / horizon, horizon, seed))
            continue
        policy = threshold_from_rate(r)
        rng = np.random.default_rng(child)
        err_sum, n_tx = _run_cycles(p, pbar, policy, horizon, rng)
        results.append(SimResult(n_tx / horizon, float(err_sum) / horizon, horizon, seed))
    return results
