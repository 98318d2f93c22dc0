"""Monte Carlo simulation of the remote-estimation covariance recursion.

Serves as the oracle for the closed-form cost curves: its cycle sums never
evaluate the piecewise-linear formula, only the raw recursion
``P(k+1) = Pbar`` after a transmission and ``P(k+1) = A P A' + Q`` otherwise,
driven by the randomized threshold rule on the age counter. The recursion
itself, the trace sequence ``Tr(h^t(Pbar))``, is read from the cost model
built for the rates (``CurveCostModel.from_floors``, each curve down to its
own rate), whose formula gives each result's ``analytical_error``; what the
simulator checks is the formula built on the shared sequence. Past its
stored end, a sequence that reached its stable tail goes on with its limit,
and one that stopped at a repeated covariance with its last two entries,
alternating.

The age sequence is a renewal process, so the step loop is not executed:
each cycle is short (``xi + 1`` steps) with probability ``b``, else long,
and the error is summed from the counts of short and long cycles, each
cycle's cost being a prefix sum of the trace sequence, so it can differ from
the scalar loop's running sum in the last bits. The cycles are taken in runs
of as many as surely fit; the short ones among a run's ``m`` are one draw
from their Binomial(m, b) law. A process thus takes about log(horizon)
draws, and the cycles' time and memory do not grow with the horizon. The
cost model raises what it raises for the rates: ``NumericalError`` for a
sequence that overflows or runs 10**6 steps short of its rate's segment, and
``CostDomainError`` for a rate past a sequence that stopped for good; an error
sum past the float maximum raises ``NumericalError`` naming its process.
Results are deterministic given (inputs, horizon, seed); per-process streams
in ``simulate_allocation`` are split off a single ``SeedSequence`` (PCG64),
so they are independent and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import CostDomainError
from .sensors import (
    _TAIL_TOL,
    CurveCostModel,
    NumericalError,
    ProcessModel,
    ThresholdPolicy,
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
    analytical_error: float
    horizon: int
    seed: int


def _summed(seq: np.ndarray, sums: np.ndarray, limit: float | None = None):
    """``k -> seq[0] + ... + seq[k - 1]``, read from ``sums``, the running sums of ``seq``. Past its end ``seq``
    goes on with ``limit`` if its last entry lies at that stable limit's tail (within ``_TAIL_TOL``), else with
    its last two entries, alternating."""
    tail = limit is not None and abs(seq[-1] - limit) <= _TAIL_TOL * max(limit, 1e-300)

    def total(k: int) -> float:
        if k <= seq.size:
            return sums[k - 1] if k else 0.0
        m = k - seq.size
        if tail:
            return sums[-1] + m * limit
        return sums[-1] + ((m + 1) // 2) * seq[-2] + (m // 2) * seq[-1]

    return total


def _costs_and_sums(ps, rates) -> tuple[list, list]:
    """The cost of each process at its rate and, per process, ``k -> Tr(P)`` summed over its first ``k``
    steps from its filter steady state, both read from one model of each curve down to its rate."""
    model = CurveCostModel.from_floors(ps, np.minimum(rates, 1.0))
    return model.values(rates).tolist(), [_summed(c.traces, c.cumsums, c.stable_limit) for c in model.curves]


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
    (cost,), (total,) = _costs_and_sums([p], [policy.rate])
    err_sum, n_tx = _run_cycles(total, policy, horizon, np.random.default_rng(seed))
    return SimResult(n_tx / horizon, float(err_sum) / horizon, cost, horizon, seed)


def simulate_allocation(ps, rates, horizon: int, seed: int = 0) -> list[SimResult]:
    """Simulate every process at its allocated rate with independent substreams.

    A rate of exactly 0 means the sensor never transmits, which is only
    meaningful for stable processes; its error is the trace sum over the
    whole horizon. An unstable process at rate 0 raises
    :class:`CostDomainError` naming it. The trace sequences of all processes
    come from one cost model, each curve built down to its own rate, whose
    ``values(rates)`` are the results' ``analytical_error``; the cycle sums never
    evaluate its formula.
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
    costs, totals = _costs_and_sums(ps, rates)
    results = []
    for i, (cost, total, policy, child) in enumerate(zip(costs, totals, policies, children)):
        with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float maximum raises below
            err_sum, n_tx = ((total(horizon), 0) if policy is None
                             else _run_cycles(total, policy, horizon, np.random.default_rng(child)))
        if not np.isfinite(err_sum):
            raise NumericalError(f"the simulated error sum of process {i} overflowed; the model is ill posed")
        results.append(SimResult(n_tx / horizon, float(err_sum) / horizon, cost, horizon, seed))
    return results
