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
``CostDomainError`` for a rate past a sequence that stopped for good. A row
whose error summed over the horizon is past the float maximum takes its mean
with each cycle count divided by the horizon first; a mean past it still
raises ``NumericalError`` naming its process. Only the draws run process by
process; every threshold is taken in one array pass, and the cycle sums of
all processes are gathered from the model's flat table at once. Results are
deterministic given (inputs, horizon, seed); the per-process streams of ``simulate_allocation``
are those of ``SeedSequence(seed).spawn(n)`` (PCG64), bit for bit, with the
children's states hashed for all processes in one pass, so they are
independent and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import CostDomainError
from .sensors import (
    _RATE_MAX,
    _TAIL_TOL,
    _XI_NUMERATOR,
    CurveCostModel,
    NumericalError,
    ProcessModel,
    ThresholdPolicy,
    _grouped,
    _stable_rows,
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


# SeedSequence's hash constants (numpy.random.bit_generator; O'Neill's seed_seq_fe, NEP 19)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _Seeded:
    """Hands ``np.random.PCG64`` the four uint64 words it asks a seed sequence for. It is registered as an
    ``ISeedSequence`` where first used: importing ``numpy.random`` with this module would cost every command,
    simulating or not, some 6 MB of resident memory."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash_consts(init: int, mult: int, skip: int, count: int) -> np.ndarray:
    """``init * mult**j mod 2**32`` for ``j = skip .. skip + count``, as uint32."""
    return np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(skip, skip + count + 1)], dtype=np.uint32)


def _spawned_states(seed: int, n: int) -> np.ndarray:
    """Row ``i``: the four words ``SeedSequence(seed).spawn(n)[i]`` seeds PCG64 with, bit for bit.

    A child's entropy is the root's, padded with zeros to the pool's four words, then its key ``i``. The
    padding hashes as the root's missing words do, so a child's pool is the root's with ``hashmix(i)`` mixed
    into each word, the hash constant going on from its last use in the root: 4 + 12 uses, and 4 more per
    entropy word past the fourth. ``generate_state(4, uint64)`` then hashes the pool, cycled, into 8 words.
    """
    root = np.random.SeedSequence(seed)
    used = 16 + 4 * max(-(-int(root.entropy).bit_length() // 32) - 4, 0)
    a, b = _hash_consts(_INIT_A, _MULT_A, used, 4), _hash_consts(_INIT_B, _MULT_B, 0, 8)
    key = np.arange(n, dtype=np.uint32)[:, None]
    mixed = (key ^ a[:-1]) * a[1:]  # hashmix(i), once per pool word
    mixed ^= mixed >> 16
    pool = root.pool * np.uint32(_MIX_L) - mixed * np.uint32(_MIX_R)  # mix(pool word, hashmix(i))
    pool ^= pool >> 16
    state = (np.tile(pool, 2) ^ b[:-1]) * b[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def _spawned_rngs(seed: int, n: int, rows) -> list:
    """``default_rng(SeedSequence(seed).spawn(n)[i])`` for each ``i`` in ``rows``, seeded from the states hashed
    in one pass."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Seeded)
    return [np.random.Generator(np.random.PCG64(_Seeded(words))) for words in _spawned_states(seed, n)[rows]]


def _thresholds(rates: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``(xi, b)`` of ``threshold_from_rate`` at each rate, bit for bit, in one array pass: ``xi`` as exact
    ints (past int64 for a rate below ~1e-19). Raises its :class:`CostDomainError` for the first rate that
    it refuses."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        outside = ~((0.0 < rates) & (rates <= _RATE_MAX))
        over = _XI_NUMERATOR / rates == np.inf
        bad = outside | over
        if bad.any():
            i = int(bad.argmax())
            r = float(rates[i])
            raise CostDomainError(f"rate must lie in (0, 1], got {r}" if outside[i] else
                                  f"rate {r} is too small for a threshold policy: its reciprocal overflows")
        r = np.minimum(rates, 1.0)
        # sensors._xi_of: the largest finite reciprocal stands for one that overflows
        xi = np.maximum(np.floor(np.minimum(_XI_NUMERATOR / r, np.finfo(float).max) - 1.0), 0.0)
        b = xi + 1.0 + (r - 1.0) / r
    return [int(x) for x in xi.tolist()], np.minimum(np.maximum(b, 0.0), 1.0)


def _cycles(xi: int, b: float, horizon: int, rng) -> tuple[int, int, int]:
    """(short cycles, long cycles, the steps they take) within `horizon` steps of the recursion.

    Starting right after a transmission the age visits 0..xi and the cycle
    closes there with probability b, else it runs one step longer. Each
    cycle ends in exactly one transmission, decided at its last step. The
    cycles are taken in runs of as many as surely fit, even if all of them are
    long; the short ones among a run's m are Binomial(m, b), one draw. The
    steps left shrink geometrically, and once fewer than a long cycle remain,
    one uniform decides whether a last short cycle fits. The steps after the
    last cycle are a cycle cut by the horizon, with no transmission.
    """
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
    return n_short, n_long, done


def _cycle_sums(model: CurveCostModel, k: np.ndarray) -> np.ndarray:
    """``k[i, j]`` (uint64) -> the sum of row ``i``'s first ``k[i, j]`` traces, read from its running sums.

    Past its stored end a row goes on with its stable limit if its last entry lies at that limit's tail
    (within ``_TAIL_TOL``), else with its last two entries, alternating. A count past the end converts to
    float as Python's ``int * float`` does.
    """
    sizes = model._sizes.astype(np.uint64)[:, None]
    stored = np.minimum(k, sizes)
    past = k - stored
    last = model._starts + model._sizes - 1
    before, trace, limit = model._traces.take(last - 1), model._traces.take(last), model._traces.take(last + 1)
    total = model._cumsums.take(last)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float maximum is reported by the caller
        tail = np.abs(trace - limit) <= _TAIL_TOL * np.maximum(limit, 1e-300)  # False where unstable: NaN
        half = past // 2
        alternating = (total[:, None] + (past - half).astype(float) * before[:, None]
                       + half.astype(float) * trace[:, None])
        continued = np.where(tail[:, None], total[:, None] + past.astype(float) * limit[:, None], alternating)
        stored_sums = model._cumsums.take(model._starts[:, None] + stored.astype(np.intp) - 1)
    return np.where(past > 0, continued, np.where(k > 0, stored_sums, 0.0))


def _tallied(model: CurveCostModel, rows, xi, b, horizon: int, rngs) -> tuple[np.ndarray, list[int]]:
    """Each row's error over `horizon` steps, and its transmissions: row ``rows[j]`` follows the threshold
    ``(xi[j], b[j])`` and draws from ``rngs[j]``; every other row never transmits.

    A row's cycles, of a length L each, contribute the sum of its first L traces each; a cycle longer than
    the horizon never completes, and its count is 0. A row that never transmits has its trace sum over the
    whole horizon. The error is the mean over the horizon, of the row's sum or, where that sum is past the
    float maximum, of ``sum_L (count_L / horizon) * (sum of the first L traces)``, which may overflow too.
    """
    steps = np.zeros((model.n, 3), dtype=np.uint64)  # the short and long cycles' lengths, the cut cycle's
    steps[:, 2] = horizon
    counts = np.zeros((model.n, 2), dtype=np.uint64)  # short and long cycles
    if len(rows):
        drawn = np.array([_cycles(x, p, horizon, rng) for x, p, rng in zip(xi, b.tolist(), rngs)], dtype=np.uint64)
        counts[rows] = drawn[:, :2]
        steps[rows, :2] = np.array([(min(x + 1, horizon), min(x + 2, horizon)) for x in xi], dtype=np.uint64)
        steps[rows, 2] -= drawn[:, 2]
    sums = _cycle_sums(model, steps)
    n_tx = (counts[:, 0] + counts[:, 1]).tolist()
    counts = counts.astype(float)
    h = float(horizon)  # as Python divides a float by an int
    with np.errstate(over="ignore", invalid="ignore"):
        errors = (counts[:, 0] * sums[:, 0] + counts[:, 1] * sums[:, 1] + sums[:, 2]) / h
        over = ~np.isfinite(errors)
        if over.any():  # each count scaled first: the mean may be finite where the sum is not
            shares, parts = counts[over] / h, sums[over]
            errors[over] = shares[:, 0] * parts[:, 0] + shares[:, 1] * parts[:, 1] + parts[:, 2] / h
    return errors, n_tx


def _simulated(groups, stable, rates: np.ndarray, rows, xi, b, horizon: int, rngs, seed) -> list[SimResult]:
    """The processes of ``groups`` at ``rates``, row ``rows[j]`` under the threshold ``(xi[j], b[j])`` drawing from
    ``rngs[j]``, the others never transmitting; the trace sequences and the analytical errors come from one
    cost model, each curve built down to its own rate."""
    model = CurveCostModel._built(groups, np.minimum(rates, 1.0), stable)
    costs = model.values(rates).tolist()
    errors, n_tx = _tallied(model, rows, xi, b, horizon, rngs)
    bad = ~np.isfinite(errors)
    if bad.any():
        raise NumericalError(f"the simulated error sum of process {bad.argmax()} overflowed; the model is ill posed")
    return [SimResult(n / horizon, err, cost, horizon, seed) for n, err, cost in zip(n_tx, errors.tolist(), costs)]


def simulate_policy(p: ProcessModel, policy: ThresholdPolicy, horizon: int, seed: int = 0) -> SimResult:
    """Simulate one sensor under a randomized threshold policy, drawing from ``default_rng(seed)``."""
    if not 1 <= horizon <= _MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, 2**64 - 1], got {horizon}")
    groups = _grouped([p])
    return _simulated(groups, _stable_rows(groups), np.array([policy.rate]), [0], [policy.xi], np.array([policy.b]),
                      horizon, [np.random.default_rng(seed)], seed)[0]


def simulate_allocation(ps, rates, horizon: int, seed: int = 0) -> list[SimResult]:
    """Simulate every process at its allocated rate with independent substreams.

    A rate of exactly 0 means the sensor never transmits, which is only
    meaningful for stable processes; its error is the trace sum over the
    whole horizon. An unstable process at rate 0 raises
    :class:`CostDomainError` naming it. The trace sequences of all processes
    come from one cost model, each curve built down to its own rate, whose
    ``values(rates)`` are the results' ``analytical_error``; the cycle sums never
    evaluate its formula. Process ``i`` draws from
    ``default_rng(SeedSequence(seed).spawn(len(ps))[i])``, bit for bit; a
    process at rate 0 draws nothing, and no generator is built for it.
    """
    rates = np.asarray(rates, dtype=float)
    if len(ps) != rates.size:
        raise ValueError(f"{len(ps)} processes but {rates.size} rates")
    if not 1 <= horizon <= _MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, 2**64 - 1], got {horizon}")

    groups = _grouped(ps)
    stable = _stable_rows(groups)
    refused = np.flatnonzero((rates == 0.0) & ~stable)
    if refused.size:
        raise CostDomainError(f"process {refused[0]} is unstable and cannot run at rate 0: its error is unbounded")

    rows = np.flatnonzero(rates != 0.0)
    rngs = _spawned_rngs(seed, len(ps), rows)
    xi, b = _thresholds(rates[rows])
    return _simulated(groups, stable, rates, rows, xi, b, horizon, rngs, seed)
