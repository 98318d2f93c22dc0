"""Sensor-side cost construction for remote state estimation.

A sensor watches one LTI process, runs a local Kalman filter, and occasionally
ships its estimate to a fusion center. Between transmissions the center
predicts, so its error covariance ``P`` follows

    P(k+1) = Pbar           after a received update,
    P(k+1) = A P(k) A' + Q  otherwise,

with ``Pbar`` the filter's steady-state covariance. Under a randomized
threshold transmission policy the long-run average of ``Tr(P)`` as a function
of the average transmission rate ``r`` is piecewise linear, convex, continuous
and strictly decreasing; this module builds that curve and evaluates it in
closed form. The Monte Carlo simulator in ``fairsched.simulate`` checks the
closed form; it shares the trace sequence, which one recursion over groups
(``_traced``) builds for both.

Curves are built in batches, and a batch of processes is held as groups, each
a set of rows and read-only ``(k, d, d)`` stacks of their ``A``, ``Q``, ``C``,
``R_meas`` and ``Pi0``. ``config.load_config`` returns its processes as the
groups it checked, one per shape of its entries, and nothing else: an item of
them is a row view made when read. A list of processes is stacked once per
field, one group per shape of ``C``. Each row steps alone within its stacks,
and of several failures the one at the earliest step, then of the least row,
is named, so neither a batch's curves nor its errors depend on how its rows
are grouped. The stable no-communication limit, the fixed
point of ``P = A P A' + Q``, is linear in ``P`` and solved exactly; the
Riccati steady state and the trace sequence are iterated, each process to
its own stop rule, so a batched curve equals the one built for that process
alone; the Riccati update ``(I + X- C' R^-1 C)^-1 X-`` has no difference to
cancel. The trace recursion checks its stop rules once per window of steps
and drops the steps run past a stop; a window runs 32 steps while a row has a
stable tail or a level to look for, else to the latest cap of the rows left,
and its length moves no bit. A Riccati row or a curve's trace
sequence that runs 10**6 steps raises :class:`NumericalError` (a slow Riccati
row, a stable spectral radius too close to 1, or an unstable curve's floor
too small), and so does a stable row whose running sums overflow.
``CurveCostModel`` keeps every curve's affine segments in one flat table,
never changed once built, and evaluates all agents by a gather; a deeper model
(``with_floor``'s, or the one ``floors_at`` returns) continues each row from
its kept end state, with its group's stacks sliced to the rows that step, and
splices the new steps in.

Processes are validated in stacks too: the construction checks (finiteness,
shapes, definiteness) and the rank tests (observability, controllability)
each run on a stack of equally shaped processes. ``config.load_config``
converts a config one shape group at a time, one stack per matrix, and checks
the stacks; ``ProcessModel`` runs the same checks on a stack of one.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .allocation import CostDomainError, CostModel

__all__ = [
    "NumericalError",
    "ProcessModel",
    "ThresholdPolicy",
    "CostCurve",
    "CurveCostModel",
    "classify_stability",
    "stable_mask",
    "steady_state_filter_cov",
    "no_comm_limit",
    "threshold_from_rate",
    "build_cost_curve",
    "cost_eval",
]

# the rate is nudged down by this relative amount before taking floor(1/r - 1),
# so the threshold is stable when 1/r lands exactly on an integer
_XI_NUDGE = 1e-12
_XI_NUMERATOR = 1.0 + _XI_NUDGE

_STABILITY_TOL = 1e-10

# rates up to this bound count as 1 (the budget projection rounds)
_RATE_MAX = 1.0 + 1e-12


class NumericalError(RuntimeError):
    """A fixed-point iteration failed to converge or overflowed."""


@dataclass(frozen=True, eq=False)
class ProcessModel:
    """One LTI process: ``x(k+1) = A x + w``, ``y(k) = C x + v``.

    ``Q`` (process noise covariance) must be symmetric PSD, ``R_meas``
    (measurement noise covariance) symmetric PD. ``C`` and ``R_meas`` default
    to identities of the state dimension. Construction converts the entries
    and checks them as a stack of one: finiteness, shapes and definiteness.
    ``config.load_config`` converts many processes as stacks and runs the same
    checks once per stack; its processes are read-only row views of those stacks,
    made when read. The observability / controllability rank tests
    live in :meth:`validate` so degenerate fixtures (for instance ``Q = 0``)
    can still be built for targeted tests.
    """

    A: np.ndarray
    Q: np.ndarray
    C: np.ndarray = None
    R_meas: np.ndarray = None
    Pi0: np.ndarray = None

    def __post_init__(self):
        given = self.A, self.Q, self.C, self.R_meas, self.Pi0
        fields = _converted(*given)
        # a C or R_meas not given is an identity, which passes the checks: None stands for it
        failure = _stack_invalid(*(None if g is None else M[None] for M, g in zip(fields, given)))
        if failure is not None:
            raise ValueError(failure[1])
        self._hold(*fields)

    def _hold(self, A, Q, C, R_meas, Pi0) -> ProcessModel:
        """Set the fields to these read-only arrays as they are; return this process."""
        vars(self).update(A=A, Q=Q, C=C, R_meas=R_meas, Pi0=Pi0)
        return self

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def validate(self) -> None:
        """Rank tests: (A, C) observable and (A, sqrt(Q)) controllable."""
        failure = _stack_rank_failure(self.A[None], self.Q[None], self.C[None])
        if failure is not None:
            raise ValueError(failure[1])


def _converted(A, Q, C, R_meas, Pi0) -> tuple:
    """The fields as read-only 2-d float arrays, ``C`` and ``R_meas`` filled in."""
    # copies: fields are frozen read-only and must not alias caller data
    A = _as_matrix("A", A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    Q = _as_matrix("Q", Q)
    C = np.eye(A.shape[0]) if C is None else _as_matrix("C", C)
    R = np.eye(C.shape[0]) if R_meas is None else _as_matrix("R_meas", R_meas)
    Pi0 = None if Pi0 is None else _as_matrix("Pi0", Pi0)
    for arr in (A, Q, C, R, Pi0):
        if arr is not None:
            arr.setflags(write=False)
    return A, Q, C, R, Pi0


def _as_matrix(name: str, value) -> np.ndarray:
    try:
        M = np.array(value, dtype=float, ndmin=2)
    except (TypeError, OverflowError) as exc:  # an entry such as {} that is no number, or an int too large
        raise ValueError(f"{name} must hold numbers only: {exc}") from exc
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got {M.ndim} dimensions")
    return M


def _stack_rank_failure(A, Q, C) -> tuple[int, str] | None:
    """``(row, reason)`` of the first unobservable ``(A, C)`` or uncontrollable ``(A, sqrt(Q))`` of a stack,
    or of the first whose powers of ``A`` overflow, which no rank test can take.

    Each test is one rank computation over the stack's rows before the first that overflows.
    """
    n = A.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # stacks that overflow are refused below
        powers = [np.linalg.matrix_power(A, k) for k in range(n)]
        obs = np.concatenate([C @ P for P in powers], axis=1)
        vals, vecs = np.linalg.eigh(0.5 * Q + 0.5 * _mT(Q))  # halved before the sum, which could overflow
        sqrt_q = (vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]) @ _mT(vecs)
        ctr = np.concatenate([P @ sqrt_q for P in powers], axis=2)
    finite = np.isfinite(obs).all(axis=(1, 2)) & np.isfinite(ctr).all(axis=(1, 2))
    k = int(finite.argmin()) if not finite.all() else len(A)  # the rows before the first that overflows
    overflow = None if k == len(A) else (k, "the powers of A overflow, so its rank tests cannot run")
    if not k:
        return overflow
    unobservable = np.linalg.matrix_rank(obs[:k]) < n
    uncontrollable = np.linalg.matrix_rank(ctr[:k]) < n
    bad = np.flatnonzero(unobservable | uncontrollable)
    if not bad.size:
        return overflow
    j = int(bad[0])
    return j, "(A, C) is not observable" if unobservable[j] else "(A, sqrt(Q)) is not controllable"


def _stack_invalid(A, Q, C, R_meas, Pi0) -> tuple[int, str] | None:
    """``(row, reason)`` of the first process of a stack failing a construction check, or None.

    ``A`` stacks square matrices, the others equally shaped ones; ``Pi0`` may be None, and so may ``C``
    and ``R_meas``, which then stand for the identities that pass their checks. The checks, in
    the order each process runs them: finite entries of ``A``, ``Q``, ``C``, ``R_meas`` and ``Pi0``;
    the shapes of ``Q``, ``C`` and ``R_meas``; ``Q`` symmetric PSD; ``R_meas`` symmetric PD; the shape
    of ``Pi0``, then ``Pi0`` symmetric PSD. The shapes are the stack's, so the first row fails them or
    none does; the matrix tests run over the rows before the first non-finite one.
    """
    mats = [(name, M) for name, M in (("A", A), ("Q", Q), ("C", C), ("R_meas", R_meas), ("Pi0", Pi0))
            if M is not None]
    finite = np.isfinite(np.concatenate([M.reshape(len(M), -1) for _, M in mats], axis=1)).all(axis=1)
    k, failure = len(A), None  # the rows before the first failure, and that failure
    if not finite.all():
        k = int(finite.argmin())
        name = next(name for name, M in mats if not np.isfinite(M[k]).all())
        failure = k, f"{name} must have finite entries (NaN or infinity found)"
    if not k:
        return failure
    n = A.shape[1]
    m = n if C is None else C.shape[1]
    if Q.shape[1:] != (n, n):
        return 0, f"Q must be {n}x{n}, got {Q.shape[1:]}"
    if C is not None and C.shape[2] != n:
        return 0, f"C must have {n} columns, got {C.shape[1:]}"
    if R_meas is not None and R_meas.shape[1:] != (m, m):
        return 0, f"R_meas must be {m}x{m}, got {R_meas.shape[1:]}"
    tests = [_covariance_test("Q", Q[:k], False)]
    if R_meas is not None:
        tests.append(_covariance_test("R_meas", R_meas[:k], True))
    if Pi0 is not None:
        tests.append((np.ones(k, dtype=bool), lambda j: f"Pi0 must be {n}x{n}, got {Pi0.shape[1:]}")
                     if Pi0.shape[1:] != (n, n) else _covariance_test("Pi0", Pi0[:k], False))
    bad = np.any([failed for failed, _ in tests], axis=0)
    if not bad.any():
        return failure
    j = int(bad.argmax())
    return j, next(reason(j) for failed, reason in tests if failed[j])


def _covariance_test(name, M, definite):
    """``(failed, reason)``: which matrices of a stack are not symmetric positive (semi)definite, and why one is not."""
    # np.allclose(M, M.T, atol=1e-9) per matrix, without its per-call overhead; a difference that
    # overflows is infinite and fails it
    with np.errstate(over="ignore"):
        symmetric = (np.abs(M - _mT(M)) <= 1e-9 + 1e-5 * np.abs(_mT(M))).all(axis=(1, 2))
    low = np.linalg.eigvalsh(0.5 * M + 0.5 * _mT(M)).min(axis=1)  # halved before the sum, which could overflow
    kind = "definite" if definite else "semidefinite"
    return (~symmetric | (low <= 0 if definite else low < -1e-10),
            lambda j: f"{name} must be symmetric" if not symmetric[j]
            else f"{name} must be positive {kind} (min eigenvalue {low[j]:.3g})")


def _mT(X):
    return X.swapaxes(-1, -2)


def _traces(M) -> np.ndarray:
    """``np.trace`` over the last two axes of a stack, bit for bit, by adding the diagonal in order.

    Up to 7 entries ``np.trace`` sums them one after another, as here, but an order of magnitude
    slower on small matrices; from 8 on it sums in another order, so it is called there.
    """
    d = M.shape[-1]
    if d >= 8:
        return np.trace(M, axis1=-2, axis2=-1)
    out = M[..., 0, 0].copy()
    for i in range(1, d):
        out += M[..., i, i]
    return out


def _stable(A) -> np.ndarray:
    """Spectral radius below 1, per matrix of a stack; the boundary counts as unstable."""
    return np.abs(np.linalg.eigvals(A)).max(axis=-1) < 1.0 - _STABILITY_TOL


def stable_mask(matrices) -> np.ndarray:
    """:func:`classify_stability` of each square matrix, one eigenvalue call per shape."""
    As = list(matrices)
    out = np.empty(len(As), dtype=bool)
    for rows in _group_by([A.shape for A in As]):
        out[rows] = _stable(np.stack([As[i] for i in rows]))
    return out


def _stable_rows(groups) -> np.ndarray:
    """:func:`stable_mask` of the groups' ``A``, per row, one eigenvalue call per group."""
    out = np.empty(sum(map(len, groups)), dtype=bool)
    for group in groups:
        out[group.rows] = _stable(group.A)
    return out


def classify_stability(A) -> bool:
    """True iff the spectral radius of ``A`` is below 1; the boundary counts as unstable."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    return bool(stable_mask([A])[0])


def _group_by(keys) -> list[np.ndarray]:
    """Indices grouped by equal keys, groups in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [np.array(g, dtype=np.intp) for g in groups.values()]


_FIELDS = ("A", "Q", "C", "R_meas", "Pi0")


class _Group:
    """Equally shaped rows of a batch: ``rows``, their indices in the batch, in order, and ``(len(rows), ., .)``
    stacks of their fields, made read-only, ``Pi0`` None where no row's is given (zeros)."""

    __slots__ = ("rows",) + _FIELDS

    def __init__(self, rows, A, Q, C, R_meas, Pi0=None):
        self.rows, self.A, self.Q, self.C, self.R_meas, self.Pi0 = rows, A, Q, C, R_meas, Pi0
        for M in self._stacks():
            if M is not None:
                M.setflags(write=False)

    def _stacks(self) -> tuple:
        return self.A, self.Q, self.C, self.R_meas, self.Pi0

    @classmethod
    def of_stacks(cls, rows, A, Q, C=None, R_meas=None, Pi0=None) -> _Group | int:
        """The group of ``rows`` with these equally shaped ``(k, ., .)`` float stacks, square ``A``, if every row
        passes the construction checks and the rank tests of :meth:`ProcessModel.validate`, else the position of
        the first row that fails one. A missing ``C`` or ``R_meas`` is one identity, broadcast over the rows."""
        invalid = _stack_invalid(A, Q, C, R_meas, Pi0)
        k, n = (len(A) if invalid is None else invalid[0]), A.shape[1]  # the rows that pass the checks
        if C is None:
            C = np.broadcast_to(np.eye(n), (len(A), n, n))  # read-only, and no copy per row
        if R_meas is None:
            R_meas = np.broadcast_to(np.eye(C.shape[1]), (len(A), C.shape[1], C.shape[1]))
        rank = _stack_rank_failure(A[:k], Q[:k], C[:k]) if k else None
        if rank is not None or invalid is not None:
            return k if rank is None else rank[0]
        return cls(rows, A, Q, C, R_meas, Pi0)

    def __len__(self) -> int:
        return len(self.rows)

    def process(self, at: int) -> ProcessModel:
        """The row at position ``at`` as a process that holds read-only views of the stacks."""
        return object.__new__(ProcessModel)._hold(*(None if M is None else M[at] for M in self._stacks()))

    def take(self, at, rows) -> _Group:
        """The rows at positions ``at`` of this group, numbered ``rows``."""
        return _Group(rows, *(None if M is None else M[at] for M in self._stacks()))


class _Fleet(Sequence):
    """An immutable sequence of processes held as groups only, ``groups``, whose rows number ``0 .. n - 1``
    together; an item, a slice (a list) or an iteration makes read-only row views of their stacks when read.
    ``config.load_config`` returns its processes so."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = tuple(groups)

    def __len__(self) -> int:
        return sum(map(len, self.groups))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]  # an IndexError past the end, a negative index counted from it
        group = next(g for g in self.groups if i in g.rows)
        return group.process(int(np.searchsorted(group.rows, i)))

    def __iter__(self):
        views = {i: group.process(at) for group in self.groups for at, i in enumerate(group.rows.tolist())}
        return (views[i] for i in range(len(views)))


def _grouped(ps) -> Sequence[_Group]:
    """The processes as groups, each row numbered by its index in ``ps``: a :class:`_Fleet`'s own, else one group
    per shape of ``C``, with one ``np.array`` per field."""
    if isinstance(ps, _Fleet):
        return ps.groups
    ps, groups = list(ps), []
    for rows in _group_by([p.C.shape for p in ps]):
        members = [ps[i] for i in rows.tolist()]
        stacks = [np.array([getattr(p, name) for p in members]) for name in _FIELDS[:4]]
        if any(p.Pi0 is not None for p in members):  # zeros where not given; else None stands for every row's
            stacks.append(np.array([np.zeros(p.A.shape) if p.Pi0 is None else p.Pi0 for p in members]))
        groups.append(_Group(rows, *stacks))
    return groups


# steps a recursion runs between two checks of its stop rules, while a row left has a stop found only by looking
_WINDOW = 32
# the most steps times rows a window of _traced holds, beyond _WINDOW steps: a 32-step window of 512 rows
_WINDOW_CELLS = 2**14
# a Riccati row converges once its largest entry change is within _COV_TOL of its largest entry; it, and a
# curve's trace sequence (stable ones stop at the relative tail cut _TAIL_TOL), run at most _MAX_STEPS steps
_COV_TOL, _TAIL_TOL, _MAX_STEPS = 1e-12, 1e-10, 10**6


def _transposed(A) -> np.ndarray:
    """``A'`` as a contiguous stack, which multiplies faster than a view."""
    return np.ascontiguousarray(_mT(A))


@np.errstate(over="ignore", invalid="ignore")  # a row that overflows is reported by the caller
def _filter_covs(group: _Group) -> np.ndarray:
    """Filter steady states of a group's rows, as a stack; each row stops where it would alone, one that
    overflows (``I + Xp G`` not finite, or singular once rounded) at its first non-finite iterate."""
    A, Q, C, R = group.A, group.Q, group.C, group.R_meas
    At, G, eye = _transposed(A), _mT(C) @ np.linalg.solve(R, C), np.eye(A.shape[1])
    X = np.zeros(A.shape) if group.Pi0 is None else group.Pi0
    out, rows = np.empty_like(X), np.arange(len(X))
    for _ in range(_MAX_STEPS):
        Xp = A @ X @ At + Q
        F = Xp @ G + eye
        over = ~np.isfinite(F).all(axis=(1, 2))
        try:
            M = np.linalg.solve(F, Xp)
        except np.linalg.LinAlgError:  # its eigenvalues are at least 1, but at a large scale its sums round
            over |= np.linalg.det(F) == 0
            M = np.linalg.solve(np.where(over[:, None, None], eye, F), Xp)
        M[over] = np.nan
        X_new = M + _mT(M)
        X_new *= 0.5
        # a non-finite row makes either side NaN or infinite, and stops
        done = ~(np.abs(X_new - X).max(axis=(1, 2)) > _COV_TOL * np.abs(X_new).max(axis=(1, 2)))
        if done.any():
            out[rows[done]] = X_new[done]
            if done.all():
                return out
            keep = ~done
            rows, X_new, A, At, Q, G = (x[keep] for x in (rows, X_new, A, At, Q, G))
        X = X_new
    raise NumericalError("filter covariance iteration did not converge; the model is ill posed")


def _pbars(groups) -> list[np.ndarray]:
    """Each group's filter steady states, as a stack; of the rows whose iteration overflowed, in any group, the
    least raises :class:`NumericalError`."""
    covs = [_filter_covs(group) for group in groups]
    bad = [i for group, X in zip(groups, covs) for i in group.rows[~np.isfinite(X).all(axis=(1, 2))].tolist()]
    if bad:
        raise NumericalError(f"the filter covariance of process {min(bad)} overflowed; the model is ill posed")
    return covs


def _no_comm_covs(A, Q) -> np.ndarray:
    """``P = A P A' + Q`` for stacked stable ``A``, solved exactly: ``(I - A kron A) vec(P) = vec(Q)``.

    ``A kron A`` has the pairwise products of ``A``'s eigenvalues, all inside the unit disc.
    """
    k, d = A.shape[:2]
    K = np.eye(d * d) - np.einsum("nik,njl->nijkl", A, A).reshape(k, d * d, d * d)
    return np.linalg.solve(K, Q.reshape(k, d * d, 1)).reshape(k, d, d)


def steady_state_filter_cov(p: ProcessModel) -> np.ndarray:
    """Steady state of the predict-then-update error covariance recursion.

    Iterates ``X- = A X A' + Q`` followed by the measurement update
    ``X = (I + X- C' R^-1 C)^-1 X-``, which equals ``X- - X- C' (C X- C' + R)^-1 C X-`` with no
    difference to cancel, from ``Pi0`` (zero by default) until no entry moves by more than 1e-12 times
    the largest, for at most 10**6 steps; an iterate that overflows raises :class:`NumericalError`. A row
    that contracts too slowly for that stop runs all the steps and raises too. The array is the caller's own.
    """
    return _pbars(_grouped([p]))[0][0]


def no_comm_limit(p: ProcessModel) -> float:
    """``Tr(P_inf)`` where ``P_inf = A P_inf A' + Q``: the never-transmit average error.

    Only defined for stable ``A``; the prediction-only covariance has no
    bounded fixed point otherwise.
    """
    if not classify_stability(p.A):
        raise CostDomainError("no_comm_limit requires a stable process")
    return float(np.trace(_no_comm_covs(p.A[None], p.Q[None])[0]))


def _traced(groups, caps, rates, stable=None, max_steps=None, levels=None, starts=None):
    """``Tr(h^t(Pbar))``, ``t = 0, 1, ...``, ``h(X) = A X A' + Q``, from the filter steady state ``Pbar`` of each
    row of ``groups``, numbered ``0 .. n - 1`` together; given ``starts = (depths, covs, sums)``, with ``covs`` one
    ``(k, 2, d, d)`` stack per group, row ``i`` goes on after ``depths[i]`` steps from its last two covariances
    and ``sums[i]``, the sum of its traces.

    One batched recursion per group; each row leaves it at its own stop, so its sequence is the one it would get
    alone: after step ``caps[i] + 1``; from step 1 on, where ``stable`` is set, within ``_TAIL_TOL`` (relative) of
    its no-communication limit; where ``levels`` is given and ``stable`` is not, at the first step ``k`` with
    ``cumsum(traces)[k] / (k + 1) >= levels[i]``; or at a covariance equal, bit for bit, to the one two steps
    back, after which it repeats its last two entries forever. Returns ``(traces, first, lengths, cumsums,
    stacks, held)``: sequence ``i`` is ``lengths[i]`` steps long; its steps from its depth on, then a slot holding
    its limit (NaN where ``stable`` is not set), lie from ``traces[first[i]]``, their running sums (and NaN) from
    ``cumsums[first[i]]``; ``stacks`` holds, per group, each row's last two covariances, which row ``i`` holds if
    ``held[i]``, not having stopped for good (at its tail or a repeat).

    Every ``Pbar`` is taken first, and the least row whose iteration overflows raises :class:`NumericalError`;
    then so does a trace overflow, or a row not stopped within ``max_steps`` steps, if given: of several, in any
    groups, the one at the earliest step, then the least row. The stop rules are checked once per window of
    steps, and the steps run past a stop are dropped, so each row stops, and raises, where a check after each
    step would: a window is ``_WINDOW`` steps while a row left has a stable tail or a level to look for, else it
    runs to the latest cap of the rows left, at most ``max(_WINDOW, _WINDOW_CELLS // rows)`` steps.
    """
    size = sum(map(len, groups))
    caps, rates = np.asarray(caps, dtype=float), np.asarray(rates, dtype=float)
    stable = np.zeros(size, dtype=bool) if stable is None else np.asarray(stable, dtype=bool)
    levels = np.full(size, np.inf) if levels is None else np.where(stable, np.inf, levels)
    # from step 0, each sum starts at -0.0, which leaves a first trace as it is, bit for bit
    depths, covs, sums = ((np.zeros(size, dtype=np.intp), None, np.full(size, -0.0)) if starts is None
                          else (np.asarray(starts[0], dtype=np.intp), starts[1], np.array(starts[2], dtype=float)))
    budget = math.inf if max_steps is None else max_steps
    limits, lengths, held = np.full(size, np.nan), np.empty(size, dtype=np.intp), np.zeros(size, dtype=bool)
    # failures ``(step, row, text)``, of any group: the least is raised once every group has stopped
    ends, failures, pbars = [], [], _pbars(groups) if starts is None else None
    # blocks ``(t0, rows, traces)``: the traces of steps t0, t0 + 1, ... past each row's depth (one row each)
    # of the processes ``rows`` (one column each); entries past a process's length ran past its stop
    blocks = []
    for g, group in enumerate(groups):
        A, Q, rows = group.A, group.Q, group.rows
        s = stable[rows]
        limits[rows[s]] = _traces(_no_comm_covs(A[s], Q[s]))
        At, limit, level = _transposed(A), limits[rows], levels[rows]
        # a 1x1 matmul sums its product onto 0.0, which changes a -0.0 only, and (a x) a is never -0.0 for a
        # covariance x >= +0: np.multiply gives its bits
        product = np.multiply if A.shape[1] == 1 else np.matmul
        cap = np.minimum(caps[rows], budget - 1.0)  # a stop at the step budget is a failure
        run, depth = sums[rows], depths[rows]  # each row's sum of the traces before the window, its depth
        # each row's last two covariances, by its position in the group, which ``pos`` holds while it runs
        end, pos = np.empty((len(rows), 2) + A.shape[1:]), np.arange(len(rows))
        cut = _TAIL_TOL * np.maximum(limit, 1e-300)
        # the first window's first j0 slots: a start's last two covariances, or two unread slots and Pbar
        if starts is None:
            head, j0 = np.zeros((3,) + A.shape), 3
            head[2] = pbars[g]
        else:
            head, j0 = covs[g].swapaxes(0, 1), 2
        Ms, steps, t0, block_t0 = None, [], 0, 0
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            # until every row left has run past the earliest failure recorded, which no later step can precede
            while rows.size and not (failures and (depth + t0).min() > min(failures)[0]):
                tails, searching = bool(s.any()), bool(np.isfinite(level).any())
                if tails or searching:  # a stop found only by looking: a stable tail, or a level
                    n = _WINDOW
                else:  # every row left stops at its cap: run to the latest, within the cell bound
                    n = int(min(max((cap - (depth + t0)).max() + 2.0, 1.0), max(_WINDOW, _WINDOW_CELLS // rows.size)))
                if Ms is None or Ms.shape[:2] != (n + 2, rows.size):
                    # Ms[2 + j] holds the covariances of step depth + t0 + j; Ms[0] and Ms[1] the two before it
                    Ms = np.empty((n + 2,) + A.shape)
                    slots, AM, M = list(Ms), np.empty_like(A), np.empty_like(A)  # AM, M: the products of a step
                    MT = _mT(M)
                Ms[:j0] = head
                for j in range(j0, n + 2):  # Ms[j] = sym(h(Ms[j - 1]))
                    product(product(A, slots[j - 1], out=AM), At, out=M)
                    np.add(M, Q, out=M)
                    np.add(M, MT, out=slots[j])
                    np.multiply(slots[j], 0.5, out=slots[j])
                trs = _traces(Ms)
                tr, t = trs[2:], (depth + t0) + np.arange(n, dtype=float)[:, None]
                stop = t > cap
                # stops for good: at the stable tail, or at a covariance repeated bit for bit
                final = (t >= 1) & (np.abs(tr - limit) <= cut) if tails else np.zeros_like(stop)
                if searching:  # summed onto the run in order, as np.cumsum sums a sequence
                    window = np.cumsum(np.vstack((run, tr)), axis=0)[1:]
                    stop |= window / (t + 1.0) >= level
                    run = window[-1]
                # traces first, so that only candidate steps compare whole matrices
                w, r = np.nonzero((tr == trs[:-2]) & (t >= 2))
                if w.size:
                    same = (Ms[w + 2, r] == Ms[w, r]).all(axis=(1, 2))
                    final[w[same], r[same]] = True
                stop |= final
                # per row, the offset of its stop in the window, or n
                at_stop = np.where(stop.any(axis=0), stop.argmax(axis=0), n)
                gone = at_stop < n
                if not np.isfinite(tr).all():
                    bad = ~np.isfinite(tr) & (t >= 1) & (t < budget)
                    at = bad.argmax(axis=0)
                    raised = bad.any(axis=0) & (at <= at_stop)  # overflowed by its stop
                    if raised.any():
                        step = depth + t0 + at
                        k = np.flatnonzero(raised & (step == step[raised].min()))[0]
                        # every curve reads step 1, so an unstable row that overflows there does so at any rate
                        why = ("the stable process's prediction covariance overflows" if s[k]
                               else f"the prediction covariance of process {rows[k]} overflows at any rate"
                               if step[k] <= 1 else f"its mean has not reached the level {level[k]}"
                               if level[k] < np.inf else f"the rate {rates[rows[k]]} is too small")
                        failures.append((step[k], rows[k], f"trace sequence overflowed at step {step[k]}; {why}"))
                        gone |= raised
                steps.append(tr)
                if gone.any():  # rows that fail are recorded too, but never returned: the call raises
                    last = depth + t0 + at_stop
                    failed = np.flatnonzero((at_stop < n) & (last >= budget))
                    if failed.size:
                        k = failed[0]
                        why = (f"the stable process's spectral radius {np.abs(np.linalg.eigvals(A[k])).max():.9g} "
                               "is too close to 1" if s[k] else f"its mean has not reached the level {level[k]}"
                               if level[k] < np.inf else f"the rate floor {rates[rows[k]]} is too small")
                        failures.append((budget, rows[k],
                                         f"trace sequence did not stop within {max_steps} steps; {why}"))
                    lengths[rows[gone]] = last[gone] + 1
                    cols = np.flatnonzero(at_stop < n)
                    cols = cols[~final[at_stop[cols], cols]]  # stopped, but not for good
                    end[pos[cols], 0], end[pos[cols], 1] = Ms[at_stop[cols] + 1, cols], Ms[at_stop[cols] + 2, cols]
                    held[rows[cols]] = True
                t0 += n
                if gone.any() or t0 - block_t0 >= 1024:  # 1024: a lone long run keeps few arrays
                    blocks.append((block_t0, rows, np.concatenate(steps)))
                    steps, block_t0 = [], t0
                head, j0 = Ms[-2:], 2
                if gone.any():
                    keep = ~gone
                    rows, pos, A, At, Q, s, cap, limit, cut, level, run, depth = (
                        x[keep] for x in (rows, pos, A, At, Q, s, cap, limit, cut, level, run, depth))
                    head = Ms[-2:, keep]
        ends.append(end)
    if failures:
        raise NumericalError(min(failures)[2])

    added = lengths - depths
    first = np.cumsum(added + 1) - (added + 1)
    traces, cumsums = np.empty(int((added + 1).sum())), np.empty(int((added + 1).sum()))
    while blocks:  # in order, so each row's sums go on from its last block's; each block freed once read
        t0, rows, block = blocks.pop(0)
        t = np.arange(t0, t0 + len(block))[:, None]
        kept = t < added[rows]
        at = (first[rows] + t)[kept]
        traces[at] = block[kept]
        with np.errstate(over="ignore"):  # a sum past the float maximum reads inf, as the running sums do
            block[0] += sums[rows]
            sums[rows] = np.cumsum(block, axis=0, out=block)[-1]  # summed in order, as np.cumsum sums a row
        cumsums[at] = block[kept]
    traces[first + added], cumsums[first + added] = limits, np.nan
    return traces, first, lengths, cumsums, ends, held


@dataclass(frozen=True)
class ThresholdPolicy:
    """Randomized threshold transmission rule.

    Never transmit while the age ``tau`` (steps since the last transmission)
    is below ``xi``; transmit with probability ``b`` at ``tau == xi``; always
    transmit beyond. The induced average rate is ``1 / (xi + 2 - b)``.
    """

    xi: int
    b: float

    def __post_init__(self):
        if not isinstance(self.xi, numbers.Integral) or self.xi < 0:  # numpy integers too; 2.0 is no slice index
            raise ValueError("threshold must be a nonnegative integer")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("randomization probability must lie in [0, 1]")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("policy implies an average rate outside (0, 1]")

    @property
    def rate(self) -> float:
        return 1.0 / (self.xi + 2.0 - self.b)


def _xi_of(r: float) -> int:
    """Threshold index of the segment containing rate ``r``; no validation.

    A rate whose reciprocal overflows, such as 5e-324, takes the largest finite
    reciprocal: its index lies past every segment a curve can store.
    """
    return max(0, math.floor(min(_XI_NUMERATOR / r, sys.float_info.max) - 1.0))


def threshold_from_rate(r: float) -> ThresholdPolicy:
    """Policy parameters hitting the average rate ``r`` exactly.

    ``xi = floor(1/r - 1)`` and ``b = xi + 1 + (r - 1)/r``. At rates whose
    reciprocal is an exact integer the nudge picks the representation with
    ``b = 1`` (sure transmission at the threshold), which by continuity
    evaluates identically to the ``b = 0`` form one threshold lower.
    """
    r = float(r)
    if not 0.0 < r <= 1.0 + 1e-12:
        raise CostDomainError(f"rate must lie in (0, 1], got {r}")
    if _XI_NUMERATOR / r == math.inf:
        raise CostDomainError(f"rate {r} is too small for a threshold policy: its reciprocal overflows")
    r = min(r, 1.0)
    xi = _xi_of(r)
    b = xi + 1.0 + (r - 1.0) / r
    return ThresholdPolicy(xi=xi, b=min(max(b, 0.0), 1.0))


@dataclass(frozen=True, eq=False)
class CostCurve:
    """Piecewise-linear optimal average error of one sensor.

    ``traces[t] = Tr(h^t(Pbar))`` with ``h(X) = A X A' + Q``, precomputed far
    enough to cover rates down to ``domain_floor``. ``cumsums[k]`` holds
    ``traces[0] + ... + traces[k]``. Stable processes carry ``stable_limit``,
    the bounded limit of the trace sequence; beyond the stored entries the
    curve continues as a single affine tail and is defined down to rate 0.
    """

    traces: np.ndarray
    cumsums: np.ndarray
    stable_limit: float | None
    domain_floor: float

    def segment_slope(self, k: int) -> float:
        """Slope of the segment on (1/(k+2), 1/(k+1)]; constant for k past the stored range."""
        if k + 1 < self.traces.size:
            return float(self.cumsums[k] - (k + 1) * self.traces[k + 1])
        if self.stable_limit is None:
            raise CostDomainError(f"segment {k} is below the curve's domain floor")
        return float(self.cumsums[-1] - self.traces.size * self.stable_limit)


def _caps(floors) -> np.ndarray:
    """The last threshold index whose segment a curve down to each floor stores; inf at floor 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(floors > 0, np.floor(_XI_NUMERATOR / floors - 1.0), np.inf)


def build_cost_curve(p: ProcessModel, domain_floor: float) -> CostCurve:
    """Precompute the trace sequence needed to evaluate costs on [domain_floor, 1].

    For unstable processes ``domain_floor`` must be positive (the curve is
    unbounded at rate zero) and the sequence is computed up to the segment
    containing the floor. For stable processes the sequence is additionally
    truncated once it is within 1e-10 (relative) of the bounded limit. Either
    stop must come within 10**6 steps. A one-row :meth:`CurveCostModel.from_floors`.
    """
    return CurveCostModel.from_floors([p], [domain_floor]).curves[0]


def cost_eval(curve: CostCurve, r: float) -> float:
    """Average error at rate ``r`` under the optimal randomized threshold policy.

    Renewal argument: a transmission cycle visits ages ``0..xi`` (probability
    ``b``) or ``0..xi+1``, so the long-run average is

        traces[xi+1] + r * (S_xi - (xi+1) * traces[xi+1])

    with ``S_xi`` the cycle cost of the short cycle. ``r = 1`` gives
    ``Tr(Pbar)``; for stable curves ``r = 0`` gives the never-transmit limit.
    A one-row call of :meth:`CurveCostModel.values`, which raises its errors.
    """
    return float(CurveCostModel([curve]).values([r])[0])


class CurveCostModel(CostModel):
    """Cost model backed by per-process cost curves, held in one flat table.

    Row ``i`` owns slots ``first[i] .. first[i] + sizes[i]`` of two flat
    arrays, ``traces`` and ``cumsums``: its own entries, then one slot holding
    its stable limit in ``traces`` (NaN if unstable). Its segment ``j`` has
    ``anchor = traces[first + j + 1]`` and ``cumsum = cumsums[first + j]``,
    also for the affine tail ``j = size - 1`` of a stable curve that reached
    it. ``values`` (and ``values_and_slopes``, which adds each value's
    segment slope), ``slope_bounds``, ``elasticity_bounds``, ``floors_at``
    and ``rates_at`` (the inverse, one level per agent) work on all agents at
    once; the first two raise :class:`CostDomainError` for the first agent,
    in index order, that lies outside its curve's domain. ``stable[i]`` says
    whether curve ``i`` is stable, i.e. defined down to rate 0.
    :attr:`curves` builds a :class:`CostCurve` view of each row when read.

    The model never changes, so concurrent readers need no lock; the knot
    costs that ``floors_at`` and ``rates_at`` search are computed on first
    use and kept. Built from
    processes, it keeps their groups and each row's end state: the covariances
    of its last two steps, in one stack per group, and a mask of the rows that
    hold one (not a row that stopped for good); its running sum is its last
    ``cumsums`` slot. :meth:`with_floor` and :meth:`floors_at` continue rows
    from there and splice the new steps into a new model (``floors_at``
    returns it); a row continued to a floor or a level equals, bit for bit,
    the row built at once to it, and may run deeper than its floor, never
    shallower. A model of curves handed in directly has no processes, and its
    ``with_floor`` returns itself.
    """

    def __init__(self, curves):
        curves = list(curves)
        sizes = [c.traces.size for c in curves]
        traces = np.full(sum(sizes) + len(sizes), np.nan)
        cumsums = np.full_like(traces, np.nan)
        at = 0
        for c, n in zip(curves, sizes):
            traces[at:at + n], cumsums[at:at + n] = c.traces, c.cumsums
            if c.stable_limit is not None:
                traces[at + n] = c.stable_limit
            at += n + 1
        stable = np.array([c.stable_limit is not None for c in curves], dtype=bool)
        self._hold(traces, cumsums, sizes, stable, [c.domain_floor for c in curves], None, None, None)

    def _hold(self, traces, cumsums, sizes, stable, floors, groups, ends, held) -> CurveCostModel:
        """Take the table, the rows' sizes, stability and floors, and, to continue the rows from, their
        processes' groups, each group's stack of end states and which rows hold one; return this model."""
        sizes, floors = np.asarray(sizes, dtype=np.intp), np.array(floors, dtype=float)
        for arr in (stable, traces, cumsums, floors):  # shared by every curve's views and deeper models
            arr.setflags(write=False)
        self.stable, self._traces, self._cumsums, self._sizes, self._floors = stable, traces, cumsums, sizes, floors
        self.n, self._groups, self._ends, self._held = sizes.size, groups, ends, held
        # each row's slot count and first slot, as indices and as floats
        self._spans = sizes + 1
        self._starts = np.cumsum(self._spans) - self._spans
        self._first = self._starts.astype(float)
        # the row that rates below the stored range use, the largest threshold index covered, the smallest rate
        self._last = np.where(stable, sizes - 1.0, sizes - 2.0)
        self._tops = np.where(stable, sizes, sizes - 1)  # one past the last segment, as an index
        self._xi_max = np.where(stable, np.inf, sizes - 2.0)
        self._lo = floors * (1.0 - 1e-9)
        # a stable row's sums only grow, and its costs read them; an unstable row's last, read by none, may overflow
        over = np.isinf(cumsums[self._starts + sizes - 1]) & stable
        if over.any():
            raise NumericalError(f"the trace sums of process {over.argmax()} overflowed; the model is ill posed")
        return self

    @classmethod
    def from_processes(cls, processes, unstable_floor: float = 1e-3):
        groups = _grouped(processes)
        stable = _stable_rows(groups)
        return cls._built(groups, np.where(stable, 0.0, float(unstable_floor)), stable)

    @classmethod
    def from_floors(cls, processes, domain_floors) -> CurveCostModel:
        """Each process's curve down to its own floor in [0, 1], in one table."""
        groups = _grouped(processes)
        return cls._built(groups, domain_floors, _stable_rows(groups))

    @classmethod
    def _built(cls, groups, domain_floors, stable) -> CurveCostModel:
        """Every row built from its process's ``Pbar`` down to its floor, in one batch per group."""
        floors = np.asarray(domain_floors, dtype=float)
        if floors.shape != stable.shape:
            raise ValueError(f"need one domain floor per process, got shape {floors.shape}")
        outside = ~((0 <= floors) & (floors <= 1))
        bad = outside | (~stable & (floors == 0))
        if bad.any():
            i = int(bad.argmax())
            raise CostDomainError(f"domain floor must lie in [0, 1], got {float(floors[i])}" if outside[i] else
                                  "an unstable process needs a positive rate floor; its cost is unbounded at 0")
        traces, _, lengths, cumsums, ends, held = _traced(groups, _caps(floors), floors, stable, _MAX_STEPS)
        return cls.__new__(cls)._hold(traces, cumsums, lengths, stable, floors, groups, ends, held)

    @property
    def curves(self) -> list[CostCurve]:
        first, sizes = self._starts.tolist(), self._sizes.tolist()
        return [CostCurve(traces=self._traces[f:f + n], cumsums=self._cumsums[f:f + n],
                          stable_limit=float(self._traces[f + n]) if s else None, domain_floor=floor)
                for f, n, s, floor in zip(first, sizes, self.stable.tolist(), self._floors.tolist())]

    def _continued(self, rows, floors, level=None) -> CurveCostModel:
        """This model with row ``rows[j]`` at floor ``floors[j]``, each row continued to where a build from
        ``Pbar`` down to that floor would stop or, given a ``level``, to its first step whose mean reaches
        ``level`` (a stable row: to its tail). A row that stopped for good or holds its floor's segment
        already takes no step; the others' new steps go in before their limit slots."""
        caps, depth = _caps(floors) if level is None else np.full(rows.size, np.inf), self._sizes[rows]
        # a row steps on unless it stopped for good or its last step, depth - 1, lies past its cap already
        go = (depth <= caps + 1) & self._held[rows]
        grow, depth = rows[go], depth[go]
        traces, cumsums, sizes, ends, held = self._traces, self._cumsums, self._sizes, self._ends, self._held
        if grow.size:
            end = self._starts[grow] + depth  # each row's limit slot
            batch = np.full(self.n, -1)  # each grown row's index in the batch
            batch[grow] = np.arange(grow.size)
            # each group holding grown rows: its index, their positions in it
            parts = [(g, pos) for g, group in enumerate(self._groups)
                     if (pos := np.flatnonzero(batch[group.rows] >= 0)).size]
            new, first, lengths, sums, stacks, grown = _traced(
                [self._groups[g].take(pos, batch[self._groups[g].rows[pos]]) for g, pos in parts],
                caps[go], floors[go], self.stable[grow], _MAX_STEPS,
                None if level is None else np.full(grow.size, level),
                (depth, [ends[g][pos] for g, pos in parts], cumsums[end - 1]))
            slots = np.ones(new.size, dtype=bool)
            slots[first + lengths - depth] = False  # the limit slots, which the table has already
            at = np.repeat(end, lengths - depth)
            traces, cumsums = np.insert(traces, at, new[slots]), np.insert(cumsums, at, sums[slots])
            sizes, ends, held = sizes.copy(), list(ends), held.copy()
            sizes[grow], held[grow] = lengths, grown
            for (g, pos), stack in zip(parts, stacks):
                ends[g] = ends[g].copy()
                ends[g][pos] = stack
        moved = self._floors.copy()
        moved[rows] = floors
        return CurveCostModel.__new__(CurveCostModel)._hold(traces, cumsums, sizes, self.stable, moved,
                                                            self._groups, ends, held)

    def with_floor(self, lower) -> CurveCostModel:
        """A new model with each curve whose floor lies above its ``lower > 0`` continued down to it; this
        model itself if no floor moves or it has no processes."""
        lower = np.asarray(lower, dtype=float)
        if len(lower) != self.n:
            raise ValueError(f"expected {self.n} floors, got {len(lower)}")
        rows = np.flatnonzero((0 < lower) & (lower < self._floors))
        return self if not rows.size or self._groups is None else self._continued(rows, lower[rows])

    def floors_at(self, level) -> tuple[np.ndarray, CurveCostModel]:
        """``(rates, model)``: the rate at which each agent's cost equals ``level``, solved on the segment holding
        it (1 at or below the cost at rate 1, 0 at or past a stable limit), and a model holding those segments:
        this one, or one in which each short row, unstable or short of its stable tail with all its knots
        ``(1/(k+1), cumsums[k]/(k+1))`` below ``level``, is continued at its floor to its first knot that is not
        (an unstable row) or to its tail (a stable one).
        Overflow first raises :class:`NumericalError`; a stop for good short of the level, or a short row in a
        model without processes (a stable curve at a positive floor counts as short), :class:`CostDomainError`."""
        level = float(level)
        rates, short = self._level_rates(level)
        model = self
        if short.size and self._groups is not None:
            model = self._continued(short, self._floors[short], level)
            rates, short = model._level_rates(level)
        if short.size:
            raise CostDomainError(f"cost level {level} lies past the stored range of curve {short[0]}")
        return rates, model

    def _level_rates(self, level: float):
        """:meth:`floors_at`'s rates on the stored knots, and its short rows."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rates, count = self._inverse(level, level)
        # a row short of its tail: a model of processes keeps its end state, one of curves only its floor
        held = self._floors > 0 if self._held is None else self._held
        return rates, np.flatnonzero((~self.stable | held) & (count == self._sizes))

    def rates_at(self, levels) -> np.ndarray:
        """Per agent, the rate at which its cost equals ``levels[i]``, solved on the stored segment holding it:
        1 at or below its cost at rate 1, 0 at or past a stable limit, and, where the level lies past the
        stored range, a rate below that range, at least 0, read on the row's last segment (a stable row's
        last knot joined to its limit). It equals :meth:`floors_at`'s rates bit for bit at equal levels, on a
        model that ``floors_at`` need not continue. No row is continued, and no warning is silenced: a table
        near the float maximum, or a flat segment, may warn."""
        levels = np.asarray(levels, dtype=float)
        if levels.shape != (self.n,):
            raise ValueError(f"expected {self.n} levels, got shape {levels.shape}")
        return self._inverse(levels, np.repeat(levels, self._spans))[0]

    def _inverse(self, levels, slot_levels):
        """``(rates, count)``: the knot search of :meth:`rates_at`, with each slot's level in ``slot_levels``
        (a scalar serves every slot), and per row the number of its knots below its level. The segment holding
        a level is the one left of the last such knot: a count, as each row's knot costs increase."""
        count = np.add.reduceat(self._knots < slot_levels, self._starts, dtype=np.intp)
        # segment + 1: above rate 1, segment 0, which reads a rate of at least 1; past the stored range, the last
        seg = np.minimum(np.maximum(count, 1), self._tops)
        at = self._starts + seg  # the segment's anchor
        anchor = self._traces.take(at)
        rates = (levels - anchor) / (self._cumsums.take(at - 1) - seg * anchor)
        return np.minimum(np.maximum(rates, 0.0), 1.0), count

    @cached_property
    def _knots(self) -> np.ndarray:
        """The table's knot costs, ``cumsums[k] / (k + 1)`` at rate ``1 / (k + 1)``, and NaN in each limit slot."""
        knots = np.arange(1.0, self._traces.size + 1.0) - np.repeat(self._first, self._spans)  # k + 1
        return np.divide(self._cumsums, knots, out=knots)

    def _stopped(self, i: int) -> bool:
        """Whether row ``i``, of a model of processes, stopped for good: at its tail or a repeated covariance."""
        return self._held is not None and not self._held[i]

    def values(self, rates) -> np.ndarray:
        """``J_i(rates[i])`` of every agent by one gather from the table.

        Raises :class:`CostDomainError` for the first agent, in index order,
        whose rate is outside [0, 1] (NaN included), is 0 on an unstable curve,
        or lies below its curve's floor or past its stored range. Rate 0 or
        -0.0 on a stable curve gives its limit, whatever its floor. Rates of
        any shape but ``(n,)`` raise ``ValueError``.
        """
        return self._segments(rates)[0]

    def values_and_slopes(self, rates) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`values`, with its errors, and the slope magnitude of the segment each value is read on:
        ``-CostCurve.segment_slope`` of it, bit for bit. At a knot that is the steeper segment, left of it;
        at a stable row's rate 0, its affine tail."""
        values, anchor, cumsum, count = self._segments(rates)
        return values, count * anchor - cumsum

    def _segments(self, rates):
        """``(values, anchor, cumsum, j + 1)``: per agent its value and the anchor, running sum and ``j + 1`` of
        the segment ``j`` it is read on (a stable row's rate 0 as +0.0). The value is taken as ``r * cumsum +
        anchor * (1 - (j + 1) * r)``, not ``anchor - r * slope``, which loses every trace below ``ulp(anchor)``
        at rate 1: exact there, and on segment 0 ``1 - r`` is exact (Sterbenz) however large the anchor."""
        r = np.asarray(rates, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"expected {self.n} rates, got shape {r.shape}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            xi = np.floor(_XI_NUMERATOR / np.minimum(r, 1.0) - 1.0)
        ok = (r >= self._lo) & (r <= _RATE_MAX) & (xi >= 0) & (xi <= self._xi_max)
        if not ok.all():
            zero = (r == 0) & self.stable
            bad = ~(ok | zero)
            if bad.any():
                i = int(np.argmax(bad))
                ri = float(r[i])
                if ri == 0:
                    raise CostDomainError("rate 0 is outside the domain of an unstable cost curve")
                if not 0 <= ri <= _RATE_MAX:
                    raise CostDomainError(f"rate must lie in [0, 1], got {ri}")
                if ri >= self._lo[i] and self._stopped(i):
                    raise CostDomainError(f"rate {ri} lies past segment {int(self._xi_max[i])}, where the curve's "
                                          "trace sequence stopped for good")
                raise CostDomainError(f"rate {ri} lies below the curve's domain floor {float(self._floors[i])}")
            # as +0.0 past every stored segment, the rate reads the stable limit
            r, xi = np.where(zero, 0.0, r), np.where(zero, np.inf, xi)
        count = np.minimum(xi, self._last) + 1.0
        k = (self._first + count).astype(np.intp)  # the anchor's slot, one past the running sum's
        anchor, cumsum = self._traces.take(k), self._cumsums.take(k - 1)
        return r * cumsum + anchor * (1.0 - count * r), anchor, cumsum, count

    def slope_bounds(self, lower) -> tuple[np.ndarray, np.ndarray]:
        """Per curve, ``(alpha, beta)``: the smallest and largest slope magnitude over the segments meeting
        [lower, 1], in one pass over the table: the segment at rate 1 and the one holding ``lower`` (the
        affine tail of a stable curve at 0), as the magnitude grows while the rate shrinks.

        Raises :class:`CostDomainError` for the first agent, in index order,
        whose ``lower`` is outside [0, 1] (NaN included), is 0 on an unstable
        curve, lies below its curve's floor or past its stored range, or whose
        segments down to ``lower`` include a flat one.
        """
        _, mags, ranges, alphas = self._box_segments(lower)
        return alphas, np.maximum.reduceat(mags, ranges)[::2]

    def elasticity_bounds(self, lower) -> np.ndarray:
        """Per curve, the largest elasticity ``J / |J'|`` over [lower, 1], in one pass over the table: on each
        segment meeting it, the cost at the segment's left end, or at ``lower`` on the segment holding it,
        over the segment's slope magnitude, as the cost grows toward the left end of a segment while the
        magnitude stays. Raises as :meth:`slope_bounds` does."""
        lb, mags, ranges, _ = self._box_segments(lower)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # in slots that no range reads
            ratios = np.append(self._knots[1:] / mags[:-1], np.nan)  # each segment's left knot over its magnitude
        values, slopes = self.values_and_slopes(lb)  # on the segment holding lb, the last of each range
        ratios[ranges[1::2] - 1] = values / slopes
        return np.maximum.reduceat(ratios, ranges)[::2]

    def _box_segments(self, lower):
        """``(lb, mags, ranges, alphas)`` for :meth:`slope_bounds`, which raises its errors: ``lower`` as
        floats, the slope magnitude of the segment in every slot (NaN in the last), the ``reduceat`` ranges
        ``[first, first + last + 1)`` of each row's segments meeting [lower, 1], and the smallest magnitude
        over each."""
        lb = np.asarray(lower, dtype=float)
        if lb.shape != (self.n,):
            raise ValueError(f"expected {self.n} lower bounds, got shape {lb.shape}")
        tail = self._sizes - 1  # the affine tail's segment: NaN for an unstable curve
        last = np.clip(_caps(lb), 0, tail).astype(np.intp)  # segments 0..last meet [lb, 1]
        # segment j of curve i sits in slot first[i] + j, with slope cumsums[slot] - (j + 1) traces[slot + 1];
        # worked in place, as the table holds ~3e5 slots for 1000 sensors
        mags = np.repeat(-self._first, self._spans)
        mags += np.arange(1.0, mags.size + 1.0)
        slopes = mags[:-1]
        with np.errstate(over="ignore"):  # near the float maximum, a slot that no bound reads may overflow
            slopes *= self._traces[1:]
            np.subtract(self._cumsums[:-1], slopes, out=slopes)
        np.abs(mags, out=mags)
        mags[-1] = np.nan  # the last slot holds a limit, no segment; ranges may end there
        ranges = np.column_stack([self._starts, self._starts + last + 1]).ravel()
        alphas = np.minimum.reduceat(mags, ranges)[::2]
        outside = ~((lb >= 0) & (lb <= 1))
        zero = (lb == 0) & ~self.stable
        below = (lb > 0) & (lb < self._lo)
        past = ~self.stable & (last == tail)
        bad = outside | below | past | (alphas <= 1e-14)
        if bad.any():
            i = int(np.argmax(bad))
            if outside[i]:
                raise CostDomainError(f"lower bound must lie in [0, 1], got {float(lb[i])}")
            if zero[i]:
                raise CostDomainError("an unstable curve has no slope bound down to rate 0")
            if below[i]:
                raise CostDomainError(f"lower bound {float(lb[i])} lies below the curve's domain floor "
                                      f"{float(self._floors[i])}")
            if past[i] and self._stopped(i):
                raise CostDomainError(f"lower bound {float(lb[i])} lies past segment {int(self._xi_max[i])}, where the "
                                      "curve's trace sequence stopped for good")
            if past[i]:
                raise CostDomainError(f"segment {_xi_of(float(lb[i]))} is below the curve's domain floor")
            raise CostDomainError("cost curve has a flat segment; strict monotonicity is violated")
        return lb, mags, ranges, alphas
