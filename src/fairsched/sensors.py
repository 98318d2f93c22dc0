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
closed form; it shares the trace sequence (:func:`prediction_traces`).

Curves are built in batches: processes are grouped by dimension and run on
stacked ``(k, d, d)`` arrays. The stable no-communication limit, the fixed
point of ``P = A P A' + Q``, is linear in ``P`` and solved exactly; the
Riccati steady state and the trace sequence are iterated, each process to
its own stop rule, so a batched curve equals the one built for that process
alone. The trace recursion checks its stop rules once per window of steps
and drops the steps run past a stop. A Riccati row or a curve's trace
sequence that runs 10**6 steps raises :class:`NumericalError` (a stable
spectral radius too close to 1, or an unstable curve's floor too small).
``CurveCostModel`` keeps every curve's affine segments in one flat table,
never changed once built, and evaluates all agents by a gather.

Processes are validated in batches too: :func:`first_invalid` (finiteness,
shapes, definiteness) and :func:`first_rank_failure` (observability,
controllability) stack equally shaped matrices, and ``ProcessModel`` runs
the first on itself at construction.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

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
    "first_invalid",
    "first_rank_failure",
    "steady_state_filter_cov",
    "no_comm_limit",
    "threshold_from_rate",
    "build_cost_curve",
    "build_cost_curves",
    "cost_eval",
    "lipschitz_bounds",
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
    and runs :func:`first_invalid` on the one process: finiteness, shapes and
    definiteness. ``config.load_config`` converts many processes first and
    runs the same checks once over all of them. The observability /
    controllability rank tests live in :meth:`validate` (batched over many
    processes by :func:`first_rank_failure`) so degenerate fixtures (for
    instance ``Q = 0``) can still be built for targeted tests.
    """

    A: np.ndarray
    Q: np.ndarray
    C: np.ndarray = None
    R_meas: np.ndarray = None
    Pi0: np.ndarray = None

    def __post_init__(self):
        self._convert(self.A, self.Q, self.C, self.R_meas, self.Pi0)
        failure = first_invalid([self])
        if failure is not None:
            raise ValueError(failure[1])

    def _convert(self, A, Q, C, R_meas, Pi0) -> None:
        """Set the fields to read-only 2-d float arrays, ``C`` and ``R_meas`` filled in."""
        # copies: fields are frozen read-only and must not alias caller data
        A = _as_matrix("A", A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        Q = _as_matrix("Q", Q)
        C = np.eye(A.shape[0]) if C is None else _as_matrix("C", C)
        R = np.eye(C.shape[0]) if R_meas is None else _as_matrix("R_meas", R_meas)
        Pi0 = None if Pi0 is None else _as_matrix("Pi0", Pi0)
        for name, arr in (("A", A), ("Q", Q), ("C", C), ("R_meas", R), ("Pi0", Pi0)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _unchecked(cls, A, Q, C=None, R_meas=None, Pi0=None) -> ProcessModel:
        """A process converted as at construction but not checked; :func:`first_invalid` checks many at once."""
        p = object.__new__(cls)
        p._convert(A, Q, C, R_meas, Pi0)
        return p

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def validate(self) -> None:
        """Rank tests: (A, C) observable and (A, sqrt(Q)) controllable."""
        failure = first_rank_failure([self])
        if failure is not None:
            raise ValueError(failure[1])


def _as_matrix(name: str, value) -> np.ndarray:
    try:
        M = np.array(value, dtype=float, ndmin=2)
    except TypeError as exc:  # an entry such as {} that is no number
        raise ValueError(f"{name} must hold numbers only: {exc}") from exc
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got {M.ndim} dimensions")
    return M


def first_rank_failure(ps) -> tuple[int, str] | None:
    """``(index, reason)`` of the first process failing :meth:`ProcessModel.validate`, or None.

    The observability and controllability matrices of equally shaped
    processes are stacked, so each shape costs one rank computation per test.
    """
    ps = list(ps)
    failures = []
    for rows in _groups(ps):
        group = [ps[i] for i in rows]
        A, Q, C = (_stack(group, name) for name in ("A", "Q", "C"))
        n = A.shape[-1]
        powers = [np.linalg.matrix_power(A, k) for k in range(n)]
        obs = np.concatenate([C @ P for P in powers], axis=1)
        vals, vecs = np.linalg.eigh(0.5 * (Q + _mT(Q)))
        sqrt_q = (vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]) @ _mT(vecs)
        ctr = np.concatenate([P @ sqrt_q for P in powers], axis=2)
        unobservable = np.linalg.matrix_rank(obs) < n
        uncontrollable = np.linalg.matrix_rank(ctr) < n
        bad = np.flatnonzero(unobservable | uncontrollable)
        if bad.size:
            j = bad[0]
            reason = "(A, C) is not observable" if unobservable[j] else "(A, sqrt(Q)) is not controllable"
            failures.append((int(rows[j]), reason))
    return min(failures, default=None)


def first_invalid(ps) -> tuple[int, str] | None:
    """``(index, reason)`` of the first process failing a construction check, or None.

    The checks, in the order each process runs them: finite entries of
    ``A``, ``Q``, ``C``, ``R_meas`` and ``Pi0``; the shapes of ``Q``, ``C``
    and ``R_meas``; ``Q`` symmetric PSD; ``R_meas`` symmetric PD; the shape
    of ``Pi0``, then ``Pi0`` symmetric PSD. Each check runs once, over the
    processes before the first failure found so far, all of which passed the
    checks before it. The matrix tests run once per shape on stacked
    matrices, as :func:`first_rank_failure` runs the rank tests.
    """
    ps, failure = list(ps), None
    for check in (_first_non_finite, _first_misshapen, _first_bad_covariance):
        bad = check(ps)
        if bad is not None:
            failure, ps = bad, ps[:bad[0]]
    return failure


def _first_non_finite(ps):
    mats = [(i, name, M) for i, p in enumerate(ps) for name, M in
            (("A", p.A), ("Q", p.Q), ("C", p.C), ("R_meas", p.R_meas), ("Pi0", p.Pi0)) if M is not None]
    if not mats:
        return None
    finite = np.isfinite(np.concatenate([M.ravel() for _, _, M in mats]))
    if finite.all():
        return None
    # the first non-finite entry lies in the first failing matrix of the first failing process
    ends = np.cumsum([M.size for _, _, M in mats])
    i, name, _ = mats[int(np.searchsorted(ends, np.argmin(finite), side="right"))]
    return i, f"{name} must have finite entries (NaN or infinity found)"


def _first_misshapen(ps):
    for i, p in enumerate(ps):
        n, m = p.A.shape[0], p.C.shape[0]
        if p.Q.shape != (n, n):
            return i, f"Q must be {n}x{n}, got {p.Q.shape}"
        if p.C.shape[1] != n:
            return i, f"C must have {n} columns, got {p.C.shape}"
        if p.R_meas.shape != (m, m):
            return i, f"R_meas must be {m}x{m}, got {p.R_meas.shape}"
    return None


def _first_bad_covariance(ps):
    """``Q`` symmetric PSD, ``R_meas`` symmetric PD, ``Pi0`` of ``A``'s shape and symmetric PSD, in that order.

    All three matrices of every process are tested together, one stack per shape.
    """
    failures, mats = [], []  # (index, check, ...): the check's place in the order
    for i, p in enumerate(ps):
        mats += [(i, 0, "Q", p.Q), (i, 1, "R_meas", p.R_meas)]
        if p.Pi0 is not None:
            n = p.A.shape[0]
            if p.Pi0.shape == (n, n):
                mats.append((i, 3, "Pi0", p.Pi0))
            else:
                failures.append((i, 2, f"Pi0 must be {n}x{n}, got {p.Pi0.shape}"))
    for rows in _group_by([M.shape for *_, M in mats]):
        M = np.array([mats[k][3] for k in rows])
        definite = np.array([mats[k][1] == 1 for k in rows])
        # np.allclose(M, M.T, atol=1e-9) per matrix, without its per-call overhead
        symmetric = (np.abs(M - _mT(M)) <= 1e-9 + 1e-5 * np.abs(_mT(M))).all(axis=(1, 2))
        low = np.linalg.eigvalsh(0.5 * (M + _mT(M))).min(axis=1)
        bad = np.flatnonzero(~symmetric | np.where(definite, low <= 0, low < -1e-10))
        if bad.size:  # mats is in order, so the group's first failure is its least
            j = bad[0]
            i, check, name, _ = mats[rows[j]]
            if not symmetric[j]:
                reason = f"{name} must be symmetric"
            else:
                kind = "definite" if definite[j] else "semidefinite"
                reason = f"{name} must be positive {kind} (min eigenvalue {low[j]:.3g})"
            failures.append((i, check, reason))
    if not failures:
        return None
    i, _, reason = min(failures)
    return i, reason


def _mT(X):
    return X.swapaxes(-1, -2)


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
    return [np.array(g) for g in groups.values()]


def _groups(ps) -> list[np.ndarray]:
    """Indices of ``ps`` grouped by the shape of ``C`` (measurement by state dimension)."""
    return _group_by([p.C.shape for p in ps])


def _stack(ps, name: str) -> np.ndarray:
    return np.array([getattr(p, name) for p in ps])


# steps a recursion runs between two checks of its stop rules
_WINDOW = 32
# a Riccati row converges once its Frobenius change is within _COV_TOL; it, and a curve's
# trace sequence (stable ones stop at the relative tail cut _TAIL_TOL), run at most _MAX_STEPS steps
_COV_TOL, _TAIL_TOL, _MAX_STEPS = 1e-12, 1e-10, 10**6
# A Riccati row also stops when it repeats one of its last _CYCLE iterates bitwise. Each step is a
# fixed function of the row, so it then cycles for good: a large covariance (Q ~ 1e6) whose last
# bits keep moving enters a 2- or 4-cycle within a few steps, and a row that meets _COV_TOL meets it
# no later than it closes a cycle, so its steady state is unchanged.
_CYCLE = 4


def _transposed(A) -> np.ndarray:
    """``A'`` as a contiguous stack, which multiplies faster than a view."""
    return np.ascontiguousarray(_mT(A))


def _filter_covs(group) -> np.ndarray:
    """Filter steady states of processes sharing one shape, as a stack; each row stops where it would alone."""
    A, Q, C, R = (_stack(group, name) for name in ("A", "Q", "C", "R_meas"))
    At = _transposed(A)
    X = np.stack([np.zeros(p.A.shape) if p.Pi0 is None else p.Pi0 for p in group])
    out, rows = np.empty_like(X), np.arange(len(X))
    recent = np.full((len(X), _CYCLE, *X.shape[1:]), np.nan)  # each row's last _CYCLE iterates, in a ring
    recent[:, -1] = X
    for step in range(_MAX_STEPS):
        Xp = A @ X @ At + Q
        G = Xp @ _mT(C)
        M = Xp - G @ np.linalg.solve(C @ Xp @ _mT(C) + R, _mT(G))
        X_new = M + _mT(M)
        X_new *= 0.5
        done = np.sqrt(((X_new - X) ** 2).sum(axis=(1, 2))) <= _COV_TOL
        done |= (recent == X_new[:, None]).all(axis=(2, 3)).any(axis=1)
        recent[:, step % _CYCLE] = X_new
        if done.any():
            out[rows[done]] = X_new[done]
            if done.all():
                return out
            keep = ~done
            rows, X_new, recent, A, At, Q, C, R = (x[keep] for x in (rows, X_new, recent, A, At, Q, C, R))
        X = X_new
    raise NumericalError("filter covariance iteration did not converge; the model is ill posed")


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
    ``X = X- - X- C' (C X- C' + R)^-1 C X-`` from ``Pi0`` (zero by default)
    until the Frobenius change is within 1e-12, for at most 10**6 steps.
    """
    return _filter_covs([p])[0]


def no_comm_limit(p: ProcessModel) -> float:
    """``Tr(P_inf)`` where ``P_inf = A P_inf A' + Q``: the never-transmit average error.

    Only defined for stable ``A``; the prediction-only covariance has no
    bounded fixed point otherwise.
    """
    if not classify_stability(p.A):
        raise CostDomainError("no_comm_limit requires a stable process")
    return float(np.trace(_no_comm_covs(p.A[None], p.Q[None])[0]))


def prediction_traces(ps, caps, rates, stable=None, tail_tol: float = 0.0, max_steps=None, levels=None):
    """``Tr(h^t(Pbar))``, ``t = 0, 1, ...``, ``h(X) = A X A' + Q``, from each process's filter steady state.

    One batched recursion per shape; each process leaves it at its own stop, so its sequence is
    the one it would get alone: after step ``caps[i] + 1``; from step 1 on, where ``stable`` is
    set, within ``tail_tol`` (relative) of its no-communication limit; where ``levels`` is given
    and ``stable`` is not, at the first step ``k`` with ``cumsum(traces)[k] / (k + 1) >= levels[i]``;
    or at a covariance equal, bit for bit, to the one two steps back, after which the sequence
    repeats its last two entries forever. Returns ``(traces, first, lengths)``: sequence ``i`` has
    ``lengths[i]`` entries from ``traces[first[i]]``, then one slot holding its limit (NaN where
    ``stable`` is not set). Overflow raises :class:`NumericalError`, and so does a process that
    has not stopped within ``max_steps`` steps, if given.

    The recursion runs ``_WINDOW`` steps at a time and checks the stop rules
    on the whole window: a process stops at the first step of the window
    that meets one, and the steps run past it are dropped, so every process
    stops, and raises, exactly where checking after each step would.
    """
    ps = list(ps)
    caps, rates = np.asarray(caps, dtype=float), np.asarray(rates, dtype=float)
    stable = np.zeros(len(ps), dtype=bool) if stable is None else np.asarray(stable, dtype=bool)
    levels = np.full(len(ps), np.inf) if levels is None else np.where(stable, np.inf, levels)
    limits = np.full(len(ps), np.nan)
    lengths = np.empty(len(ps), dtype=np.intp)
    # blocks ``(t0, rows, traces)``: the traces of steps t0, t0 + 1, ... (one
    # row each) of the processes ``rows`` (one column each); a process's
    # entries past its length were run past its stop and are not kept
    blocks = []
    offsets = np.arange(_WINDOW, dtype=float)[:, None]
    for group in _groups(ps):
        members = [ps[i] for i in group]
        A, Q, s = _stack(members, "A"), _stack(members, "Q"), stable[group]
        limits[group[s]] = np.trace(_no_comm_covs(A[s], Q[s]), axis1=1, axis2=2)
        rows, At, cap, limit, level = group, _transposed(A), caps[group], limits[group], levels[group]
        run = np.zeros(len(group))  # each row's sum of the traces before the window
        cut = tail_tol * np.maximum(limit, 1e-300)
        tails = bool(s.any())  # whether any row has a tail rule to check
        # Ms[2 + j] holds the covariances of step t0 + j; Ms[0] and Ms[1] the two before it
        Ms = np.zeros((_WINDOW + 2,) + A.shape)
        Ms[2] = _filter_covs(members)
        steps, t0, block_t0 = [], 0, 0
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            while True:
                for j in range(3 if t0 == 0 else 2, _WINDOW + 2):  # Ms[j] = sym(h(Ms[j - 1]))
                    M = A @ Ms[j - 1] @ At + Q
                    np.add(M, _mT(M), out=Ms[j])
                    Ms[j] *= 0.5
                trs = np.trace(Ms, axis1=2, axis2=3)
                tr, t = trs[2:], t0 + offsets
                stop = t > cap
                if tails:
                    stop |= (t >= 1) & (np.abs(tr - limit) <= cut)
                if np.isfinite(level).any():  # summed onto the run in order, as np.cumsum sums a sequence
                    sums = np.cumsum(np.vstack((run, tr)), axis=0)[1:]
                    stop |= sums / (t + 1.0) >= level
                    run = sums[-1]
                # traces first, so that only candidate steps compare whole matrices
                w, r = np.nonzero((tr == trs[:-2]) & (t >= 2))
                if w.size:
                    same = (Ms[w + 2, r] == Ms[w, r]).all(axis=(1, 2))
                    stop[w[same], r[same]] = True
                # per row, the offset of its stop in the window, or _WINDOW
                ends = np.where(stop.any(axis=0), stop.argmax(axis=0), _WINDOW)
                if not np.isfinite(tr).all():
                    bad = ~np.isfinite(tr) & (t >= 1)
                    at = bad.argmax(axis=0)
                    raised = bad.any(axis=0) & (at <= ends)  # overflowed by its stop
                    if raised.any():
                        k = np.flatnonzero(raised & (at == at[raised].min()))[0]
                        why = (f"its mean has not reached the level {level[k]}" if level[k] < np.inf
                               else f"the rate {rates[rows[k]]} is too small")
                        raise NumericalError(f"trace sequence overflowed at step {t0 + at[k]}; {why}")
                steps.append(tr)
                done = ends < _WINDOW
                lengths[rows[done]] = t0 + ends[done] + 1
                t0 += _WINDOW
                if done.any() or t0 - block_t0 >= 1024:  # 1024: a lone long run keeps few arrays
                    blocks.append((block_t0, rows, np.concatenate(steps)))
                    steps, block_t0 = [], t0
                if done.any():
                    keep = ~done
                    rows, A, At, Q, s, cap, limit, cut, level, run = (
                        x[keep] for x in (rows, A, At, Q, s, cap, limit, cut, level, run))
                    Ms = Ms[:, keep]
                    if not rows.size:
                        break
                if max_steps is not None and t0 >= max_steps:  # _WINDOW divides _MAX_STEPS
                    why = (f"the stable process's spectral radius {np.abs(np.linalg.eigvals(A[0])).max():.9g} "
                           "is too close to 1" if s[0] else f"its mean has not reached the level {level[0]}"
                           if level[0] < np.inf else f"the rate floor {rates[rows[0]]} is too small")
                    raise NumericalError(f"trace sequence did not stop within {max_steps} steps; {why}")
                Ms[:2] = Ms[-2:]

    first = np.cumsum(lengths + 1) - (lengths + 1)
    traces = np.empty(int((lengths + 1).sum()))
    for t0, rows, block in blocks:
        t = np.arange(t0, t0 + len(block))[:, None]
        kept = t < lengths[rows]
        traces[(first[rows] + t)[kept]] = block[kept]
    traces[first + lengths] = limits
    return traces, first, lengths


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


def _build_table(processes, domain_floors, stable=None, level=None) -> CurveCostModel:
    """Cost curves of all processes in one model, whose table is that of :func:`prediction_traces`.

    ``stable`` is the processes' :func:`stable_mask`, if the caller has it already. Given a
    ``level``, an unstable curve may have floor 0: it stops at its first knot that costs ``level``.
    """
    ps = list(processes)
    floors = np.asarray(domain_floors, dtype=float)
    if floors.shape != (len(ps),):
        raise ValueError(f"need one domain floor per process, got shape {floors.shape}")
    if stable is None:
        stable = stable_mask([p.A for p in ps])
    for floor, is_stable in zip(floors.tolist(), stable.tolist()):
        if not 0 <= floor <= 1:
            raise CostDomainError(f"domain floor must lie in [0, 1], got {floor}")
        if not is_stable and floor == 0 and level is None:
            raise CostDomainError("an unstable process needs a positive rate floor; its cost is unbounded at 0")

    # last threshold index whose segment the curve must store; none without a floor
    with np.errstate(divide="ignore", over="ignore"):
        caps = np.where(floors > 0, np.floor(_XI_NUMERATOR / floors - 1.0), np.inf)
    levels = None if level is None else np.full(len(ps), level)
    traces, first, lengths = prediction_traces(ps, caps, floors, stable, _TAIL_TOL, _MAX_STEPS, levels)
    limits = traces[first + lengths]
    cumsums = np.empty_like(traces)
    cumsums[first + lengths] = np.nan
    for f, n in zip(first.tolist(), lengths.tolist()):
        np.cumsum(traces[f:f + n], out=cumsums[f:f + n])
    stable_limits = [limit if s else None for limit, s in zip(limits.tolist(), stable.tolist())]
    model = CurveCostModel.__new__(CurveCostModel)
    model._hold(traces, cumsums, lengths, stable_limits, floors.tolist(), ps)
    return model


def build_cost_curves(processes, domain_floors) -> list[CostCurve]:
    """:func:`build_cost_curve` for every process at its own floor, batched by shape.

    Every process keeps its own stop rule and leaves its batch once it is
    met, so each curve equals the one built for that process alone. The
    curves' arrays are views of one shared flat table.
    """
    return _build_table(processes, domain_floors).curves


def build_cost_curve(p: ProcessModel, domain_floor: float) -> CostCurve:
    """Precompute the trace sequence needed to evaluate costs on [domain_floor, 1].

    For unstable processes ``domain_floor`` must be positive (the curve is
    unbounded at rate zero) and the sequence is computed up to the segment
    containing the floor. For stable processes the sequence is additionally
    truncated once it is within 1e-10 (relative) of the bounded limit. Either
    stop must come within 10**6 steps.
    """
    return build_cost_curves([p], [domain_floor])[0]


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


def lipschitz_bounds(curve: CostCurve, lb: float) -> tuple[float, float]:
    """(alpha, beta): smallest and largest slope magnitude over segments meeting [lb, 1].

    Slopes are nonpositive and their magnitude grows as the rate shrinks, so
    alpha comes from the segment at rate 1 and beta from the segment holding
    ``lb`` (or the affine tail of a stable curve when ``lb == 0``). A one-row
    call of :meth:`CurveCostModel.slope_bounds`, which raises its errors.
    """
    alphas, betas = CurveCostModel([curve]).slope_bounds([lb])
    return float(alphas[0]), float(betas[0])


class CurveCostModel(CostModel):
    """Cost model backed by per-process cost curves, held in one flat table.

    Curve ``i`` owns slots ``first[i] .. first[i] + sizes[i]`` of two flat
    arrays, ``traces`` and ``cumsums``: its own entries, then one slot holding
    its stable limit in ``traces`` (NaN if unstable); each ``CostCurve`` of
    :attr:`curves` is a view of them. Its segment ``j`` has ``anchor =
    traces[first + j + 1]`` and ``cumsum = cumsums[first + j]``, also for the
    affine tail ``j = size - 1`` of a stable curve. The table is fixed when
    the model is built: the model never changes, so concurrent readers need
    no lock. ``values``, ``slope_bounds`` and ``floors_at`` work on all agents
    at once; the first two raise :class:`CostDomainError` for the first
    agent, in index order, that lies outside its curve's domain. ``stable[i]`` says whether curve ``i``
    is stable, i.e. defined down to rate 0. :meth:`with_floor` returns a
    model whose curves reach lower floors, rebuilt from their processes; a
    model of curves handed in directly has none and returns itself.
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
        self._hold(traces, cumsums, sizes, [c.stable_limit for c in curves], [c.domain_floor for c in curves], None)

    def _hold(self, traces, cumsums, sizes, limits, floors, processes) -> None:
        """Take the table: the curves' flat arrays, their sizes, stable limits and floors, and their processes."""
        sizes = np.asarray(sizes, dtype=np.intp)
        stable = np.array([limit is not None for limit in limits], dtype=bool)
        first = np.cumsum(sizes + 1) - (sizes + 1)
        for arr in (stable, traces, cumsums):  # shared by every curve's views
            arr.setflags(write=False)
        self.stable, self._traces, self._cumsums, self._processes = stable, traces, cumsums, processes
        self._curves = [
            CostCurve(traces=traces[f:f + n], cumsums=cumsums[f:f + n], stable_limit=limit, domain_floor=floor)
            for f, n, limit, floor in zip(first.tolist(), sizes.tolist(), limits, floors)
        ]
        self.n = len(self._curves)
        self._first, self._sizes = first.astype(float), sizes
        # the row that rates below the stored range use, the largest threshold index covered, the smallest rate
        self._last = np.where(stable, sizes - 1.0, sizes - 2.0)
        self._xi_max = np.where(stable, np.inf, sizes - 2.0)
        self._lo = np.array(floors, dtype=float) * (1.0 - 1e-9)

    @classmethod
    def from_processes(cls, processes, unstable_floor: float = 1e-3):
        processes = list(processes)
        stable = stable_mask([p.A for p in processes])
        return _build_table(processes, np.where(stable, 0.0, float(unstable_floor)), stable)

    @property
    def curves(self) -> list[CostCurve]:
        return list(self._curves)

    def with_floor(self, lower) -> CurveCostModel:
        """This model, with each curve whose floor lies above its ``lower > 0`` rebuilt down to it in one batch."""
        lower = np.asarray(lower, dtype=float).tolist()
        if len(lower) != self.n:
            raise ValueError(f"expected {self.n} floors, got {len(lower)}")
        curves = self.curves
        grow = [i for i, (curve, lb) in enumerate(zip(curves, lower)) if 0 < lb < curve.domain_floor]
        if not grow or self._processes is None:
            return self
        for i, curve in zip(grow, build_cost_curves([self._processes[i] for i in grow], [lower[i] for i in grow])):
            curves[i] = curve
        model = CurveCostModel(curves)
        model._processes = self._processes
        return model

    def floors_at(self, level) -> np.ndarray:
        """The rate at which each agent's cost equals ``level``, solved on the segment holding it: 1 at or
        below the cost at rate 1, 0 at or past a stable limit. An unstable curve whose stored knots
        ``(1/(k+1), cumsums[k]/(k+1))`` all cost less is built, by :func:`prediction_traces`, to its first
        knot that does not; one that overflows first raises :class:`NumericalError`."""
        level = float(level)
        knots = np.arange(1.0, self._traces.size + 1.0) - np.repeat(self._first, self._sizes + 1)  # k + 1
        knots = np.divide(self._cumsums, knots, out=knots)  # the knots' costs, and NaN in each limit slot
        j = np.add.reduceat(knots < level, self._first.astype(np.intp), dtype=np.intp) - 1.0  # -1: above rate 1
        slot = (self._first + np.maximum(j, 0.0)).astype(np.intp)
        anchor = self._traces.take(slot + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = (level - anchor) / (self._cumsums.take(slot) - (j + 1.0) * anchor)
        rates = np.where(j < 0, 1.0, np.maximum(rates, 0.0))
        short = np.flatnonzero(~self.stable & (j == self._sizes - 1))
        if short.size and self._processes is None:
            raise CostDomainError(f"cost level {level} lies past the stored range of curve {short[0]}")
        if short.size:
            deeper = _build_table([self._processes[i] for i in short.tolist()], np.zeros(short.size),
                                  np.zeros(short.size, dtype=bool), level)
            deeper._processes = None  # its curves reach the level, or repeat short of it for good
            rates[short] = deeper.floors_at(level)
        return rates

    def values(self, rates) -> np.ndarray:
        """``J_i(rates[i])`` of every agent by one gather from the table.

        Raises :class:`CostDomainError` for the first agent, in index order,
        whose rate is outside [0, 1] (NaN included), is 0 on an unstable curve,
        or lies below its curve's floor or past its stored range. Rate 0 or
        -0.0 on a stable curve gives its limit, whatever its floor. Rates of
        any shape but ``(n,)`` raise ``ValueError``.
        """
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
                raise CostDomainError(f"rate {ri} lies below the curve's domain floor {self._curves[i].domain_floor}")
            # as +0.0 past every stored segment, the rate reads the stable limit
            r, xi = np.where(zero, 0.0, r), np.where(zero, np.inf, xi)
        j = np.minimum(xi, self._last)
        k = (self._first + j).astype(np.intp)
        anchor = self._traces.take(k + 1)
        return anchor + r * (self._cumsums.take(k) - (j + 1.0) * anchor)

    def slope_bounds(self, lower) -> tuple[np.ndarray, np.ndarray]:
        """:func:`lipschitz_bounds` of every curve at its ``lower``, in one pass over the table.

        Raises :class:`CostDomainError` for the first agent, in index order,
        whose ``lower`` is outside [0, 1] (NaN included), is 0 on an unstable
        curve, lies below its curve's floor or past its stored range, or whose
        segments down to ``lower`` include a flat one.
        """
        lb = np.asarray(lower, dtype=float)
        if lb.shape != (self.n,):
            raise ValueError(f"expected {self.n} lower bounds, got shape {lb.shape}")
        tail = self._sizes - 1  # the affine tail's segment: NaN for an unstable curve
        with np.errstate(divide="ignore", over="ignore"):
            xi = np.maximum(np.floor(_XI_NUMERATOR / lb - 1.0), 0.0)
        last = np.where(lb > 0, np.minimum(xi, tail), tail).astype(np.intp)  # segments 0..last meet [lb, 1]
        # segment j of curve i sits in slot first[i] + j, with slope cumsums[slot] - (j + 1) traces[slot + 1];
        # worked in place, as the table holds ~3e5 slots for 1000 sensors
        mags = np.repeat(-self._first, self._sizes + 1)
        mags += np.arange(1.0, mags.size + 1.0)
        slopes = mags[:-1]
        slopes *= self._traces[1:]
        np.subtract(self._cumsums[:-1], slopes, out=slopes)
        np.abs(mags, out=mags)
        mags[-1] = np.nan  # the last slot holds a limit, no segment; ranges may end there
        first = self._first.astype(np.intp)
        ranges = np.column_stack([first, first + last + 1]).ravel()
        alphas, betas = (f.reduceat(mags, ranges)[::2] for f in (np.minimum, np.maximum))
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
                                      f"{self._curves[i].domain_floor}")
            if past[i]:
                raise CostDomainError(f"segment {_xi_of(float(lb[i]))} is below the curve's domain floor")
            raise CostDomainError("cost curve has a flat segment; strict monotonicity is violated")
        return alphas, betas
