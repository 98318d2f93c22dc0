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

Curves are built in batches: processes are grouped by dimension, and the
Riccati steady state, the stable no-communication limit and the trace
sequence run on stacked ``(k, d, d)`` arrays. Each process keeps its own stop
rule and leaves the batch when it is met, so a batched curve equals the one
built for that process alone; the one-process functions are one-element
calls of the same code. ``CurveCostModel`` keeps every curve's affine
segments in one flat table and evaluates all agents by a gather.
"""

from __future__ import annotations

import math
import threading
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
    "first_rank_failure",
    "steady_state_filter_cov",
    "steady_state_filter_covs",
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
    to identities of the state dimension. Finiteness, shape and definiteness
    are checked at construction; the observability / controllability rank
    tests live in :meth:`validate` (batched over many processes by
    :func:`first_rank_failure`) so degenerate fixtures (for instance
    ``Q = 0``) can still be built for targeted tests.
    """

    A: np.ndarray
    Q: np.ndarray
    C: np.ndarray = None
    R_meas: np.ndarray = None
    Pi0: np.ndarray = None

    def __post_init__(self):
        # copies: fields are frozen read-only and must not alias caller data
        A = np.atleast_2d(np.array(self.A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        Q = np.atleast_2d(np.array(self.Q, dtype=float))
        C = np.eye(n) if self.C is None else np.atleast_2d(np.array(self.C, dtype=float))
        R = np.eye(C.shape[0]) if self.R_meas is None else np.atleast_2d(np.array(self.R_meas, dtype=float))
        Pi0 = None if self.Pi0 is None else np.atleast_2d(np.array(self.Pi0, dtype=float))
        for name, arr in (("A", A), ("Q", Q), ("C", C), ("R_meas", R), ("Pi0", Pi0)):
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} must have finite entries (NaN or infinity found)")

        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape}")
        if R.shape != (C.shape[0], C.shape[0]):
            raise ValueError(f"R_meas must be {C.shape[0]}x{C.shape[0]}, got {R.shape}")
        _check_symmetric_psd(Q, "Q", definite=False)
        _check_symmetric_psd(R, "R_meas", definite=True)
        if Pi0 is not None:
            if Pi0.shape != (n, n):
                raise ValueError(f"Pi0 must be {n}x{n}, got {Pi0.shape}")
            _check_symmetric_psd(Pi0, "Pi0", definite=False)

        for name, arr in (("A", A), ("Q", Q), ("C", C), ("R_meas", R)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if Pi0 is not None:
            Pi0.setflags(write=False)
        object.__setattr__(self, "Pi0", Pi0)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def validate(self) -> None:
        """Rank tests: (A, C) observable and (A, sqrt(Q)) controllable."""
        failure = first_rank_failure([self])
        if failure is not None:
            raise ValueError(failure[1])


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


def _check_symmetric_psd(M, name, definite):
    # np.allclose(M, M.T, atol=1e-9) without its per-call overhead
    if not (np.abs(M - M.T) <= 1e-9 + 1e-5 * np.abs(M.T)).all():
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if definite and eigs.min() <= 0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {eigs.min():.3g})")
    if not definite and eigs.min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue {eigs.min():.3g})")


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
    return np.stack([getattr(p, name) for p in ps])


def _converge(step, X, params, tol, max_iters, failure) -> np.ndarray:
    """Iterate ``X <- sym(step(X, *params))`` on a stack of matrices.

    A matrix leaves the batch, with its parameters, once its own Frobenius
    change is within ``tol``; it ends where it would end iterated alone.
    """
    out = np.empty_like(X)
    rows = np.arange(len(X))
    for _ in range(max_iters):
        if not rows.size:
            break
        X_new = step(X, *params)
        X_new = 0.5 * (X_new + _mT(X_new))
        done = np.sqrt(((X_new - X) ** 2).sum(axis=(1, 2))) <= tol
        if done.any():
            out[rows[done]] = X_new[done]
            keep = ~done
            rows, X_new, params = rows[keep], X_new[keep], [a[keep] for a in params]
        X = X_new
    if rows.size:
        raise NumericalError(failure)
    return out


def _riccati_step(X, A, Q, C, R):
    Xp = A @ X @ _mT(A) + Q
    G = Xp @ _mT(C)
    return Xp - G @ np.linalg.solve(C @ Xp @ _mT(C) + R, _mT(G))


def _predict_step(X, A, Q):
    return A @ X @ _mT(A) + Q


def _filter_covs(group, tol: float = 1e-12, max_iters: int = 10**6) -> np.ndarray:
    """Filter steady states of processes sharing one shape, as a stack."""
    A, Q, C, R = (_stack(group, name) for name in ("A", "Q", "C", "R_meas"))
    X0 = np.stack([np.zeros(p.A.shape) if p.Pi0 is None else p.Pi0 for p in group])
    return _converge(
        _riccati_step, X0, (A, Q, C, R), tol, max_iters,
        "filter covariance iteration did not converge; the model is ill posed",
    )


def _no_comm_limits(A, Q, tol: float = 1e-12, max_iters: int = 10**6) -> np.ndarray:
    """``Tr(P_inf)`` with ``P_inf = A P_inf A' + Q`` for stacked stable ``A``, iterated from zero."""
    X = _converge(
        _predict_step, np.zeros_like(A), (A, Q), tol, max_iters,
        "prediction covariance iteration did not converge",
    )
    return np.trace(X, axis1=1, axis2=2)


def steady_state_filter_covs(ps, tol: float = 1e-12, max_iters: int = 10**6) -> list[np.ndarray]:
    """:func:`steady_state_filter_cov` of every process, one batched iteration per shape."""
    ps = list(ps)
    out = [None] * len(ps)
    for rows in _groups(ps):
        for i, X in zip(rows, _filter_covs([ps[i] for i in rows], tol, max_iters)):
            out[i] = X
    return out


def steady_state_filter_cov(p: ProcessModel, tol: float = 1e-12, max_iters: int = 10**6) -> np.ndarray:
    """Steady state of the predict-then-update error covariance recursion.

    Iterates ``X- = A X A' + Q`` followed by the measurement update
    ``X = X- - X- C' (C X- C' + R)^-1 C X-`` from ``Pi0`` (zero by default)
    until the Frobenius change drops below ``tol``.
    """
    return steady_state_filter_covs([p], tol, max_iters)[0]


def no_comm_limit(p: ProcessModel, tol: float = 1e-12, max_iters: int = 10**6) -> float:
    """``Tr(P_inf)`` where ``P_inf = A P_inf A' + Q``: the never-transmit average error.

    Only defined for stable ``A``; the prediction-only covariance has no
    bounded fixed point otherwise.
    """
    if not classify_stability(p.A):
        raise CostDomainError("no_comm_limit requires a stable process")
    return float(_no_comm_limits(p.A[None], p.Q[None], tol, max_iters)[0])


def prediction_traces(ps, caps, rates, stable=None, tail_tol: float = 0.0):
    """``Tr(h^t(Pbar))``, ``t = 0, 1, ...``, ``h(X) = A X A' + Q``, from each process's filter steady state.

    One batched recursion per shape; each process leaves it at its own stop,
    so its sequence is the one it would get alone: after step ``caps[i] + 1``;
    from step 1 on, where ``stable`` is set, within ``tail_tol`` (relative) of
    its no-communication limit; or at a covariance equal, bit for bit, to the
    one two steps back, after which the sequence repeats its last two entries
    forever. Returns ``(traces, first, lengths)``: sequence ``i`` has
    ``lengths[i]`` entries from ``traces[first[i]]``, then one slot holding its
    limit (NaN where ``stable`` is not set). Overflow raises :class:`NumericalError`.
    """
    ps = list(ps)
    caps, rates = np.asarray(caps, dtype=float), np.asarray(rates, dtype=float)
    stable = np.zeros(len(ps), dtype=bool) if stable is None else np.asarray(stable, dtype=bool)
    limits = np.full(len(ps), np.nan)
    lengths = np.empty(len(ps), dtype=np.intp)
    # blocks ``(t0, rows, traces)``: the traces of steps t0, t0 + 1, ... (one
    # row each) of the processes ``rows`` (one column each), which all run through them
    blocks = []
    for group in _groups(ps):
        members = [ps[i] for i in group]
        A, Q, s = _stack(members, "A"), _stack(members, "Q"), stable[group]
        limits[group[s]] = _no_comm_limits(A[s], Q[s])
        rows, M, cap, limit = group, _filter_covs(members), caps[group], limits[group]
        cut = tail_tol * np.maximum(limit, 1e-300)
        tails = bool(s.any())  # whether any row has a tail rule to check
        tr = np.trace(M, axis1=1, axis2=2)
        steps, t0 = [tr], 0
        prev, prev_tr = back, back_tr = M, tr  # one and two steps back; read from step 2 on
        t = 0
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            while True:
                stop = t > cap
                if t and tails:
                    stop |= np.abs(tr - limit) <= cut
                if t >= 2:
                    # traces first, so that only candidate rows compare whole matrices
                    again = tr == back_tr
                    if again.any():
                        stop[again] |= (M[again] == back[again]).all(axis=(1, 2))
                if stop.any() or len(steps) == 1024:  # 1024: a lone long run keeps few arrays
                    blocks.append((t0, rows, np.stack(steps)))
                    steps, t0 = [], t + 1
                    lengths[rows[stop]] = t + 1
                    keep = ~stop
                    rows, A, Q, M, tr, prev, prev_tr, cap, limit, cut = (
                        x[keep] for x in (rows, A, Q, M, tr, prev, prev_tr, cap, limit, cut)
                    )
                    if not rows.size:
                        break
                back, back_tr, prev, prev_tr = prev, prev_tr, M, tr
                M = _predict_step(M, A, Q)
                M = 0.5 * (M + _mT(M))
                t += 1
                tr = np.trace(M, axis1=1, axis2=2)
                finite = np.isfinite(tr)
                if not finite.all():
                    rate = rates[rows[~finite][0]]
                    raise NumericalError(f"trace sequence overflowed at step {t}; the rate {rate} is too small")
                steps.append(tr)

    first = np.cumsum(lengths + 1) - (lengths + 1)
    traces = np.empty(int((lengths + 1).sum()))
    for t0, rows, block in blocks:
        traces[first[rows] + np.arange(t0, t0 + len(block))[:, None]] = block
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
        if self.xi < 0:
            raise ValueError("threshold must be a nonnegative integer")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("randomization probability must lie in [0, 1]")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("policy implies an average rate outside (0, 1]")

    @property
    def rate(self) -> float:
        return 1.0 / (self.xi + 2.0 - self.b)


def _xi_of(r: float) -> int:
    """Threshold index of the segment containing rate ``r``; no validation."""
    return max(0, math.floor(_XI_NUMERATOR / r - 1.0))


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


class _CurveTable:
    """Many cost curves in two flat arrays; each curve's arrays are views of them.

    Curve ``i`` owns slots ``first[i] .. first[i] + size[i]`` of ``traces``
    and ``cumsums``: its own entries, then one slot holding its stable limit
    in ``traces`` (NaN if unstable). Its segment ``j`` has ``anchor =
    traces[first + j + 1]`` and ``cumsum = cumsums[first + j]``, also for the
    affine tail ``j = size - 1`` of a stable curve. ``last`` is the row that
    rates below the stored range use, ``xi_max`` the largest threshold index
    the curve covers and ``lo`` its smallest rate.
    """

    def __init__(self, traces, cumsums, sizes, limits, floors):
        sizes = np.asarray(sizes, dtype=np.intp)
        stable = np.array([limit is not None for limit in limits], dtype=bool)
        first = np.cumsum(sizes + 1) - (sizes + 1)
        stable.setflags(write=False)
        self.stable = stable
        traces.setflags(write=False)  # shared by every curve's views
        cumsums.setflags(write=False)
        self.traces, self.cumsums = traces, cumsums
        self.curves = [
            CostCurve(traces=traces[f:f + n], cumsums=cumsums[f:f + n], stable_limit=limit, domain_floor=floor)
            for f, n, limit, floor in zip(first.tolist(), sizes.tolist(), limits, floors)
        ]
        self.first = first.astype(float)
        self.last = np.where(stable, sizes - 1.0, sizes - 2.0)
        self.xi_max = np.where(stable, np.inf, sizes - 2.0)
        self.lo = np.array(floors, dtype=float) * (1.0 - 1e-9)

    @classmethod
    def pack(cls, curves) -> _CurveTable:
        """A table holding copies of ``curves``."""
        sizes = [c.traces.size for c in curves]
        traces = np.full(sum(sizes) + len(sizes), np.nan)
        cumsums = np.full_like(traces, np.nan)
        at = 0
        for c, n in zip(curves, sizes):
            traces[at:at + n], cumsums[at:at + n] = c.traces, c.cumsums
            if c.stable_limit is not None:
                traces[at + n] = c.stable_limit
            at += n + 1
        return cls(traces, cumsums, sizes, [c.stable_limit for c in curves], [c.domain_floor for c in curves])

    def costs(self, xi, r, agents=slice(None)) -> np.ndarray:
        """:func:`cost_eval`'s arithmetic for ``agents`` at rates ``r`` with threshold indices ``xi``."""
        j = np.minimum(xi, self.last[agents])
        k = (self.first[agents] + j).astype(np.intp)
        anchor = self.traces.take(k + 1)
        return anchor + r * (self.cumsums.take(k) - (j + 1.0) * anchor)


def _build_table(processes, domain_floors, tail_tol: float, stable=None) -> _CurveTable:
    """Cost curves of all processes in one table, which is that of :func:`prediction_traces`.

    ``stable`` is the processes' :func:`stable_mask`, if the caller has it already.
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
        if not is_stable and floor == 0:
            raise CostDomainError("an unstable process needs a positive rate floor; its cost is unbounded at 0")

    # last threshold index whose segment the curve must store; none without a floor
    with np.errstate(divide="ignore"):
        caps = np.where(floors > 0, np.floor(_XI_NUMERATOR / floors - 1.0), np.inf)
    traces, first, lengths = prediction_traces(ps, caps, floors, stable, tail_tol)
    limits = traces[first + lengths]
    cumsums = np.empty_like(traces)
    cumsums[first + lengths] = np.nan
    for f, n in zip(first.tolist(), lengths.tolist()):
        np.cumsum(traces[f:f + n], out=cumsums[f:f + n])
    stable_limits = [limit if s else None for limit, s in zip(limits.tolist(), stable.tolist())]
    return _CurveTable(traces, cumsums, lengths, stable_limits, floors.tolist())


def build_cost_curves(processes, domain_floors, tail_tol: float = 1e-10) -> list[CostCurve]:
    """:func:`build_cost_curve` for every process at its own floor, batched by shape.

    Every process keeps its own stop rule and leaves its batch once it is
    met, so each curve equals the one built for that process alone. The
    curves' arrays are views of one shared flat table.
    """
    return _build_table(processes, domain_floors, tail_tol).curves


def build_cost_curve(p: ProcessModel, domain_floor: float, tail_tol: float = 1e-10) -> CostCurve:
    """Precompute the trace sequence needed to evaluate costs on [domain_floor, 1].

    For unstable processes ``domain_floor`` must be positive (the curve is
    unbounded at rate zero) and the sequence is computed up to the segment
    containing the floor. For stable processes the sequence is additionally
    truncated once it is within ``tail_tol`` (relative) of the bounded limit.
    """
    return build_cost_curves([p], [domain_floor], tail_tol)[0]


def cost_eval(curve: CostCurve, r: float) -> float:
    """Average error at rate ``r`` under the optimal randomized threshold policy.

    Renewal argument: a transmission cycle visits ages ``0..xi`` (probability
    ``b``) or ``0..xi+1``, so the long-run average is

        traces[xi+1] + r * (S_xi - (xi+1) * traces[xi+1])

    with ``S_xi`` the cycle cost of the short cycle. ``r = 1`` gives
    ``Tr(Pbar)``; for stable curves ``r = 0`` gives the never-transmit limit.
    """
    r = float(r)
    if r == 0.0:
        if curve.stable_limit is None:
            raise CostDomainError("rate 0 is outside the domain of an unstable cost curve")
        return curve.stable_limit
    if r < 0 or r > 1 + 1e-12:
        raise CostDomainError(f"rate must lie in [0, 1], got {r}")
    if r < curve.domain_floor * (1.0 - 1e-9):
        raise CostDomainError(f"rate {r} lies below the curve's domain floor {curve.domain_floor}")

    xi = _xi_of(min(r, 1.0))
    if xi + 1 < curve.traces.size:
        anchor = curve.traces[xi + 1]
        return float(anchor + r * (curve.cumsums[xi] - (xi + 1) * anchor))
    if curve.stable_limit is None:
        raise CostDomainError(f"rate {r} lies below the curve's domain floor {curve.domain_floor}")
    return float(curve.stable_limit + r * curve.segment_slope(xi))


def lipschitz_bounds(curve: CostCurve, lb: float) -> tuple[float, float]:
    """(alpha, beta): smallest and largest slope magnitude over segments meeting [lb, 1].

    Slopes are nonpositive and their magnitude grows as the rate shrinks, so
    alpha comes from the segment at rate 1 and beta from the segment holding
    ``lb`` (or the affine tail of a stable curve when ``lb == 0``).
    """
    lb = float(lb)
    if lb < 0 or lb > 1:
        raise CostDomainError(f"lower bound must lie in [0, 1], got {lb}")
    if lb == 0 and curve.stable_limit is None:
        raise CostDomainError("an unstable curve has no slope bound down to rate 0")
    if lb > 0 and lb < curve.domain_floor * (1.0 - 1e-9):
        raise CostDomainError(f"lower bound {lb} lies below the curve's domain floor {curve.domain_floor}")

    size = curve.traces.size
    stored = curve.cumsums[: size - 1] - np.arange(1, size) * curve.traces[1:]
    if lb > 0:
        xi_lb = _xi_of(lb)
        slopes = list(stored[: xi_lb + 1])
        if xi_lb + 1 >= size:
            slopes.append(curve.segment_slope(xi_lb))
    else:
        slopes = list(stored)
        slopes.append(curve.segment_slope(size))
    mags = np.abs(np.array(slopes))
    alpha, beta = float(mags.min()), float(mags.max())
    if alpha <= 1e-14:
        raise CostDomainError("cost curve has a flat segment; strict monotonicity is violated")
    return alpha, beta


class CurveCostModel(CostModel):
    """Cost model backed by per-process cost curves.

    The curves live in one flat table (see ``_CurveTable``). ``values``
    evaluates every agent from it by one numpy gather, bit-identical to
    :func:`cost_eval`. When constructed from process models the curves
    extend themselves on demand: evaluating unstable agents below their
    current floors rebuilds those curves in one batch with smaller floors
    (under a lock, so concurrent readers only ever see complete curves).
    Curves handed in directly are copied into the table, stay fixed, and
    evaluating below their floor raises.
    """

    def __init__(self, curves, processes=None, tail_tol: float = 1e-10):
        self._init(_CurveTable.pack(list(curves)), processes, tail_tol)

    def _init(self, table: _CurveTable, processes, tail_tol: float) -> None:
        self._table = table
        self._processes = list(processes) if processes is not None else None
        self._tail_tol = tail_tol
        self._lock = threading.Lock()
        self.n = len(table.curves)
        if self._processes is not None and len(self._processes) != self.n:
            raise ValueError("need one process per curve")

    @classmethod
    def from_processes(cls, processes, unstable_floor: float = 1e-3, tail_tol: float = 1e-10):
        processes = list(processes)
        stable = stable_mask([p.A for p in processes])
        floors = np.where(stable, 0.0, float(unstable_floor))
        model = cls.__new__(cls)
        model._init(_build_table(processes, floors, tail_tol, stable), processes, tail_tol)
        return model

    @property
    def stable(self) -> np.ndarray:
        """Per agent: whether its curve is stable, i.e. defined down to rate 0."""
        return self._table.stable

    @property
    def curves(self) -> list[CostCurve]:
        return list(self._table.curves)

    def _extend(self, indices, rates) -> None:
        """Rebuild, in one batch, each listed curve whose floor is above its rate ``r > 0``, down to ``r / 2``."""
        with self._lock:
            grow = [(i, r) for i, r in zip(indices, rates) if 0 < r < self._table.curves[i].domain_floor]
            if not grow:
                return
            rebuilt = build_cost_curves(
                [self._processes[i] for i, _ in grow], [0.5 * r for _, r in grow], self._tail_tol
            )
            curves = list(self._table.curves)
            for (i, _), curve in zip(grow, rebuilt):
                curves[i] = curve
            self._table = _CurveTable.pack(curves)

    def _fill(self, misses, rates, out) -> None:
        """Costs at rates the table does not cover: extend the curves that can be, raise for the rest."""
        if self._processes is not None:
            self._extend(misses, [float(rates[i]) for i in misses])
        for i in misses:
            out[i] = cost_eval(self._table.curves[i], float(rates[i]))

    def values(self, rates) -> np.ndarray:
        r = np.asarray(rates, dtype=float)
        if r.size != self.n:
            raise ValueError(f"expected {self.n} rates, got {r.size}")
        table = self._table
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = np.floor(_XI_NUMERATOR / np.minimum(r, 1.0) - 1.0)
        ok = (r >= table.lo) & (r <= _RATE_MAX) & (xi >= 0) & (xi <= table.xi_max)
        if ok.all():
            return table.costs(xi, r)
        out = np.empty(self.n)
        out[ok] = table.costs(xi[ok], r[ok], ok)
        self._fill(np.flatnonzero(~ok).tolist(), r, out)
        return out

    def slope_bounds(self, lower) -> tuple[np.ndarray, np.ndarray]:
        lower = np.asarray(lower, dtype=float).tolist()
        if self._processes is not None:
            self._extend(range(self.n), lower)
        bounds = [lipschitz_bounds(curve, lb) for curve, lb in zip(self._table.curves, lower)]
        return np.array([a for a, _ in bounds]), np.array([b for _, b in bounds])
