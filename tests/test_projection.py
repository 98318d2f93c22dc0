import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched as fs
from helpers import grid_project, reference_project


def unit_region(n, total):
    return fs.FeasibleRegion(total, np.zeros(n), np.ones(n))


def test_already_feasible_is_identity():
    region = unit_region(2, 1.0)
    out = fs.project_feasible(np.array([0.2, 0.3]), region)
    np.testing.assert_array_equal(out, [0.2, 0.3])


def test_symmetric_overflow_splits_equally():
    region = unit_region(2, 1.0)
    out = fs.project_feasible(np.array([1.0, 1.0]), region)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_far_point_terminates():
    # at |x| ~ 1e6 float spacing exceeds the bisection tolerance; the loop must still stop
    def hung(signum, frame):
        raise TimeoutError("project_feasible did not terminate")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        out = fs.project_feasible(np.array([1e6, 1e6]), unit_region(2, 1.0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_corner_point_matches_grid_oracle():
    region = unit_region(2, 1.0)
    x = np.array([2.0, -1.0])
    out = fs.project_feasible(x, region)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)
    oracle = grid_project(x, region, resolution=1e-3)
    assert np.linalg.norm(out - oracle) <= 2e-3


def test_infeasible_region_rejected():
    with pytest.raises(fs.InfeasibleRegionError):
        fs.FeasibleRegion(1.0, np.array([0.6, 0.6]), np.ones(2))
    with pytest.raises(fs.InfeasibleRegionError):
        fs.FeasibleRegion(1.0, np.array([0.2, 0.2]), np.array([0.1, 0.5]))


def test_nonfinite_point_rejected():
    region = unit_region(2, 1.0)
    with pytest.raises(ValueError):
        fs.project_feasible(np.array([np.inf, 0.0]), region)


def test_slack_budget_reduces_to_box_clamp():
    region = unit_region(3, 10.0)  # budget never binds
    out = fs.project_feasible(np.array([2.0, -3.0, 0.4]), region)
    np.testing.assert_array_equal(out, [1.0, 0.0, 0.4])


def test_idempotence_and_variational_inequality_bulk():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        n = rng.integers(2, 6)
        lower = rng.uniform(0.0, 0.2, n)
        upper = lower + rng.uniform(0.2, 1.0, n)
        total = lower.sum() + rng.uniform(0.05, 1.0) * (upper.sum() - lower.sum())
        region = fs.FeasibleRegion(total, lower, upper)
        x = rng.uniform(-1.5, 2.5, n)
        p = fs.project_feasible(x, region)

        assert region.contains(p, tol=1e-9)
        p2 = fs.project_feasible(p, region)
        assert np.max(np.abs(p2 - p)) <= 1e-12

        # optimality: (x - p)'(r' - p) <= 0 for feasible r'
        for _ in range(5):
            other = fs.project_feasible(rng.uniform(region.lower, region.upper), region)
            assert float((x - p) @ (other - p)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    x0=st.floats(-3, 4, allow_nan=False),
    x1=st.floats(-3, 4, allow_nan=False),
    total=st.floats(0.1, 2.0),
)
def test_projection_beats_grid_oracle(x0, x1, total):
    region = unit_region(2, total)
    x = np.array([x0, x1])
    p = fs.project_feasible(x, region)
    oracle = grid_project(x, region, resolution=5e-3)
    # the exact projection can only be closer to x than any grid point
    assert np.linalg.norm(x - p) <= np.linalg.norm(x - oracle) + 1e-9
    assert np.linalg.norm(p - oracle) <= 1e-2


def random_binding_case(rng, n, ties=False):
    """A region and a point scaled by 1 to 1e3 whose box clamp overshoots the budget,
    unless the clamp sits on the lower bounds (rare for n > 2)."""
    lower = rng.uniform(0.0, 0.2, n)
    upper = lower + rng.uniform(0.05, 1.0, n)
    x = rng.uniform(-1.5, 2.5, n) * 10.0 ** rng.uniform(0.0, 3.0)
    if ties:  # quarter grid: shared kinks, and roots that land on a kink
        lower, upper, x = (np.round(v * 4.0) / 4.0 for v in (lower, upper, x))
        upper = np.maximum(upper, lower + 0.25)
    room = np.clip(x, lower, upper).sum() - lower.sum()
    total = lower.sum() + rng.uniform(0.05, 0.95) * room
    if ties:
        total = np.round(total * 4.0) / 4.0
    total = max(total, lower.sum() + (0.25 if ties else 0.01))
    return fs.FeasibleRegion(total, lower, upper), x


@pytest.mark.parametrize("n", [2, 3, 5, 17, 200, 1000])
def test_matches_reference_projection_bitwise(n):
    rng = np.random.default_rng(8000 + n)
    compared = 0
    for k in range(max(20, 4000 // n)):
        region, x = random_binding_case(rng, n, ties=k % 2 == 1)
        expected = reference_project(x, region)
        if not region.contains(expected, tol=1e-9):
            continue
        np.testing.assert_array_equal(fs.project_feasible(x, region), expected)
        compared += 1
    assert compared >= 20


def test_far_coordinate_stays_in_region():
    # |x0| is ~1e74 times the box width: its two kinks round to one value, no
    # coordinate is free on the bracketing segment, and the reference answers
    # [ub0, lb1], which overshoots the budget by 0.119
    region = fs.FeasibleRegion(
        0.44175275939514447,
        np.array([0.19435831744089316, 0.13124517486140883]),
        np.array([0.4295231050983954, 0.8366708365024024]),
    )
    x = np.array([1.3221791620221196e74, -485.51615043148064])
    assert not region.contains(reference_project(x, region))
    assert region.contains(fs.project_feasible(x, region))


def test_unstable_floor_iterate_keeps_its_corner():
    # a step of the fixture's solve at R = 1.5, which 2-cycles between corners
    # of the region; agents 1 and 2 lie ~1e82 and ~1e156 out, so their kinks
    # merge. The answer is the reference's and must stay so
    region = fs.FeasibleRegion(1.5, np.array([1e-3, 1e-3, 1e-3, 0.0, 0.0]), np.ones(5))
    x = np.array([1.05578828, 2.41272992e82, 1.42008527e156, 0.914832748, 0.123174363])
    out = fs.project_feasible(x, region)
    np.testing.assert_array_equal(out, [0.001, 0.001, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(out, reference_project(x, region))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1024, 1025])
def test_clip_passes_are_logarithmic(monkeypatch, n):
    rng = np.random.default_rng(n)
    region = fs.FeasibleRegion(0.25 * n, np.zeros(n), np.ones(n))
    x = rng.uniform(0.0, 2.0, n) + 1.0
    calls = []
    clip = np.clip

    def counted(*args, **kwargs):
        calls.append(1)
        return clip(*args, **kwargs)

    monkeypatch.setattr(np, "clip", counted)
    fs.project_feasible(x, region)
    # the box clamp, then at most ceil(log2(2n)) bisection passes, then the answer
    assert len(calls) <= 2 + math.ceil(math.log2(2 * n))


@pytest.mark.parametrize("n", [1000, 10_000])
def test_kkt_certificate_at_scale(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        region, x = random_binding_case(rng, n)
        lb, ub = region.lower, region.upper
        assert np.clip(x, lb, ub).sum() > region.total  # the budget binds
        p = fs.project_feasible(x, region)
        assert np.all(p >= lb) and np.all(p <= ub)
        assert abs(p.sum() - region.total) <= 1e-12 * n

        free = (p > lb) & (p < ub)
        assert free.any()
        shift = x[free] - p[free]
        lam = float(np.median(shift))
        slack = 1e-12 * max(abs(lam), 1.0)
        assert np.all(np.abs(shift - lam) <= slack)
        assert np.all((x - lb)[p == lb] <= lam + slack)
        assert np.all((x - ub)[p == ub] >= lam - slack)
