import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched as fs
from helpers import grid_project


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
