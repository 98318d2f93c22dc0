import tracemalloc

import numpy as np
import pytest

import fairsched as fs
from helpers import grid_maxmin_value, grid_project, random_feasible_point, solve_level, time_limit


def test_step_map_symmetric_fixed_point():
    costs = fs.AffineCostModel([2.0, 2.0], [1.0, 1.0])
    region = fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2))
    out = fs.step_map(np.array([0.5, 0.5]), 0.1, costs, region)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_step_map_interior_is_unprojected():
    costs = fs.AffineCostModel([4.0, 1.5], [1.0, 1.0])
    region = fs.FeasibleRegion(1.5, np.zeros(2), np.ones(2))
    out = fs.step_map(np.array([0.5, 0.5]), 0.1, costs, region)
    np.testing.assert_allclose(out, [0.85, 0.6], atol=1e-12)
    oracle = grid_project(np.array([0.85, 0.6]), region, resolution=1e-3)
    assert np.linalg.norm(out - oracle) <= 2e-3


def test_step_map_fixed_point_at_equilibrium(example1):
    costs, region = example1
    r_star = np.array([1.0, 0.25, 0.25])
    for eps in (0.01, 0.1, 1.0):
        out = fs.step_map(r_star, eps, costs, region)
        np.testing.assert_allclose(out, r_star, atol=1e-12)


def test_solve_inner_single_agent_saturates():
    costs = fs.AffineCostModel([3.0], [0.7])
    region = fs.FeasibleRegion(1.0, [0.0], [1.0])
    r, trace = fs.solve_inner(np.array([0.1]), costs, region, fs.SolverConfig())
    assert trace.converged
    assert r[0] == pytest.approx(1.0, abs=1e-9)


def test_solve_inner_example1(example1):
    costs, region = example1
    cfg = fs.SolverConfig()
    r, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, cfg)
    assert trace.converged
    assert r[0] == pytest.approx(1.0, abs=1e-3)
    assert r[1] + r[2] <= 0.5 + 1e-3
    assert trace.final_residual <= cfg.eps_r


def test_solve_inner_identical_agents_split_equally():
    costs = fs.AffineCostModel([2.0, 2.0], [0.5, 0.5])
    region = fs.FeasibleRegion(1.2, np.zeros(2), np.ones(2))
    r, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, fs.SolverConfig())
    assert trace.converged
    np.testing.assert_allclose(r, [0.6, 0.6], atol=1e-9)


def test_solve_inner_budget_exhaustion_reports_status():
    costs = fs.AffineCostModel([4.0, 1.5], [1.0, 1.0])
    region = fs.FeasibleRegion(1.5, np.zeros(2), np.ones(2))
    cfg = fs.SolverConfig(eps_r=1e-15, max_inner_iters=3)
    r, trace = fs.solve_inner(np.array([0.2, 0.2]), costs, region, cfg)
    assert trace.status == fs.MAX_INNER_ITERS
    assert not trace.converged
    assert len(trace) == 4  # initial point plus three steps


def test_solve_maxmin_all_stable_runs_single_pass(example1):
    costs, region = example1
    r, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(), [False, False, False])
    assert trace.converged
    # an affine model bounds no rate from its costs, so the floors are the region's own
    np.testing.assert_array_equal(trace.lower, region.lower)
    assert r[0] == pytest.approx(1.0, abs=1e-6)


def assert_floor_rule(costs, region, trace, start_lower, mask):
    """Each agent whose cost at the start point is below the largest, ``U``, and, if some agent's is, each
    unstable agent at ``U`` is floored at the rate where its cost is ``U`` (or at the region's bound, where
    its cost stays below ``U``), which for an unstable agent at ``U`` is its start rate. The others keep their
    start floors. Returns the mask of the agents floored at cost ``U``."""
    start = trace.costs[0]
    level = start.max()
    below = start < level
    top = mask & ~below & below.any()
    bounded = below | top
    np.testing.assert_array_equal(trace.lower[~bounded], start_lower[~bounded])
    at_level = bounded & (trace.lower > region.lower)
    floored = costs.with_floor(trace.lower).values(trace.lower)
    np.testing.assert_allclose(floored[at_level], level, rtol=1e-12)
    assert (floored[bounded & ~at_level] <= level).all()
    assert (trace.lower[top] <= trace.rates[0][top]).all()
    np.testing.assert_allclose(trace.lower[top], trace.rates[0][top], rtol=1e-12)
    assert (trace.lower <= trace.rates[-1]).all()
    return at_level


def test_solve_maxmin_floors_unstable_agents_at_the_value_bound():
    # agent 1 wants ~0.06 at the fair point but starts floored at eta=0.2; its cost at the start
    # point is below agent 0's, so it is floored where its cost reaches agent 0's, below 0.2.
    # Agent 0, the costliest at the start point, is floored at its start rate 0.25, above eta
    p1 = fs.ProcessModel(A=[[1.4]], Q=[[1.0]])
    p2 = fs.ProcessModel(A=[[1.05]], Q=[[0.1]])
    costs = fs.CurveCostModel.from_processes([p1, p2], unstable_floor=0.2)
    region = fs.FeasibleRegion(0.5, np.zeros(2), np.ones(2))
    cfg = fs.SolverConfig(eps0=0.05, eta=0.2, eps_r=1e-8)
    mask = np.array([True, True])
    r, trace = fs.solve_maxmin(costs, region, cfg, mask)
    assert trace.converged
    assert assert_floor_rule(costs, region, trace, np.array([0.2, 0.2]), mask).tolist() == [True, True]
    assert trace.lower[1] < 0.2 < trace.lower[0] <= 0.25
    assert trace.lower[0] == pytest.approx(0.25, rel=1e-12)
    assert r[1] > trace.lower[1] + 1e-9 and r[0] > trace.lower[0] + 1e-9
    # the solve worked on its own floored models: the caller's keeps its floors and still raises below them
    assert [c.domain_floor for c in costs.curves] == [0.2, 0.2]
    with pytest.raises(fs.CostDomainError, match="below the curve's domain floor 0.2"):
        costs.values(r)
    assert costs.with_floor(trace.lower).values(r).tolist() == trace.costs[-1].tolist()
    # rerunning with a tiny floor lands at the same point
    costs2 = fs.CurveCostModel.from_processes([p1, p2], unstable_floor=1e-3)
    cfg2 = fs.SolverConfig(eps0=0.05, eta=1e-3, eps_r=1e-8)
    r2, trace2 = fs.solve_maxmin(costs2, region, cfg2, mask)
    assert trace2.converged
    np.testing.assert_allclose(r, r2, atol=1e-4)


def test_slack_budget_saturates_upper_bounds():
    # total above sum(ub): the budget never binds and every agent tops out
    costs = fs.AffineCostModel([3.0, 2.0], [1.0, 0.5])
    region = fs.FeasibleRegion(5.0, np.zeros(2), np.ones(2))
    r, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(), [False, False])
    assert trace.converged
    np.testing.assert_allclose(r, [1.0, 1.0], atol=1e-9)


def test_solve_maxmin_infeasible_eta_is_preshrunk():
    costs = fs.AffineCostModel([3.0, 3.0, 3.0], [1.0, 1.0, 1.0])
    region = fs.FeasibleRegion(1.0, np.zeros(3), np.ones(3))
    # eta = 0.5 would put the floors at sum 1.5 > 1
    r, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(eta=0.5), [True, True, True])
    assert trace.converged
    np.testing.assert_allclose(r, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_five_process_instance_floors_hold_the_value_bound(bench_instance):
    # the three unstable agents cost less than the stable agent 4 at the start point, so they are
    # floored where their costs reach its cost; agent 5's stays below it down to rate 0
    cfg, region, costs, mask = bench_instance
    rates, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
    assert trace.converged
    start_lower = np.where(mask, cfg.solver.eta, 0.0)
    assert assert_floor_rule(costs, region, trace, start_lower, mask).tolist() == [True, True, True, False, False]


def solve_to_level(processes, total, cfg):
    """Solve curve costs at budget ``total`` under a time limit; returns (rates, costs, water-filling level)."""
    n = len(processes)
    mask = np.array([not fs.classify_stability(p.A) for p in processes])
    costs = fs.CurveCostModel.from_processes(processes, unstable_floor=cfg.eta)
    region = fs.FeasibleRegion(total, np.zeros(n), np.ones(n))
    level = solve_level(costs, region)
    with time_limit(10, f"solve at budget {total}"):
        rates, trace = fs.solve_maxmin(costs, region, cfg, mask)
    assert trace.converged, f"budget {total}: {trace.status}"
    assert np.all(rates[mask] > trace.lower[mask]), f"budget {total}: an unstable rate is pinned at its floor"
    return rates, costs, level


@pytest.mark.parametrize("budget, expected_level", [
    (0.2, 1319.3), (0.5, None), (1.0, 18.24), (1.5, None), (2.0, 6.035), (3.0, None), (4.0, 2.016),
])
def test_budget_sweep_reaches_the_water_filling_level(bench_config, budget, expected_level):
    rates, costs, level = solve_to_level(bench_config.processes, budget, bench_config.solver)
    assert costs.values(rates).max() == pytest.approx(level, rel=1e-2)
    if expected_level is not None:
        assert level == pytest.approx(expected_level, rel=1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2, 6, 9])
def test_random_scalar_fleet_reaches_the_water_filling_level(seed):
    # 40 agents, about a third unstable: beyond the grid oracle's reach. At budget 0.8, seeds 6 and 9
    # ran to the iteration cap while raw and guarded steps took turns without end
    rng = np.random.default_rng(seed)
    processes = [fs.ProcessModel(A=[[rng.uniform(0.2, 1.15) * rng.choice([-1, 1])]], Q=[[rng.uniform(0.5, 4.0)]])
                 for _ in range(40)]
    cfg = fs.SolverConfig(eps0=0.05, eta=1e-3, max_inner_iters=200_000)
    for total in (0.8, 4.0, 12.0, 24.0):
        rates, costs, level = solve_to_level(processes, total, cfg)
        assert costs.values(rates).max() == pytest.approx(level, rel=1e-2)


def test_fixture_converges_at_every_budget_of_the_sweep(bench_instance, monkeypatch):
    # 0.02 to 4.86 in steps of 0.04; under eta-guessed floors 0.22, 0.26 and 0.30 ran to the iteration cap,
    # and the paper's step stopped as far as 1.1e-3 (R = 0.02) above the level
    cfg, _, costs, mask = bench_instance
    papers_steps, solve_inner = [], fs.allocation.solve_inner
    monkeypatch.setattr(fs.allocation, "solve_inner", lambda *args: papers_steps.append(args) or solve_inner(*args))
    for k in range(122):
        total = round(0.02 + 0.04 * k, 2)
        region = fs.FeasibleRegion(total, np.zeros(5), np.ones(5))
        with time_limit(2, f"solve at budget {total}"):
            rates, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
        assert trace.converged, f"budget {total}: {trace.status}"
        assert region.contains(rates, tol=1e-9), total
        floored = costs.with_floor(trace.lower)
        assert floored.values(rates).max() == pytest.approx(solve_level(floored, region), rel=1e-12), total
    assert papers_steps == []  # the slope-scaled step solved every budget, with no fallback


def test_fair_rate_below_eta_converges():
    # the fair rate of the slowly unstable process, 7.19e-4, lies below eta; eta-guessed floors,
    # shrunk by eta once pinned, ran its curve to an overflow at step 177,766
    ps = [fs.ProcessModel(A=[[1.002]], Q=[[1e-3]]), fs.ProcessModel(A=[[0.99]], Q=[[10.0]])]
    costs = fs.CurveCostModel.from_processes(ps, unstable_floor=1e-3)
    region = fs.FeasibleRegion(0.3, np.zeros(2), np.ones(2))
    cfg = fs.SolverConfig(eta=1e-3)
    with time_limit(5, "solve of the two-process instance"):
        rates, trace = fs.solve_maxmin(costs, region, cfg, [True, False])
    assert trace.converged
    assert rates[0] == pytest.approx(7.19e-4, rel=1e-3)
    assert rates.sum() == pytest.approx(0.3)
    mask = np.array([True, False])
    assert assert_floor_rule(costs, region, trace, np.array([1e-3, 0.0]), mask).tolist() == [True, False]
    floored = costs.with_floor(trace.lower)
    assert floored.values(rates).max() == pytest.approx(solve_level(floored, region), rel=1e-2)


@pytest.mark.parametrize("unstable", [False, True])
def test_identical_processes_at_a_binding_budget_split_equally(unstable):
    # every agent ties at the start point, so every agent keeps its start floor
    p = fs.ProcessModel(A=[[1.2 if unstable else 0.8]], Q=[[1.0]])
    costs = fs.CurveCostModel.from_processes([p] * 4, unstable_floor=0.05)
    region = fs.FeasibleRegion(0.6, np.zeros(4), np.ones(4))
    rates, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(eta=0.05), [unstable] * 4)
    assert trace.converged
    np.testing.assert_array_equal(rates, np.full(4, rates[0]))
    assert rates[0] == pytest.approx(0.15)
    np.testing.assert_array_equal(trace.lower, np.full(4, 0.05 if unstable else 0.0))


@pytest.mark.parametrize("seed", [3, 4])
def test_floor_rule_on_a_seeded_fleet(seed):
    rng = np.random.default_rng(seed)
    processes = [fs.ProcessModel(A=[[rng.uniform(0.2, 1.15) * rng.choice([-1, 1])]], Q=[[rng.uniform(0.5, 4.0)]])
                 for _ in range(40)]
    mask = ~fs.stable_mask([p.A for p in processes])
    assert 5 <= mask.sum() <= 35
    cfg = fs.SolverConfig(eps0=0.05, eta=1e-3, max_inner_iters=200_000)
    costs = fs.CurveCostModel.from_processes(processes, unstable_floor=cfg.eta)
    floored_at_level = 0
    for total in (0.8, 4.0, 12.0, 24.0):
        region = fs.FeasibleRegion(total, np.zeros(40), np.ones(40))
        rates, trace = fs.solve_maxmin(costs, region, cfg, mask)
        assert trace.converged
        floored_at_level += assert_floor_rule(costs, region, trace, np.where(mask, cfg.eta, 0.0), mask).sum()
    assert floored_at_level >= 40


def test_guard_stays_on_after_it_has_followed_raw_steps_often_enough():
    # seed 6 at budget 0.8: raw steps at costs near 1/eps and guarded ones keep taking turns, so
    # the guard stays on from its _GUARD_RETURNS-th return, also where a raw step would fit the box
    rng = np.random.default_rng(6)
    processes = [fs.ProcessModel(A=[[rng.uniform(0.2, 1.15) * rng.choice([-1, 1])]], Q=[[rng.uniform(0.5, 4.0)]])
                 for _ in range(40)]
    mask = ~fs.stable_mask([p.A for p in processes])
    cfg = fs.SolverConfig(eps0=0.05, eta=1e-3, max_inner_iters=5_000)
    costs = fs.CurveCostModel.from_processes(processes, unstable_floor=cfg.eta)
    region = fs.FeasibleRegion(0.8, np.zeros(40), np.ones(40))
    # the guard lives in solve_inner, run here from the start point, floors and model solve_maxmin builds
    _, built = fs.solve_maxmin(costs, region, cfg, mask)
    solved = fs.FeasibleRegion(region.total, built.lower, region.upper)
    rates, trace = fs.solve_inner(built.rates[0], built.model, solved, cfg)
    assert trace.converged
    wide = trace.step_sizes[1:] * trace.costs[:-1].max(axis=1) > (solved.upper - solved.lower).max()
    returns = np.cumsum(wide[1:] & ~wide[:-1])  # after step t + 2
    latched = np.flatnonzero(returns == fs.allocation._GUARD_RETURNS)[0] + 2  # that return's iteration
    assert (~wide[latched:]).sum() >= 10  # later iterations whose raw step fits the box
    for t in range(latched, len(trace) - 1):  # iteration t + 1, from row t
        step = trace.step_sizes[t + 1] * np.log1p(trace.costs[t])
        np.testing.assert_array_equal(trace.rates[t + 1], fs.project_feasible(trace.rates[t] + step, solved))


class _ReciprocalCosts(fs.CostModel):
    """``J_i(r) = c_i / r``, unbounded at rate 0; its ``floors_at`` is the base class's bisection."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.size

    def values(self, rates):
        rates = np.asarray(rates, dtype=float)
        if (rates <= 0).any():
            raise fs.CostDomainError("rate 0 is outside the domain")
        return self.c / rates


class _UnboundedReciprocalCosts(_ReciprocalCosts):
    """:class:`_ReciprocalCosts` whose ``floors_at`` knows no bound: zeros."""

    def floors_at(self, level):
        return np.zeros(self.n), self


def test_values_and_slopes_of_the_affine_and_base_models():
    affine = fs.AffineCostModel([4.0, 1.5, 1.5], [1.0, 0.5, 2.0])
    rates = np.array([0.25, 0.5, 0.75])
    values, slopes = affine.values_and_slopes(rates)
    assert values.tobytes() == affine.values(rates).tobytes()
    assert slopes is affine.slopes
    values, slopes = _ReciprocalCosts([1.0, 2.0, 3.0]).values_and_slopes(rates)
    assert slopes is None and values.tolist() == [4.0, 4.0, 4.0]


def test_model_without_slopes_solves_with_the_paper_step():
    # the base model gives no slopes: solve_maxmin is solve_inner from its start point, floors and model
    costs, region = _ReciprocalCosts([1.0, 2.0, 4.0]), fs.FeasibleRegion(1.0, np.zeros(3), np.ones(3))
    cfg = fs.SolverConfig(eta=0.1)
    rates, trace = fs.solve_maxmin(costs, region, cfg, [True] * 3)
    assert trace.converged
    floored = fs.FeasibleRegion(region.total, trace.lower, region.upper)
    inner_rates, inner = fs.solve_inner(trace.rates[0], trace.model, floored, cfg)
    assert rates.tobytes() == inner_rates.tobytes()
    for name in ("rates", "costs", "step_sizes", "residuals"):
        assert getattr(trace, name).tobytes() == getattr(inner, name).tobytes(), name


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_a_slope_that_is_zero_or_not_finite_runs_the_paper_step(bad):
    class _BadSlopes(fs.AffineCostModel):
        def values_and_slopes(self, rates):
            values, slopes = super().values_and_slopes(rates)
            return values, np.where(np.arange(self.n) == 1, bad, slopes)

    costs, region = _BadSlopes([4.0, 3.0, 2.0], [1.0, 1.0, 1.0]), fs.FeasibleRegion(1.5, np.zeros(3), np.ones(3))
    with np.errstate(all="raise"):  # no warning on the way: the step gives up before it forms a NaN
        rates, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(), [False] * 3)
    inner_rates, inner = fs.solve_inner(trace.rates[0], costs, region, fs.SolverConfig())
    assert trace.converged and rates.tobytes() == inner_rates.tobytes() and len(trace) == len(inner) > 3


def test_slope_scaled_step_lands_on_the_water_filling_level():
    # affine costs: one step from the start point reaches the fair point, the next confirms it
    costs = fs.AffineCostModel([4.0, 3.0, 2.0, 6.0], [1.0, 5.0, 0.25, 40.0])
    region = fs.FeasibleRegion(1.2, np.zeros(4), np.ones(4))
    rates, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(), [False] * 4)
    assert trace.converged and len(trace) <= 4
    assert region.contains(rates, tol=1e-9) and rates.sum() == pytest.approx(1.2, abs=1e-15)
    values = costs.values(rates)
    free = (rates > 0) & (rates < 1)
    level = values[free].max()
    assert free.sum() >= 2 and np.ptp(values[free]) <= 1e-14 * level
    assert (values[rates == 0] <= level).all() and (values[rates == 1] >= level).all()
    # the paper's schedule is recorded, though the step does not read it
    eps = [fs.SolverConfig().eps0]
    for _ in range(len(trace) - 1):
        eps.append(1.0 / (1.0 / eps[-1] + 1.0))
    np.testing.assert_array_equal(trace.step_sizes[0], eps[0])
    np.testing.assert_array_equal(trace.step_sizes[1:], eps[:-1])


def test_agent_without_a_value_bound_keeps_its_start_floor():
    # agent 0 costs less than agent 1 at the start point, but the model gives it no bound; at
    # floor 0 the first step would take it to rate 0, where its cost is unbounded
    costs = _UnboundedReciprocalCosts([1.0, 9.0])
    region = fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2))
    rates, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(eta=0.05), [True, True])
    assert trace.converged
    assert trace.lower.tolist() == [0.05, 0.05]
    np.testing.assert_allclose(rates, [0.1, 0.9], atol=1e-6)


def test_base_floors_at_bisects_values_to_the_lower_end_of_its_bracket():
    costs = _ReciprocalCosts([1.0, 100.0, 1000.0])
    floors, model = costs.floors_at(200.0)
    assert model is costs  # the base class extends no model
    roots = np.array([1 / 200, 1 / 2, 1.0])  # agent 2 costs 1000 > 200 at rate 1
    assert (floors <= roots).all() and (costs.values(floors) >= 200.0).all()
    np.testing.assert_allclose(floors, roots, rtol=1e-15)
    # a cost that stays below the level down to rate 0 gives no bound
    assert _ReciprocalCosts([1e-30]).floors_at(1.0)[0].tolist() == [0.0]


def test_base_and_affine_rates_at_invert_one_level_per_agent():
    costs = _ReciprocalCosts([1.0, 100.0, 1000.0])
    levels = np.array([200.0, 400.0, 2000.0])
    rates = costs.rates_at(levels)
    roots = np.array([1 / 200, 1 / 4, 1 / 2])
    assert (rates <= roots).all() and (costs.values(rates) >= levels).all()
    np.testing.assert_allclose(rates, roots, rtol=1e-15)
    # at equal levels, floors_at's bisection bit for bit
    assert costs.rates_at(np.full(3, 200.0)).tobytes() == costs.floors_at(200.0)[0].tobytes()
    affine = fs.AffineCostModel([4.0, 1.5, 3.0], [1.0, 0.5, 2.0])
    assert affine.rates_at([3.0, 1.25, 0.0]).tolist() == [1.0, 0.5, 1.5]  # exact, and not clipped to [0, 1]
    # a bound on the elasticity J / |J'|: the cost at the lower bound over the slope, or none without slopes
    assert affine.elasticity_bounds(np.array([0.5, 0.0, 0.25])).tolist() == [3.5, 3.0, 1.25]
    assert costs.elasticity_bounds(np.full(3, 0.1)) is None


def test_fair_rate_below_the_start_floor_of_a_model_with_the_base_floors_at():
    # agent 0's fair rate 1/101 lies below its start floor eta = 0.1; the bisected bound floors it at
    # the rate where its cost reaches agent 1's at the start point, 1/200, so the solve finds it.
    # Agent 1 costs the most at the start point, and its bound is its start rate 0.5 exactly
    costs = _ReciprocalCosts([1.0, 100.0])
    region = fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2))
    rates, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(eta=0.1), [True, True])
    assert trace.converged
    assert trace.rates[0].tolist() == [0.5, 0.5]
    assert trace.lower[0] <= 1 / 200 and trace.lower[1] == 0.5
    np.testing.assert_allclose(rates, [1 / 101, 100 / 101], rtol=1e-4)


def assert_same_solve(shallow, deep, region, cfg, mask):
    """``solve_maxmin`` on both models: the same rates and trace, bit for bit, and a model that covers the floors."""
    rates, trace = fs.solve_maxmin(shallow, region, cfg, mask)
    deep_rates, deep_trace = fs.solve_maxmin(deep, region, cfg, mask)
    assert rates.tobytes() == deep_rates.tobytes()
    assert trace.status == deep_trace.status
    for name in ("iterations", "rates", "costs", "step_sizes", "residuals", "lower"):
        assert getattr(trace, name).tobytes() == getattr(deep_trace, name).tobytes(), name
    assert trace.model.values(rates).tobytes() == trace.costs[-1].tobytes()
    got, want = trace.model.slope_bounds(trace.lower), deep_trace.model.slope_bounds(trace.lower)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    return trace


@pytest.mark.parametrize("budget", [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_shallow_model_solves_as_the_eta_deep_one_on_the_fixture(bench_instance, budget):
    cfg, _, deep, mask = bench_instance
    shallow = fs.CurveCostModel.from_processes(cfg.processes, unstable_floor=1.0)
    region = fs.FeasibleRegion(budget, np.zeros(5), np.ones(5))
    trace = assert_same_solve(shallow, deep, region, cfg.solver, mask)
    assert [c.domain_floor for c in shallow.curves] == np.where(mask, 1.0, 0.0).tolist()  # left as it was
    assert [c.domain_floor for c in trace.model.curves] == [min(lb, 1.0) if m else 0.0
                                                            for lb, m in zip(trace.lower.tolist(), mask)]


@pytest.mark.parametrize("seed", [3, 4])
def test_shallow_model_solves_as_the_eta_deep_one_on_seeded_fleets(seed):
    rng = np.random.default_rng(seed)
    processes = [fs.ProcessModel(A=[[rng.uniform(0.2, 1.15) * rng.choice([-1, 1])]], Q=[[rng.uniform(0.5, 4.0)]])
                 for _ in range(40)]
    processes += [fs.ProcessModel(A=[[rng.uniform(0.5, 1.1), 1.0], [0.0, rng.uniform(0.2, 0.9)]],
                                  Q=np.diag(rng.uniform(0.5, 4.0, 2))) for _ in range(10)]
    mask = ~fs.stable_mask([p.A for p in processes])
    cfg = fs.SolverConfig(eps0=0.05, eta=1e-3, max_inner_iters=200_000)
    deep = fs.CurveCostModel.from_processes(processes, unstable_floor=cfg.eta)
    shallow = fs.CurveCostModel.from_processes(processes, unstable_floor=1.0)
    for total in (0.8, 4.0, 12.0, 24.0):
        assert_same_solve(shallow, deep, fs.FeasibleRegion(total, np.zeros(50), np.ones(50)), cfg, mask)


def test_guarded_step_keeps_slack_budget_fixed_points():
    # costs below 1 and a raw step wider than the box, so the guarded step is
    # taken: on log(J) < 0 every agent would donate down to its lower bound
    costs = fs.AffineCostModel([0.9, 0.9, 0.9], [0.5, 0.5, 0.5])
    region = fs.FeasibleRegion(3.0, np.zeros(3), np.ones(3))
    cfg = fs.SolverConfig(eps0=10.0)
    assert cfg.eps0 * costs.values(region.lower).max() > 1.0
    r, trace = fs.solve_inner(region.lower, costs, region, cfg)
    assert trace.converged
    np.testing.assert_array_equal(r, region.upper)


def test_fixture_takes_only_raw_steps(bench_instance):
    # criterion 10 derives its bound for the raw step r + eps J(r); on the fixture, from the start point,
    # floors and model solve_maxmin builds, no paper step reaches the box width 1, so the guard never fires
    cfg, region, costs, mask = bench_instance
    _, built = fs.solve_maxmin(costs, region, cfg.solver, mask)
    floored = fs.FeasibleRegion(region.total, built.lower, region.upper)
    _, trace = fs.solve_inner(built.rates[0], built.model, floored, cfg.solver)
    assert trace.converged and len(trace) > 10
    assert (trace.step_sizes[:-1] * trace.costs[:-1].max(axis=1)).max() <= 1.0


def test_check_equilibrium_weights_are_uniform_over_the_active_set(example1, bench_instance):
    # the active set is every agent within active_tol (relative, floored at 1) of the largest cost
    cfg, region, costs, mask = bench_instance
    rates, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
    tied = fs.AffineCostModel([3.0, 3.0, 1.0], [1.0, 1.0, 1.0])
    same = fs.AffineCostModel([2.0, 2.0], [1.0, 1.0])
    cases = [
        (rates, trace.model, region, 1e-6, None),
        (rates, trace.model, region, 1e-3, None),
        (np.array([1.0, 0.25, 0.25]), *example1, 1e-6, [1.0, 0.0, 0.0]),
        (np.zeros(3), tied, example1[1], 1e-6, [0.5, 0.5, 0.0]),
        (np.array([0.4, 0.4]), same, fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2)), 1e-6, [0.5, 0.5]),
    ]
    for point, model, box, tol, expected in cases:
        report = fs.check_equilibrium(point, model, box, active_tol=tol)
        values = model.values(point)
        top = values >= values.max() - tol * max(abs(values.max()), 1.0)
        assert report.active_set == tuple(np.flatnonzero(top).tolist())
        uniform = np.zeros(box.n)
        uniform[list(report.active_set)] = 1.0 / len(report.active_set)
        assert report.recovered_weights.tobytes() == uniform.tobytes()
        if expected is not None:
            assert report.recovered_weights.tolist() == expected


def test_check_equilibrium_symmetric_instance():
    costs = fs.AffineCostModel([2.0, 2.0], [1.0, 1.0])
    region = fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2))
    report = fs.check_equilibrium(np.array([0.5, 0.5]), costs, region)
    assert report.active_set == (0, 1)
    assert report.active_set_lemma_ok and report.equal_costs_ok
    assert report.fixed_point_residual <= 1e-9


def test_check_equilibrium_example1(example1):
    costs, region = example1
    report = fs.check_equilibrium(np.array([1.0, 0.25, 0.25]), costs, region)
    assert report.active_set == (0,)
    assert report.game_value == pytest.approx(3.0, abs=1e-9)
    assert report.active_set_lemma_ok  # the max-cost agent holds min(total, ub) = 1
    np.testing.assert_allclose(report.recovered_weights, [1.0, 0.0, 0.0])


def test_check_equilibrium_flags_perturbed_point(example1):
    costs, region = example1
    cfg = fs.SolverConfig()
    r, _ = fs.solve_inner(fs.initial_allocation(region), costs, region, cfg)
    bumped = fs.project_feasible(r + np.array([0.0, 0.05, 0.0]), region)
    report = fs.check_equilibrium(bumped, costs, region)
    assert report.fixed_point_residual > cfg.eps_r


def test_perturbed_point_reprojection_matches_grid_oracle():
    costs = fs.AffineCostModel([4.0, 2.0], [1.0, 1.0])
    region = fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2))
    cfg = fs.SolverConfig()
    r, trace = fs.solve_maxmin(costs, region, cfg, [False, False])
    assert trace.converged
    bumped_raw = r + np.array([0.0, 0.05])
    bumped = fs.project_feasible(bumped_raw, region)
    assert np.linalg.norm(bumped - grid_project(bumped_raw, region, 1e-3)) <= 2e-3
    report = fs.check_equilibrium(bumped, costs, region)
    assert report.fixed_point_residual > cfg.eps_r


def test_contraction_factor_bound():
    rng = np.random.default_rng(7)
    costs = fs.AffineCostModel([5.0, 4.0, 3.0], [0.8, 1.5, 1.1])
    region = fs.FeasibleRegion(1.8, np.zeros(3), np.ones(3))
    alphas, betas = costs.slope_bounds(region.lower)
    alpha, beta = alphas.min(), betas.max()
    for frac in (0.1, 0.5, 0.9):
        eps = frac * 2 * alpha / beta**2
        factor = np.sqrt(1.0 + eps**2 * beta**2 - 2.0 * eps * alpha)
        for _ in range(50):
            a = random_feasible_point(region, rng)
            b = random_feasible_point(region, rng)
            lhs = np.linalg.norm(fs.step_map(a, eps, costs, region) - fs.step_map(b, eps, costs, region))
            assert lhs <= factor * np.linalg.norm(a - b) + 1e-12


def test_game_value_unique_across_starts(example1):
    costs, region = example1
    rng = np.random.default_rng(3)
    cfg = fs.SolverConfig()
    values = []
    for _ in range(10):
        r0 = random_feasible_point(region, rng)
        r, trace = fs.solve_inner(r0, costs, region, cfg)
        assert trace.converged
        values.append(costs.values(r).max())
    assert max(values) - min(values) <= 1e-4


def test_game_value_unique_across_starts_curve_costs(bench_instance):
    # floors at 0.05 leave the optimum untouched (all unstable rates end
    # well above) while keeping random starts away from the near-zero zone
    # where these curves reach astronomically steep segments
    cfg, region, costs, mask = bench_instance
    floored = fs.FeasibleRegion(region.total, np.where(mask, 0.05, region.lower), region.upper)
    rng = np.random.default_rng(8)
    values = []
    for _ in range(10):
        r0 = random_feasible_point(floored, rng)
        r, trace = fs.solve_inner(r0, costs, floored, cfg.solver)
        assert trace.converged
        values.append(costs.values(r).max())
    assert max(values) - min(values) <= 1e-4


def test_solver_beats_grid_oracle_on_random_affine():
    rng = np.random.default_rng(11)
    cfg = fs.SolverConfig()
    for n in (2, 3):
        for _ in range(5):
            intercepts = rng.uniform(1.5, 6.0, n)
            slopes = rng.uniform(0.3, 1.5, n)
            costs = fs.AffineCostModel(intercepts, slopes)
            total = rng.uniform(0.5, 0.9) * n
            region = fs.FeasibleRegion(total, np.zeros(n), np.ones(n))
            r, trace = fs.solve_maxmin(costs, region, cfg, [False] * n)
            assert trace.converged
            best = grid_maxmin_value(costs, region, resolution=1e-3)
            assert costs.values(r).max() <= best + 1e-2


def test_neighborhood_bound_at_termination(example1):
    # ||r_tilde - r*|| <= (c / (1 - c)) * eps_r with c = 1 + eps^2 b^2 - 2 eps a
    # at the terminal step size; measured against the optimal face
    costs, region = example1
    cfg = fs.SolverConfig()
    r, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, cfg)
    assert trace.converged
    eps_T = trace.step_sizes[-1]
    alpha = beta = 1.0
    c = 1.0 + eps_T**2 * beta**2 - 2.0 * eps_T * alpha
    assert 0.0 < c < 1.0
    bound = c / (1.0 - c) * cfg.eps_r
    face = fs.FeasibleRegion(0.5, np.zeros(2), np.ones(2))
    tail = fs.project_feasible(r[1:], face)
    face_distance = np.sqrt((r[0] - 1.0) ** 2 + np.sum((r[1:] - tail) ** 2))
    assert face_distance <= bound


def test_trace_shape_and_cost_records(example1):
    costs, region = example1
    r, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, fs.SolverConfig())
    assert trace.rates.shape == trace.costs.shape == (len(trace), region.n)
    assert np.isnan(trace.residuals[0])
    np.testing.assert_allclose(trace.costs[-1], costs.values(r))
    # step sizes follow eps <- 1/(1/eps + 1) from eps0
    expect = 0.1
    for eps in trace.step_sizes[1:]:
        assert eps == pytest.approx(expect)
        expect = 1.0 / (1.0 / expect + 1.0)


def test_trace_memory_follows_the_iterations_run():
    # one table of 8-byte values, grown a row per iteration: no blocks copied into it at the end
    rng = np.random.default_rng(3)
    n = 1000
    costs = fs.AffineCostModel(rng.uniform(2.0, 4.0, n), rng.uniform(0.5, 2.0, n))
    region = fs.FeasibleRegion(n / 4, np.zeros(n), np.ones(n))
    cfg = fs.SolverConfig(eps_r=1e-300, max_inner_iters=300)
    tracemalloc.start()
    try:
        _, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = len(trace) * (2 + 2 * n) * 8
    assert len(trace) == 301
    assert peak < 1.3 * table_bytes


class _Float32Costs(fs.AffineCostModel):
    """Affine costs returned as float32."""

    def values(self, rates):
        return super().values(rates).astype(np.float32)


def test_float32_costs_are_recorded_as_float64(example1):
    costs = _Float32Costs([4.0, 1.5, 1.5], [1.0, 1.0, 1.0])
    region = example1[1]
    r, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, fs.SolverConfig())
    assert trace.converged
    assert trace.costs.dtype == np.float64 and trace.costs.shape == (len(trace), region.n)
    for k in range(len(trace)):
        assert trace.costs[k].tobytes() == costs.values(trace.rates[k]).astype(float).tobytes(), k
    np.testing.assert_allclose(r, [1.0, 0.25, 0.25], atol=1e-4)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        fs.SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        fs.SolverConfig(eps0=0.0)
    with pytest.raises(ValueError):
        fs.SolverConfig(eps_r=-1e-6)


def assert_weighted_projection_solves_its_multiplier(x, region, weights):
    """``_projection(x, weights, region)`` lies in the region and is ``clip(x - weights * lam)`` for one ``lam``
    that meets the budget, ``lam = 0`` where clipping fits it: its optimality conditions, checked apart from
    the kink search."""
    point = fs.allocation._projection(x, weights, region)
    assert region.contains(point, tol=1e-9)
    lb, ub = region.lower, region.upper
    if x.clip(lb, ub).sum() <= region.total:
        assert point.tobytes() == x.clip(lb, ub).tobytes()
        return
    assert point.sum() == pytest.approx(region.total, rel=1e-12, abs=1e-12)
    shift = (x - point) / weights  # lam on free coordinates, at least lam at upper bounds, at most it at lower
    tol = 1e-12 * (np.abs(x).max() + np.abs(ub).max() + 1.0) / weights
    free = (point > lb) & (point < ub)
    if free.any():
        lam = np.median(shift[free])
        assert (np.abs(shift[free] - lam) <= tol[free]).all()
        assert (shift[point >= ub] >= lam - tol[point >= ub]).all()
        assert (shift[point <= lb] <= lam + tol[point <= lb]).all()


def test_weighted_projection_solves_its_multiplier_on_random_points():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        lower = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 0.2, n))
        upper = lower + np.where(rng.random(n) < 0.3, 1.0, rng.uniform(1e-3, 1.0, n))
        region = fs.FeasibleRegion(lower.sum() + rng.uniform(1e-3, 1.0) * (upper - lower).sum(), lower, upper)
        x = rng.normal(0.0, float(rng.choice([0.1, 1.0, 1e3])), n) + lower
        # weights 1 / |J'| of curves as flat as 1e-2 and as steep as 1e6
        weights = 10.0 ** rng.uniform(-6.0, 2.0, n)
        assert_weighted_projection_solves_its_multiplier(x, region, weights)
        # equal weights that are powers of 2 scale the multiplier exactly: project_feasible's point, bit for bit
        for power in (1.0, 2.0**-20, 2.0**30):
            weighted = fs.allocation._projection(x, np.full(n, power), region)
            assert weighted.tobytes() == fs.project_feasible(x, region).tobytes()


@pytest.mark.parametrize("x, lower, upper, total", [
    # the root lies on the kinks x - ub of agents 0 and 1 and x - lb of agents 2 and 3, all at 0.5
    ([1.5, 1.5, 0.5, 0.5], [0.0] * 4, [1.0] * 4, 2.0),
    # four agents share both kinks; the root lies between them, with all four free
    ([1.0, 1.0, 1.0, 1.0], [0.0] * 4, [0.5] * 4, 1.0),
    # the root lies on the lower kink of agent 0; agents 1 and 2 share theirs
    ([0.5, 0.9, 0.9], [0.0] * 3, [1.0] * 3, 0.8),
    # rounding merged the kinks around the root: no coordinate is free, the segment's right end is returned
    ([2.0**60, 2.0**60 + 2.0**9], [0.0, 0.0], [1.0, 1.0], 1.0),
    # ties between an upper kink of one agent and a lower kink of another, with a free agent left over
    ([1.25, 0.25, 0.6], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.35),
])
def test_weighted_projection_at_tied_kinks(x, lower, upper, total):
    x, region = np.array(x), fs.FeasibleRegion(total, np.array(lower), np.array(upper))
    expected = fs.project_feasible(x, region)
    for power in (1.0, 0.5, 2.0**-40, 2.0**40):  # the kinks tie as they do without weights
        assert fs.allocation._projection(x, np.full(x.size, power), region).tobytes() == expected.tobytes()
    # unequal weights: the point still solves its multiplier where no rounding merges the kinks
    if abs(x).max() < 2.0**50:
        assert_weighted_projection_solves_its_multiplier(x, region, np.arange(1.0, x.size + 1.0))
