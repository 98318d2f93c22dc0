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


def assert_floor_rule(costs, region, trace, start_lower):
    """Each agent whose cost at the start point is below the largest, ``U``, is floored at the rate
    where its cost is ``U`` (or at the region's bound, where its cost stays below ``U``); the
    others keep their start floors. Returns the mask of the agents floored at cost ``U``."""
    start = trace.costs[0]
    level = start.max()
    below = start < level
    np.testing.assert_array_equal(trace.lower[~below], start_lower[~below])
    at_level = below & (trace.lower > region.lower)
    floored = costs.with_floor(trace.lower).values(trace.lower)
    np.testing.assert_allclose(floored[at_level], level, rtol=1e-12)
    assert (floored[below & ~at_level] <= level).all()
    assert (trace.lower <= trace.rates[-1]).all()
    return at_level


def test_solve_maxmin_floors_unstable_agents_at_the_value_bound():
    # agent 2 wants ~0.06 at the fair point but starts floored at eta=0.2; its cost at the start
    # point is below agent 1's, so it is floored where its cost reaches agent 1's, below 0.2
    p1 = fs.ProcessModel(A=[[1.4]], Q=[[1.0]])
    p2 = fs.ProcessModel(A=[[1.05]], Q=[[0.1]])
    costs = fs.CurveCostModel.from_processes([p1, p2], unstable_floor=0.2)
    region = fs.FeasibleRegion(0.5, np.zeros(2), np.ones(2))
    cfg = fs.SolverConfig(eps0=0.05, eta=0.2, eps_r=1e-8)
    r, trace = fs.solve_maxmin(costs, region, cfg, [True, True])
    assert trace.converged
    assert assert_floor_rule(costs, region, trace, np.array([0.2, 0.2])).tolist() == [False, True]
    assert trace.lower[1] < 0.2
    assert r[1] > trace.lower[1] + 1e-9
    # the solve worked on its own floored models: the caller's keeps its floors and still raises below them
    assert [c.domain_floor for c in costs.curves] == [0.2, 0.2]
    with pytest.raises(fs.CostDomainError, match="below the curve's domain floor 0.2"):
        costs.values(r)
    assert costs.with_floor(trace.lower).values(r).tolist() == trace.costs[-1].tolist()
    # rerunning with a tiny floor lands at the same point
    costs2 = fs.CurveCostModel.from_processes([p1, p2], unstable_floor=1e-3)
    cfg2 = fs.SolverConfig(eps0=0.05, eta=1e-3, eps_r=1e-8)
    r2, trace2 = fs.solve_maxmin(costs2, region, cfg2, [True, True])
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
    assert assert_floor_rule(costs, region, trace, start_lower).tolist() == [True, True, True, False, False]


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


def test_fixture_converges_at_every_budget_of_the_sweep(bench_instance):
    # 0.02 to 4.86 in steps of 0.04; under eta-guessed floors 0.22, 0.26 and 0.30 ran to the iteration cap
    cfg, _, costs, mask = bench_instance
    for k in range(122):
        total = round(0.02 + 0.04 * k, 2)
        region = fs.FeasibleRegion(total, np.zeros(5), np.ones(5))
        with time_limit(2, f"solve at budget {total}"):
            rates, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
        assert trace.converged, f"budget {total}: {trace.status}"
        floored = costs.with_floor(trace.lower)
        assert floored.values(rates).max() == pytest.approx(solve_level(floored, region), rel=1e-2), total


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
    assert assert_floor_rule(costs, region, trace, np.array([1e-3, 0.0])).tolist() == [True, False]
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
        floored_at_level += assert_floor_rule(costs, region, trace, np.where(mask, cfg.eta, 0.0)).sum()
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
    rates, trace = fs.solve_maxmin(costs, region, cfg, mask)
    assert trace.converged
    solved = fs.FeasibleRegion(region.total, trace.lower, region.upper)
    wide = trace.step_sizes[1:] * trace.costs[:-1].max(axis=1) > (solved.upper - solved.lower).max()
    returns = np.cumsum(wide[1:] & ~wide[:-1])  # after step t + 2
    latched = np.flatnonzero(returns == fs.allocation._GUARD_RETURNS)[0] + 2  # that return's iteration
    assert (~wide[latched:]).sum() >= 10  # later iterations whose raw step fits the box
    for t in range(latched, len(trace) - 1):  # iteration t + 1, from row t
        step = trace.step_sizes[t + 1] * np.log1p(trace.costs[t])
        np.testing.assert_array_equal(trace.rates[t + 1], fs.project_feasible(trace.rates[t] + step, solved))


class _ReciprocalCosts(fs.CostModel):
    """``J_i(r) = c_i / r``, unbounded at rate 0; its ``floors_at`` is the base class's, no bound."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.size

    def values(self, rates):
        rates = np.asarray(rates, dtype=float)
        if (rates <= 0).any():
            raise fs.CostDomainError("rate 0 is outside the domain")
        return self.c / rates


def test_agent_without_a_value_bound_keeps_its_start_floor():
    # agent 0 costs less than agent 1 at the start point, but the model gives it no bound; at
    # floor 0 the first step would take it to rate 0, where its cost is unbounded
    costs = _ReciprocalCosts([1.0, 9.0])
    region = fs.FeasibleRegion(1.0, np.zeros(2), np.ones(2))
    rates, trace = fs.solve_maxmin(costs, region, fs.SolverConfig(eta=0.05), [True, True])
    assert trace.converged
    assert trace.lower.tolist() == [0.05, 0.05]
    np.testing.assert_allclose(rates, [0.1, 0.9], atol=1e-6)


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
    # criteria 2 and 10 derive their bounds for the raw step r + eps J(r);
    # on the fixture no step reaches the box width 1, so the guard never fires
    cfg, region, costs, mask = bench_instance
    _, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
    assert (trace.step_sizes[:-1] * trace.costs[:-1].max(axis=1)).max() <= 1.0


def test_recover_weights(example1):
    costs, region = example1
    w = fs.recover_weights(np.array([1.0, 0.25, 0.25]), costs)
    np.testing.assert_allclose(w, [1.0, 0.0, 0.0])
    assert abs(w.sum() - 1.0) <= 1e-12

    flat = fs.AffineCostModel([3.0, 3.0, 1.0], [1.0, 1.0, 1.0])
    w = fs.recover_weights(np.zeros(3), flat, tol=1e-6)
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0])

    same = fs.AffineCostModel([2.0, 2.0], [1.0, 1.0])
    np.testing.assert_allclose(fs.recover_weights([0.4, 0.4], same), [0.5, 0.5])


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
    report = fs.check_equilibrium(bumped, costs, region, eps_probe=0.05)
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
    report = fs.check_equilibrium(bumped, costs, region, eps_probe=0.05)
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


def test_solver_config_validation():
    with pytest.raises(ValueError):
        fs.SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        fs.SolverConfig(eps0=0.0)
    with pytest.raises(ValueError):
        fs.SolverConfig(eps_r=-1e-6)
