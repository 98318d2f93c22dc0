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
    assert trace.outer_events == []
    assert r[0] == pytest.approx(1.0, abs=1e-6)


def test_solve_maxmin_shrinks_pinned_unstable_floor():
    # agent 2 wants ~0.06 at the fair point but starts floored at eta=0.2,
    # so the first pass pins it and the floor must shrink
    p1 = fs.ProcessModel(A=[[1.4]], Q=[[1.0]])
    p2 = fs.ProcessModel(A=[[1.05]], Q=[[0.1]])
    costs = fs.CurveCostModel.from_processes([p1, p2], unstable_floor=0.2)
    region = fs.FeasibleRegion(0.5, np.zeros(2), np.ones(2))
    cfg = fs.SolverConfig(eps0=0.05, eta=0.2, eps_r=1e-8, max_outer_iters=20)
    r, trace = fs.solve_maxmin(costs, region, cfg, [True, True])
    assert trace.converged
    assert len(trace.outer_events) >= 1
    _, shrunk_lower = trace.outer_events[0]
    np.testing.assert_allclose(shrunk_lower, [0.04, 0.04], atol=1e-12)
    assert r[1] > shrunk_lower[1] + 1e-9
    np.testing.assert_array_equal(trace.lower, trace.outer_events[-1][1])
    # the solve worked on its own floored models: the caller's keeps its floors and still raises below them
    assert [c.domain_floor for c in costs.curves] == [0.2, 0.2]
    with pytest.raises(fs.CostDomainError, match="below the curve's domain floor 0.2"):
        costs.values(r)
    assert costs.with_floor(trace.lower).values(r).tolist() == trace.costs[-1].tolist()
    # rerunning with a tiny floor lands at the same point
    costs2 = fs.CurveCostModel.from_processes([p1, p2], unstable_floor=1e-3)
    cfg2 = fs.SolverConfig(eps0=0.05, eta=1e-3, eps_r=1e-8, max_outer_iters=20)
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


def test_five_process_instance_needs_single_outer_pass(bench_instance):
    # the shipped floors (0.001) are low enough that no unstable rate ends
    # pinned, so the outer loop finishes on its first pass
    cfg, region, costs, mask = bench_instance
    rates, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
    assert trace.converged
    assert trace.outer_events == []


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_scalar_fleet_reaches_the_water_filling_level(seed):
    # 40 agents, about a third unstable: beyond the grid oracle's reach
    rng = np.random.default_rng(seed)
    processes = [fs.ProcessModel(A=[[rng.uniform(0.2, 1.15) * rng.choice([-1, 1])]], Q=[[rng.uniform(0.5, 4.0)]])
                 for _ in range(40)]
    cfg = fs.SolverConfig(eps0=0.05, eta=1e-3, max_inner_iters=200_000, max_outer_iters=25)
    for total in (0.8, 4.0, 12.0, 24.0):
        rates, costs, level = solve_to_level(processes, total, cfg)
        assert costs.values(rates).max() == pytest.approx(level, rel=1e-2)


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
