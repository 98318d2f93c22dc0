"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import fairsched as fs
from helpers import grid_maxmin_value, log_linear_fit, random_feasible_cloud, random_feasible_point


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def solve_fixture(bench_instance):
    cfg, region, costs, mask = bench_instance
    rates, trace = fs.solve_maxmin(costs, region, cfg.solver, mask)
    return cfg, region, costs, mask, rates, trace


def test_criterion_01_five_process_reproduction(bench_instance):
    t0 = time.perf_counter()
    cfg, region, costs, mask, rates, trace = solve_fixture(bench_instance)
    elapsed = time.perf_counter() - t0
    values = costs.values(rates)
    spread = (values[:4].max() - values[:4].min()) / values[:4].min()
    ok = (
        trace.converged
        and spread <= 0.01
        and rates[4] <= 0.01
        and int(np.argmax(rates)) == 3
        and elapsed <= 10.0
    )
    report(1, ok, f"status={trace.status} cost_spread={spread:.2e} r5={rates[4]:.4f} "
                  f"argmax={int(np.argmax(rates))} time={elapsed:.2f}s")


def test_criterion_02_linear_convergence(bench_instance):
    *_, rates, trace = solve_fixture(bench_instance)
    errors = np.linalg.norm(trace.rates - rates, axis=1)
    total = len(errors) - 1
    start = int(math.ceil(0.2 * total))
    ts = [t for t, e in zip(trace.iterations[start:], errors[start:]) if e > 0]
    es = [e for e in errors[start:] if e > 0]
    slope, r2 = log_linear_fit(ts, es)
    ok = slope < 0 and r2 >= 0.9
    report(2, ok, f"slope={slope:.3f} R2={r2:.4f} over {len(ts)} of {total} iterations")


def test_criterion_03_affine_face_instance(example1):
    costs, region = example1
    cfg = fs.SolverConfig()
    rates, trace = fs.solve_maxmin(costs, region, cfg, [False] * 3)
    eq = fs.check_equilibrium(rates, costs, region)
    ok = (
        trace.converged
        and abs(rates[0] - 1.0) <= 1e-3
        and rates[1] + rates[2] <= 0.5 + 1e-3
        and abs(eq.game_value - 3.0) <= 1e-3
        and eq.active_set == (0,)
    )
    report(3, ok, f"r={np.round(rates, 6).tolist()} value={eq.game_value:.6f} active={eq.active_set}")


def test_criterion_04_brute_force_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240202)
    cfg = fs.SolverConfig()
    worst_excess = -np.inf
    for n, count in ((2, 20), (3, 10)):
        for _ in range(count):
            intercepts = rng.uniform(1.5, 8.0, n)
            slopes = rng.uniform(0.2, 2.0, n)
            # keep costs positive over the whole box
            intercepts = np.maximum(intercepts, slopes + 0.5)
            costs = fs.AffineCostModel(intercepts, slopes)
            total = rng.uniform(0.4, 0.95) * n
            region = fs.FeasibleRegion(total, np.zeros(n), np.ones(n))
            rates, trace = fs.solve_maxmin(costs, region, cfg, [False] * n)
            assert trace.converged
            excess = costs.values(rates).max() - grid_maxmin_value(costs, region, 1e-3)
            worst_excess = max(worst_excess, excess)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-2 and elapsed <= 30.0
    report(4, ok, f"worst excess over grid optimum={worst_excess:.2e} time={elapsed:.1f}s")


def test_criterion_05_cost_curve_oracle(bench_config):
    t0 = time.perf_counter()
    rates = (1.0, 0.45, 0.3, 0.22, 0.15)  # thresholds 0,1,2,3,5
    worst_err, worst_rate = 0.0, 0.0
    for i, p in enumerate(bench_config.processes):
        floor = 0.0 if fs.classify_stability(p.A) else 0.1
        curve = fs.build_cost_curve(p, floor)
        for r in rates:
            res = fs.simulate_policy(p, fs.threshold_from_rate(r), horizon=10**6, seed=7919 * (i + 1) + int(1000 * r))
            analytic = fs.cost_eval(curve, r)
            worst_err = max(worst_err, abs(res.empirical_avg_error - analytic) / analytic)
            worst_rate = max(worst_rate, abs(res.empirical_rate - r))
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 0.01 and worst_rate <= 0.005 and elapsed <= 60.0
    report(5, ok, f"worst relative error={worst_err:.2e} worst rate gap={worst_rate:.2e} time={elapsed:.1f}s")


def test_criterion_06_closed_form_steady_states():
    worst = 0.0
    for q in (0.25, 1.0, 2.5, 7.0):
        static = fs.ProcessModel(A=[[0.0]], Q=[[q]])
        worst = max(worst, abs(fs.steady_state_filter_cov(static)[0, 0] - q / (q + 1.0)))
        walk = fs.ProcessModel(A=[[1.0]], Q=[[q]])
        pred = (q + math.sqrt(q * q + 4.0 * q)) / 2.0
        worst = max(worst, abs(fs.steady_state_filter_cov(walk)[0, 0] - pred / (pred + 1.0)))
    for a, q in ((0.5, 1.0), (0.9, 2.0), (-0.6, 0.7)):
        lyap = fs.ProcessModel(A=[[a]], Q=[[q]])
        worst = max(worst, abs(fs.no_comm_limit(lyap) - q / (1.0 - a * a)))
    ok = worst <= 1e-9
    report(6, ok, f"worst closed-form deviation={worst:.2e}")


def test_criterion_07_property_suites(bench_config):
    rng = np.random.default_rng(5)
    checks = []

    # projection idempotence over 1000 random cases, and the variational
    # inequality against 100 feasible points each
    worst_idem, worst_vi = 0.0, -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        lower = rng.uniform(0.0, 0.2, n)
        upper = lower + rng.uniform(0.2, 1.0, n)
        total = lower.sum() + rng.uniform(0.05, 1.0) * (upper.sum() - lower.sum())
        region = fs.FeasibleRegion(total, lower, upper)
        x = rng.uniform(-1.5, 2.5, n)
        p = fs.project_feasible(x, region)
        worst_idem = max(worst_idem, float(np.max(np.abs(fs.project_feasible(p, region) - p))))
        cloud = random_feasible_cloud(region, rng, 100)
        worst_vi = max(worst_vi, float(((cloud - p) @ (x - p)).max()))
    checks.append(("idempotence", worst_idem <= 1e-12))
    checks.append(("variational", worst_vi <= 1e-9))

    # cost-curve continuity, monotonicity, convexity, trace monotonicity
    cont_ok = mono_ok = conv_ok = trace_ok = True
    for p in bench_config.processes:
        floor = 0.0 if fs.classify_stability(p.A) else 0.05
        curve = fs.build_cost_curve(p, floor)
        trace_ok &= bool(np.all(np.diff(curve.traces) >= -1e-12))
        for k in range(1, 8):
            bp = 1.0 / (k + 1.0)
            left_anchor = curve.traces[k + 1] if k + 1 < curve.traces.size else curve.stable_limit
            left = left_anchor + bp * curve.segment_slope(k)
            right = curve.traces[k] + bp * curve.segment_slope(k - 1)
            cont_ok &= abs(left - right) <= 1e-12 * max(abs(left), 1.0)
        rs = np.linspace(0.05, 1.0, 67)
        vals = np.array([fs.cost_eval(curve, r) for r in rs])
        mono_ok &= bool(np.all(np.diff(vals) < 0))
        for i in range(0, len(rs) - 2, 2):
            mid = fs.cost_eval(curve, (rs[i] + rs[i + 2]) / 2.0)
            conv_ok &= (vals[i] + vals[i + 2]) / 2.0 >= mid - 1e-10
    checks.extend([("continuity", cont_ok), ("monotone", mono_ok), ("convex", conv_ok), ("traces", trace_ok)])

    # contraction of the step map under declared slope bounds
    costs = fs.AffineCostModel([5.0, 4.0, 3.0], [0.8, 1.5, 1.1])
    region = fs.FeasibleRegion(1.8, np.zeros(3), np.ones(3))
    alphas, betas = costs.slope_bounds(region.lower)
    alpha, beta = alphas.min(), betas.max()
    contract_ok = True
    for frac in (0.15, 0.6, 0.95):
        eps = frac * 2.0 * alpha / beta**2
        factor = math.sqrt(1.0 + eps**2 * beta**2 - 2.0 * eps * alpha)
        for _ in range(60):
            a = random_feasible_point(region, rng)
            b = random_feasible_point(region, rng)
            lhs = np.linalg.norm(fs.step_map(a, eps, costs, region) - fs.step_map(b, eps, costs, region))
            contract_ok &= lhs <= factor * np.linalg.norm(a - b) + 1e-12
    checks.append(("contraction", contract_ok))

    ok = all(flag for _, flag in checks)
    report(7, ok, " ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_criterion_08_equal_performance_all_unstable():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        a_vals = rng.uniform(1.1, 1.3, 3)
        q_vals = rng.uniform(0.5, 2.0, 3)
        total = rng.uniform(0.9, 1.2)
        ps = [fs.ProcessModel(A=[[a]], Q=[[q]]) for a, q in zip(a_vals, q_vals)]
        costs = fs.CurveCostModel.from_processes(ps, unstable_floor=1e-3)
        region = fs.FeasibleRegion(total, np.zeros(3), np.ones(3))
        cfg = fs.SolverConfig(eps0=0.05, eta=1e-3, eps_r=1e-7, max_inner_iters=100_000)
        rates, trace = fs.solve_maxmin(costs, region, cfg, [True] * 3)
        assert trace.converged
        values = costs.values(rates)
        worst = max(worst, (values.max() - values.min()) / values.min())
    ok = worst <= 0.01
    report(8, ok, f"worst relative cost spread={worst:.2e} across 10 all-unstable instances")


def test_criterion_09_distributed_matches_centralized(bench_instance):
    t0 = time.perf_counter()
    cfg, region, costs, mask = bench_instance
    settings = cfg.distributed
    graph = fs.CommGraph.from_adjacency(settings.adjacency)
    result = fs.compare_with_centralized(
        costs, region, graph,
        unstable_mask=mask,
        solver_cfg=cfg.solver,
        alpha=settings.alpha,
        beta=settings.beta,
        max_iters=settings.max_iters,
        eps_r=settings.eps_r,
    )
    elapsed = time.perf_counter() - t0
    ok = (
        result.distributed_status == fs.CONVERGED
        and result.linf_gap <= 1e-2
        and result.lambda_spread <= 1e-4
        and elapsed <= 60.0
    )
    report(9, ok, f"linf_gap={result.linf_gap:.2e} lambda_spread={result.lambda_spread:.2e} "
                  f"time={elapsed:.1f}s status={result.distributed_status}")


def test_criterion_10_termination_neighborhood(example1):
    costs, region = example1
    cfg = fs.SolverConfig()
    rates, trace = fs.solve_inner(fs.initial_allocation(region), costs, region, cfg)
    eps_T = float(trace.step_sizes[-1])
    alpha = beta = 1.0  # the instance's slopes
    c = 1.0 + eps_T**2 * beta**2 - 2.0 * eps_T * alpha
    bound = c / (1.0 - c) * cfg.eps_r
    face = fs.FeasibleRegion(0.5, np.zeros(2), np.ones(2))
    tail = fs.project_feasible(rates[1:], face)
    distance = math.sqrt((rates[0] - 1.0) ** 2 + float(np.sum((rates[1:] - tail) ** 2)))
    ok = trace.converged and 0.0 < c < 1.0 and distance <= bound
    report(10, ok, f"face distance={distance:.2e} bound={bound:.2e} c={c:.6f}")
