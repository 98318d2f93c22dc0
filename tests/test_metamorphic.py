"""Metamorphic invariants of the max-min fair solve: relations between the answers to related instances,
which need no oracle and hold at any size.

The instances are the paper fixture at five budgets and seeded 40-sensor fleets from ``perfbench/fleet.py``
at four budgets. Each is solved as ``fairsched solve`` solves it: curves built down to rate 1 for the
unstable processes, over the box [0, 1] per agent, with the fixture's solver settings.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fairsched as fs

FIXTURE_BUDGETS = (0.2, 0.5, 1.0, 2.0, 4.0)
FLEET_BUDGETS = (4.0, 8.0, 12.0, 20.0)
FLEET_SEEDS = (1, 2, 3, 4, 5)
TOL = 1e-14


def fleet_processes(n: int, seed: int) -> list:
    spec = importlib.util.spec_from_file_location("fleet", Path(__file__).parents[1] / "perfbench" / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleet)
    return [fs.ProcessModel(A=e["A"], Q=e["Q"]) for e in fleet.fleet_config(n, seed, {}, 10)["processes"]]


def solve(processes, total: float, solver: fs.SolverConfig):
    """The rates and costs of the solve of ``processes`` at budget ``total``, as the CLI's ``solve``."""
    costs = fs.CurveCostModel.from_processes(processes, unstable_floor=1.0)
    n = len(processes)
    rates, trace = fs.solve_maxmin(costs, fs.FeasibleRegion(total, np.zeros(n), np.ones(n)), solver, ~costs.stable)
    assert trace.converged
    return rates, trace.model.values(rates)


def scaled(p, factor: float):
    """``p`` with ``Q``, ``R_meas`` and ``Pi0`` scaled by ``factor``: the same filter in other units."""
    R = np.eye(p.C.shape[0]) if p.R_meas is None else p.R_meas
    Pi0 = None if p.Pi0 is None else factor * p.Pi0
    return fs.ProcessModel(A=p.A, Q=factor * p.Q, C=p.C, R_meas=factor * R, Pi0=Pi0)


@pytest.fixture(scope="module")
def cases(bench_config):
    """``(name, processes, budgets)`` for the fixture and each fleet seed."""
    out = [("fixture", list(bench_config.processes), FIXTURE_BUDGETS)]
    out += [(f"fleet seed {seed}", fleet_processes(40, seed), FLEET_BUDGETS) for seed in FLEET_SEEDS]
    return out


@pytest.fixture(scope="module")
def solver(bench_config):
    return bench_config.solver


def test_scaling_the_noise_scales_every_cost_exactly(cases, solver):
    # powers of two scale Q, R_meas and Pi0, and so the filter covariance, without rounding
    for name, ps, budgets in cases:
        four = [scaled(p, 4.0) for p in ps]
        for total in budgets:
            rates, costs = solve(ps, total, solver)
            rates4, costs4 = solve(four, total, solver)
            assert rates4.tobytes() == rates.tobytes(), (name, total)
            assert (costs4 == 4.0 * costs).all(), (name, total)


def test_permuting_the_processes_permutes_the_rates(cases, solver):
    rng = np.random.default_rng(2024)
    for name, ps, budgets in cases:
        order = rng.permutation(len(ps))
        for total in budgets:
            rates, _ = solve(ps, total, solver)
            permuted, _ = solve([ps[i] for i in order], total, solver)
            np.testing.assert_allclose(permuted, rates[order], rtol=0, atol=TOL, err_msg=f"{name}, R = {total}")


def test_two_copies_at_twice_the_budget_split_as_one(cases, solver):
    for name, ps, budgets in cases:
        n = len(ps)
        for total in budgets:
            rates, _ = solve(ps, total, solver)
            doubled, _ = solve(ps + ps, 2.0 * total, solver)
            assert doubled[:n].tobytes() == doubled[n:].tobytes(), (name, total)
            np.testing.assert_allclose(doubled[:n], rates, rtol=0, atol=TOL, err_msg=f"{name}, R = {total}")


def test_game_value_falls_strictly_with_the_budget(cases, solver):
    for name, ps, budgets in cases:
        values = [solve(ps, total, solver)[1].max() for total in budgets]
        assert all(a > b for a, b in zip(values, values[1:])), (name, values)
