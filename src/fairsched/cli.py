"""Command line interface: solve, simulate, distributed, validate-config.

All emitted CSV files start with a versioned schema comment line and are
byte-identical across reruns of the same config. Exit codes: 0 success,
2 configuration error or an output that cannot be written, 3 solver did not
converge (traces still emitted).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import allocation as alloc
from . import distributed as dist
from .config import ConfigError, RunConfig, load_config
from .sensors import CostDomainError, CurveCostModel, NumericalError, build_cost_curves, stable_mask
from .simulate import simulate_allocation

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_NOT_CONVERGED = 3


def _write_csv(path: Path, schema: str, header: list[str], values, labels=None) -> None:
    """Stream a CSV: the schema line, the header, then one line per row of ``values``.

    Floats print in their shortest exact form (``float.__repr__``), so an
    integer-valued float prints as ``1.0``. ``labels``, if given, is an
    integer first column printed as ``5``. Rows become Python floats one at
    a time: the whole table at once would take ~24 bytes a cell more.
    """
    fmt = float.__repr__
    rows = np.asarray(values, dtype=float)
    heads = [""] * len(rows) if labels is None else [f"{label}," for label in np.asarray(labels).tolist()]
    with path.open("w") as f:
        f.write(f"# fairsched {schema} v1\n{','.join(header)}\n")
        for head, row in zip(heads, rows):
            f.write(head + ",".join(map(fmt, row.tolist())) + "\n")


# A table written by a forked child spares the parent ~1 us a cell of formatting (1000-cell rows,
# 2-core x86 box, Python 3.11) and costs it the fork, copy-on-write faults and the reaping: ~2 ms
# for a child of the ~50 MB fleet process that exits at once. Written by a child and awaited at
# once, a 5,000-cell table took 7.5 ms against 4.3 ms serially, and the two broke even near 10^5
# cells; below this size the overhead, and the core the child takes, cost more than it spares.
_FORK_MIN_CELLS = 50_000


@contextlib.contextmanager
def _csv_written_aside(path: Path, schema: str, header: list[str], values, labels=None):
    """:func:`_write_csv` of this table, by a forked child while the ``with`` body runs if it is large.

    The fork is safe because the child does nothing but format floats and write its own file, then
    leaves by ``os._exit``: it runs no ``atexit`` handler, flushes no buffer inherited from the
    parent, and calls neither BLAS nor any lock the parent's threads may hold. (On CPython >= 3.12,
    forking while BLAS threads are alive emits a ``DeprecationWarning`` all the same.) The parent
    reaps the child in every case, also when the body raises. If the child exits non-zero or dies
    by a signal, the parent writes the file itself and raises whatever a serial write raises. Small
    tables, and platforms without ``os.fork``, are written serially before the body.
    """
    if not hasattr(os, "fork") or np.size(values) < _FORK_MIN_CELLS:
        _write_csv(path, schema, header, values, labels)
        yield
        return
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            _write_csv(path, schema, header, values, labels)
            status = 0
        finally:
            os._exit(status)
    try:
        yield
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        _write_csv(path, schema, header, values, labels)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _region_and_costs(cfg: RunConfig):
    n = len(cfg.processes)
    region = alloc.FeasibleRegion(cfg.total_rate, np.zeros(n), np.ones(n))
    costs = CurveCostModel.from_processes(cfg.processes, unstable_floor=cfg.solver.eta)
    return region, costs, ~costs.stable


_SETUP_ERRORS = (alloc.InfeasibleRegionError, CostDomainError, NumericalError)


def _make_out_dir(out_dir: Path) -> bool:
    """Create ``out_dir`` if missing; False, after one line on stderr, if a file is in the way."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or at one of its parents
        print(f"cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return False
    return True


def _cannot_write(exc: OSError, out_dir: Path) -> int:
    """One line on stderr naming the output that could not be written; the exit code."""
    print(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


def _write_solve_report(out_dir: Path, rates, trace, costs, region, mask) -> None:
    """Every output of ``solve`` except ``allocation_trace.csv``."""
    n = region.n
    _write_csv(
        out_dir / "cost_trace.csv",
        "cost_trace",
        ["iteration"] + [f"J{i + 1}" for i in range(n)],
        trace.costs,
        trace.iterations,
    )
    # np.linalg.norm(trace.rates - rates, axis=1), bit for bit, with one temporary instead of three
    errors = trace.rates - rates
    errors *= errors
    errors = np.sqrt(np.add.reduce(errors, axis=1))
    _write_csv(out_dir / "error_decay.csv", "error_decay", ["iteration", "error"], errors[:, None], trace.iterations)

    # widen the cost-equality window to what the solve actually resolved
    active_tol = max(1e-6, 100.0 * trace.final_residual) if trace.converged else 1e-3
    report = alloc.check_equilibrium(
        rates, costs, region, eps_probe=trace.step_sizes[-1], active_tol=active_tol
    )
    try:
        alphas, betas = costs.slope_bounds(trace.lower)
        bounds = {"alpha": alphas.tolist(), "beta": betas.tolist()}
    except CostDomainError as exc:
        bounds = {"error": str(exc)}

    _write_json(
        out_dir / "summary.json",
        {
            "status": trace.status,
            "iterations": int(trace.iterations[-1]),
            "allocation": rates.tolist(),
            "costs": costs.values(rates).tolist(),
            "game_value": report.game_value,
            "active_set": list(report.active_set),
            "recovered_weights": report.recovered_weights.tolist(),
            "fixed_point_residual": report.fixed_point_residual,
            "active_set_lemma_ok": report.active_set_lemma_ok,
            "equal_costs_ok": report.equal_costs_ok,
            "final_residual": trace.final_residual,
            "final_step_size": float(trace.step_sizes[-1]),
            "lipschitz_bounds": bounds,
            "unstable": mask.tolist(),
        },
    )
    _write_json(out_dir / "allocation.json", {"rates": rates.tolist()})


def run_solve(cfg: RunConfig, out_dir: Path) -> int:
    if not _make_out_dir(out_dir):
        return EXIT_CONFIG_ERROR
    try:
        region, costs, mask = _region_and_costs(cfg)
        rates, trace = alloc.solve_maxmin(costs, region, cfg.solver, mask)
        costs = costs.with_floor(trace.lower)
    except _SETUP_ERRORS as exc:
        print(f"cannot solve this configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    n = region.n
    try:
        with _csv_written_aside(
            out_dir / "allocation_trace.csv",
            "allocation_trace",
            ["iteration"] + [f"r{i + 1}" for i in range(n)],
            trace.rates,
            trace.iterations,
        ):
            _write_solve_report(out_dir, rates, trace, costs, region, mask)
    except OSError as exc:
        return _cannot_write(exc, out_dir)
    print(f"status: {trace.status}; allocation written to {out_dir}")
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def run_simulate(cfg: RunConfig, allocation_file: Path, out_dir: Path, seed: int | None = None) -> int:
    if not _make_out_dir(out_dir):
        return EXIT_CONFIG_ERROR
    try:
        payload = json.loads(Path(allocation_file).read_text())
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object with a 'rates' list")
        rates = np.asarray(payload["rates"], dtype=float)
        if rates.ndim != 1:
            raise ValueError("'rates' must be a flat list of numbers")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read allocation file {allocation_file}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if rates.size != len(cfg.processes):
        print(f"allocation lists {rates.size} rates but config has {len(cfg.processes)} processes", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    horizon = cfg.simulation.horizon
    use_seed = cfg.simulation.seed if seed is None else seed
    refused = np.flatnonzero(~stable_mask([p.A for p in cfg.processes]) & (rates == 0))
    if refused.size:
        print(f"refusing to simulate: process {refused[0]} is unstable and was allocated rate 0", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        results = simulate_allocation(cfg.processes, rates, horizon, use_seed)
        # each curve only down to its own rate, the one point it is read at; solver.eta plays no part
        analytic = CurveCostModel(build_cost_curves(cfg.processes, np.minimum(rates, 1.0))).values(rates)
    except (CostDomainError, NumericalError) as exc:
        print(f"allocation is outside the supported rate domain: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    empirical_errors = np.array([res.empirical_avg_error for res in results])
    gaps = np.abs(empirical_errors - analytic) / analytic
    budget_exceeded = bool(rates.sum() > cfg.total_rate + 1e-9)
    try:
        _write_csv(
            out_dir / "simulation_report.csv",
            "simulation_report",
            ["process", "rate", "empirical_rate", "empirical_avg_error", "analytical_error", "relative_gap"],
            np.column_stack([
                np.arange(1, rates.size + 1), rates, [res.empirical_rate for res in results], empirical_errors,
                analytic, gaps,
            ]),
        )
        _write_json(
            out_dir / "simulation_summary.json",
            {
                "horizon": horizon,
                "seed": use_seed,
                "max_relative_gap": max(gaps.tolist()),
                "budget_exceeded": budget_exceeded,
            },
        )
    except OSError as exc:
        return _cannot_write(exc, out_dir)
    if budget_exceeded:
        print(f"warning: allocation sums to {rates.sum():.6g}, above the budget {cfg.total_rate}", file=sys.stderr)
    print(f"simulation report written to {out_dir}")
    return EXIT_OK


def run_distributed(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.distributed is None:
        print("config has no 'distributed' section", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not _make_out_dir(out_dir):
        return EXIT_CONFIG_ERROR
    try:
        region, costs, mask = _region_and_costs(cfg)
    except _SETUP_ERRORS as exc:
        print(f"cannot set up this configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    settings = cfg.distributed
    try:
        graph = dist.CommGraph.from_adjacency(settings.adjacency)
        report = dist.compare_with_centralized(
            costs,
            region,
            graph,
            unstable_mask=mask,
            solver_cfg=cfg.solver,
            alpha=settings.alpha,
            beta=settings.beta,
            max_iters=settings.max_iters,
            eps_r=settings.eps_r,
        )
    except dist.GraphError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalError as exc:
        print(f"distributed solve failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    dual, trace = report.dual_state, report.distributed_trace
    stride = max(1, len(trace) // 2000)
    kept = np.arange(0, len(trace), stride)
    try:
        _write_csv(
            out_dir / "dual_trace.csv",
            "dual_trace",
            ["iteration", "residual", "lambda_spread"],
            np.column_stack([kept, trace.residuals[kept], trace.lambda_spreads[kept]]),
        )
        _write_json(
            out_dir / "comparison.json",
            {
                "rates_centralized": report.rates_centralized.tolist(),
                "rates_distributed": report.rates_distributed.tolist(),
                "linf_gap": report.linf_gap,
                "game_value_gap": report.game_value_gap,
                "lambda_spread": report.lambda_spread,
                "lambdas": dual.lambdas.tolist(),
                "centralized_status": report.centralized_status,
                "distributed_status": report.distributed_status,
            },
        )
    except OSError as exc:
        return _cannot_write(exc, out_dir)
    print(f"distributed comparison written to {out_dir}")
    ok = report.centralized_status == alloc.CONVERGED and report.distributed_status == alloc.CONVERGED
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fairsched", description="Max-min fair sensor rate allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir or 'out')")
        p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
        p.add_argument("--max-iters", type=int, default=None, help="override iteration budgets")

    for name, help_text in (
        ("solve", "compute the max-min fair allocation and emit traces"),
        ("simulate", "validate an allocation by Monte Carlo simulation"),
        ("distributed", "run the graph-based solver and compare with the centralized one"),
        ("validate-config", "parse and validate a config, then exit"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "simulate":
            p.add_argument("--allocation", required=True, help="allocation JSON produced by 'solve'")

    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.max_iters is not None and args.max_iters < 1:
        parser.error(f"--max-iters must be at least 1, got {args.max_iters}")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.max_iters is not None:
        cfg.solver.max_inner_iters = args.max_iters
        if cfg.distributed is not None:
            cfg.distributed.max_iters = args.max_iters
    out_dir = Path(args.out) if args.out else (cfg.output_dir or Path("out"))

    if args.command == "validate-config":
        print(f"{args.config}: ok ({len(cfg.processes)} processes, total rate {cfg.total_rate})")
        return EXIT_OK
    if args.command == "solve":
        return run_solve(cfg, out_dir)
    if args.command == "simulate":
        return run_simulate(cfg, Path(args.allocation), out_dir, seed=args.seed)
    return run_distributed(cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
