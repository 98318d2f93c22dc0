"""Command line interface: solve, simulate, distributed, validate-config.

All emitted CSV files start with a versioned schema comment line and are
byte-identical across reruns of the same config. ``solve`` writes at most
50,000 float cells into each of ``allocation_trace.csv`` and
``cost_trace.csv``: a longer history keeps evenly spaced rows, always the
first and the last, labelled with their true iterations, while
``error_decay.csv`` keeps every row and ``SolverTrace`` every value.
``dual_trace.csv`` keeps at most 2000 rounds, the last among them. Exit
codes: 0 success, 2 configuration error or an output that cannot be written,
3 solver did not converge (traces still emitted).
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import allocation as alloc
from . import distributed as dist
from .config import ConfigError, RunConfig, load_config
from .sensors import CostDomainError, CurveCostModel, NumericalError
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


# ``solve`` writes at most this many float cells per trace table. Formatting one costs ~1 us (2-core
# x86 box, Python 3.11), which made the trace tables most of a 1000-sensor fleet's ``solve``; the
# full history stays in ``SolverTrace``.
_TRACE_CELLS = 50_000


def _kept_rows(rows: int, max_rows: int) -> np.ndarray:
    """Indices of at most ``max_rows`` (>= 2) of ``rows`` rows: all of them if they fit, else every
    ``ceil((rows - 1) / (max_rows - 1))``-th row from the first, and always the last."""
    if rows <= max_rows:
        return np.arange(rows)
    kept = np.arange(0, rows, -(-(rows - 1) // (max_rows - 1)))
    return kept if kept[-1] == rows - 1 else np.append(kept, rows - 1)


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, bit for bit, each line after the first indented by
    ``indent`` more. ``indent=2`` runs the pure-Python encoder, ~1.2 us a float against the C encoder's ~0.6 us
    (2-core x86 box, Python 3.11), so a scalar, or a list of scalars, goes through the C encoder in one call,
    a list's item separator a newline and the indent; an object with string keys, or a list holding
    containers, is laid out here, item by item."""
    if type(value) in _SCALARS:
        return json.dumps(value)  # the C encoder: one line, as with indent=2
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, list) and value:
        if set(map(type, value)) <= _SCALARS:  # the "[" and "]" of the C encoder's text are laid out here
            body = json.JSONEncoder(separators=(sep, ": ")).encode(value)[1:-1]
        else:
            body = sep.join(_json_text(v, inner) for v in value)
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        body = sep.join(f"{encode_basestring_ascii(key)}: {_json_text(v, inner)}" for key, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{indent}}}"
    # a tuple, an empty container, an object with other keys or a subclass: no string holds a raw newline
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _write_json(path: Path, payload) -> None:
    """``payload`` as ``json.dumps(payload, indent=2, sort_keys=True)`` writes it, and a newline."""
    path.write_text(_json_text(payload) + "\n")


def _region_and_costs(cfg: RunConfig):
    """The budget region, the processes' cost model and their instability mask.

    Unstable curves are built down to rate 1 only: the solve extends each one as far as it reads
    it, which is often far above ``solver.eta``, continuing the row where it stopped.
    """
    n = len(cfg.processes)
    region = alloc.FeasibleRegion(cfg.total_rate, np.zeros(n), np.ones(n))
    costs = CurveCostModel.from_processes(cfg.processes, unstable_floor=1.0)
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


def _write_solve_report(out_dir: Path, rates, trace, region, mask) -> None:
    """Every output of ``solve``. The two trace tables keep at most ``_TRACE_CELLS`` cells each, in
    whole rows labelled with their iterations; ``error_decay.csv`` keeps every row."""
    n, costs = region.n, trace.model
    kept = _kept_rows(len(trace), max(2, _TRACE_CELLS // n))
    for name, table, column in (("allocation_trace", trace.rates, "r"), ("cost_trace", trace.costs, "J")):
        header = ["iteration"] + [f"{column}{i + 1}" for i in range(n)]
        _write_csv(out_dir / f"{name}.csv", name, header, table[kept], trace.iterations[kept])
    # np.linalg.norm(trace.rates - rates, axis=1), bit for bit, with one temporary instead of three
    errors = trace.rates - rates
    errors *= errors
    errors = np.sqrt(np.add.reduce(errors, axis=1))
    _write_csv(out_dir / "error_decay.csv", "error_decay", ["iteration", "error"], errors[:, None], trace.iterations)

    # widen the cost-equality window to what the solve actually resolved
    active_tol = max(1e-6, 100.0 * trace.final_residual) if trace.converged else 1e-3
    report = alloc.check_equilibrium(rates, costs, region, active_tol=active_tol)
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
    except _SETUP_ERRORS as exc:
        print(f"cannot solve this configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        _write_solve_report(out_dir, rates, trace, region, mask)
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
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"cannot read allocation file {allocation_file}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if rates.size != len(cfg.processes):
        print(f"allocation lists {rates.size} rates but config has {len(cfg.processes)} processes", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    horizon = cfg.simulation.horizon
    use_seed = cfg.simulation.seed if seed is None else seed
    try:
        # each curve is built only down to its own rate, the one point it is read at; solver.eta plays no part
        results = simulate_allocation(cfg.processes, rates, horizon, use_seed)
    except CostDomainError as exc:
        print(f"allocation is outside the supported rate domain: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalError as exc:  # an overflow or a step budget: the process may be at fault, not the rates
        print(f"cannot simulate this configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    empirical_errors = np.array([res.empirical_avg_error for res in results])
    analytic = np.array([res.analytical_error for res in results])
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
    except dist.DivergenceError as exc:
        print(f"distributed solve failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except _SETUP_ERRORS as exc:  # the centralized solve extends the curves, which may overflow
        print(f"cannot set up this configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    dual, trace = report.dual_state, report.distributed_trace
    kept = _kept_rows(len(trace), 2000)
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairsched", description="Max-min fair sensor rate allocation")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(seed=None, max_iters=None)  # for the commands that do not take these flags

    for name, help_text in (
        ("solve", "compute the max-min fair allocation and emit traces"),
        ("simulate", "validate an allocation by Monte Carlo simulation"),
        ("distributed", "run the graph-based solver and compare with the centralized one"),
        ("validate-config", "parse and validate a config, then exit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir or 'out')")
        if name == "simulate":
            p.add_argument("--allocation", required=True, help="allocation JSON produced by 'solve'")
            p.add_argument("--seed", type=int, help="override the simulation seed")
        if name in ("solve", "distributed"):
            p.add_argument("--max-iters", type=int, help="override iteration budgets")
    return parser


# built once per process: a build takes ~0.7 ms, some 14 times as long as parsing a command line with it
# (2-core x86_64 VM, Python 3.11)
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        _PARSER.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.max_iters is not None and args.max_iters < 1:
        _PARSER.error(f"--max-iters must be at least 1, got {args.max_iters}")
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
