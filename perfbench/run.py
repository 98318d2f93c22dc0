"""fairsched benchmark: three seeded workloads driven through ``fairsched.cli.main``.

Usage, from the root of a source checkout (the package is imported from
``src/`` there, never from an installed copy):

    python3 perfbench/run.py --workload sec4 --seed 1 --seconds 5 --trace 0

Workloads (the seed reaches the program only through the inputs):

* ``sec4``: the ``paper_sec4`` fixture through ``validate-config``, then
  cycles of ``solve`` and ``simulate --seed <seed>`` before, between and
  after two ``distributed`` runs. Distributed rounds do almost all the work.
* ``fleet``: a fleet of 1000 sensors generated from the seed (``fleet.py``)
  through ``validate-config``, ``solve`` and ``simulate``. Curve building,
  cost evaluation and projection do the work; nothing runs distributed.
* ``budget-sweep``: the fixture's processes at seven budgets, each through
  ``validate-config`` and ``solve`` with a wall-clock deadline per solve.
  A solve that misses it is interrupted, counts as a failed operation and
  counts at the deadline in ``solve_s``.

End-to-end metrics, from untraced rounds:

* ``setup_s``: ``load_config`` plus ``CurveCostModel.from_processes``, the
  set-up a library user pays once per fleet; median of several samples.
* ``solve_s``: wall time of ``solve`` (median of the reruns on ``sec4``; on
  ``budget-sweep`` the sum over budgets).
* ``pipeline_s``: wall time of the workload's whole command sequence, one
  of each command (the median where a command is repeated).
* ``peak_rss_mb``: the process's peak resident memory.

A run repeats rounds until ``--seconds`` have passed (at least one round)
and reports medians over rounds. Every output is checked: exit codes,
convergence, an optimality certificate (``certify.py``), Monte Carlo gaps,
distributed-vs-centralized gaps and byte-identical CSVs across reruns. Each
command and each certificate is one operation; an operation fails when it
exits non-zero, misses its deadline or fails a check, and a failed check
also makes the result incorrect.

With ``--trace 1`` one untraced round is followed by one round under
``tracing.Tracer``; the result holds the per-layer metrics, including the
tracer's overhead relative to the untraced round. The last line of standard
output is the JSON result; the lines before it show every measurement.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("sec4", "fleet", "budget-sweep")

SEC4_DISTRIBUTED_RUNS = 2
SEC4_CYCLES = 4  # set-up, solve and simulate cycles before, between and after the distributed runs
FLEET_SIZE = 1000
FLEET_HORIZON = 100_000
FLEET_MAX_GAP = 0.02  # Monte Carlo relative gap allowed at horizon 1e5
SEC4_MAX_GAP = 0.01  # acceptance criterion 5
SEC4_MAX_LINF_GAP = 1e-2  # acceptance criterion 9
SEC4_MAX_LAMBDA_SPREAD = 1e-4  # acceptance criterion 9
SWEEP_BUDGETS = (0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
SWEEP_DEADLINE_S = 2.0
CERTIFICATE_DELTA = 1e-3
SOLVE_CSVS = ("allocation_trace.csv", "cost_trace.csv", "error_decay.csv")

TIMED_METRICS = ("setup_s", "solve_s", "pipeline_s")  # end-to-end, besides peak_rss_mb


def cap_blas_threads() -> int:
    """Limit BLAS and OpenMP pools to the CPUs this process may use; call before importing numpy."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cpus)
    return cpus


def import_package():
    """Import fairsched from this checkout's ``src/``; exit non-zero if it is absent."""
    src = ROOT / "src"
    if not (src / "fairsched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fairsched sources under {src}")
    sys.path.insert(0, str(src))
    import fairsched

    if Path(fairsched.__file__).resolve().parent != (src / "fairsched").resolve():
        sys.exit(f"perfbench: imported fairsched from {fairsched.__file__}, not from {src}")
    return fairsched


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; like KeyboardInterrupt it bypasses ``except Exception``."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Op:
    """One operation: a CLI command or a certificate."""

    label: str
    rc: int | None = None
    seconds: float = 0.0
    failed: bool = False


class Runner:
    """Runs CLI commands in-process, times them and keeps the operation tally."""

    def __init__(self, work: Path):
        import fairsched.cli
        import fairsched.config
        import fairsched.sensors

        self.cli, self.config, self.sensors = fairsched.cli, fairsched.config, fairsched.sensors
        self.work = work
        self.tracer = None  # set while a traced round runs, so the certificate can stay out of it
        self.ops: list[Op] = []
        self.problems: list[str] = []  # failed checks on produced outputs
        self.misses: list[str] = []  # operations that produced nothing

    def command(self, *argv, deadline: float | None = None) -> Op:
        op = Op(" ".join(str(a).replace(f"{self.work}{os.sep}", "") for a in argv))
        self.ops.append(op)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    if deadline is not None:
                        signal.setitimer(signal.ITIMER_REAL, deadline)
                    op.rc = self.cli.main([str(a) for a in argv])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            pass  # also when the alarm lands just after main returned; op.rc then says it finished
        op.seconds = time.perf_counter() - start
        if op.rc is None:
            op.failed = True
            op.seconds = deadline
            self.misses.append(f"{op.label}: missed its {deadline} s deadline")
        elif op.rc != 0:
            op.failed = True
            self.misses.append(f"{op.label}: exit code {op.rc}: {captured.getvalue().strip()[-300:]}")
        return op

    def check(self, op: Op, ok: bool, message: str) -> bool:
        if not ok:
            op.failed = True
            self.problems.append(f"{op.label}: {message}")
        return ok

    def check_solve(self, op: Op, out: Path) -> bool:
        if self.check(op, op.rc == 0, "exit code is not 0"):
            return self.check(op, _json(out / "summary.json")["status"] == "converged", "solve did not converge")
        return False

    def check_simulation(self, op: Op, out: Path, max_gap: float) -> None:
        if self.check(op, op.rc == 0, "exit code is not 0"):
            summary = _json(out / "simulation_summary.json")
            self.check(op, summary["max_relative_gap"] <= max_gap,
                       f"simulation gap {summary['max_relative_gap']} > {max_gap}")
            self.check(op, not summary["budget_exceeded"], "allocation exceeds the budget")

    def check_identical(self, ops: list[Op], dirs: list[Path], names) -> None:
        """Reruns of one command with one seed must write byte-identical files."""
        if all(op.rc == 0 for op in ops):
            for name in names:
                first = (dirs[0] / name).read_bytes()
                self.check(ops[-1], all((d / name).read_bytes() == first for d in dirs[1:]),
                           f"{name} differs between reruns")

    def certificate(self, costs, cfg, allocation_file: Path):
        """Certify the allocation in ``allocation_file`` against ``cfg``'s processes and budget."""
        import numpy as np
        from certify import certify

        op = Op(f"certify {allocation_file.relative_to(self.work)}")
        self.ops.append(op)
        rates = np.asarray(_json(allocation_file)["rates"], dtype=float)
        unstable = np.array([not self.sensors.classify_stability(p.A) for p in cfg.processes])
        floors = np.where(unstable, np.minimum(cfg.solver.eta, rates), 0.0)
        try:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                result = certify(costs, rates, cfg.total_rate, floors, CERTIFICATE_DELTA)
        except (self.sensors.CostDomainError, self.sensors.NumericalError) as exc:
            self.check(op, False, f"certificate could not evaluate the costs: {exc}")
            return
        self.check(op, result.ok, f"certificate failed: {result.reason}")

    def setup(self, config_path: Path):
        """What a library user pays once per fleet: load the config and build every cost curve."""
        start = time.perf_counter()
        cfg = self.config.load_config(config_path)
        costs = self.sensors.CurveCostModel.from_processes(cfg.processes, unstable_floor=cfg.solver.eta)
        return time.perf_counter() - start, cfg, costs


def _json(path: Path):
    return json.loads(path.read_text())


# -- workloads: each prepares its inputs once and returns a round function ------


def prepare_sec4(runner: Runner, seed: int):
    from fairsched.config import fixture_path

    config = runner.work / "paper_sec4.json"
    config.write_text(fixture_path("paper_sec4").read_text())

    def round_(out: Path) -> dict:
        validate = runner.command("validate-config", "--config", config)
        setups, solve_dirs, solves, sim_dirs, sims = [], [], [], [], []

        def cheap_cycle():
            k = len(solves)
            setups.append(runner.setup(config)[0])
            solve_dirs.append(out / f"solve{k}")
            solves.append(runner.command("solve", "--config", config, "--out", solve_dirs[-1]))
            sim_dirs.append(out / f"simulate{k}")
            allocation = solve_dirs[0] / "allocation.json"
            sims.append(runner.command("simulate", "--config", config, "--allocation", allocation, "--seed", seed,
                                       "--out", sim_dirs[-1]))

        # the cheap commands run before, between and after the two long
        # distributed runs, so their medians do not all come from one stretch
        # of a fast or slow machine
        dist_dirs, dists = [], []
        for k in range(SEC4_DISTRIBUTED_RUNS + 1):
            for _ in range(SEC4_CYCLES):
                cheap_cycle()
            if k < SEC4_DISTRIBUTED_RUNS:
                dist_dirs.append(out / f"distributed{k}")
                dists.append(runner.command("distributed", "--config", config, "--out", dist_dirs[-1]))

        for op, d in zip(dists, dist_dirs):
            if runner.check(op, op.rc == 0, "exit code is not 0"):
                comparison = _json(d / "comparison.json")
                runner.check(op, comparison["centralized_status"] == "converged", "centralized solve did not converge")
                runner.check(op, comparison["distributed_status"] == "converged", "distributed solve did not converge")
                runner.check(op, comparison["linf_gap"] <= SEC4_MAX_LINF_GAP, f"linf_gap {comparison['linf_gap']}")
                runner.check(op, comparison["lambda_spread"] <= SEC4_MAX_LAMBDA_SPREAD,
                             f"lambda_spread {comparison['lambda_spread']}")
        for op, d in zip(solves, solve_dirs):
            runner.check_solve(op, d)
        for op, d in zip(sims, sim_dirs):
            runner.check_simulation(op, d, SEC4_MAX_GAP)
        runner.check_identical(dists, dist_dirs, ["dual_trace.csv"])
        runner.check_identical(solves, solve_dirs, SOLVE_CSVS)
        runner.check_identical(sims, sim_dirs, ["simulation_report.csv"])

        solve_s = statistics.median(op.seconds for op in solves)
        simulate_s = statistics.median(op.seconds for op in sims)
        distributed_s = statistics.median(op.seconds for op in dists)
        return {
            "setup_s": statistics.median(setups),
            "validate_s": validate.seconds,
            "solve_s": solve_s,
            "simulate_s": simulate_s,
            "distributed_s": distributed_s,
            "pipeline_s": validate.seconds + solve_s + simulate_s + distributed_s,
        }

    return round_


def prepare_fleet(runner: Runner, seed: int):
    from fairsched.config import fixture_path
    from fleet import write_fleet

    solver = _json(fixture_path("paper_sec4"))["solver"]
    config = write_fleet(runner.work / "fleet.json", FLEET_SIZE, seed, solver, FLEET_HORIZON)

    def round_(out: Path) -> dict:
        # set-up samples are spread over the round rather than taken back to back
        setups = [runner.setup(config)]
        _, cfg, costs = setups[0]
        validate = runner.command("validate-config", "--config", config)
        solve = runner.command("solve", "--config", config, "--out", out)
        setups.append(runner.setup(config))
        simulate_s = 0.0
        if runner.check_solve(solve, out):
            runner.certificate(costs, cfg, out / "allocation.json")
            sim = runner.command("simulate", "--config", config, "--allocation", out / "allocation.json",
                                 "--seed", seed, "--out", out)
            runner.check_simulation(sim, out, FLEET_MAX_GAP)
            simulate_s = sim.seconds
        setups.append(runner.setup(config))
        return {
            "setup_s": statistics.median(seconds for seconds, _, _ in setups),
            "validate_s": validate.seconds,
            "solve_s": solve.seconds,
            "simulate_s": simulate_s,
            "pipeline_s": validate.seconds + solve.seconds + simulate_s,
        }

    return round_


def prepare_budget_sweep(runner: Runner, seed: int):
    from fairsched.config import fixture_path

    base = _json(fixture_path("paper_sec4"))
    configs = []
    for budget in SWEEP_BUDGETS:
        path = runner.work / f"sweep_{budget}.json"
        path.write_text(json.dumps(dict(base, total_rate=budget)) + "\n")
        configs.append(path)

    def round_(out: Path) -> dict:
        setups = []
        validate_s = solve_s = 0.0
        for budget, config in zip(SWEEP_BUDGETS, configs):
            seconds, cfg, costs = runner.setup(config)
            setups.append(seconds)
            validate_s += runner.command("validate-config", "--config", config).seconds
            solve_dir = out / f"solve_{budget}"
            solve = runner.command("solve", "--config", config, "--out", solve_dir, deadline=SWEEP_DEADLINE_S)
            solve_s += solve.seconds
            # a solve that fails or misses its deadline is a failed operation, not a wrong answer
            if solve.rc == 0 and runner.check_solve(solve, solve_dir):
                runner.certificate(costs, cfg, solve_dir / "allocation.json")
        return {"setup_s": statistics.median(setups), "validate_s": validate_s, "solve_s": solve_s,
                "pipeline_s": validate_s + solve_s}

    return round_


PREPARE = {"sec4": prepare_sec4, "fleet": prepare_fleet, "budget-sweep": prepare_budget_sweep}


def run_rounds(round_, work: Path, seconds: float) -> list[dict]:
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(round_(work / f"round{len(results)}"))
    return results


def timed_round(round_, out: Path) -> tuple[dict, float]:
    start = time.perf_counter()
    result = round_(out)
    return result, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = cap_blas_threads()
    fairsched = import_package()
    import numpy as np

    print(f"# fairsched {fairsched.__version__}, python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"nproc {cpus}, workload {args.workload}, seed {args.seed}, trace {args.trace}")

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        runner = Runner(work)
        round_ = PREPARE[args.workload](runner, args.seed)
        if args.trace:
            from tracing import Tracer, layer_metrics

            untraced, plain_s = timed_round(round_, work / "untraced")
            with Tracer() as tracer:
                runner.tracer = tracer
                traced, traced_s = timed_round(round_, work / "traced")
                runner.tracer = None
            rounds = [untraced, traced]
            print("# spans of the traced round, per (name, parent):")
            for line in tracer.span_lines():
                print(f"#   {line}")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer_metrics(tracer).items()}
            metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "fraction"}
        else:
            rounds = run_rounds(round_, work, args.seconds)
            metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": "s"}
                       for name in TIMED_METRICS}
            metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                      "unit": "MB"}
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print(f"# {'untraced and traced round' if args.trace else f'{len(rounds)} round(s), medians reported'}:")
    for name in rounds[0]:
        print(f"#   {name:<14} " + " ".join(f"{r[name]:.4f}" for r in rounds) + " s")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for line in runner.misses + runner.problems:
        print(f"# FAILED {line}")
    failed = sum(op.failed for op in runner.ops)
    print(f"# operations: {len(runner.ops)} attempted, {failed} failed")
    print(json.dumps({"correct": not runner.problems, "attempted": len(runner.ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
