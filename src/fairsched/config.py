"""Run configuration: JSON schema, validation, shipped fixtures.

A run config is a single JSON object:

    {
      "total_rate": 2.0,
      "processes": [
        {"A": [[...], ...], "Q": [[...], ...], "C": [[...], ...],
         "R": [[...], ...], "Pi0": [[...], ...]},           # C, R, Pi0 optional
        ...
      ],
      "solver": {"eps0": 0.1, "eta": 0.001, "eps_r": 1e-6,
                 "max_inner_iters": 200000, "max_outer_iters": 25,
                 "projection_tol": 1e-9},                    # optional, defaults shown
      "simulation": {"horizon": 1000000, "seed": 0},         # optional
      "distributed": {"graph": [[1,4],[0,2],[1,3],[2,4],[3,0]],
                      "alpha": 0.01, "beta": 1.0,
                      "eps_r": 1e-6, "max_iters": 200000},  # optional section
      "output_dir": "out"                                    # optional
    }

All matrices are row-major nested lists. ``C`` and ``R`` default to identity.
``distributed.graph`` is an adjacency list (neighbors per node);
``distributed.alpha`` and ``distributed.beta`` are the constant primal and
dual steps of the distributed solver. A legacy ``distributed.dual_mode`` key
is accepted only as ``"mixing"``, the one coupling of the distributed solver,
and ignored. The ``step_a`` and ``step_c`` keys of the removed diminishing
schedule are rejected with an error naming ``alpha`` and ``beta``. Every
process is fully validated at load time (finite entries, shapes,
definiteness, observability and controllability), with errors naming the
first offending process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .allocation import SolverConfig
from .sensors import ProcessModel, first_rank_failure

__all__ = ["ConfigError", "SimulationSettings", "DistributedSettings", "RunConfig", "load_config", "fixture_path"]


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


@dataclass
class SimulationSettings:
    horizon: int = 1_000_000
    seed: int = 0


@dataclass
class DistributedSettings:
    adjacency: list
    alpha: float = 0.01
    beta: float = 1.0
    eps_r: float = 1e-6
    max_iters: int = 200_000


@dataclass
class RunConfig:
    processes: list
    total_rate: float
    solver: SolverConfig = field(default_factory=SolverConfig)
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    distributed: DistributedSettings | None = None
    output_dir: Path | None = None


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value) and value > 0


def _matrix(entry, key, idx, optional=False):
    if key not in entry:
        if optional:
            return None
        raise ConfigError(f"processes[{idx}]: missing required matrix '{key}'")
    value = entry[key]
    _require(isinstance(value, list) and value and all(isinstance(row, list) for row in value),
             f"processes[{idx}]: '{key}' must be a non-empty row-major nested list")
    return value


def _build_process(entry, idx) -> ProcessModel:
    _require(isinstance(entry, dict), f"processes[{idx}] must be an object")
    try:
        return ProcessModel(
            A=_matrix(entry, "A", idx),
            Q=_matrix(entry, "Q", idx),
            C=_matrix(entry, "C", idx, optional=True),
            R_meas=_matrix(entry, "R", idx, optional=True),
            Pi0=_matrix(entry, "Pi0", idx, optional=True),
        )
    except ValueError as exc:
        raise ConfigError(f"processes[{idx}]: {exc}") from exc


def _build_processes(entries) -> list[ProcessModel]:
    """Every process, constructed and rank tested; errors name the first bad one.

    The rank tests run once over all processes built, so when construction
    fails at some index, the processes before it are rank tested first.
    """
    processes, error = [], None
    for i, entry in enumerate(entries):
        try:
            processes.append(_build_process(entry, i))
        except ConfigError as exc:
            error = exc
            break
    failure = first_rank_failure(processes)
    if failure is not None:
        raise ConfigError(f"processes[{failure[0]}]: {failure[1]}")
    if error is not None:
        raise error
    return processes


def load_config(path) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")

    _require("processes" in raw, "config is missing 'processes'")
    _require(isinstance(raw["processes"], list) and raw["processes"], "'processes' must be a non-empty list")
    processes = _build_processes(raw["processes"])

    _require("total_rate" in raw, "config is missing 'total_rate'")
    total = raw["total_rate"]
    _require(isinstance(total, (int, float)) and total > 0, f"'total_rate' must be positive, got {total!r}")

    try:
        solver = SolverConfig(**raw.get("solver", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver section: {exc}") from exc

    try:
        simulation = SimulationSettings(**raw.get("simulation", {}))
    except TypeError as exc:
        raise ConfigError(f"simulation section: {exc}") from exc
    _require(_is_int(simulation.horizon) and simulation.horizon >= 1,
             f"simulation.horizon must be an integer of at least 1, got {simulation.horizon!r}")
    _require(_is_int(simulation.seed) and simulation.seed >= 0,
             f"simulation.seed must be a non-negative integer, got {simulation.seed!r}")

    distributed = None
    if "distributed" in raw:
        _require(isinstance(raw["distributed"], dict), "distributed section must be an object")
        section = dict(raw["distributed"])
        _require("graph" in section, "distributed section needs a 'graph' adjacency list")
        adjacency = section.pop("graph")
        _require(isinstance(adjacency, list) and len(adjacency) == len(processes),
                 "distributed.graph must list the neighbors of every process")
        for i, neighbors in enumerate(adjacency):
            _require(isinstance(neighbors, list) and all(_is_int(j) for j in neighbors),
                     f"distributed.graph[{i}] must be a list of integer node indices, got {neighbors!r}")
        dual_mode = section.pop("dual_mode", "mixing")
        _require(dual_mode == "mixing", f"distributed.dual_mode {dual_mode!r} is not supported: the other "
                                        "dual modes were removed and only 'mixing' remains")
        for key in ("step_a", "step_c"):
            _require(key not in section, f"distributed.{key} was removed with the diminishing step schedule; "
                                         "set the constant steps distributed.alpha and distributed.beta instead")
        try:
            distributed = DistributedSettings(adjacency=adjacency, **section)
        except TypeError as exc:
            raise ConfigError(f"distributed section: {exc}") from exc
        for key in ("alpha", "beta", "eps_r"):
            value = getattr(distributed, key)
            _require(_is_positive(value), f"distributed.{key} must be a positive number, got {value!r}")
        _require(_is_int(distributed.max_iters) and distributed.max_iters >= 1,
                 f"distributed.max_iters must be an integer of at least 1, got {distributed.max_iters!r}")

    output_dir = Path(raw["output_dir"]) if "output_dir" in raw else None
    return RunConfig(
        processes=processes,
        total_rate=float(total),
        solver=solver,
        simulation=simulation,
        distributed=distributed,
        output_dir=output_dir,
    )


def fixture_path(name: str) -> Path:
    """Path of a fixture config shipped with the package (e.g. ``paper_sec4``)."""
    ref = resources.files("fairsched") / "fixtures" / f"{name}.json"
    with resources.as_file(ref) as concrete:
        return Path(concrete)
