"""Run configuration: JSON schema, validation, shipped fixtures.

A run config is a single JSON object:

    {
      "total_rate": 2.0,
      "processes": [
        {"A": [[...], ...], "Q": [[...], ...], "C": [[...], ...],
         "R": [[...], ...], "Pi0": [[...], ...]},           # C, R, Pi0 optional
        ...
      ],
      "solver": {"eps0": 0.1, "eta": 0.5, "eps_r": 1e-6,
                 "max_inner_iters": 100000},                 # optional, defaults shown
      "simulation": {"horizon": 1000000, "seed": 0},         # optional
      "distributed": {"graph": [[1,4],[0,2],[1,3],[2,4],[3,0]],
                      "alpha": 0.01, "beta": 1.0,
                      "eps_r": 1e-6, "max_iters": 200000},  # optional section
      "output_dir": "out"                                    # optional
    }

All matrices are 2-d row-major nested lists of numbers. ``C`` and ``R`` default to
identity. ``distributed.graph`` is an adjacency list (neighbors per node);
``distributed.alpha`` and ``distributed.beta`` are the constant primal and dual
steps of the distributed solver. A legacy ``distributed.dual_mode`` key is accepted
only as ``"mixing"``, the one coupling of the distributed solver, and ignored, as
are the legacy ``solver.projection_tol`` and ``solver.max_outer_iters`` keys. The
``step_a`` and ``step_c`` keys of the removed diminishing schedule are rejected with
an error naming ``alpha`` and ``beta``. Every process is fully validated at load
time (finite entries, shapes, definiteness, observability and controllability), with
errors naming the first offending process. The entries are converted one by one; the
checks then run once over all of them on stacked arrays, one stack per shape
(``sensors.first_invalid``, then ``sensors.first_rank_failure``), and name the
process and the failure that checking each entry in turn would.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .allocation import SolverConfig
from .sensors import ProcessModel, first_invalid, first_rank_failure

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
    # the upper bound rejects NaN, infinity and integers too large for a float
    return (_is_int(value) or isinstance(value, float)) and 0 < value <= sys.float_info.max


def _check_fields(section, settings, positive, counts):
    """Fields of a loaded section that must be positive finite numbers, or integers of at least 1."""
    for key in positive:
        value = getattr(settings, key)
        _require(_is_positive(value), f"{section}.{key} must be a positive number, got {value!r}")
    for key in counts:
        value = getattr(settings, key)
        _require(_is_int(value) and value >= 1, f"{section}.{key} must be an integer of at least 1, got {value!r}")


def _matrix(entry, key, idx, optional=False):
    if key not in entry:
        if optional:
            return None
        raise ConfigError(f"processes[{idx}]: missing required matrix '{key}'")
    value = entry[key]
    _require(isinstance(value, list) and value and all(isinstance(row, list) for row in value),
             f"processes[{idx}]: '{key}' must be a non-empty row-major nested list")
    return value


def _convert_process(entry, idx) -> ProcessModel:
    _require(isinstance(entry, dict), f"processes[{idx}] must be an object")
    matrices = dict(A=_matrix(entry, "A", idx), Q=_matrix(entry, "Q", idx),
                    C=_matrix(entry, "C", idx, optional=True), R_meas=_matrix(entry, "R", idx, optional=True),
                    Pi0=_matrix(entry, "Pi0", idx, optional=True))
    try:
        return ProcessModel._unchecked(**matrices)
    except ValueError as exc:
        raise ConfigError(f"processes[{idx}]: {exc}") from exc


def _build_processes(entries) -> list[ProcessModel]:
    """Every process, converted, checked and rank tested; errors name the first bad one.

    Entries are converted one at a time, up to the first that cannot be.
    The checks of ``ProcessModel`` then run once over all converted
    processes (:func:`~fairsched.sensors.first_invalid`), and the rank tests
    once over those before the first failure, so a rank failure before a
    construction error outranks it and one after it does not.
    """
    processes, error = [], None
    for i, entry in enumerate(entries):
        try:
            processes.append(_convert_process(entry, i))
        except ConfigError as exc:
            error = exc
            break
    invalid = first_invalid(processes)
    if invalid is not None:
        error = ConfigError(f"processes[{invalid[0]}]: {invalid[1]}")
        del processes[invalid[0]:]
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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, or a file this user may not read
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")

    _require("processes" in raw, "config is missing 'processes'")
    _require(isinstance(raw["processes"], list) and raw["processes"], "'processes' must be a non-empty list")
    processes = _build_processes(raw["processes"])

    _require("total_rate" in raw, "config is missing 'total_rate'")
    total = raw["total_rate"]
    _require(_is_positive(total), f"'total_rate' must be a positive number, got {total!r}")

    try:
        solver_fields = dict(raw.get("solver", {}))
        for legacy in ("projection_tol", "max_outer_iters"):  # see the module docstring
            solver_fields.pop(legacy, None)
        solver = SolverConfig(**solver_fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver section: {exc}") from exc
    _check_fields("solver", solver, positive=("eps0", "eps_r"), counts=("max_inner_iters",))

    try:
        simulation = SimulationSettings(**raw.get("simulation", {}))
    except TypeError as exc:
        raise ConfigError(f"simulation section: {exc}") from exc
    _check_fields("simulation", simulation, positive=(), counts=("horizon",))
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
        _check_fields("distributed", distributed, positive=("alpha", "beta", "eps_r"), counts=("max_iters",))

    output_dir = None
    if "output_dir" in raw:
        _require(isinstance(raw["output_dir"], str), f"'output_dir' must be a string path, got {raw['output_dir']!r}")
        output_dir = Path(raw["output_dir"])
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
