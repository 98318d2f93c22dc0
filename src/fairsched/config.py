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
                      "alpha": 0.3, "beta": 1.0,
                      "eps_r": 1e-6, "max_iters": 200000},  # optional section
      "output_dir": "out"                                    # optional
    }

All matrices are 2-d row-major nested lists of numbers; a string or a boolean is
no number. ``C`` and ``R`` default to identity. ``simulation.horizon`` is an
integer from 1 to 2**64 - 1, the longest horizon whose cycle counts the
simulator's binomial draws can hold.
``distributed.graph`` is an adjacency list (neighbors per node). The distributed
solver answers log prices with each node's best response, in two gossip exchanges a
round: ``distributed.alpha``, in (0, 1], is the fraction of the way each rate moves
to its best response in a round, and ``distributed.beta`` scales the step of the log
prices, taken from the curves' elasticities alone (``solve_distributed``).
A legacy ``distributed.dual_mode`` key is accepted
only as ``"mixing"``, the one coupling of the distributed solver, and ignored, as
are the legacy ``solver.projection_tol`` and ``solver.max_outer_iters`` keys. The
``step_a`` and ``step_c`` keys of the removed diminishing schedule are rejected with
an error naming ``alpha`` and ``beta``. Every process is fully validated at load
time (finite entries, shapes, definiteness, observability and controllability), with
errors naming the first offending process. The entries are converted and checked one
shape group at a time, one ``np.array`` per matrix of a group and the checks of
``ProcessModel`` and its rank tests on those stacks. If any of that fails, the stacks
tell the first entry that fails, and only that entry is built alone, to name it with
its first failure. Only the checked groups are kept: a process is a row view of them.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .allocation import SolverConfig
from .sensors import ProcessModel, _Fleet, _Group, _grouped
from .simulate import _MAX_HORIZON

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
    alpha: float = 0.3
    beta: float = 1.0
    eps_r: float = 1e-6
    max_iters: int = 200_000


@dataclass
class RunConfig:
    """A loaded config: ``processes`` is an immutable sequence of :class:`ProcessModel`, held as the checked groups
    of their read-only stacks only; an item, a slice or an iteration makes row views of them."""

    processes: Sequence[ProcessModel]
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


# config key and ProcessModel field of each matrix
_MATRICES = (("A", "A"), ("Q", "Q"), ("C", "C"), ("R", "R_meas"), ("Pi0", "Pi0"))


def _matrix(entry, key, idx, optional=False):
    if key not in entry:
        if optional:
            return None
        raise ConfigError(f"processes[{idx}]: missing required matrix '{key}'")
    value = entry[key]
    _require(isinstance(value, list) and value and all(isinstance(row, list) for row in value),
             f"processes[{idx}]: '{key}' must be a non-empty row-major nested list")
    # numpy would read a string such as "0.5" as its number, and a boolean as 0 or 1
    cell = next((cell for row in value for cell in row if isinstance(cell, (str, bool))), None)
    _require(cell is None, f"processes[{idx}]: '{key}' must hold numbers only, got {json.dumps(cell)}")
    return value


def _convert_process(entry, idx) -> ProcessModel:
    _require(isinstance(entry, dict), f"processes[{idx}] must be an object")
    matrices = {field: _matrix(entry, key, idx, optional=key not in ("A", "Q")) for key, field in _MATRICES}
    try:
        process = ProcessModel(**matrices)
        process.validate()
    except ValueError as exc:
        raise ConfigError(f"processes[{idx}]: {exc}") from exc
    return process


def _shape(entry) -> tuple | None:
    """Per matrix, its row count and first-row length, or None where the entry lacks it; None for an entry
    or a matrix that is no object or list."""
    try:
        return tuple([(len(entry[key]), len(entry[key][0])) if key in entry else None for key, _ in _MATRICES])
    except (TypeError, KeyError, IndexError):
        return None


def _stacks(entries, rows, shape) -> dict | None:
    """The matrices of ``entries[rows]``, which share ``shape``, as one float stack per field, or None if they do
    not convert to ``(len(rows), ., .)`` stacks of numbers with square ``A``."""
    given = [(field, [entries[i][key] for i in rows]) for (key, field), at in zip(_MATRICES, shape) if at]
    try:
        stacks = {field: np.array(matrices, dtype=float) for field, matrices in given}
    except (TypeError, ValueError, OverflowError):
        return None
    # numpy would read a string such as "0.5" as its number, a boolean as 0 or 1 and null as NaN
    cells = chain.from_iterable(chain.from_iterable(chain.from_iterable(matrices for _, matrices in given)))
    A = stacks["A"]
    if (any(S.ndim != 3 for S in stacks.values()) or A.shape[1] != A.shape[2]
            or not set(map(type, cells)) <= {int, float}):
        return None
    return stacks


def _group_processes(entries, rows, shape) -> _Group | int:
    """The entries ``rows``, which share ``shape``, converted and checked as one group of stacks
    (``_Group.of_stacks``), or the index of the first of them that fails on its own."""
    if shape is None or None in shape[:2]:  # malformed, or A or Q missing: each entry fails
        return rows[0]
    stacks = _stacks(entries, rows, shape)
    if stacks is not None:
        group = _Group.of_stacks(np.array(rows), **stacks)
        return rows[group] if isinstance(group, int) else group
    # the first entry that does not convert alone, unless one before it, all of which convert, fails a check
    j = next((j for j, i in enumerate(rows) if _stacks(entries, [i], shape) is None), 0)
    before = _stacks(entries, rows[:j], shape) if j else None
    group = _Group.of_stacks(None, **before) if before else None
    return rows[group] if isinstance(group, int) else rows[j]


def _build_processes(entries) -> _Fleet:
    """Every process, converted, checked and rank tested, held as its shape groups; errors name the first bad one.

    A group is the entries whose matrices have equal row counts and first-row lengths, the optional
    ones present in each or in none. Each of its matrices is converted with one ``np.array`` and
    checked as one stack. A group reports its first entry that fails, found without building any entry
    alone, so every entry before the one reported passed the same checks in a stack. Once one fails, a
    later group checks only its entries before it. The first entry that fails is built alone and named
    with its first failure: conversion, then the checks of ``ProcessModel``, then its rank tests. If a
    rank test cannot run on a stack, every entry is built one at a time, in full, until one fails.
    """
    groups = {}
    for i, entry in enumerate(entries):
        groups.setdefault(_shape(entry), []).append(i)
    parts, first = [], len(entries)
    for shape, rows in groups.items():
        rows = [i for i in rows if i < first]  # only an entry before the first failure found can move it
        if not rows:
            continue
        try:
            group = _group_processes(entries, rows, shape)
        except np.linalg.LinAlgError:  # an SVD that does not converge on entries near the float maximum
            break
        if isinstance(group, int):
            first = group
        else:
            parts.append(group)
    else:  # every group ran its checks
        if first == len(entries):
            return _Fleet(parts)
        _convert_process(entries[first], first)  # raises: the entries before it passed the same checks
    return _Fleet(_grouped([_convert_process(entry, i) for i, entry in enumerate(entries)]))


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
    _require(simulation.horizon <= _MAX_HORIZON,
             f"simulation.horizon must be at most 2**64 - 1, got {simulation.horizon!r}")
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
        _require(distributed.alpha <= 1, f"distributed.alpha must lie in (0, 1], got {distributed.alpha!r}")

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
