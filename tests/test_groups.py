"""The group layout: a batch of processes held as groups, each a set of rows and read-only stacks of their
fields, from ``load_config`` to the last output.

``load_config`` returns its processes as its checked groups only (``sensors._Fleet``), one per shape of the
entries; a list of processes is stacked once per field, one group per shape of ``C``. Either way every table,
end state and error equals, bit for bit, what the per-process layout before it gave: the digests below were
taken from that layout.
"""

import hashlib
import importlib.util
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fairsched as fs
from fairsched import cli, sensors, simulate
from fairsched.allocation import CostDomainError
from helpers import row_ends

# SHA-256 of each model's traces, running sums, sizes and end states (``digest``), and of the floors_at rates,
# as the per-process layout built them: from_processes at eta and at 1, with_floor, floors_at, from_floors
PARENT_DIGESTS = {
    "fixture": (
        "582959786a0e969ac299e92bddde3566484d759e99fca8e3bf0038ac635706ee",
        "de148413b9498c8d4152772479f4e732329181085ec3e5d1a8f1d5f0c8619cc7",
        "364bd379a2dcdd25e05bb4045a94ce42f7be2b40119f08193b0b217c47de53b6",
        "2b0a689e9c7d6b38a6a2f471ee7382f4ced0ceb0153a13ad0837fc0be1f1f75b",
        "8c687ea9d180b271e6ea7d19524058ed5531665fc265c9157685f89fde3c1740",
        "4044dea57a7abd8a1170b6358331a79fddba7c7325662f478d3b52a67fb60ebe",
    ),
    1: (
        "33b8f61dc34e26c90c727869a25ec9fdb8794efe7c73ee3bb3d6ed2728c69093",
        "ea1b5eb68e88ecc7207a7e070c156edfb5ac62e4e9fe597f61e9f989142911cc",
        "8c873f3e845634041243a4e0faf47d4da82d97eb3c99c0fdc5f9fe11d18e3669",
        "b9a1a909a3f9eb5e046b7eab4a98c7d46309af89d5eb36e40a6aad2bf73d7faf",
        "2375d0205045fd2e89fef41051637450b3f3501f14144db71691c8d116497135",
        "8327a4d18d49ca620595a8214c495b9391de41054b87a9f1392bd18c12652d10",
    ),
    7: (
        "b50cb26defc362c8a0550ecf12474cea0111cf7b104965f5c641e8a56ed1fc36",
        "eef7e1e728edc5437d1fac7ae84aff357a22dbed8f222ec4cdbc96b87cb9e7f8",
        "9cea187c79e17bff1f7db43ce7af0bc769d511433d6cfedb1ac9ef80d2cc2732",
        "1e94287f4233ef399c3251b021268b3d7473b1dbd6e4246cba7cc7238c78c6e1",
        "3f41ec1e60ad6d9ce2aa64666c4a5005021816694e146e00cac70127d91e7239",
        "1e6df7f5b32607ce45beaeb14b700e6993f4cbf8aac62aa752d6b12fe5ba6744",
    ),
    42: (
        "66a0a3400850e07974e23ca9b20441ac06a0b59da82fb66a1ddc0f4d96a0ae7b",
        "ece589cfea80f7c846a6378cd51eaa4d1cef0116f70fb07e1c0e39c81e19bb33",
        "d7c5e56f91e2920630661edefce40bc441516ee7175b2e38e4b2c2c7250318de",
        "837da394926fc5130e07d75096fd81a3bdd867e2dc6df59cf5e0f7be1a4e22db",
        "25439643afe60f16a0465d8fa6c264f13a99536e3ce16f7b602be5083d4668e6",
        "2599cf1c3a111aa91e6732cb9a16ee5243efae8c3a26c32b4acdf4835eb4a8c7",
    ),
}


def digest(model) -> str:
    """SHA-256 of a model's table, sizes and end states, each end state in row order or ``-`` where none."""
    h = hashlib.sha256()
    for arr in (model._traces, model._cumsums, model._sizes.astype(np.int64)):
        h.update(arr.tobytes())
    for end in row_ends(model):
        h.update(b"-" if end is None else np.ascontiguousarray(end).tobytes())
    return h.hexdigest()


def perfbench_fleet(path: Path, n: int, seed: int) -> Path:
    """The benchmark's fleet of ``n`` sensors from ``seed``, written by ``perfbench/fleet.py``."""
    spec = importlib.util.spec_from_file_location("fleet", Path(__file__).parents[1] / "perfbench" / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleet)
    solver = json.loads(fs.fixture_path("paper_sec4").read_text())["solver"]
    return fleet.write_fleet(path, n, seed, solver, 100_000)


def model_digests(ps, eta: float, fixture: bool) -> tuple:
    """The digests of ``PARENT_DIGESTS``, in its order, of the models these processes build."""
    n = len(ps)
    shallow = fs.CurveCostModel.from_processes(ps, unstable_floor=1.0)
    at_eta = fs.CurveCostModel.from_processes(ps, unstable_floor=eta)
    deep = shallow.with_floor(np.linspace(0.3, 0.02, n))
    level = 20.0 if fixture else float(np.quantile(shallow.values(np.ones(n)), 0.9)) * 2.0
    rates, levelled = shallow.floors_at(level)
    assert (deep._sizes > shallow._sizes).any() and (levelled._sizes > shallow._sizes).any()
    floors = np.where(shallow.stable, 0.0, np.linspace(0.02, 0.3, n))
    built = fs.CurveCostModel.from_floors(ps, floors)
    return (digest(at_eta), digest(shallow), digest(deep), digest(levelled),
            hashlib.sha256(rates.tobytes()).hexdigest(), digest(built))


@pytest.mark.parametrize("which", ["fixture", 1, 7, 42])
def test_models_equal_the_per_process_layout(tmp_path, which):
    path = fs.fixture_path("paper_sec4") if which == "fixture" else perfbench_fleet(tmp_path / "f.json", 1000, which)
    cfg = fs.load_config(path)
    assert sensors._grouped(cfg.processes) is cfg.processes.groups  # load_config's stacks, as they are
    assert model_digests(cfg.processes, cfg.solver.eta, which == "fixture") == PARENT_DIGESTS[which]


def test_fleet_groups_are_load_configs_stacks(tmp_path):
    path = perfbench_fleet(tmp_path / "f.json", 200, 3)
    cfg = fs.load_config(path)
    groups = cfg.processes.groups
    assert len(cfg.processes) == 200
    assert [g.A.shape[1] for g in groups] == [cfg.processes[0].dim, 3 - cfg.processes[0].dim]
    for group in groups:
        assert not group.A.flags.writeable and group.Pi0 is None
        for i, row in enumerate(group.rows.tolist()):
            p = cfg.processes[row]
            assert p.Pi0 is None
            for name in sensors._FIELDS[:4]:  # read-only views of the group's stacks
                M, stack = getattr(p, name), getattr(group, name)
                assert not M.flags.writeable and np.shares_memory(M, stack) and np.array_equal(M, stack[i])
    # the processes are their groups only: no item can be set, and a slice, an item or an iteration reads the
    # entries back
    with pytest.raises(TypeError):
        cfg.processes[0] = cfg.processes[1]
    entries = json.loads(path.read_text())["processes"]
    first = cfg.processes[:3]
    assert len(first) == 3
    for p, entry in zip([*first, cfg.processes[-1]], entries[:3] + entries[-1:]):
        eye = np.eye(len(entry["A"]))
        assert np.array_equal(p.A, entry["A"]) and np.array_equal(p.Q, entry["Q"]) and p.Pi0 is None
        assert np.array_equal(p.C, eye) and np.array_equal(p.R_meas, eye)
    assert [p.A.tolist() for p in cfg.processes] == [entry["A"] for entry in entries]


def mixed_entries(seed: int, uniform: bool, n: int = 60) -> list:
    """Seeded config entries of 1-, 2- and 3-d processes, interleaved: stable and unstable, with ``C`` of full
    or fewer rows or none, ``R`` and ``Pi0`` given or not. Which of them an entry gives is drawn per entry, so
    that entries of one shape of ``C`` differ in it (a 2-d ``C`` given as the identity and one left out share
    a shape), or, if ``uniform``, once per dimension, so that each shape of ``C`` is one of load_config's
    shape groups."""
    rng = np.random.default_rng(seed)
    entries, styles = [], {}
    while len(entries) < n:
        d = int(rng.integers(1, 4))
        rho = rng.uniform(1.01, 1.1) if rng.random() < 0.3 else rng.uniform(0.1, 0.95)
        B = rng.normal(size=(d, d))
        A = rho * np.linalg.qr(B)[0] if d > 1 else np.array([[rho * rng.choice([-1.0, 1.0])]])
        entry = {"A": A.tolist(), "Q": (B @ B.T + np.eye(d)).tolist()}
        style = rng.random(4)  # fewer rows of C, C given, R given, Pi0 given
        if uniform:
            style = styles.setdefault(d, style)
        m = d if style[0] < 0.6 else max(1, d - 1)
        if style[1] < 0.5:
            entry["C"] = (np.eye(d) if m == d and rng.random() < 0.5 else rng.normal(size=(m, d))).tolist()
        if style[2] < 0.4:
            entry["R"] = (rng.uniform(0.5, 2.0) * np.eye(len(entry.get("C", A)))).tolist()
        if style[3] < 0.3:
            entry["Pi0"] = (rng.uniform(0.0, 3.0) * np.eye(d)).tolist()
        try:
            fs.ProcessModel(*(entry.get(k) for k in ("A", "Q", "C", "R", "Pi0"))).validate()
        except ValueError:
            continue
        entries.append(entry)
    return entries


def copies(ps) -> list:
    """Hand-made copies of processes, which hold no stack."""
    return [fs.ProcessModel(A=p.A, Q=p.Q, C=p.C, R_meas=p.R_meas, Pi0=p.Pi0) for p in ps]


def same_outcome(got, want) -> str | None:
    """Assert that ``got()`` returns what ``want()`` returns, or raises its error with its text; that text."""
    try:
        expected = want()
    except (CostDomainError, fs.NumericalError) as exc:
        with pytest.raises(type(exc)) as info:
            got()
        assert str(info.value) == str(exc)
        return str(exc)
    assert got() == expected
    return None


def test_a_fleet_command_makes_no_process_object(tmp_path, monkeypatch):
    # load_config, solve and simulate on 1000 sensors read the groups' stacks only: no row view is made
    path = perfbench_fleet(tmp_path / "f.json", 1000, 7)
    held, hold = [], fs.ProcessModel._hold
    monkeypatch.setattr(fs.ProcessModel, "_hold", lambda self, *fields: held.append(self) or hold(self, *fields))
    cfg = fs.load_config(path)
    assert cli.run_solve(cfg, tmp_path / "solve") == cli.EXIT_OK
    assert cli.run_simulate(cfg, tmp_path / "solve" / "allocation.json", tmp_path / "simulate") == cli.EXIT_OK
    assert len(held) == 0


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loaded_and_hand_made_processes_build_the_same_models(tmp_path, seed, uniform):
    entries = mixed_entries(seed, uniform)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"total_rate": 10.0, "processes": entries}))
    loaded = fs.load_config(path).processes
    made = copies(loaded)
    groups, stacked = sensors._grouped(loaded), sensors._grouped(made)
    # load_config's stacks, as they are, one group per shape of the entries
    assert groups is loaded.groups
    assert all(np.shares_memory(loaded[i].A, g.A) for g in groups for i in g.rows.tolist())
    if uniform:  # each shape of C is one of load_config's shape groups: the groups of a list
        assert len(groups) == 3
        for g, h in zip(groups, stacked, strict=True):
            assert g.rows.tolist() == h.rows.tolist()
            for name in sensors._FIELDS:
                a, b = getattr(g, name), getattr(h, name)
                assert (a is None) == (b is None) and (a is None or a.tobytes() == np.ascontiguousarray(b).tobytes())
    else:  # two of load_config's shape groups share a shape of C: more groups than a list's, the same models
        assert len(groups) > len(stacked) == len({p.C.shape for p in made}) > 3
    assert model_digests(loaded, 1e-3, False) == model_digests(made, 1e-3, False)
    rates = np.where(fs.stable_mask([p.A for p in made]), 0.0, 0.2)
    assert simulate.simulate_allocation(loaded, rates, 10**5, 3) == simulate.simulate_allocation(made, rates, 10**5, 3)


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [3, 1, 4, 0, 2], [2, 4, 3, 1, 0], [1, 2, 4, 0, 3]])
def test_errors_name_the_same_process_in_both_layouts(tmp_path, monkeypatch, order):
    # a filter covariance that overflows (1-d), a trace sequence that overflows (2-d), a 3-d row that is
    # fine and a walk that runs out of steps (1-d, C = 2), in several orders: each layout raises the same
    # error, the same way named. The 1-d rows give C, R and Pi0 each, so that they are one of load_config's
    # shape groups, whose stacks the loaded processes are built from; in the last order the 2-d row's group
    # comes first, and the filter covariance still fails before its trace sequence
    entries = [
        {"A": [[0.5]], "Q": [[1e10]], "C": [[1.0]], "R": [[1e-300]], "Pi0": [[0.0]]},
        {"A": [[1e5, 0.0], [0.0, 0.5]], "Q": [[1.0, 0.0], [0.0, 1.0]]},
        {"A": np.diag([0.5, 1.05, 0.2]).tolist(), "Q": np.eye(3).tolist()},
        {"A": [[1.0]], "Q": [[1.0]], "C": [[2.0]], "R": [[1.0]], "Pi0": [[0.0]]},
        {"A": [[2645.0]], "Q": [[1.0]], "C": [[1.0]], "R": [[1.0]], "Pi0": [[1.0]]},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"total_rate": 1.0, "processes": [entries[i] for i in order]}))
    loaded = fs.load_config(path).processes
    assert sensors._grouped(loaded) is loaded.groups
    made = copies(loaded)
    for ps in (loaded, made):
        with pytest.raises(fs.NumericalError, match="^the filter covariance of process"):
            fs.CurveCostModel.from_processes(ps)
    # the four other rows, built and continued at floors that make one, the other or both fail
    fine = [i for i, j in enumerate(order) if j != 0]
    loaded, made = [loaded[i] for i in fine], [made[i] for i in fine]
    monkeypatch.setattr(sensors, "_MAX_STEPS", 2 * sensors._WINDOW)
    texts = set()
    # per entry: none fails, every one does, those that overflow do, the walk runs out of steps
    for by_entry in ({}, {1: 1e-3, 2: 1e-3, 3: 1e-3, 4: 1e-3}, {1: 0.01, 4: 0.01}, {3: 1e-3}):
        floors = [by_entry.get(order[i], 0.5) for i in fine]
        texts.add(same_outcome(lambda: digest(fs.CurveCostModel.from_floors(loaded, floors)),
                               lambda: digest(fs.CurveCostModel.from_floors(made, floors))))
        staged = [fs.CurveCostModel.from_floors(ps, [0.5] * 4) for ps in (loaded, made)]
        texts.add(same_outcome(lambda: digest(staged[0].with_floor(floors)),
                               lambda: digest(staged[1].with_floor(floors))))
    assert None in texts and any("overflowed at step" in t for t in texts - {None})
    assert any("did not stop within 64 steps" in t for t in texts - {None})


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_a_continuation_and_a_fresh_build_name_the_earliest_step(order):
    # the 2-d row (overflowing at step 31) and the 1-d row A = 7080 (at step 40) fail: a continuation of the two
    # and a fresh build of all three rows name step 31, in every order of the rows and so of their groups
    ps = [fs.ProcessModel(A=[[0.5]], Q=[[1.0]]), fs.ProcessModel(A=np.diag([1e5, 0.5]), Q=np.eye(2)),
          fs.ProcessModel(A=[[7080.0]], Q=[[1.0]])]
    ps, staged_floors, floors = ([xs[i] for i in order] for xs in (ps, [0.0, 0.5, 0.5], [0.0, 0.01, 0.01]))
    staged = fs.CurveCostModel.from_floors(ps, staged_floors)
    with pytest.raises(fs.NumericalError, match=r"^trace sequence overflowed at step 31; the rate 0\.01 is too small$"):
        staged.with_floor(floors)
    with pytest.raises(fs.NumericalError, match=r"^trace sequence overflowed at step 31; the rate 0\.01 is too small$"):
        fs.CurveCostModel.from_floors(ps, floors)


def test_of_failures_at_one_step_in_two_groups_the_least_row_is_named(tmp_path):
    # rows 1 and 2 overflow at step 40; row 1's group, of the entries that give C, comes after row 2's, and a
    # list of the processes is one group: both name row 1, at its floor 0.02
    entries = [{"A": [[0.5]], "Q": [[1.0]]}, {"A": [[7080.0]], "Q": [[1.0]], "C": [[1.0]]},
               {"A": [[7080.0]], "Q": [[1.0]]}]
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"total_rate": 1.0, "processes": entries}))
    loaded = fs.load_config(path).processes
    assert [g.rows.tolist() for g in loaded.groups] == [[0, 2], [1]]
    for ps in (loaded, copies(loaded)):
        with pytest.raises(fs.NumericalError, match=r"^trace sequence overflowed at step 40; the rate 0\.02 is too"):
            fs.CurveCostModel.from_floors(ps, [0.0, 0.02, 0.01])


def edge_rates() -> np.ndarray:
    """Random rates, ``1/k``, their float neighbours, 1, just past 1, and 1e-300."""
    rng = np.random.default_rng(45)
    base = np.concatenate([rng.uniform(0.0, 1.0, 2000), 10.0 ** rng.uniform(-300, 0, 2000),
                           1.0 / np.arange(1.0, 5001.0), [1.0, 1.0 + 1e-12, 1e-300, 5e-300]])
    rates = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, 2.0)])
    return rates[(rates > 0) & (rates <= 1.0 + 1e-12)]


def test_array_thresholds_equal_threshold_from_rate():
    rates = edge_rates()
    xi, b = simulate._thresholds(rates)
    want = [fs.threshold_from_rate(r) for r in rates.tolist()]
    assert all(type(x) is int for x in xi) and max(xi) > 2**63  # past int64 below ~1e-19
    assert xi == [p.xi for p in want]
    assert b.tobytes() == np.array([p.b for p in want]).tobytes()


@pytest.mark.parametrize("bad", [0.5, -0.1, math.nan, 1.0 + 2e-12, 5e-324, math.inf])
def test_array_thresholds_refuse_what_threshold_from_rate_refuses(bad):
    rates = np.array([0.3, 1.0, 2e-300, bad, -1.0])
    i = 3 if bad != 0.5 else 4
    with pytest.raises(CostDomainError) as info:
        fs.threshold_from_rate(rates[i])
    with pytest.raises(CostDomainError, match=f"^{re.escape(str(info.value))}$"):
        simulate._thresholds(rates)
