import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairsched as fs
from fairsched import cli, config
from fairsched.cli import EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, _region_and_costs, _write_csv, main
from fairsched.config import ConfigError, load_config
from helpers import reference_build_processes, reference_csv_bytes, reference_process, time_limit


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SINGLE_STABLE = {
    "total_rate": 2.0,
    "processes": [{"A": [[0.5]], "Q": [[1.0]]}],
    "solver": {"eps0": 0.1, "eta": 0.5, "eps_r": 1e-8},
    "simulation": {"horizon": 50000, "seed": 9},
}


class TestLoadConfig:
    def test_fixture_contents(self, bench_config):
        cfg = bench_config
        assert len(cfg.processes) == 5
        np.testing.assert_array_equal(cfg.processes[0].A, [[1.2, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(cfg.processes[3].Q, [[16.0, 0.0], [0.0, 1.0]])
        assert cfg.total_rate == 2.0
        # measurement model defaults to identity
        np.testing.assert_array_equal(cfg.processes[0].C, np.eye(2))
        np.testing.assert_array_equal(cfg.processes[0].R_meas, np.eye(2))

    def test_empty_process_list_rejected(self, tmp_path):
        path = write_config(tmp_path, {"total_rate": 1.0, "processes": []})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_indefinite_q_names_process(self, tmp_path):
        payload = {
            "total_rate": 1.0,
            "processes": [
                {"A": [[0.5]], "Q": [[1.0]]},
                {"A": [[0.5]], "Q": [[-0.1]]},
            ],
        }
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=r"processes\[1\]"):
            load_config(path)

    def test_missing_total_rate(self, tmp_path):
        path = write_config(tmp_path, {"processes": [{"A": [[0.5]], "Q": [[1.0]]}]})
        with pytest.raises(ConfigError, match="total_rate"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    UNOBSERVABLE = {"A": [[1.1, 0.0], [0.0, 0.9]], "Q": [[1.0, 0.0], [0.0, 1.0]], "C": [[0.0, 1.0]], "R": [[1.0]]}

    def test_rank_failure_named_before_later_construction_error(self, tmp_path):
        # the rank tests run over all processes at once, after construction
        payload = {"total_rate": 1.0, "processes": [
            {"A": [[0.5]], "Q": [[1.0]]}, self.UNOBSERVABLE, {"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.5]], "Q": [[-1.0]]},
        ]}
        with pytest.raises(ConfigError, match=r"^processes\[1\]: \(A, C\) is not observable$"):
            load_config(write_config(tmp_path, payload))

    def test_construction_error_named_before_later_rank_failure(self, tmp_path):
        payload = {"total_rate": 1.0, "processes": [
            {"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.5]], "Q": [[-1.0]]}, self.UNOBSERVABLE,
        ]}
        with pytest.raises(ConfigError, match=r"^processes\[1\]: Q must be positive semidefinite"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("key", ["A", "Q", "C", "R", "Pi0"])
    def test_non_finite_matrix_names_process_and_matrix(self, tmp_path, key):
        entry = {"A": [[0.5]], "Q": [[1.0]], "C": [[1.0]], "R": [[1.0]], "Pi0": [[1.0]]}
        entry[key] = [[float("nan")]]
        path = write_config(tmp_path, {"total_rate": 1.0, "processes": [{"A": [[0.5]], "Q": [[1.0]]}, entry]})
        name = "R_meas" if key == "R" else key
        with pytest.raises(ConfigError, match=rf"^processes\[1\]: {name} must have finite entries"):
            load_config(path)


def good_entry(rng, dim):
    """A seeded config entry for a valid ``dim``-d process; every other one has its own ``C``, ``R`` and ``Pi0``."""
    A = np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
    A[np.diag_indices(dim)] = rng.uniform(0.2, 1.3, dim)
    B = rng.normal(size=(dim, dim))
    entry = {"A": A.tolist(), "Q": (B @ B.T + 0.1 * np.eye(dim)).tolist()}
    if rng.random() < 0.5:
        m = max(1, dim - 1)
        S, P = rng.normal(size=(m, m)), rng.normal(size=(dim, dim))
        entry.update(C=rng.normal(size=(m, dim)).tolist(), R=(S @ S.T + 0.5 * np.eye(m)).tolist(),
                     Pi0=(P @ P.T).tolist())
    return entry


def load_mix(seed=10):
    """Seeded config entries: good 1-, 2- and 3-d processes and one of each kind of bad entry, shuffled.

    Good tails follow, so late start indices load.
    """
    rng = np.random.default_rng(seed)

    def good(dim):
        return good_entry(rng, dim)

    full = {"A": [[0.5]], "Q": [[1.0]], "C": [[1.0]], "R": [[1.0]], "Pi0": [[1.0]]}
    eye2 = [[1.0, 0.0], [0.0, 1.0]]
    bad = [dict(full, **{key: [[value]]}) for key in full for value in (math.nan, math.inf, -math.inf)]
    bad += [
        {"A": [[0.5, 0.1]], "Q": [[1.0]]},  # A not square
        {"A": [[0.5]], "Q": eye2},  # Q of the wrong shape
        {"A": [[0.5]], "Q": [[1.0]], "C": [[1.0, 0.0]]},  # C with the wrong number of columns
        {"A": [[0.5]], "Q": [[1.0]], "R": eye2},  # R of the wrong shape
        {"A": [[0.5]], "Q": [[1.0]], "Pi0": eye2},  # Pi0 of the wrong shape
        {"A": [[0.5, 0.0], [0.0, 0.5]], "Q": [[1.0, 0.0], [0.0]]},  # ragged rows
        {"A": [[0.5, 0.0], [0.0, 0.5]], "Q": [[1.0, 0.5], [0.0, 1.0]]},  # Q not symmetric
        {"A": [[0.5]], "Q": [[-0.1]]},  # Q indefinite
        {"A": [[0.5, 0.0], [0.0, 0.5]], "Q": eye2, "Pi0": [[1.0, 0.0], [0.0, -1.0]]},  # Pi0 indefinite
        {"A": [[0.5]], "Q": [[1.0]], "R": [[0.0]]},  # R only semidefinite
        {"A": [["0.5"]], "Q": [[1.0]]},  # a string, which numpy would read as its number
        {"A": [[0.5]], "Q": [[True]]},  # a boolean, which numpy would read as 1
        [[0.5]],  # not an object
        {"Q": [[1.0]]},  # A missing
        TestLoadConfig.UNOBSERVABLE,
        {"A": [[0.5, 0.0], [0.0, 0.4]], "Q": [[1.0, 0.0], [0.0, 0.0]]},  # (A, sqrt(Q)) not controllable
    ]
    entries = bad + [good(dim) for dim in (1, 2, 3) for _ in range(4)]
    entries = [entries[i] for i in rng.permutation(len(entries))]
    return entries + [good(dim) for dim in (2, 1, 3, 2)], bad


def assert_same_processes(processes, reference):
    assert len(processes) == len(reference)
    for p, ref in zip(processes, reference):
        for name in ("A", "Q", "C", "R_meas", "Pi0"):
            arr, expected = getattr(p, name), getattr(ref, name)
            if expected is None:
                assert arr is None
                continue
            assert arr.dtype == np.float64 and not arr.flags.writeable
            assert arr.shape == expected.shape and arr.tobytes() == expected.tobytes()


class TestBatchedLoad:
    """``load_config`` checks all processes at once; it loads what the per-entry loop loaded and
    names the process and the failure that loop named."""

    def test_matches_per_entry_reference_from_every_start(self, tmp_path):
        entries, bad = load_mix()
        messages = set()
        for start in range(len(entries)):
            path = write_config(tmp_path, {"total_rate": 1.0, "processes": entries[start:]})
            try:
                expected = reference_build_processes(entries[start:])
            except ConfigError as exc:
                with pytest.raises(ConfigError) as raised:
                    load_config(path)
                assert str(raised.value) == str(exc)
                messages.add(str(exc))
            else:
                assert_same_processes(load_config(path).processes, expected)
        # each bad entry is named when the slice starts at it
        named = set()
        for entry in bad:
            with pytest.raises(ConfigError) as raised:
                reference_build_processes([entry])
            named.add(str(raised.value))
        assert {re.sub(r"processes\[\d+\]", "processes[0]", m) for m in messages} == named

    def test_constructor_matches_per_process_reference(self):
        entries, _ = load_mix()
        keys = {"A": "A", "Q": "Q", "C": "C", "R": "R_meas", "Pi0": "Pi0"}
        for entry in entries:
            if not isinstance(entry, dict) or "A" not in entry:
                continue
            kwargs = {keys[key]: value for key, value in entry.items()}
            try:
                expected = reference_process(**kwargs)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    fs.ProcessModel(**kwargs)
                assert str(raised.value) == str(exc)
            else:
                assert_same_processes([fs.ProcessModel(**kwargs)], [expected])

    def test_large_groups_match_per_entry_reference(self, tmp_path):
        # 600 entries in few shape groups, a hundred or so each, some with their own C, R and Pi0
        rng = np.random.default_rng(28)
        entries = [good_entry(rng, dim) for dim in rng.integers(1, 4, 600).tolist()]
        assert len({(len(e["A"]), "C" in e) for e in entries}) == 6
        processes = load_config(write_config(tmp_path, {"total_rate": 1.0, "processes": entries})).processes
        assert_same_processes(processes, reference_build_processes(entries))
        for p in processes:
            for name in ("A", "Q", "C", "R_meas", "Pi0"):
                arr = getattr(p, name)
                if arr is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0, 0] = 1.0

    def test_bad_entry_inside_a_large_group_named_as_per_entry(self, tmp_path):
        rng = np.random.default_rng(29)
        entries = [good_entry(rng, dim) for dim in rng.integers(1, 4, 300).tolist()]
        _, bad = load_mix()
        for entry in bad:
            at = int(rng.integers(1, len(entries)))
            mixed = entries[:at] + [entry] + entries[at:]
            with pytest.raises(ConfigError) as expected:
                reference_build_processes(mixed)
            with pytest.raises(ConfigError) as raised:
                load_config(write_config(tmp_path, {"total_rate": 1.0, "processes": mixed}))
            assert str(raised.value) == str(expected.value)
            assert str(raised.value).startswith(f"processes[{at}]")

    def test_only_the_first_failing_entry_is_built_alone(self, tmp_path, monkeypatch):
        # the stacks tell which entry fails first; no entry before it is built one by one
        rng = np.random.default_rng(30)
        entries = [good_entry(rng, dim) for dim in rng.integers(1, 4, 200).tolist()]
        _, bad = load_mix()
        built, convert = [], config._convert_process
        monkeypatch.setattr(config, "_convert_process", lambda entry, i: built.append(i) or convert(entry, i))
        for entry in bad:
            built.clear()
            with pytest.raises(ConfigError, match=r"^processes\[200\]"):
                load_config(write_config(tmp_path, {"total_rate": 1.0, "processes": entries + [entry, entry]}))
            assert built == [200]


class TestUnreadableInputs:
    """A config or an output path that cannot be used ends the command with exit 2 and one line."""

    def check(self, capsys, argv, text):
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert text in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.check(capsys, ["validate-config", "--config", str(tmp_path)], "cannot read config file")

    def test_config_cannot_be_read(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, SINGLE_STABLE)

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        # file modes do not stop every user (root reads a mode-000 file), so the read itself is made to fail
        monkeypatch.setattr(Path, "read_text", denied)
        self.check(capsys, ["validate-config", "--config", str(path)], "Permission denied")

    def test_config_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"total_rate": 1.0, "output_dir": "caf\u00e9"}'.encode("latin-1"))
        self.check(capsys, ["validate-config", "--config", str(path)], "is not UTF-8 text")

    @pytest.mark.parametrize("value", [3, None, ["out"]])
    def test_output_dir_must_be_a_string(self, tmp_path, capsys, value):
        path = write_config(tmp_path, dict(SINGLE_STABLE, output_dir=value))
        self.check(capsys, ["validate-config", "--config", str(path)], "'output_dir' must be a string path")

    @pytest.mark.parametrize("command", ["solve", "simulate", "distributed"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_is_a_file(self, tmp_path, capsys, command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        argv = [command, "--config", str(fs.fixture_path("paper_sec4")), "--out", str(out)]
        if command == "simulate":
            rates = tmp_path / "rates.json"
            rates.write_text(json.dumps({"rates": [0.4] * 5}))
            argv += ["--allocation", str(rates)]
        self.check(capsys, argv, "cannot create output directory")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command, name, cells", [
        ("solve", "allocation_trace.csv", math.inf),  # the trace written whole
        ("solve", "allocation_trace.csv", 0),  # the trace thinned to its first and last rows
        ("solve", "cost_trace.csv", 0),
        ("solve", "summary.json", 0),
        ("simulate", "simulation_report.csv", 0),
        ("distributed", "dual_trace.csv", 0),
        ("distributed", "comparison.json", 0),
    ])
    def test_output_file_is_a_directory(self, tmp_path, capsys, monkeypatch, command, name, cells):
        monkeypatch.setattr(cli, "_TRACE_CELLS", cells)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = [command, "--config", str(fs.fixture_path("paper_sec4")), "--out", str(out)]
        if command == "simulate":
            rates = tmp_path / "rates.json"
            rates.write_text(json.dumps({"rates": [0.4] * 5}))
            argv += ["--allocation", str(rates)]
        self.check(capsys, argv, f"cannot write {out / name}: Is a directory")

    def test_output_dir_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        path = write_config(tmp_path, dict(SINGLE_STABLE, output_dir=str(blocker / "sub")))
        self.check(capsys, ["solve", "--config", str(path)], "cannot create output directory")


class TestSolveCommand:
    def test_single_process_saturates(self, tmp_path):
        path = write_config(tmp_path, SINGLE_STABLE)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["allocation"][0] == pytest.approx(1.0, abs=1e-6)
        assert summary["status"] == "converged"

    def test_fixture_run_emits_everything(self, tmp_path, bench_config):
        out = tmp_path / "fx"
        rc = main(["solve", "--config", str(fs.fixture_path("paper_sec4")), "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("allocation_trace.csv", "cost_trace.csv", "error_decay.csv", "summary.json", "allocation.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        rates = np.array(summary["allocation"])
        costs = np.array(summary["costs"])
        assert rates[4] <= 0.01
        assert int(np.argmax(rates)) == 3
        assert (costs[:4].max() - costs[:4].min()) / costs[:4].min() <= 0.01
        # every trace row lies in the region
        region = fs.FeasibleRegion(2.0, np.zeros(5), np.ones(5))
        rows = np.loadtxt(out / "allocation_trace.csv", delimiter=",", skiprows=2)
        for row in rows:
            assert region.contains(row[1:], tol=1e-9)

    @pytest.mark.parametrize("total_rate", [1.5, 0.2])
    def test_fixture_at_a_tight_budget_converges(self, tmp_path, capsys, total_rate):
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        path = write_config(tmp_path, dict(payload, total_rate=total_rate))
        out = tmp_path / "tight"
        with time_limit(10, f"solve at total_rate {total_rate}"):
            assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("status: converged")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"

    def test_outputs_byte_identical_across_reruns(self, tmp_path):
        path = write_config(tmp_path, SINGLE_STABLE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(path), "--out", str(out1)])
        main(["solve", "--config", str(path), "--out", str(out2)])
        for name in ("allocation_trace.csv", "cost_trace.csv", "error_decay.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for out in (out1, out2):
            main(["simulate", "--config", str(path), "--allocation", str(out1 / "allocation.json"), "--out", str(out)])
        assert (out1 / "simulation_report.csv").read_bytes() == (out2 / "simulation_report.csv").read_bytes()

    def test_nonconvergence_exit_code_with_traces(self, tmp_path):
        payload = dict(SINGLE_STABLE)
        payload["processes"] = [{"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.6]], "Q": [[2.0]]}]
        payload["total_rate"] = 1.0
        payload["solver"] = {"eps0": 0.1, "eta": 0.5, "eps_r": 1e-13, "max_inner_iters": 1}
        path = write_config(tmp_path, payload)
        out = tmp_path / "nc"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_NOT_CONVERGED
        assert (out / "allocation_trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] != "converged"

    def test_steep_stable_curve_converges(self, tmp_path):
        # processes[3].Q x 10^6: the paper's step, whose eps the steepest curve sets, ran 200,000 iterations
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        payload["processes"][3]["Q"] = (np.array(payload["processes"][3]["Q"]) * 1e6).tolist()
        out = tmp_path / "out"
        with time_limit(5, "solve"):
            assert main(["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["status"] == "converged"

    def test_budget_4_meets_the_active_set_lemma(self, tmp_path):
        # the paper's step stopped 6.6e-5 above the level at R = 4, with four of five costs counted active
        payload = dict(json.loads(fs.fixture_path("paper_sec4").read_text()), total_rate=4.0)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged" and summary["active_set_lemma_ok"] is True

    def test_stable_curve_out_of_tail_cut_reach_converges(self, tmp_path):
        # the first curve's tail cut was once out of reach of its iterated limit, and it built forever
        payload = dict(SINGLE_STABLE, total_rate=1.0)
        payload["processes"] = [{"A": [[0.5]], "Q": [[1e-3]]}, {"A": [[1.2]], "Q": [[1.0]]}]
        path = write_config(tmp_path, payload)
        with time_limit(5, "solve"):
            assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_OK

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"total_rate": -1.0, "processes": [{"A": [[0.5]], "Q": [[1.0]]}]})
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG_ERROR

    def test_stable_curve_past_the_step_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # rho = 0.99 needs ~1150 steps to reach its tail cut; rho = 0.999999 would need ~10^7
        monkeypatch.setattr(fs.sensors, "_MAX_STEPS", 64)
        payload = dict(SINGLE_STABLE, processes=[{"A": [[0.99]], "Q": [[1.0]]}])
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "within 64 steps" in err and "too close to 1" in err

    def test_unstable_curve_past_the_step_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # rho = 1 never overflows; at eta = 0.5 its curve needs 3 steps, at 0.001 it would need 1001
        monkeypatch.setattr(fs.sensors, "_MAX_STEPS", 64)
        payload = dict(SINGLE_STABLE, processes=[{"A": [[1.0]], "Q": [[1.0]]}])
        assert main(["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path / "s")]) == EXIT_OK
        payload["solver"] = dict(payload["solver"], eta=1e-3)
        path = write_config(tmp_path, payload, name="small_floor.json")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "t")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "within 64 steps; the rate floor 0.001 is too small" in err

    def test_curves_are_built_only_as_deep_as_the_solve_reads_them(self, tmp_path, monkeypatch):
        # the fixture at budget 2: every unstable row stops within its final floor's segment, which
        # holds a row of threshold index xi + 2 entries deep, and each process's Riccati runs once
        loaded, solved, models, riccati = [], [], [], []
        load, solve = cli.load_config, fs.allocation.solve_maxmin
        hold, filter_covs = fs.CurveCostModel._hold, fs.sensors._filter_covs

        def spy_load(path):
            loaded.append(load(path))
            return loaded[-1]

        def spy_solve(*args):
            solved.append(solve(*args))
            return solved[-1]

        def spy_hold(model, *args):
            models.append(hold(model, *args))
            return models[-1]

        def spy_filter_covs(group):
            riccati.extend(group.rows.tolist())
            return filter_covs(group)

        monkeypatch.setattr(cli, "load_config", spy_load)
        monkeypatch.setattr(fs.allocation, "solve_maxmin", spy_solve)
        monkeypatch.setattr(fs.CurveCostModel, "_hold", spy_hold)
        monkeypatch.setattr(fs.sensors, "_filter_covs", spy_filter_covs)
        assert main(["solve", "--config", str(fs.fixture_path("paper_sec4")), "--out", str(tmp_path / "s")]) == EXIT_OK
        (cfg,), ((_, trace),) = loaded, solved
        assert sorted(riccati) == list(range(len(cfg.processes)))
        unstable = ~fs.stable_mask([p.A for p in cfg.processes])
        deepest = {i: fs.threshold_from_rate(lb).xi + 2 for i, lb in enumerate(trace.lower.tolist()) if unstable[i]}
        # every model of the processes built on the way, each row as deep as it was built
        rows = [(i, size) for model in models if model._groups is not None for i, size in enumerate(model._sizes)]
        assert rows and all(size <= deepest[i] for i, size in rows if unstable[i])
        assert max(size for i, size in rows if unstable[i]) <= 7  # no unstable row read past segment 5

    def test_simulate_runs_each_riccati_once(self, tmp_path, monkeypatch):
        # the simulator's traces and the analytic curves start from the same Pbar, kept on each process
        fixture = str(fs.fixture_path("paper_sec4"))
        assert main(["solve", "--config", fixture, "--out", str(tmp_path / "s")]) == EXIT_OK
        calls, filter_covs = [], fs.sensors._filter_covs

        def spy_filter_covs(group):
            calls.append(len(group))
            return filter_covs(group)

        monkeypatch.setattr(fs.sensors, "_filter_covs", spy_filter_covs)
        allocation = str(tmp_path / "s" / "allocation.json")
        assert main(["simulate", "--config", fixture, "--allocation", allocation, "--out", str(tmp_path / "m")]) == EXIT_OK
        processes = load_config(fixture).processes
        assert calls == [len(processes)] and len({p.C.shape for p in processes}) == 1

    @pytest.mark.parametrize("which", ["fixture", "two-process", "seed-7 fleet"])
    def test_solve_continues_rows_and_runs_no_held_step_again(self, tmp_path, monkeypatch, which):
        # from_processes builds every row from Pbar; each later call, floors_at's level extension too,
        # continues rows from the depth the model it extends holds, so each row runs exactly the steps
        # between its depth in the input model and its depth in the solve's model
        config = {"fixture": lambda: fs.fixture_path("paper_sec4"), "seed-7 fleet": lambda: seed7_fleet(tmp_path),
                  "two-process": lambda: write_config(tmp_path, TWO_PROCESS)}[which]()
        solved, calls, continued, curves = [], [], [], []
        solve, traced, cost_curve = fs.allocation.solve_maxmin, fs.sensors._traced, fs.CostCurve
        extend = fs.CurveCostModel._continued

        def spy_solve(costs, *args):
            solved.append((costs, solve(costs, *args)))
            return solved[-1][1]

        def spy_traced(groups, *args):  # args: caps, rates, stable, max_steps[, levels, starts]
            out = traced(groups, *args)
            depths = None if len(args) < 6 else np.asarray(args[5][0])
            calls.append((sum(map(len, groups)), depths, out[2], len(args) > 4 and args[4] is not None))
            return out

        def spy_continued(model, *args):
            continued.append((model, extend(model, *args)))
            return continued[-1][1]

        def spy_curve(**fields):
            curves.append(fields)
            return cost_curve(**fields)

        monkeypatch.setattr(fs.allocation, "solve_maxmin", spy_solve)
        monkeypatch.setattr(fs.sensors, "_traced", spy_traced)
        monkeypatch.setattr(fs.CurveCostModel, "_continued", spy_continued)
        monkeypatch.setattr(fs.sensors, "CostCurve", spy_curve)
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "s")]) == EXIT_OK
        assert not curves  # no CostCurve view is built on the way
        ((costs, (_, trace)),) = solved
        (size, depths, lengths, _), *extensions = calls
        assert size == costs.n and depths is None and lengths.tolist() == costs._sizes.tolist()
        # a continuation runs only the rows that take a step, each of them one step at least
        grown = [(model, out) for model, out in continued if (out._sizes > model._sizes).any()]
        assert len(grown) == len(extensions)
        steps = np.zeros(costs.n, dtype=int)
        for (model, out), (size, depths, lengths, _) in zip(grown, extensions):
            rows = np.flatnonzero(out._sizes > model._sizes)
            assert size == rows.size
            assert depths.tolist() == model._sizes[rows].tolist()  # each row starts where the model it extends stopped
            assert lengths.tolist() == out._sizes[rows].tolist()
            steps[rows] += lengths - depths
        assert steps.tolist() == (trace.model._sizes - costs._sizes).tolist()
        assert 2 <= len(extensions) <= 3 and sum(levelled for *_, levelled in extensions) == 1

    def test_lipschitz_bounds_hold_at_the_allocated_rates(self, tmp_path, bench_config):
        # eta = 0.5 floors sum past the budget 1.4, so the solve works at floors 0.25, and the
        # unstable rates land below 0.5: bounds taken on [eta, 1] would miss their segments
        out = tmp_path / "s"
        assert main(["solve", "--config", str(eta_half_fixture(tmp_path, 1.4)), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        rates, bounds = summary["allocation"], summary["lipschitz_bounds"]
        assert min(r for r, unstable in zip(rates, summary["unstable"]) if unstable) < 0.5
        for p, r, unstable, alpha, beta in zip(bench_config.processes, rates, summary["unstable"],
                                               bounds["alpha"], bounds["beta"]):
            curve = fs.build_cost_curve(p, r if unstable else 0.0)
            # a stable agent at rate 0 sits on its curve's affine tail
            xi = fs.threshold_from_rate(r).xi if r > 0 else curve.traces.size
            slope = abs(curve.segment_slope(xi))
            assert alpha <= slope <= beta


def cycling_fixture(tmp_path):
    """The paper fixture at budget 4 with ``distributed.beta = 10``: a log-price step too large for the
    curves, on which the distributed iterate settles into a 2-cycle."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload["total_rate"] = 4.0
    payload["distributed"]["beta"] = 10.0
    return write_config(tmp_path, payload, name="cycling.json")


def eta_half_fixture(tmp_path, total_rate):
    """The paper fixture with ``eta = 0.5`` at budget ``total_rate``: the three unstable floors sum to 1.5."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload["solver"]["eta"] = 0.5
    payload["total_rate"] = total_rate
    return write_config(tmp_path, payload, name=f"eta_half_{total_rate}.json")


class TestSimulateCommand:
    def test_tiny_rate_on_a_stable_process_is_fast(self, tmp_path):
        # rate 1e-9 on the stable process 3: one 10^6-step cycle, whose trace
        # table stops at the step where the covariance repeats
        alloc_path = tmp_path / "tiny.json"
        alloc_path.write_text(json.dumps({"rates": [0.5, 0.5, 0.5, 1e-9, 0.4]}))
        with time_limit(5, "simulate"):
            rc = main(["simulate", "--config", str(fs.fixture_path("paper_sec4")),
                       "--allocation", str(alloc_path), "--out", str(tmp_path / "m")])
        assert rc == EXIT_OK
        assert (tmp_path / "m" / "simulation_report.csv").exists()

    def test_all_ones_allocation_exact(self, tmp_path, bench_config):
        cfg_path = fs.fixture_path("paper_sec4")
        alloc_path = tmp_path / "ones.json"
        alloc_path.write_text(json.dumps({"rates": [1.0] * 5}))
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(cfg_path), "--allocation", str(alloc_path), "--out", str(out)])
        assert rc == EXIT_OK
        rows = np.loadtxt(out / "simulation_report.csv", delimiter=",", skiprows=2)
        for p, row in zip(bench_config.processes, rows):
            pbar = float(np.trace(fs.steady_state_filter_cov(p)))
            assert row[3] == pytest.approx(pbar, rel=1e-12)  # empirical
            assert row[4] == pytest.approx(pbar, rel=1e-12)  # analytical

    def test_budget_violation_warns_but_simulates(self, tmp_path):
        cfg_path = write_config(tmp_path, SINGLE_STABLE)
        alloc_path = tmp_path / "fat.json"
        alloc_path.write_text(json.dumps({"rates": [1.0]}))
        over = dict(SINGLE_STABLE, total_rate=0.5)
        cfg_path = write_config(tmp_path, over, name="over.json")
        out = tmp_path / "sim2"
        rc = main(["simulate", "--config", str(cfg_path), "--allocation", str(alloc_path), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "simulation_summary.json").read_text())
        assert summary["budget_exceeded"] is True

    def test_zero_rate_for_unstable_refused(self, tmp_path, capsys):
        payload = {
            "total_rate": 1.0,
            "processes": [{"A": [[1.2]], "Q": [[1.0]]}],
            "simulation": {"horizon": 1000, "seed": 1},
        }
        cases = [(write_config(tmp_path, payload), [0.0], 0),
                 (fs.fixture_path("paper_sec4"), [0.5, 0.0, 0.5, 0.0, 0.5], 1)]  # process 3 is stable
        for cfg_path, rates, refused in cases:
            alloc_path = tmp_path / "zero.json"
            alloc_path.write_text(json.dumps({"rates": rates}))
            argv = ["simulate", "--config", str(cfg_path), "--allocation", str(alloc_path), "--out", str(tmp_path / "x")]
            assert main(argv) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == (f"allocation is outside the supported rate domain: process {refused} "
                                               "is unstable and cannot run at rate 0: its error is unbounded\n")

    def test_rate_too_large_for_a_float_refused(self, tmp_path, capsys):
        alloc_path = tmp_path / "huge.json"
        alloc_path.write_text('{"rates": [0.4, 0.4, 0.4, 0.4, 1%s]}' % ("0" * 399))
        rc = main(["simulate", "--config", str(fs.fixture_path("paper_sec4")), "--allocation", str(alloc_path),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read allocation file {alloc_path}: ") and err.count("\n") == 1

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, SINGLE_STABLE)
        alloc_path = tmp_path / "half.json"
        alloc_path.write_text(json.dumps({"rates": [0.37]}))
        outs = {}
        for label, extra in (("config", []), ("same", ["--seed", "9"]), ("other", ["--seed", "10"])):
            out = tmp_path / f"seed_{label}"
            rc = main(["simulate", "--config", str(cfg_path), "--allocation", str(alloc_path),
                       "--out", str(out), *extra])
            assert rc == EXIT_OK
            outs[label] = (out / "simulation_report.csv").read_bytes()
        assert outs["config"] == outs["same"]  # config seed is 9
        assert outs["config"] != outs["other"]

    @pytest.mark.parametrize("payload", [[0.4] * 5, {"rates": [[0.4] * 5]}], ids=["array", "nested"])
    def test_malformed_allocation_rejected(self, tmp_path, capsys, payload):
        alloc_path = tmp_path / "malformed.json"
        alloc_path.write_text(json.dumps(payload))
        rc = main(["simulate", "--config", str(fs.fixture_path("paper_sec4")),
                   "--allocation", str(alloc_path), "--out", str(tmp_path / "y")])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("cannot read allocation file") and err.count("\n") == 1

    def test_wrong_length_allocation_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, SINGLE_STABLE)
        alloc_path = tmp_path / "wrong.json"
        alloc_path.write_text(json.dumps({"rates": [0.5, 0.5]}))
        rc = main(["simulate", "--config", str(cfg_path), "--allocation", str(alloc_path), "--out", str(tmp_path / "y")])
        assert rc == EXIT_CONFIG_ERROR


class TestDistributedCommand:
    def test_missing_section_is_config_error(self, tmp_path):
        path = write_config(tmp_path, SINGLE_STABLE)
        assert main(["distributed", "--config", str(path), "--out", str(tmp_path / "d")]) == EXIT_CONFIG_ERROR

    def test_small_instance_runs(self, tmp_path):
        payload = {
            "total_rate": 1.0,
            "processes": [{"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.7]], "Q": [[0.8]]}, {"A": [[0.3]], "Q": [[1.5]]}],
            "solver": {"eps0": 0.1, "eta": 0.5, "eps_r": 1e-8},
            "distributed": {"graph": [[1, 2], [0, 2], [0, 1]], "alpha": 0.01, "beta": 1.0,
                            "eps_r": 1e-8, "max_iters": 400000, "dual_mode": "mixing"},
        }
        path = write_config(tmp_path, payload)
        out = tmp_path / "dist"
        assert main(["distributed", "--config", str(path), "--out", str(out)]) == EXIT_OK
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["linf_gap"] <= 1e-2
        assert comparison["lambda_spread"] <= 1e-3
        assert "dual_mode" not in comparison
        assert (out / "dual_trace.csv").exists()

    @pytest.mark.parametrize("budget", [0.2, 0.5, 1.0, "two-process"])
    def test_converges_at_tight_budgets(self, tmp_path, capsys, budget):
        # the old round, r' = clip(r + alpha (J(r) - lam)), stalled (exit 3) in each of these
        if budget == "two-process":
            payload = TWO_PROCESS
        else:
            payload = dict(json.loads(fs.fixture_path("paper_sec4").read_text()), total_rate=budget)
        out = tmp_path / "d"
        with time_limit(20, "distributed"):
            assert main(["distributed", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["distributed_status"] == "converged"
        assert comparison["linf_gap"] <= 1e-2 and comparison["lambda_spread"] <= 1e-4

    def test_disconnected_graph_is_config_error(self, tmp_path):
        payload = {
            "total_rate": 1.0,
            "processes": [{"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.7]], "Q": [[0.8]]}],
            "distributed": {"graph": [[], []]},
        }
        path = write_config(tmp_path, payload)
        assert main(["distributed", "--config", str(path), "--out", str(tmp_path / "dg")]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("node", [2, -1, 10**30])
    def test_node_outside_the_graph_is_one_line_graph_error(self, tmp_path, capsys, node):
        # an index past int64 is refused like any other, not by an overflow in the conversion
        payload = {
            "total_rate": 1.0,
            "processes": [{"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.7]], "Q": [[0.8]]}],
            "distributed": {"graph": [[1], [0, node]]},
        }
        path = write_config(tmp_path, payload)
        assert main(["distributed", "--config", str(path), "--out", str(tmp_path / "dg")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"graph error: edge (1, {node}) references a node outside 0..1\n"

    def test_diverging_iterate_exits_3_with_one_line(self, tmp_path, capsys):
        # beta 1e7 scales the log-price step so far that a price overflows within a few rounds; only a
        # curve overflow in the centralized solve, also a NumericalError, is a configuration error
        config = fixture_with(tmp_path, "distributed", "beta", 1e7)
        assert main(["distributed", "--config", str(config), "--out", str(tmp_path / "dv")]) == EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        assert err.startswith("distributed solve failed: distributed iteration diverged") and err.count("\n") == 1

    def test_cycling_iterate_stops_as_stalled(self, tmp_path):
        # beta 10 at budget 4: the log prices overshoot into a 2-cycle with the residual stuck
        # at 8.59, so the run ends long before its 600,000 rounds
        out = tmp_path / "st"
        with time_limit(5, "distributed"):
            rc = main(["distributed", "--config", str(cycling_fixture(tmp_path)), "--out", str(out)])
        assert rc == EXIT_NOT_CONVERGED
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["distributed_status"] == "stalled"
        assert comparison["lambda_spread"] > 1.0

    @pytest.mark.parametrize("total_rate, codes", [(1.4, {EXIT_OK}), (1.0, {EXIT_OK})])
    def test_floors_over_budget_use_the_centralized_floors(self, tmp_path, capsys, total_rate, codes):
        # eta = 0.5 floors sum to 1.5, past the budget: the distributed box takes the centralized
        # solve's floors, as low as 0.125 at R = 1.0
        out = tmp_path / "d"
        with time_limit(20, "distributed"):
            rc = main(["distributed", "--config", str(eta_half_fixture(tmp_path, total_rate)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in codes and "Traceback" not in err and err.count("\n") <= 1
        comparison = json.loads((out / "comparison.json").read_text())
        if rc == EXIT_OK:
            assert comparison["linf_gap"] <= 1e-2


def scaled_fixture(tmp_path, factor, r_factor=1.0):
    """The paper fixture with the stable process 3's ``Q`` scaled by ``factor`` and its ``R`` set to ``r_factor`` I."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    process = payload["processes"][3]
    process["Q"] = [[v * factor for v in row] for row in process["Q"]]
    process["R"] = (r_factor * np.eye(len(process["Q"]))).tolist()
    return write_config(tmp_path, payload, name=f"q3_{factor}_{r_factor}.json")


def run_scaled(tmp_path, capsys, command, config, rate3=0.4):
    """``(exit code, stderr)`` of a command on ``config``; simulate reads rates of 0.4, and ``rate3`` for process 3."""
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "simulate":
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.4, 0.4, 0.4, rate3, 0.4]}))
        argv += ["--allocation", str(alloc_path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    return code, err


@pytest.mark.parametrize("factor", [1e20, 1e306])
@pytest.mark.parametrize("command", ["solve", "simulate", "distributed"])
def test_cancelled_filter_covariance_exits_2_with_one_line(tmp_path, capsys, command, factor):
    # Q of the stable process 3 scaled by 1e20 cancelled the subtracting update's filter covariance to 0, which
    # exited 2; the update by the matrix inversion lemma reads Tr(Pbar) = 2 and each command exits 0. At 1e306
    # the row's running sums overflow: each command exits 2, naming the process, with no RuntimeWarning.
    # simulate reads process 3 at rate 1e-3, whose curve runs deep enough to overflow
    code, err = run_scaled(tmp_path, capsys, command, scaled_fixture(tmp_path, factor), rate3=1e-3)
    if factor == 1e20:
        assert code == EXIT_OK and err == ""
        if command == "solve":
            assert json.loads((tmp_path / "out" / "summary.json").read_text())["costs"][3] == 2.0
    else:
        assert code == EXIT_CONFIG_ERROR and err.count("\n") == 1
        assert re.search(r"the (trace|simulated error) sums? of process 3 overflowed; the model is ill posed\n$", err)


@pytest.mark.parametrize("r_factor, rates", [(1.0, None), (1.0, 0.4), (1e306, 0.4)])
def test_simulate_reads_a_finite_mean_whose_error_sum_overflows(tmp_path, capsys, r_factor, rates):
    # process 3's Q scaled by 1e306 and its R set to r_factor I, at the fixture's allocation (None) or at rates
    # of 0.4: the curve is built down to the row's rate only, and its sums fit. The row's error summed over
    # 10^6 steps is past the float maximum, which exited 2, but its mean, 1e306 to 1.4e307, is not; every other
    # row keeps its bytes
    fixture = str(fs.fixture_path("paper_sec4"))
    allocation = tmp_path / "rates.json"
    if rates is None:
        assert main(["solve", "--config", fixture, "--out", str(tmp_path / "s")]) == EXIT_OK
        allocation = tmp_path / "s" / "allocation.json"
    else:
        allocation.write_text(json.dumps({"rates": [rates] * 5}))
    assert main(["simulate", "--config", fixture, "--allocation", str(allocation), "--out", str(tmp_path / "plain")]) == EXIT_OK
    capsys.readouterr()
    scaled = str(scaled_fixture(tmp_path, 1e306, r_factor))
    assert main(["simulate", "--config", scaled, "--allocation", str(allocation), "--out", str(tmp_path / "big")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    plain, big = ((tmp_path / d / "simulation_report.csv").read_text().splitlines() for d in ("plain", "big"))
    assert plain[:5] + plain[6:] == big[:5] + big[6:]  # line 5 is process 4's, index 3
    row = [float(v) for v in big[5].split(",")]
    assert 1e306 < row[3] < math.inf and row[5] < 1e-2


def test_simulate_exits_2_where_the_mean_error_overflows(tmp_path, capsys):
    # process 3's Q scaled by 1e304 at rate 1e-3: the curve's sums fit, down to its stable tail, but a cycle of
    # about 1000 steps sums past the float maximum, and so does the mean of 10^6 steps of error
    code, err = run_scaled(tmp_path, capsys, "simulate", scaled_fixture(tmp_path, 1e304), rate3=1e-3)
    assert code == EXIT_CONFIG_ERROR and err.count("\n") == 1
    assert re.search(r"the simulated error sum of process 3 overflowed; the model is ill posed\n$", err)


@pytest.mark.parametrize("command", ["solve", "simulate", "distributed"])
def test_stable_sums_that_overflow_exit_2_with_one_line(tmp_path, capsys, command):
    # R scaled with Q keeps the steady state near 1e306 too: solve exited 0 with RuntimeWarnings, and
    # distributed exited 3 "diverged". simulate reads process 3 at rate 1e-3, whose curve runs deep enough to
    # overflow
    code, err = run_scaled(tmp_path, capsys, command, scaled_fixture(tmp_path, 1e306, 1e306), rate3=1e-3)
    assert code == EXIT_CONFIG_ERROR and err.count("\n") == 1
    assert re.search(r"the (trace|simulated error) sums? of process 3 overflowed; the model is ill posed\n$", err)


@pytest.mark.parametrize("q, expected", [(1.0, EXIT_OK), (1e10, EXIT_CONFIG_ERROR)])
@pytest.mark.parametrize("command", ["solve", "distributed"])
def test_a_precise_sensor(tmp_path, capsys, command, q, expected):
    # R = 1e-300 I on process 0: the subtracting update cancelled, and exited 2. A Q of 1e10 I against it
    # makes I + Xp C' R^-1 C overflow, which names the process
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload["processes"][0].update(Q=(q * np.eye(2)).tolist(), R=(1e-300 * np.eye(2)).tolist())
    code, err = run_scaled(tmp_path, capsys, command, write_config(tmp_path, payload))
    assert code == expected and err.count("\n") == (expected != EXIT_OK)
    if expected != EXIT_OK:
        assert err.endswith("the filter covariance of process 0 overflowed; the model is ill posed\n")


def tiny_eta_fixture(tmp_path, total_rate=None, tied=False):
    """The paper fixture with ``eta = 1e-9``, at budget ``total_rate`` if given: a rho = 1.2 curve
    built down to ``eta`` overflows. ``tied`` keeps two copies of its first process, the rho = 1.2 one,
    on a two-node graph."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload["solver"]["eta"] = 1e-9
    if total_rate is not None:
        payload["total_rate"] = total_rate
    if tied:
        payload["processes"] = payload["processes"][:1] * 2
        payload["distributed"]["graph"] = [[1], [0]]
    return write_config(tmp_path, payload, name=f"tiny_eta_{total_rate}_{tied}.json")


class TestCurveOverflowExitsCleanly:
    """A curve that overflows while it is built ends a command with exit 2 and one line on stderr.

    ``solve`` and ``distributed`` build each curve only as deep as the solve reads it. Two copies of
    the rho = 1.2 process tie at the start point, so each keeps its start floor ``solver.eta``, and
    their curves are read, and built, down to ``eta``. ``simulate`` builds each curve only down to the
    allocated rate, so only a rate that small can overflow it.
    """

    def check(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "overflowed" in err

    def test_solve(self, tmp_path, capsys):
        config = tiny_eta_fixture(tmp_path, 0.2, tied=True)
        self.check(capsys, ["solve", "--config", str(config), "--out", str(tmp_path / "s")])

    def test_simulate(self, tmp_path, capsys):
        # simulate does not read solver.eta: the report is the shipped fixture's, byte for byte
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.4] * 5}))
        for name, config in (("tiny", tiny_eta_fixture(tmp_path)), ("shipped", fs.fixture_path("paper_sec4"))):
            assert main(["simulate", "--config", str(config), "--allocation", str(alloc_path),
                         "--out", str(tmp_path / name)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        report = "simulation_report.csv"
        assert (tmp_path / "tiny" / report).read_bytes() == (tmp_path / "shipped" / report).read_bytes()

    def test_distributed(self, tmp_path, capsys):
        config = tiny_eta_fixture(tmp_path, 0.2, tied=True)
        self.check(capsys, ["distributed", "--config", str(config), "--out", str(tmp_path / "d")])

    @pytest.mark.parametrize("command", ["solve", "distributed"])
    def test_curve_the_solve_does_not_read_is_not_built(self, tmp_path, capsys, command):
        # every unstable agent gets a value-bound floor far above eta, the costliest one at the start
        # point its start rate, and no curve is built down to eta; the overflow that eta would cause
        # never happens
        for total_rate, codes in ((0.2, {EXIT_OK}), (2.0, {EXIT_OK})):
            out = tmp_path / f"{command}_{total_rate}"
            assert main([command, "--config", str(tiny_eta_fixture(tmp_path, total_rate)), "--out", str(out)]) in codes
            assert capsys.readouterr().err == ""
            if command == "solve":
                summary = json.loads((out / "summary.json").read_text())
                assert summary["status"] == "converged"
                assert min(summary["allocation"][:3]) > 1e-2  # the three unstable agents
            else:
                assert json.loads((out / "comparison.json").read_text())["centralized_status"] == "converged"

    def check_simulate_tiny_rate(self, tmp_path, capsys, config):
        # rate 1e-9 on the rho = 1.2 process: a 10^9-step cycle, which must
        # neither be stepped through nor sized as one table
        alloc_path = tmp_path / "tiny.json"
        alloc_path.write_text(json.dumps({"rates": [1e-9, 0.5, 0.5, 0.5, 0.4]}))
        with time_limit(5, "simulate"):
            self.check(capsys, ["simulate", "--config", str(config),
                                "--allocation", str(alloc_path), "--out", str(tmp_path / "m")])

    def test_simulate_tiny_rate(self, tmp_path, capsys):
        # the simulator's recursion overflows within the 10^6-step horizon
        self.check_simulate_tiny_rate(tmp_path, capsys, fs.fixture_path("paper_sec4"))

    def test_simulate_tiny_rate_short_horizon(self, tmp_path, capsys):
        # 100 steps stay finite; extending the cost curve down to the rate overflows
        self.check_simulate_tiny_rate(tmp_path, capsys, fixture_with(tmp_path, "simulation", "horizon", 100))


class TestEntriesNearTheFloatMaximum:
    """Matrix entries and a first step size near the float maximum end each command with its exit code and
    at most one line on stderr: no traceback and no warning."""

    HUGE = [[1e308, 0.0], [0.0, 1e308]]

    def run(self, capsys, argv, code):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") <= 1 and "Traceback" not in err and "Warning" not in err
        return err

    @pytest.mark.parametrize("key, codes", [
        ("Q", (EXIT_OK, EXIT_CONFIG_ERROR)),  # the curve overflows at its first step
        ("R", (EXIT_OK, EXIT_OK)),  # solves; slope products near the float maximum that no bound reads overflow
        ("Pi0", (EXIT_OK, EXIT_OK)),  # the filter forgets its start
        ("skew Q", (EXIT_CONFIG_ERROR, EXIT_CONFIG_ERROR)),  # Q - Q' overflows: not symmetric
    ])
    def test_matrix(self, tmp_path, capsys, key, codes):
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        if key == "skew Q":
            payload["processes"][0]["Q"] = [[1.0, 1e308], [-1e308, 1.0]]
        else:
            payload["processes"][0][key] = self.HUGE
        path = str(write_config(tmp_path, payload))
        for command, code in zip(("validate-config", "solve"), codes):
            err = self.run(capsys, [command, "--config", path, "--out", str(tmp_path / command)], code)
            if key == "skew Q":
                assert err == "config error: processes[0]: Q must be symmetric\n"
        if codes[1] == EXIT_OK:
            summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
            assert summary["status"] == "converged"
            assert np.isfinite(summary["lipschitz_bounds"]["alpha"] + summary["lipschitz_bounds"]["beta"]).all()

    @pytest.mark.parametrize("index", [1, 2])
    def test_filter_covariance_that_overflows(self, tmp_path, capsys, index):
        # the Riccati row ends at its first non-finite iterate, not after 10^6 steps
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        payload["processes"][index]["Pi0"] = self.HUGE
        argv = ["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path / "o")]
        with time_limit(5, "solve"):
            err = self.run(capsys, argv, EXIT_CONFIG_ERROR)
        assert err == (f"cannot solve this configuration: the filter covariance of process {index} overflowed; "
                       "the model is ill posed\n")

    @pytest.mark.parametrize("index", [1, 2])
    def test_simulate_names_the_process_that_overflows(self, tmp_path, capsys, index):
        # the process is at fault, not the allocation: simulate read "allocation is outside the supported rate
        # domain:" here, a line kept for a rate outside a curve's domain
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        payload["processes"][index]["Pi0"] = self.HUGE
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.4] * 5}))
        argv = ["simulate", "--config", str(write_config(tmp_path, payload)), "--allocation", str(alloc_path),
                "--out", str(tmp_path / "o")]
        with time_limit(5, "simulate"):
            err = self.run(capsys, argv, EXIT_CONFIG_ERROR)
        assert err == (f"cannot simulate this configuration: the filter covariance of process {index} overflowed; "
                       "the model is ill posed\n")

    # an R of 1e300 I against a Q of 1e308 I: the filter steady state is finite, and the prediction overflows
    LARGE_R = [[1e300, 0.0], [0.0, 1e300]]

    def test_stable_prediction_that_overflows(self, tmp_path, capsys):
        # the stable row's floor is 0: no rate is at fault
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        payload["processes"][3].update(Q=self.HUGE, R=self.LARGE_R)
        argv = ["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path / "o")]
        err = self.run(capsys, argv, EXIT_CONFIG_ERROR)
        assert err == ("cannot solve this configuration: trace sequence overflowed at step 1; the stable process's "
                       "prediction covariance overflows\n")

    def test_unstable_prediction_that_overflows(self, tmp_path, capsys):
        # every rate reads step 1, where the unstable row overflows: the process is at fault, no rate
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        payload["processes"][0].update(Q=self.HUGE, R=self.LARGE_R)
        argv = ["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path / "o")]
        err = self.run(capsys, argv, EXIT_CONFIG_ERROR)
        assert err == ("cannot solve this configuration: trace sequence overflowed at step 1; the prediction "
                       "covariance of process 0 overflows at any rate\n")
        assert "rate 1.0" not in err and "too small" not in err

    @pytest.mark.parametrize("eps0", [1e308, 1.7e308])
    def test_first_step_size(self, tmp_path, capsys, eps0):
        out = tmp_path / "out"
        self.run(capsys, ["solve", "--config", str(fixture_with(tmp_path, "solver", "eps0", eps0)), "--out", str(out)],
                 EXIT_OK)
        assert json.loads((out / "summary.json").read_text())["status"] == "converged"

    def test_first_step_size_on_a_slack_budget(self, tmp_path, capsys):
        # the budget is slack, so the solve stops after one step with the schedule still at eps0; the
        # equilibrium probe once stepped eps0 * J from it, which overflowed into a ValueError
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        payload["total_rate"] = 10.0
        payload["solver"]["eps0"] = 1e308
        payload["processes"][3]["R"] = (10.0 * np.eye(2)).tolist()
        out = tmp_path / "out"
        self.run(capsys, ["solve", "--config", str(write_config(tmp_path, payload)), "--out", str(out)], EXIT_OK)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged" and summary["final_step_size"] == 1e308
        assert summary["allocation"] == [1.0] * 5 and summary["fixed_point_residual"] == 0.0

    def test_powers_of_a_that_overflow(self, tmp_path):
        # A^2 overflows: the rank tests refuse the entry before any SVD runs. In a separate process, as
        # LAPACK writes its complaints about non-finite input to the process's own stderr
        path = write_config(tmp_path, {"total_rate": 1.0, "processes": [
            {"A": [[-1.0, 0.0, -2.0], [-2.0, 1e308, -2.0], [2.0, -1.0, -1e308]], "Q": np.eye(3).tolist()}]})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(fs.__file__).parents[1]),
                                                          os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "fairsched.cli", "validate-config", "--config", str(path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == EXIT_CONFIG_ERROR
        assert run.stderr == "config error: processes[0]: the powers of A overflow, so its rank tests cannot run\n"


class TestValidateCommand:
    def test_ok(self):
        assert main(["validate-config", "--config", str(fs.fixture_path("paper_sec4"))]) == EXIT_OK

    def test_bad(self, tmp_path):
        path = write_config(tmp_path, {"total_rate": 1.0, "processes": [{"A": [[0.5]], "Q": [[-1.0]]}]})
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["validate-config", "solve"])
    def test_non_finite_matrix_exits_2(self, tmp_path, capsys, command, text):
        # Python's JSON parser accepts these literals
        path = tmp_path / "nan.json"
        path.write_text('{"total_rate": 1.0, "processes": [{"A": [[%s]], "Q": [[1.0]]}]}' % text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == "config error: processes[0]: A must have finite entries (NaN or infinity found)\n"

    @pytest.mark.parametrize("matrix, reason", [
        ("[[[0.5]]]", "A must be a matrix, got 3 dimensions"),
        ("[[[0.5, 1]]]", "A must be a matrix, got 3 dimensions"),
        ("[[{}]]", "A must hold numbers only: "),  # then the TypeError's own text
        pytest.param("[[1%s]]" % ("0" * 399), "A must hold numbers only: ", id="int-too-large-for-a-float"),
        # numpy would read these as 0.5, 1 and 0
        ('[["0.5"]]', "'A' must hold numbers only, got \"0.5\""),
        ("[[true]]", "'A' must hold numbers only, got true"),
        ("[[0.5, 0], [false, 0.5]]", "'A' must hold numbers only, got false"),
    ])
    def test_matrix_that_is_no_2d_array_of_numbers_exits_2(self, tmp_path, capsys, matrix, reason):
        path = tmp_path / "bad.json"
        path.write_text('{"total_rate": 1.0, "processes": [{"A": %s, "Q": [[1.0]]}]}' % matrix)
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: processes[0]: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize("entry, reason", [
        ({"Q": [[1.0]]}, "missing required matrix 'A'"),
        ({"A": [1.0], "Q": [[1.0]]}, "'A' must be a non-empty row-major nested list"),
    ])
    def test_missing_or_malformed_matrix_names_the_process_once(self, tmp_path, capsys, entry, reason):
        path = write_config(tmp_path, {"total_rate": 1.0, "processes": [entry]})
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: processes[0]: {reason}\n"


def spy_papers_step(monkeypatch) -> list:
    """Record every call of the paper's step, ``allocation.solve_inner``, and still run it."""
    calls, solve_inner = [], fs.allocation.solve_inner

    def spied(*args):
        calls.append(args)
        return solve_inner(*args)

    monkeypatch.setattr(fs.allocation, "solve_inner", spied)
    return calls


@pytest.mark.parametrize("which, commands", [
    ("fixture", ("solve", "distributed")),
    ("R of 1e308 I", ("solve", "distributed")),  # the CI's r_1e308 case
])
def test_no_command_takes_the_papers_step(tmp_path, monkeypatch, which, commands):
    # the slope-scaled step solves these; the paper's step is the fallback for a model without usable slopes
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    if which != "fixture":
        payload["processes"][0]["R"] = [[1e308, 0.0], [0.0, 1e308]]
    path = str(write_config(tmp_path, payload))
    calls = spy_papers_step(monkeypatch)
    for command in commands:
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == EXIT_OK
    assert calls == []


def fixture_with(tmp_path, section, key, value):
    """The paper fixture with one field of one section replaced."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload[section][key] = value
    return write_config(tmp_path, payload, name=f"{section}_{key}.json")


def assert_one_line_config_error(capsys, argv):
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


class TestSectionsValidatedAtLoad:
    """Bad ``distributed``, ``simulation`` and ``solver`` fields and a bad ``total_rate`` fail
    ``load_config``, so every command exits 2."""

    @pytest.mark.parametrize("key, value", [
        ("dual_mode", "foo"),
        ("step_a", -1),
        ("step_c", 0),
        ("eps_r", -1),
        ("max_iters", 0),
        ("graph", [[1, 4], [0, 2], [1, 3], [2, 4], "x"]),
        ("graph", [[1, 4], [0, 2], [1, 3], [2, 4], [3, 0.5]]),
        ("dual_mode", "penalty"),
        ("dual_mode", "penalty-asym"),
        ("alpha", -1),
        ("alpha", 1.5),  # a relaxation toward the best response, in (0, 1]
        ("beta", 0),
        ("alpha", True),
        ("beta", "1"),
        pytest.param("alpha", 10**400, id="alpha-huge-int"),
    ])
    def test_distributed_field(self, tmp_path, capsys, key, value):
        path = fixture_with(tmp_path, "distributed", key, value)
        with pytest.raises(ConfigError, match="distributed"):
            load_config(path)
        for command in ("validate-config", "distributed"):
            assert_one_line_config_error(capsys, [command, "--config", str(path), "--out", str(tmp_path / "d")])

    @pytest.mark.parametrize("value", ["penalty", "penalty-asym", "foo"])
    def test_removed_dual_mode_names_the_one_left(self, tmp_path, value):
        with pytest.raises(ConfigError, match="dual modes were removed and only 'mixing' remains"):
            load_config(fixture_with(tmp_path, "distributed", "dual_mode", value))

    @pytest.mark.parametrize("key", ["step_a", "step_c"])
    def test_legacy_step_keys_name_their_replacements(self, tmp_path, capsys, key):
        path = fixture_with(tmp_path, "distributed", key, 25.0)
        for command in ("validate-config", "distributed"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "d")]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == (
                f"config error: distributed.{key} was removed with the diminishing step schedule; "
                "set the constant steps distributed.alpha and distributed.beta instead\n"
            )

    def test_legacy_mixing_key_is_ignored(self, tmp_path, bench_config):
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        assert payload["distributed"].pop("dual_mode") == "mixing"  # the shipped fixture still has it
        assert load_config(write_config(tmp_path, payload)).distributed == bench_config.distributed
        assert not hasattr(bench_config.distributed, "dual_mode")

    @pytest.mark.parametrize("key, value", [("seed", -1), ("seed", True), ("horizon", 1000.5), ("horizon", 0),
                                            ("horizon", 2**64)])
    def test_simulation_field(self, tmp_path, capsys, key, value):
        path = fixture_with(tmp_path, "simulation", key, value)
        with pytest.raises(ConfigError, match=f"simulation.{key}"):
            load_config(path)
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.4] * 5}))
        assert_one_line_config_error(capsys, ["validate-config", "--config", str(path)])
        assert_one_line_config_error(capsys, ["simulate", "--config", str(path),
                                              "--allocation", str(alloc_path), "--out", str(tmp_path / "m")])

    @pytest.mark.parametrize("key, value", [
        ("eps0", math.nan),
        ("eps0", math.inf),
        ("eps_r", math.nan),
        ("max_inner_iters", 2.5),
        pytest.param("eps0", 10**400, id="eps0-huge-int"),
    ])
    def test_solver_field(self, tmp_path, capsys, key, value):
        path = fixture_with(tmp_path, "solver", key, value)
        with pytest.raises(ConfigError, match=f"solver.{key} must be"):
            load_config(path)
        for command in ("validate-config", "solve"):
            assert_one_line_config_error(capsys, [command, "--config", str(path), "--out", str(tmp_path / "s")])

    @pytest.mark.parametrize("value", [True, math.inf])
    def test_total_rate(self, tmp_path, capsys, value):
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        path = write_config(tmp_path, dict(payload, total_rate=value))
        with pytest.raises(ConfigError, match="'total_rate' must be a positive number"):
            load_config(path)
        for command in ("validate-config", "solve"):
            assert_one_line_config_error(capsys, [command, "--config", str(path), "--out", str(tmp_path / "s")])

    def test_solver_section_must_be_an_object(self, tmp_path):
        payload = json.loads(fs.fixture_path("paper_sec4").read_text())
        with pytest.raises(ConfigError, match="solver section: "):
            load_config(write_config(tmp_path, dict(payload, solver=[0.05])))

    def test_legacy_projection_tol_key_is_ignored(self, tmp_path, bench_config):
        shipped = fs.fixture_path("paper_sec4")
        assert "projection_tol" not in json.loads(shipped.read_text())["solver"]
        legacy = fixture_with(tmp_path, "solver", "projection_tol", 1e-9)
        assert load_config(legacy).solver == bench_config.solver
        for name, path in (("shipped", shipped), ("legacy", legacy)):
            assert main(["solve", "--config", str(path), "--out", str(tmp_path / name)]) == EXIT_OK
        outputs = sorted(p.name for p in (tmp_path / "shipped").iterdir())
        assert outputs == sorted(p.name for p in (tmp_path / "legacy").iterdir())
        for name in outputs:
            assert (tmp_path / "shipped" / name).read_bytes() == (tmp_path / "legacy" / name).read_bytes(), name
        with pytest.raises(TypeError):
            fs.SolverConfig(projection_tol=1e-9)

    def test_legacy_max_outer_iters_key_is_ignored(self, tmp_path, bench_config):
        # the eta-shrink outer loop it bounded is gone; any value, even one once rejected, is dropped
        assert "max_outer_iters" not in json.loads(fs.fixture_path("paper_sec4").read_text())["solver"]
        for value in (25, True):
            legacy = fixture_with(tmp_path, "solver", "max_outer_iters", value)
            assert load_config(legacy).solver == bench_config.solver
        assert main(["solve", "--config", str(legacy), "--out", str(tmp_path / "legacy")]) == EXIT_OK
        assert "outer_shrinks" not in json.loads((tmp_path / "legacy" / "summary.json").read_text())
        with pytest.raises(TypeError):
            fs.SolverConfig(max_outer_iters=25)


class TestArgumentRanges:
    @pytest.mark.parametrize("argv", [
        ["distributed", "--max-iters", "-1"],
        ["solve", "--max-iters", "-1"],
        ["solve", "--max-iters", "0"],
        ["simulate", "--allocation", "rates.json", "--seed", "-1"],
    ])
    def test_out_of_range_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(fs.fixture_path("paper_sec4"))])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate-config", "--seed", "1"],
        ["validate-config", "--max-iters", "5"],
        ["solve", "--seed", "1"],
        ["distributed", "--seed", "1"],
        ["simulate", "--allocation", "rates.json", "--max-iters", "5"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        # only simulate reads --seed, only solve and distributed read --max-iters
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(fs.fixture_path("paper_sec4"))])
        assert exc.value.code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err and "Traceback" not in err

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        # main parses with the parser built at import: a command builds none
        def no_parser(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
        fixture = str(fs.fixture_path("paper_sec4"))
        out = tmp_path / "solve"
        assert main(["validate-config", "--config", fixture]) == EXIT_OK
        assert main(["solve", "--config", fixture, "--out", str(out)]) == EXIT_OK
        assert main(["simulate", "--config", str(fixture_with(tmp_path, "simulation", "horizon", 1000)),
                     "--allocation", str(out / "allocation.json"), "--out", str(tmp_path / "sim")]) == EXIT_OK
        assert main(["distributed", "--config", fixture, "--max-iters", "10", "--out", str(tmp_path / "d")]) == \
            EXIT_NOT_CONVERGED
        for argv in (["solve", "--config", fixture, "--bad"], ["solve", "--config", fixture, "--max-iters", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_CONFIG_ERROR
        assert "Traceback" not in capsys.readouterr().err


class TestCsvWriter:
    """The streaming writer prints every cell as the per-cell rule ``reference_csv_bytes`` does."""

    VALUES = np.array([
        [-0.0, 1e-300, 1e16, 0.1 + 0.2],
        [1.0, 5e-324, -1.5, 123456789.0],
        [2.0 / 3.0, 1e300, 0.0, 1e-5],
    ])

    def test_integer_label_column(self, tmp_path):
        labels = np.array([0, 5, 12])  # numpy ints, as in solver traces, print as integers
        path = tmp_path / "t.csv"
        _write_csv(path, "t", ["iteration", "a", "b", "c", "d"], self.VALUES, labels)
        rows = [[t, *row] for t, row in zip(labels, self.VALUES)]
        assert path.read_bytes() == reference_csv_bytes("t", ["iteration", "a", "b", "c", "d"], rows)
        assert path.read_bytes().splitlines()[2] == b"0,-0.0,1e-300,1e+16,0.30000000000000004"

    def test_python_int_column_prints_as_float(self, tmp_path):
        # Python ints, as in the simulation report's process column, print as floats
        path = tmp_path / "t.csv"
        _write_csv(path, "t", ["process", "a", "b", "c", "d"], np.column_stack([[1, 2, 3], self.VALUES]))
        rows = [[i + 1, *row] for i, row in enumerate(self.VALUES.tolist())]
        assert path.read_bytes() == reference_csv_bytes("t", ["process", "a", "b", "c", "d"], rows)
        assert path.read_bytes().splitlines()[3].startswith(b"2.0,1.0,5e-324,")

    def test_fixture_solve_traces(self, tmp_path, bench_config):
        out = tmp_path / "fx"
        assert main(["solve", "--config", str(fs.fixture_path("paper_sec4")), "--out", str(out)]) == EXIT_OK
        region, costs, mask = _region_and_costs(bench_config)
        rates, trace = fs.solve_maxmin(costs, region, bench_config.solver, mask)
        n = region.n
        errors = np.linalg.norm(trace.rates - rates, axis=1)
        expected = {
            "allocation_trace.csv": (["iteration"] + [f"r{i + 1}" for i in range(n)], trace.rates),
            "cost_trace.csv": (["iteration"] + [f"J{i + 1}" for i in range(n)], trace.costs),
            "error_decay.csv": (["iteration", "error"], errors[:, None]),
        }
        for name, (header, values) in expected.items():
            rows = [[t, *row] for t, row in zip(trace.iterations, values)]
            assert (out / name).read_bytes() == reference_csv_bytes(name[:-4], header, rows), name


def synthetic_fleet(tmp_path, n=240, seed=3):
    """A seeded config of ``n`` scalar processes, a third of them unstable, sharing ``0.3 n``."""
    rng = np.random.default_rng(seed)
    rhos = np.where(np.arange(n) % 3 == 0, rng.uniform(1.02, 1.15, n), rng.uniform(0.2, 0.95, n))
    processes = [{"A": [[float(a)]], "Q": [[float(q)]]} for a, q in zip(rhos, rng.uniform(0.5, 4.0, n))]
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload.update(total_rate=0.3 * n, processes=processes)
    payload.pop("distributed")
    return write_config(tmp_path, payload, name="fleet.json")


TWO_PROCESS = {
    "total_rate": 0.3,
    "processes": [{"A": [[1.002]], "Q": [[0.001]]}, {"A": [[0.99]], "Q": [[10.0]]}],
    "solver": {"eta": 0.001},
    "distributed": {"graph": [[1], [0]]},
}  # the fair rate of the slowly unstable process, 7.19e-4, lies below eta


def seed7_fleet(tmp_path) -> Path:
    """The benchmark's seed-7 fleet of 1000 sensors, written by ``perfbench/fleet.py``."""
    spec = importlib.util.spec_from_file_location("fleet", Path(__file__).parents[1] / "perfbench" / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleet)
    solver = json.loads(fs.fixture_path("paper_sec4").read_text())["solver"]
    return fleet.write_fleet(tmp_path / "fleet.json", 1000, 7, solver, 100_000)


class TestTraceOutputMemory:
    """``solve`` writes its trace without table-sized copies, and with the same bytes."""

    def test_rows_converted_one_at_a_time(self, tmp_path):
        values = np.random.default_rng(11).standard_normal((400, 1000)) * 10.0 ** np.arange(-8, 12, 0.02)
        labels = np.arange(0, 4000, 10)
        header = ["iteration"] + [f"r{i + 1}" for i in range(1000)]
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            _write_csv(path, "t", header, values, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole table as Python floats takes 32 bytes a cell: ~12.8 MB
        assert peak < values.size * 32 / 20
        rows = [[t, *row] for t, row in zip(labels, values)]
        assert path.read_bytes() == reference_csv_bytes("t", header, rows)

    def test_trace_and_error_decay_on_seed7_fleet(self, tmp_path, monkeypatch):
        solved, solve = [], fs.allocation.solve_maxmin

        def spied_solve(*args):
            solved.append(solve(*args))
            return solved[-1]

        monkeypatch.setattr(fs.allocation, "solve_maxmin", spied_solve)
        papers_steps = spy_papers_step(monkeypatch)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(seed7_fleet(tmp_path)), "--out", str(out)]) == EXIT_OK
        assert papers_steps == []  # the slope-scaled step solved all 1000 agents
        ((rates, trace),) = solved
        assert trace.iterations.tolist() == list(range(len(trace)))
        assert trace.rates.shape == trace.costs.shape == (len(trace), rates.size)
        for k in range(len(trace)):
            assert trace.costs[k].tobytes() == trace.model.values(trace.rates[k]).tobytes(), k
        errors = np.linalg.norm(trace.rates - rates, axis=1)
        rows = [[t, e] for t, e in zip(trace.iterations, errors)]
        assert (out / "error_decay.csv").read_bytes() == reference_csv_bytes("error_decay", ["iteration", "error"], rows)


def trace_rows(rows: int, n: int) -> np.ndarray:
    """The rows ``solve`` writes of an ``n``-column trace table of ``rows`` rows."""
    return cli._kept_rows(rows, max(2, cli._TRACE_CELLS // n))


def csv_lines_by_label(path: Path) -> dict[str, bytes]:
    """Each data line of a CSV by the text of its first cell."""
    return {line.split(b",", 1)[0].decode(): line for line in path.read_bytes().splitlines()[2:]}


class TestTraceThinning:
    """``solve``'s two trace tables keep at most ``_TRACE_CELLS`` cells each, in whole labelled rows."""

    @pytest.mark.parametrize("rows, n", [(50, 1000), (10_000, 5), (50_000, 1), (25_000, 2)])
    def test_tables_of_the_cell_cap_are_whole(self, rows, n):
        assert rows * n == cli._TRACE_CELLS == 50_000
        assert trace_rows(rows, n).tolist() == list(range(rows))

    @pytest.mark.parametrize("rows, n", [(50_001, 1), (16_667, 3), (7_143, 7), (51, 1000)])
    def test_tables_past_the_cell_cap_are_thinned(self, rows, n):
        kept = trace_rows(rows, n)
        assert rows * n > cli._TRACE_CELLS
        assert kept.size * n <= cli._TRACE_CELLS and kept[0] == 0 and kept[-1] == rows - 1

    def test_kept_rows_bounds(self):
        for max_rows in (2, 3, 4, 7, 50, 2000):
            for rows in [*range(1, 200), 303, 304, 1999, 2000, 2001, 10_012, 123_457]:
                kept = cli._kept_rows(rows, max_rows)
                assert kept[0] == 0 and kept[-1] == rows - 1, (rows, max_rows)
                assert np.all(np.diff(kept) > 0), (rows, max_rows)
                assert kept.size <= max_rows, (rows, max_rows)
                stride = -(-(rows - 1) // (max_rows - 1)) if rows > max_rows else 1
                assert kept[:-1].tolist() == list(range(0, rows - 1, stride)), (rows, max_rows)
        assert cli._kept_rows(1000, 2).tolist() == [0, 999]
        assert cli._kept_rows(1, 2).tolist() == [0]

    def test_seed7_fleet_traces_keep_labelled_reference_lines(self, tmp_path, monkeypatch):
        solved, solve = [], fs.allocation.solve_maxmin

        def spied_solve(*args):
            solved.append(solve(*args))
            return solved[-1]

        monkeypatch.setattr(fs.allocation, "solve_maxmin", spied_solve)
        config_path = seed7_fleet(tmp_path)
        assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "solve")]) == EXIT_OK
        ((_, built),) = solved
        # the solve's own trace fits the cap; the paper's step from its start point, floors and model
        # takes some 300 iterations, whose report is thinned
        cfg = load_config(config_path)
        region, _, mask = _region_and_costs(cfg)
        floored = fs.FeasibleRegion(region.total, built.lower, region.upper)
        rates, trace = fs.solve_inner(built.rates[0], built.model, floored, cfg.solver)
        out = tmp_path / "out"
        out.mkdir()
        cli._write_solve_report(out, rates, trace, region, mask)
        n, iterations = rates.size, json.loads((out / "summary.json").read_text())["iterations"]
        for name, values, column in (("allocation_trace", trace.rates, "r"), ("cost_trace", trace.costs, "J")):
            header = ["iteration"] + [f"{column}{i + 1}" for i in range(n)]
            lines = (out / f"{name}.csv").read_bytes().splitlines()
            assert lines[:2] == reference_csv_bytes(name, header, []).splitlines()
            labels = [int(line.split(b",", 1)[0]) for line in lines[2:]]
            assert labels[0] == 0 and labels[-1] == iterations == len(trace) - 1
            assert len(labels) * n <= cli._TRACE_CELLS < len(trace) * n
            for k, line in zip(labels, lines[2:]):
                reference = reference_csv_bytes(name, header, [[trace.iterations[k], *values[k]]])
                assert line == reference.splitlines()[2], (name, k)
        errors = np.linalg.norm(trace.rates - rates, axis=1)
        rows = [[t, e] for t, e in zip(trace.iterations, errors)]
        assert (out / "error_decay.csv").read_bytes() == reference_csv_bytes("error_decay", ["iteration", "error"], rows)

    @pytest.mark.parametrize("slack", [0, 1])
    def test_cell_cap_applies_to_the_solve_tables(self, tmp_path, monkeypatch, slack):
        fixture = str(fs.fixture_path("paper_sec4"))
        assert main(["solve", "--config", fixture, "--out", str(tmp_path / "whole")]) == EXIT_OK
        rows = len((tmp_path / "whole" / "error_decay.csv").read_bytes().splitlines()) - 2
        monkeypatch.setattr(cli, "_TRACE_CELLS", 5 * rows - slack)
        assert main(["solve", "--config", fixture, "--out", str(tmp_path / "capped")]) == EXIT_OK
        for name in ("allocation_trace.csv", "cost_trace.csv"):
            whole, capped = csv_lines_by_label(tmp_path / "whole" / name), csv_lines_by_label(tmp_path / "capped" / name)
            expected = range(rows) if slack == 0 else [*range(0, rows - 1, 2), rows - 1]  # stride 2 past the cap
            assert list(capped) == [str(k) for k in expected], name
            assert all(whole[label] == line for label, line in capped.items()), name
        for name in ("error_decay.csv", "summary.json", "allocation.json"):
            assert (tmp_path / "capped" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name

    def test_synthetic_fleet_outputs_repeat(self, tmp_path):
        config = synthetic_fleet(tmp_path)
        runs = []
        for name in ("first", "again"):
            assert main(["solve", "--config", str(config), "--out", str(tmp_path / name)]) == EXIT_OK
            runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert sorted(runs[0]) == sorted(runs[1]) and len(runs[0]) == 5
        for name, data in runs[0].items():
            assert runs[1][name] == data, name


def test_stalled_distributed_run_ends_its_dual_trace_with_the_last_round(tmp_path, monkeypatch):
    # the cycling fixture's distributed run stalls after some 10^4 rounds
    reports, compare = [], fs.distributed.compare_with_centralized

    def spied_compare(*args, **kwargs):
        reports.append(compare(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(fs.distributed, "compare_with_centralized", spied_compare)
    config = cycling_fixture(tmp_path)
    assert main(["distributed", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_NOT_CONVERGED
    (report,) = reports
    trace = report.distributed_trace
    assert report.distributed_status == "stalled" and len(trace) > 2000
    data = (tmp_path / "out" / "dual_trace.csv").read_bytes()
    labels = [int(float(line.split(b",", 1)[0])) for line in data.splitlines()[2:]]
    assert len(labels) <= 2000 and labels[0] == 0 and labels[-1] == len(trace) - 1
    rows = [[float(k), trace.residuals[k], trace.lambda_spreads[k]] for k in labels]
    assert data == reference_csv_bytes("dual_trace", ["iteration", "residual", "lambda_spread"], rows)


def test_distributed_with_a_huge_round_cap_matches_the_default_run(tmp_path, capsys):
    # the cap only bounds the loop: nothing is allocated for rounds that are never run
    fixture = str(fs.fixture_path("paper_sec4"))
    assert main(["distributed", "--config", fixture, "--out", str(tmp_path / "default")]) == EXIT_OK
    capsys.readouterr()
    argv = ["distributed", "--config", fixture, "--max-iters", "10000000000", "--out", str(tmp_path / "capped")]
    assert main(argv) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    for name in ("comparison.json", "dual_trace.csv"):
        assert (tmp_path / "capped" / name).read_bytes() == (tmp_path / "default" / name).read_bytes(), name


class TestTinyRates:
    def test_subnormal_rate_exits_2_with_one_line(self, tmp_path, capsys):
        # process 3 of the fixture is stable; 1 / 5e-324 overflows
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.5, 0.5, 0.5, 5e-324, 0.4]}))
        argv = ["simulate", "--config", str(fs.fixture_path("paper_sec4")), "--allocation", str(alloc_path),
                "--out", str(tmp_path / "m")]
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "5e-324" in err

    def test_rate_far_below_any_floor_simulates(self, tmp_path):
        # a stable process at rate 1e-150: its cycle outlasts the horizon, and its mean length cubed overflows
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.5, 0.5, 0.5, 1e-150, 0.4]}))
        out = tmp_path / "m"
        assert main(["simulate", "--config", str(fs.fixture_path("paper_sec4")), "--allocation", str(alloc_path),
                     "--out", str(out)]) == EXIT_OK
        row = (out / "simulation_report.csv").read_text().splitlines()[5].split(",")
        assert row[:3] == ["4.0", "1e-150", "0.0"]


# scalars as the JSON outputs hold them, and the corners of their text: NaN, infinities, -0.0, the smallest
# subnormal, integers past 2^63, and strings holding ", ", quotes, escapes or non-ASCII
JSON_SCALARS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 2.0**63]),
    st.integers(min_value=-2**80, max_value=2**80), st.booleans(), st.none(),
    st.text(alphabet=st.sampled_from([",", " ", "a", "é", "日", "\n", '"', "\\", "\x00", "\u2028", "\U0001f600"]),
            max_size=6),
    st.sampled_from(["a, b", ", ", "[1, 2]"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=40)
# solve's summary: lipschitz_bounds holds an error or two lists
SUMMARIES = st.fixed_dictionaries({
    "allocation": st.lists(st.floats(), max_size=30), "unstable": st.lists(st.booleans(), max_size=30),
    "active_set": st.lists(st.integers(min_value=0, max_value=2**64), max_size=5), "status": st.text(max_size=8),
    "lipschitz_bounds": st.one_of(st.fixed_dictionaries({"error": st.text(max_size=20)}),
                                  st.fixed_dictionaries({"alpha": st.lists(st.floats()), "beta": st.lists(st.floats())})),
    "game_value": JSON_SCALARS, "rest": JSON_VALUES,
})


class TestJsonWriter:
    """``_write_json`` writes ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, byte for byte."""

    @given(st.one_of(SUMMARIES, JSON_VALUES))
    @settings(max_examples=400, deadline=None)
    def test_text_equals_the_stdlib(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_file_bytes_equal_the_stdlib(self, tmp_path):
        payload = {"b": [1.0, -0.0, 5e-324, math.nan, -math.inf, 2**64, True, None, "a, b", "é"], "a": {},
                   "c": [[], {}, [1, [2.5]], {"z": (1, 2), "y": "x"}], "d": {1: "int key", 2: [3.0]}, "e": (),
                   "lipschitz_bounds": {"error": "segment 3, past the floor"}}
        cli._write_json(tmp_path / "out.json", payload)
        assert (tmp_path / "out.json").read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
