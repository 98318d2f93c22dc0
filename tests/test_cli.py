import importlib.util
import json
import math
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fairsched as fs
from fairsched import cli
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


def load_mix(seed=10):
    """Seeded config entries: good 1-, 2- and 3-d processes and one of each kind of bad entry, shuffled.

    Good tails follow, so late start indices load; every other good process
    has its own ``C``, ``R`` and ``Pi0``.
    """
    rng = np.random.default_rng(seed)

    def good(dim):
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

    @pytest.mark.parametrize("command, name, gate", [
        ("solve", "allocation_trace.csv", math.inf),
        ("solve", "allocation_trace.csv", 0),  # the child fails, then the parent's own write
        ("solve", "cost_trace.csv", 0),
        ("solve", "summary.json", 0),
        ("simulate", "simulation_report.csv", 0),
        ("distributed", "dual_trace.csv", 0),
        ("distributed", "comparison.json", 0),
    ])
    def test_output_file_is_a_directory(self, tmp_path, capsys, monkeypatch, command, name, gate):
        monkeypatch.setattr(cli, "_FORK_MIN_CELLS", gate)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = [command, "--config", str(fs.fixture_path("paper_sec4")), "--out", str(out)]
        if command == "simulate":
            rates = tmp_path / "rates.json"
            rates.write_text(json.dumps({"rates": [0.4] * 5}))
            argv += ["--allocation", str(rates)]
        self.check(capsys, argv, f"cannot write {out / name}: Is a directory")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
        payload["solver"] = {"eps0": 0.1, "eta": 0.5, "eps_r": 1e-13, "max_inner_iters": 4}
        path = write_config(tmp_path, payload)
        out = tmp_path / "nc"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == EXIT_NOT_CONVERGED
        assert (out / "allocation_trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] != "converged"

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

    def test_zero_rate_for_unstable_refused(self, tmp_path):
        payload = {
            "total_rate": 1.0,
            "processes": [{"A": [[1.2]], "Q": [[1.0]]}],
            "simulation": {"horizon": 1000, "seed": 1},
        }
        cfg_path = write_config(tmp_path, payload)
        alloc_path = tmp_path / "zero.json"
        alloc_path.write_text(json.dumps({"rates": [0.0]}))
        rc = main(["simulate", "--config", str(cfg_path), "--allocation", str(alloc_path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG_ERROR

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

    def test_disconnected_graph_is_config_error(self, tmp_path):
        payload = {
            "total_rate": 1.0,
            "processes": [{"A": [[0.5]], "Q": [[1.0]]}, {"A": [[0.7]], "Q": [[0.8]]}],
            "distributed": {"graph": [[], []]},
        }
        path = write_config(tmp_path, payload)
        assert main(["distributed", "--config", str(path), "--out", str(tmp_path / "dg")]) == EXIT_CONFIG_ERROR

    def test_cycling_iterate_stops_as_stalled(self, tmp_path):
        # alpha 0.1 on the fixture: the iterate cycles with the residual stuck
        # at 8.18, so the run ends long before its 600,000 rounds
        out = tmp_path / "st"
        with time_limit(5, "distributed"):
            rc = main(["distributed", "--config", str(fixture_with(tmp_path, "distributed", "alpha", 0.1)),
                       "--out", str(out)])
        assert rc == EXIT_NOT_CONVERGED
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["distributed_status"] == "stalled"
        assert comparison["lambda_spread"] > 1.0

    @pytest.mark.parametrize("total_rate, codes", [(1.4, {EXIT_OK}), (1.0, {EXIT_OK, EXIT_NOT_CONVERGED})])
    def test_floors_over_budget_use_the_centralized_floors(self, tmp_path, capsys, total_rate, codes):
        # eta = 0.5 floors sum to 1.5, past the budget: the distributed box takes the centralized
        # solve's floors, as low as 0.125 at R = 1.0, where alpha = 0.01 may stall
        out = tmp_path / "d"
        with time_limit(20, "distributed"):
            rc = main(["distributed", "--config", str(eta_half_fixture(tmp_path, total_rate)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in codes and "Traceback" not in err and err.count("\n") <= 1
        comparison = json.loads((out / "comparison.json").read_text())
        if rc == EXIT_OK:
            assert comparison["linf_gap"] <= 1e-2


def tiny_eta_fixture(tmp_path):
    """The paper fixture with ``eta = 1e-9``: the rho = 1.2 curve overflows while it is built."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload["solver"]["eta"] = 1e-9
    return write_config(tmp_path, payload, name="tiny_eta.json")


class TestCurveOverflowExitsCleanly:
    """A curve that overflows while it is built ends a command with exit 2 and one line on stderr.

    ``solve`` and ``distributed`` build every unstable curve down to ``solver.eta``;
    ``simulate`` builds each curve only down to the allocated rate, so only a
    rate that small can overflow it.
    """

    def check(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "overflowed" in err

    def test_solve(self, tmp_path, capsys):
        self.check(capsys, ["solve", "--config", str(tiny_eta_fixture(tmp_path)), "--out", str(tmp_path / "s")])

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
        self.check(capsys, ["distributed", "--config", str(tiny_eta_fixture(tmp_path)), "--out", str(tmp_path / "d")])

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

    @pytest.mark.parametrize("key, value", [("seed", -1), ("seed", True), ("horizon", 1000.5), ("horizon", 0)])
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

    def test_forked_write_matches_reference(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_FORK_MIN_CELLS", 0)
        forks = count_forks(monkeypatch)
        labels = np.array([0, 5, 12])
        path = tmp_path / "t.csv"
        with cli._csv_written_aside(path, "t", ["iteration", "a", "b", "c", "d"], self.VALUES, labels):
            pass
        assert forks == [1]
        rows = [[t, *row] for t, row in zip(labels, self.VALUES)]
        assert path.read_bytes() == reference_csv_bytes("t", ["iteration", "a", "b", "c", "d"], rows)


def count_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to count its calls in the parent; the returned list holds the count."""
    calls, fork = [0], os.fork

    def counted():
        pid = fork()
        if pid:
            calls[0] += 1
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return calls


def synthetic_fleet(tmp_path, n=240, seed=3):
    """A seeded config of ``n`` scalar processes, a third of them unstable, sharing ``0.3 n``."""
    rng = np.random.default_rng(seed)
    rhos = np.where(np.arange(n) % 3 == 0, rng.uniform(1.02, 1.15, n), rng.uniform(0.2, 0.95, n))
    processes = [{"A": [[float(a)]], "Q": [[float(q)]]} for a, q in zip(rhos, rng.uniform(0.5, 4.0, n))]
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload.update(total_rate=0.3 * n, processes=processes)
    payload.pop("distributed")
    return write_config(tmp_path, payload, name="fleet.json")


def solve_outputs(tmp_path, monkeypatch, config, name, gate) -> dict:
    """Every file ``solve`` writes for ``config`` with the fork gate at ``gate``, by name."""
    monkeypatch.setattr(cli, "_FORK_MIN_CELLS", gate)
    out = tmp_path / name
    assert main(["solve", "--config", str(config), "--out", str(out)]) in (EXIT_OK, EXIT_NOT_CONVERGED)
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestForkedTraceWrite:
    """``solve`` writes ``allocation_trace.csv`` in a forked child, with the bytes of the serial write."""

    @pytest.mark.parametrize("which", ["fixture", "fleet"])
    def test_outputs_equal_serial_write(self, tmp_path, monkeypatch, which):
        config = fs.fixture_path("paper_sec4") if which == "fixture" else synthetic_fleet(tmp_path)
        forks = count_forks(monkeypatch)
        serial = solve_outputs(tmp_path, monkeypatch, config, "serial", math.inf)
        assert forks == [0]
        forked = solve_outputs(tmp_path, monkeypatch, config, "forked", 0)
        assert forks == [1]
        assert sorted(forked) == sorted(serial) and len(serial) == 5
        for name, data in serial.items():
            assert forked[name] == data, name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fixture_writes_serially(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        assert main(["solve", "--config", str(fs.fixture_path("paper_sec4")), "--out", str(tmp_path)]) == EXIT_OK
        assert forks == [0]

    def test_child_reaped_when_parent_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_FORK_MIN_CELLS", 0)

        def broken(*args):
            raise RuntimeError("report failed")

        monkeypatch.setattr(cli, "_write_json", broken)
        with pytest.raises(RuntimeError, match="report failed"):
            main(["solve", "--config", str(fs.fixture_path("paper_sec4")), "--out", str(tmp_path)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("death", ["exit", "signal"])
    def test_failed_child_rewritten_by_parent(self, tmp_path, monkeypatch, death):
        serial = solve_outputs(tmp_path, monkeypatch, fs.fixture_path("paper_sec4"), "serial", math.inf)
        parent, write = os.getpid(), cli._write_csv

        def failing_in_child(path, *args):
            if os.getpid() != parent:
                if death == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise OSError(28, "No space left on device", str(path))
            write(path, *args)

        monkeypatch.setattr(cli, "_write_csv", failing_in_child)
        forked = solve_outputs(tmp_path, monkeypatch, fs.fixture_path("paper_sec4"), "forked", 0)
        assert forked == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
        built, solved = [], []
        build, solve = fs.allocation._TraceRecorder.build, fs.allocation.solve_maxmin

        def spied_build(rec, *args):
            built.append(np.concatenate(rec.blocks[:-1] + [rec.blocks[-1][:rec.filled]]))
            return build(rec, *args)

        def spied_solve(*args):
            solved.append(solve(*args))
            return solved[-1]

        monkeypatch.setattr(fs.allocation._TraceRecorder, "build", spied_build)
        monkeypatch.setattr(fs.allocation, "solve_maxmin", spied_solve)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(seed7_fleet(tmp_path)), "--out", str(out)]) == EXIT_OK
        (table,), ((rates, trace),) = built, solved
        n = rates.size
        assert table.shape == (trace.iterations.size, 3 + 2 * n)
        for got, want in ((trace.iterations, table[:, 0].astype(int)), (trace.step_sizes, table[:, 1]),
                          (trace.residuals, table[:, 2]), (trace.rates, table[:, 3:3 + n]),
                          (trace.costs, table[:, 3 + n:])):
            assert got.tobytes() == want.tobytes()
        errors = np.linalg.norm(trace.rates - rates, axis=1)
        rows = [[t, e] for t, e in zip(trace.iterations, errors)]
        assert (out / "error_decay.csv").read_bytes() == reference_csv_bytes("error_decay", ["iteration", "error"], rows)


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
