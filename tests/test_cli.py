import json
import math
from pathlib import Path

import numpy as np
import pytest

import fairsched as fs
from fairsched.cli import EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, _region_and_costs, _write_csv, main
from fairsched.config import ConfigError, load_config
from helpers import reference_csv_bytes, time_limit


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
        # the first curve's tail cut is out of reach (see test_sensors); it used to build forever
        payload = dict(SINGLE_STABLE, total_rate=1.0)
        payload["processes"] = [{"A": [[0.5]], "Q": [[1e-3]]}, {"A": [[1.2]], "Q": [[1.0]]}]
        path = write_config(tmp_path, payload)
        with time_limit(5, "solve"):
            assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_OK

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"total_rate": -1.0, "processes": [{"A": [[0.5]], "Q": [[1.0]]}]})
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG_ERROR


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


def tiny_eta_fixture(tmp_path):
    """The paper fixture with ``eta = 1e-9``: the rho = 1.2 curve overflows while it is built."""
    payload = json.loads(fs.fixture_path("paper_sec4").read_text())
    payload["solver"]["eta"] = 1e-9
    return write_config(tmp_path, payload, name="tiny_eta.json")


class TestCurveOverflowExitsCleanly:
    """A curve that overflows while it is built ends every command with exit 2 and one line on stderr."""

    def check(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "overflowed" in err

    def test_solve(self, tmp_path, capsys):
        self.check(capsys, ["solve", "--config", str(tiny_eta_fixture(tmp_path)), "--out", str(tmp_path / "s")])

    def test_simulate(self, tmp_path, capsys):
        alloc_path = tmp_path / "rates.json"
        alloc_path.write_text(json.dumps({"rates": [0.4] * 5}))
        self.check(capsys, ["simulate", "--config", str(tiny_eta_fixture(tmp_path)),
                            "--allocation", str(alloc_path), "--out", str(tmp_path / "m")])

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
        ("max_outer_iters", True),
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
