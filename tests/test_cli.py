import csv
import re
import warnings

import numpy as np
import pytest

from dkfsim.cli import main
from dkfsim.errors import ConfigError
from dkfsim.sensing import load_network

from conftest import ALL_LATE


def write_cfg(tmp_path, **overrides):
    base = dict(
        n_sensors=50, horizon=70, iterations=10, k_bar=10, seed=7,
        mode="stability", runs=3,
    )
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items()]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_simulate_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trace_fixed.csv").exists()
    assert "fixed subset" in capsys.readouterr().out


def test_select_greedy_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["select-greedy", "--config", str(cfg), "--out", str(out),
                 "--iterations", "8"])
    assert code == 0
    assert (out / "greedy_report.csv").exists()
    text = capsys.readouterr().out
    assert "best iteration" in text


def test_select_stability_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["select-stability", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "stability_report.csv").exists()


def test_montecarlo_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["montecarlo", "--config", str(cfg), "--out", str(out), "--runs", "2"])
    assert code == 0
    assert (out / "montecarlo_summary.csv").exists()
    assert "mse_mean" in capsys.readouterr().out


def test_observability_check_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["observability-check", "--config", str(cfg)])
    assert code == 0
    text = capsys.readouterr().out
    assert "structurally observable: True" in text


@pytest.mark.parametrize("command, flag", [
    ("observability-check", "--out"),
    ("observability-check", "--runs"),
    ("simulate", "--runs"),
    ("select-greedy", "--runs"),
    ("select-stability", "--runs"),
    ("simulate", "--iterations"),
    ("select-stability", "--iterations"),
    ("montecarlo", "--iterations"),
    ("observability-check", "--iterations"),
])
def test_flag_outside_its_subcommand_is_usage_error(tmp_path, capsys, command, flag):
    # a flag a subcommand would ignore is refused, not silently accepted
    cfg = write_cfg(tmp_path)
    assert main([command, "--config", str(cfg), flag, "2"]) == 64  # EXIT_USAGE, not EXIT_IO's 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not (tmp_path / "2").exists()


def test_missing_seed_is_validation_error(tmp_path):
    # every subcommand refuses an unseeded config instead of drawing from OS entropy
    path = tmp_path / "noseed.cfg"
    path.write_text("n_sensors = 10\n")
    for command in ("simulate", "select-greedy", "select-stability", "montecarlo",
                    "observability-check"):
        out = [] if command == "observability-check" else ["--out", str(tmp_path / "o")]
        assert main([command, "--config", str(path), *out]) == 1, command


def test_bad_config_key_is_validation_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 1\nbogus_key = 2\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_unreadable_network_file_is_io_error(tmp_path):
    cfg = write_cfg(tmp_path, network_file=str(tmp_path / "missing.txt"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_montecarlo_failed_runs_exit_nonzero(tmp_path):
    # every node's delay exceeds the horizon, so every run selects nothing
    cfg = write_cfg(tmp_path, delay_range="5 9", horizon=60, runs=2)
    out = tmp_path / "mc-fail"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "montecarlo_runs.csv").exists()


def test_select_greedy_on_an_all_late_file_selects_nothing(tmp_path, capsys):
    # an empty sweep is an outcome, as an empty stability selection is; it
    # once raised ConfigError and exited 1
    net = tmp_path / "late.txt"
    net.write_text(ALL_LATE)
    cfg = write_cfg(tmp_path, network_file=net, horizon=60)
    out = tmp_path / "out"
    assert main(["select-greedy", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "greedy selection returned no nodes", f"wrote {out / 'greedy_report.csv'}"]
    with open(out / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n_selected"] for r in rows] == ["0"] * 10
    assert {(r["mse"], r["md"], r["mse_raw"]) for r in rows} == {("nan", "nan", "nan")}
    assert [p.name for p in out.iterdir()] == ["greedy_report.csv"]


def test_montecarlo_greedy_on_an_all_late_file_fails_every_run(tmp_path, caplog):
    # each run holds its empty selection's NaN outcome, where it once raised
    # ConfigError, which monte_carlo caught as the run's failure
    net = tmp_path / "late.txt"
    net.write_text(ALL_LATE)
    cfg = write_cfg(tmp_path, network_file=net, horizon=60, mode="greedy", runs=2)
    out = tmp_path / "out"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == 3
    with open(out / "montecarlo_runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["failed"], r["n_selected"], r["mse"]) for r in rows] == [("1", "0", "nan")] * 2
    assert [rec.message for rec in caplog.records if rec.name == "dkfsim.harness"] == [
        "greedy selection returned no nodes"] * 2
    assert all((out / f"run_00{i}" / "greedy_report.csv").exists() for i in range(2))


@pytest.mark.parametrize("command", ["simulate", "select-greedy", "select-stability", "montecarlo"])
def test_process_noise_without_finite_inverse_is_validation_error(tmp_path, caplog, command):
    # Q = 1e-320 I overflows its inverse: select-stability once selected
    # nothing and exited 0, simulate and select-greedy exited 3
    cfg = write_cfg(tmp_path, q_scale="1e-320")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert caplog.messages == ["invalid configuration: process noise Q has no finite inverse"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "select-greedy"])
def test_diverging_fused_run_exits_numeric_without_warning(tmp_path, capsys, caplog, command):
    # Q = 1e300 I makes the fused information NaN from step 2 on; the fused
    # recursion once warned "invalid value encountered in divide" before
    # fused_runs raised, and under -W error the warning escaped main as a
    # traceback with exit 1
    cfg = write_cfg(tmp_path, q_scale="1e300", mode="greedy")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "RuntimeWarning" not in capsys.readouterr().err
    failures = [m for m in caplog.messages if m.startswith("numeric failure")]
    assert len(failures) == 1 and "non-finite fused information" in failures[0]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["select-stability", "--config", str(cfg), "--out", str(out_a), "--seed", "1"])
    main(["select-stability", "--config", str(cfg), "--out", str(out_b), "--seed", "2"])
    assert (out_a / "stability_report.csv").read_bytes() != (out_b / "stability_report.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "select-greedy", "select-stability", "montecarlo"])
def test_subcommands_byte_identical_reruns(tmp_path, command):
    cfg = write_cfg(tmp_path, runs=2)
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{command}-{tag}"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    files = [sorted(p.relative_to(out) for p in out.glob("**/*.csv")) for out in outs]
    assert files[0]
    assert files[0] == files[1]
    for path in files[0]:
        assert (outs[0] / path).read_bytes() == (outs[1] / path).read_bytes(), path


@pytest.mark.parametrize("bad_line, message", [
    ("2 -1 0.1 0.0 0.0", r"h_row_index -1 outside \[0, 2\)$"),
    ("2 5 0.1 0.0 0.0", r"h_row_index 5 outside \[0, 2\)$"),
    ("2 1 0.1 soon 0.0", r"could not convert string to float: 'soon'$"),
], ids=["negative-row", "row-past-state-dim", "non-numeric"])
def test_bad_network_file_is_config_error(tmp_path, bad_line, message):
    path = tmp_path / "net.txt"
    path.write_text("1 0 0.1 0.0 0.0\n" + bad_line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: {message}"):
        load_network(path, state_dim=2)
    cfg = write_cfg(tmp_path, network_file=str(path))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("text", ["", "# id h_row_index variance delay_s jitter_std\n\n"],
                         ids=["empty", "comment-only"])
def test_network_file_without_nodes_is_config_error(tmp_path, caplog, text):
    path = tmp_path / "net.txt"
    path.write_text(text)
    message = f"{path}: no nodes"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_network(path, state_dim=2)
    cfg = write_cfg(tmp_path, network_file=str(path))
    for command in ("simulate", "select-greedy", "select-stability", "observability-check"):
        caplog.clear()
        out = [] if command == "observability-check" else ["--out", str(tmp_path / command)]
        assert main([command, "--config", str(cfg), *out]) == 1
        assert caplog.messages == [f"invalid configuration: {message}"]


@pytest.mark.parametrize("overrides, node_line, message", [
    ({"delay_range": "0 inf"}, None, "invalid configuration values for: delay_range"),
    ({"jitter_std": "nan"}, None, "invalid configuration values for: jitter_std"),
    ({}, "2 1 inf 0.3 0.0", "node 2: variance must be finite and > 0"),
    ({}, "2 1 -5 0.3 0.0", "node 2: variance must be finite and > 0"),
    ({}, "2 1 0.1 nan 0.0", "node 2: delay base must be finite and >= 0"),
], ids=["infinite-delay-range", "nan-jitter", "infinite-variance-in-file",
        "negative-variance-in-file", "nan-delay-in-file"])
def test_non_finite_input_is_config_error(tmp_path, caplog, overrides, node_line, message):
    # each of these once escaped as a traceback or ran on silently: an
    # OverflowError from the delay sampler, a NaN jitter taken as none, NaN
    # estimates from an infinite variance, a negative variance floored to the
    # most trusted sensor, an IndexError from a NaN delay
    if node_line is not None:
        path = tmp_path / "net.txt"
        path.write_text("1 0 0.2 0.0 0.0\n" + node_line + "\n")
        overrides = {"network_file": str(path)}
    cfg = write_cfg(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert caplog.messages == [f"invalid configuration: {message}"]


WINDOW_PAST_HORIZON = {"k_bar": 20, "horizon": 20}
SUBSET_PAST_N_SENSORS = {"mode": "fixed-subset", "subset": "1 51"}


@pytest.mark.parametrize("command, overrides, keys", [
    ("select-stability", WINDOW_PAST_HORIZON, "k_bar, horizon"),
    ("montecarlo", WINDOW_PAST_HORIZON, "k_bar, horizon"),
    ("simulate", SUBSET_PAST_N_SENSORS, "subset"),
    ("montecarlo", SUBSET_PAST_N_SENSORS, "subset"),
])
def test_config_no_run_can_satisfy_is_validation_error(tmp_path, caplog, command, overrides,
                                                       keys):
    # montecarlo once ran every run into the same ConfigError and exited 3
    # (numeric failure); it refuses the config up front, as the single-run
    # subcommands do
    cfg = write_cfg(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert caplog.messages == [f"invalid configuration: invalid configuration values for: {keys}"]
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("observability-check", WINDOW_PAST_HORIZON),
    ("montecarlo", {"mode": "all", "subset": "5000"}),
])
def test_rules_of_a_mode_the_command_does_not_run_are_not_checked(tmp_path, command, overrides):
    # observability-check reads neither k_bar nor the mode, and montecarlo runs
    # only the stability selection of a mode = all config: neither refuses a
    # window past the horizon or a fixed subset it never runs, as both once did
    cfg = write_cfg(tmp_path, **overrides)
    out = [] if command == "observability-check" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(cfg), *out]) == 0


def test_negative_seed_is_validation_error(tmp_path, caplog):
    # numpy's "expected non-negative integer" once escaped main as a traceback
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
    assert caplog.messages == ["invalid configuration: invalid configuration values for: seed"]


def test_non_finite_transition_table_is_validation_error(tmp_path, caplog):
    # a NaN in the table once reached robust_inverse's SVD and exited 3
    table = tmp_path / "table.txt"
    table.write_text("0.9 0\n0 0.9\n\n0.9 nan\n0 0.9\n")
    cfg = write_cfg(tmp_path, transition=f"table:{table}", horizon=2)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert caplog.messages == ["invalid configuration: table matrices must be finite"]


@pytest.mark.parametrize("case", ["subset-missing-from-file", "table-shorter-than-horizon"])
@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
def test_draw_free_fault_is_validation_error(tmp_path, caplog, command, case):
    # montecarlo once ran every run into the same ConfigError and exited 3;
    # no ConfigError depends on a draw, so its first run raises the fault,
    # before anything is written
    if case == "subset-missing-from-file":
        net = tmp_path / "net.txt"
        net.write_text("1 0 0.1 0.0 0.0\n2 1 0.2 0.05 0.0\n")
        cfg = write_cfg(tmp_path, network_file=net, mode="fixed-subset", subset="1 3", horizon=40)
        message = "unknown node ids in subset: [3]"
    else:
        table = tmp_path / "table.txt"
        table.write_text("0.9 0\n0 0.9\n\n0.9 0.1\n0 0.9\n")
        cfg = write_cfg(tmp_path, transition=f"table:{table}", horizon=40)
        message = "transition table has 2 entries, step"
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert caplog.messages[-1].startswith(f"invalid configuration: {message}")
    if command == "montecarlo":
        assert not out.exists()
