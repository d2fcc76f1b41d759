import csv
import math
import os
import subprocess
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

import dkfsim
from dkfsim import _kernels, dkf, harness
from dkfsim.config import ExperimentConfig, load_config, parse_config_text
from dkfsim.dkf import DkfEngine
from dkfsim.errors import ConfigError, DivergenceError
from dkfsim.harness import (
    derive_seed,
    export_csv,
    make_network,
    make_system,
    monte_carlo,
    run_experiment,
)
from dkfsim.selection import scores, settling_index

from conftest import ALL_LATE


def small_cfg(**overrides):
    base = dict(
        seed=3, n_sensors=60, horizon=80, iterations=15, k_bar=10,
        mode="stability", out="unused",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("mode", ["fixed-subset", "greedy", "stability", "all"])
def test_run_experiment_leaves_no_thread_behind(mode, tmp_path):
    # each mode reads the engine's noise, which joins the thread that drew it
    count = threading.active_count()
    result = run_experiment(small_cfg(mode=mode, subset=(1, 2, 3)), out_dir=tmp_path)
    assert all(rec.n_selected for rec in result.outcomes)
    assert threading.active_count() == count


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_roundtrip(tmp_path):
    text = """
    # benchmark scenario
    state_dim = 2
    transition = builtin
    q_scale = 0.1
    x0 = 1 1
    ts = 0.01
    n_sensors = 100
    variance_range = 0, 0.5
    delay_range = 0 2
    jitter_std = 0.0
    k_bar = 20
    alpha = 1e-6
    mode = greedy
    horizon = 120
    seed = 42
    runs = 5
    out = results
    iterations = 25
    band = 0.01
    """
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = load_config(path)
    cfg.validate()
    assert cfg.n_sensors == 100
    assert cfg.variance_range == (0.0, 0.5)
    assert cfg.mode == "greedy"
    assert cfg.seed == 42


def test_parse_config_every_key_as_its_declared_type():
    # one non-default value per field, as a config file writes it, and the
    # value and type it parses to
    cases = {
        "state_dim": ("3", 3), "transition": ("table:plant.txt", "table:plant.txt"),
        "q_scale": ("0.2", 0.2), "x0": ("1 2 3", (1.0, 2.0, 3.0)), "ts": ("0.02", 0.02),
        "n_sensors": ("50", 50), "variance_range": ("0.1, 0.4", (0.1, 0.4)),
        "delay_range": ("0.5 1.5", (0.5, 1.5)), "jitter_std": ("0.05", 0.05),
        "network_file": ("net.txt", "net.txt"), "k_bar": ("12", 12), "alpha": ("1e-5", 1e-5),
        "mode": ("greedy", "greedy"), "horizon": ("80", 80), "seed": ("9", 9), "runs": ("4", 4),
        "out": ("results", "results"), "iterations": ("30", 30),
        "subset": ("3, 1 2", (3, 1, 2)), "band": ("0.02", 0.02),
    }
    assert set(cases) == {f.name for f in fields(ExperimentConfig)}
    cfg = parse_config_text("\n".join(f"{key} = {raw}" for key, (raw, _) in cases.items()))
    defaults = ExperimentConfig()
    for key, (_, want) in cases.items():
        got = getattr(cfg, key)
        assert got == want and got != getattr(defaults, key), key
        assert type(got) is type(want), key
        if isinstance(want, tuple):
            assert [type(v) for v in got] == [type(v) for v in want], key


def test_parse_config_unknown_keys_collected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("nonsense = 1\nhorizon = 50\nwat = 2\n")
    assert "nonsense" in err.value.keys
    assert "wat" in err.value.keys


def test_validate_collects_offending_keys():
    cfg = ExperimentConfig(seed=None, horizon=1, mode="bogus", q_scale=-1)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    for key in ("seed", "horizon", "mode", "q_scale"):
        assert key in err.value.keys


def test_validate_checks_window_and_subset_only_where_a_mode_reads_them():
    # k_bar must leave a step of the horizon for the stability window, and a
    # fixed subset's ids must exist in a sampled network of n_sensors nodes
    ExperimentConfig(seed=1, k_bar=20, horizon=20, mode="greedy").validate()
    ExperimentConfig(seed=1, subset=(2001,), mode="stability").validate()
    ExperimentConfig(seed=1, subset=(2001,), mode="fixed-subset", network_file="net.txt").validate()
    # the caller names the mode it runs: None runs no selection
    ExperimentConfig(seed=1, k_bar=20, horizon=20, subset=(2001,), mode="all").validate(mode=None)
    ExperimentConfig(seed=1, subset=(2001,), mode="all").validate("stability")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(seed=1, k_bar=20, horizon=20, mode="greedy").validate("stability")
    assert err.value.keys == ("k_bar", "horizon")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(seed=-1, subset=(0,), mode="all", k_bar=200).validate()
    assert err.value.keys == ("seed", "k_bar", "horizon", "subset")


@pytest.mark.parametrize("mode", ["fixed-subset", "all", "stability"])
def test_validate_refuses_an_empty_subset(mode):
    # fused_run once refused it; an empty selection is now an outcome, so
    # validate keeps an empty fixed subset a config fault
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(seed=1, subset=(), mode=mode).validate()
    assert err.value.keys == ("subset",)


@pytest.mark.parametrize("key, text", [
    ("q_scale", "nan"), ("q_scale", "inf"), ("ts", "nan"), ("ts", "inf"),
    ("jitter_std", "nan"), ("jitter_std", "inf"), ("alpha", "nan"), ("alpha", "inf"),
    ("band", "nan"),
    ("x0", "1 nan"), ("x0", "-inf 1"), ("variance_range", "0 inf"), ("variance_range", "nan 1"),
    ("delay_range", "0 inf"), ("delay_range", "inf inf"),
])
def test_validate_refuses_non_finite_floats(key, text):
    # inf delays once overflowed the sampler; a NaN jitter passed as no jitter
    cfg = parse_config_text(f"{key} = {text}\nseed = 1\n")
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.keys == (key,)


def test_subset_parsing():
    cfg = parse_config_text("subset = 1 2 3\nseed = 1\n")
    assert cfg.subset == (1, 2, 3)
    cfg2 = parse_config_text("subset = all\nseed = 1\n")
    assert cfg2.subset == ("all",)


def test_fixed_beta_hat_key_is_unknown():
    # every node's beta-hat is derived from its own history; no key fixes one
    with pytest.raises(ConfigError) as err:
        parse_config_text("beta_hat_override = 0.5\nseed = 1\n")
    assert err.value.keys == ("beta_hat_override",)


def test_make_system_table_mode(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("1 0\n0 1\n\n1 0\n0 1\n")
    cfg = small_cfg(transition=f"table:{table}", horizon=2, x0=(0.0, 0.0))
    sys_ = make_system(cfg)
    from dkfsim.model import transition_matrix

    np.testing.assert_array_equal(transition_matrix(sys_, 1), np.eye(2))


def test_make_network_from_file(tmp_path):
    net_file = tmp_path / "net.txt"
    net_file.write_text("1 0 0.25 0.5 0.0\n2 1 0.1 0.0 0.0\n")
    cfg = small_cfg(network_file=str(net_file))
    net = make_network(cfg, np.random.default_rng(0))
    assert len(net) == 2
    np.testing.assert_array_equal(net.base, [0.5, 0.0])


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    a1 = derive_seed(100, 0).generate_state(4)
    a2 = derive_seed(100, 0).generate_state(4)
    b = derive_seed(100, 1).generate_state(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_disjoint_seeds_give_different_results(tmp_path):
    r1 = run_experiment(small_cfg(seed=1), out_dir=tmp_path / "s1")
    r2 = run_experiment(small_cfg(seed=2), out_dir=tmp_path / "s2")
    assert r1.selected_nodes["stability"] != r2.selected_nodes["stability"] or (
        r1.report("stability").mse != r2.report("stability").mse
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_export_csv_empty_records_header_only(tmp_path):
    path = export_csv(np.recarray(0, dtype=[("a", float), ("b", np.int64)]), tmp_path / "empty.csv")
    assert path.read_bytes() == b"a,b\r\n"


def test_export_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = np.append(rng.standard_normal(50), [np.nan, -0.0, 1e-310, np.inf])
    table = np.rec.fromarrays([x, np.arange(x.size) - 7, x > 0], names=["x", "k", "pos"])
    path = export_csv(table, tmp_path / "vals.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == x.size
    assert np.array([float(row["x"]) for row in rows]).tobytes() == x.tobytes()
    assert [int(row["k"]) for row in rows] == table.k.tolist()
    assert [row["pos"] for row in rows] == ["1" if v else "0" for v in table.pos]
    assert path.read_bytes().count(b"\r\n") == x.size + 1


def test_export_csv_matches_per_value_formatter(tmp_path):
    # one % template per row writes the bytes str.format writes value by
    # value: bools as 1/0, integers in decimal, floats to 17 significant
    # digits, nan, the infinities, -0.0, the smallest subnormal and 1e308 too
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0])
    k = np.array([0, 1, -1, 2**62, -2**63, 7, 10, -11, 12, 2**63 - 1], dtype=np.int64)
    flag = np.arange(x.size) % 3 == 0
    path = export_csv(np.rec.fromarrays([flag, k, x], names=["flag", "k", "x"]),
                      tmp_path / "edge.csv")
    rows = ["{:d},{:d},{:.17g}\r\n".format(*v) for v in zip(flag.tolist(), k.tolist(), x.tolist())]
    assert path.read_bytes() == ("flag,k,x\r\n" + "".join(rows)).encode()


def test_export_csv_writes_outcome_strings(tmp_path):
    # the outcome table's mode field is a string: written as it stands, and
    # read back field for field
    res = run_experiment(small_cfg(mode="all"), out_dir=tmp_path)
    path = export_csv(res.outcomes, tmp_path / "outcomes.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["mode"] for row in rows] == ["fixed-subset", "greedy", "stability"]
    assert [int(row["n_selected"]) for row in rows] == res.outcomes.n_selected.tolist()
    got = np.array([float(row["mse"]) for row in rows])
    assert got.tobytes() == res.outcomes.mse.tobytes()


@pytest.mark.parametrize("text", ["a,b", 'say "hi"', "line\rend", "line\nend"])
def test_export_csv_refuses_strings_it_would_need_to_quote(tmp_path, text):
    table = np.rec.fromarrays([np.array(["plain", text]), np.arange(2)], names=["label", "k"])
    with pytest.raises(ValueError, match="field 'label'"):
        export_csv(table, tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()


def test_trace_csv_layout(tmp_path):
    cfg = small_cfg(mode="fixed-subset", horizon=12, delay_range=(0.0, 0.0))
    run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "trace_fixed.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["k", "x_true_1", "x_true_2", "x_hat_1", "x_hat_2", "trace_info"]
    assert [int(row["k"]) for row in rows] == list(range(13))
    assert all(float(row["trace_info"]) > 0.0 for row in rows)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_run_experiment_fixed_subset_baseline(tmp_path):
    cfg = small_cfg(mode="fixed-subset", jitter_std=0.0, delay_range=(0.0, 0.0))
    res = run_experiment(cfg, out_dir=tmp_path)
    rep = res.report("fixed-subset")
    assert rep.n_selected == 60
    assert np.isfinite(rep.mse)
    assert (tmp_path / "trace_fixed.csv").exists()


def test_run_experiment_fixed_subset_counts_repeated_ids_once(tmp_path):
    # the ids, the count and the trace all come from one deduplicated subset
    res = run_experiment(small_cfg(mode="fixed-subset", subset=(2, 1, 2)),
                         out_dir=tmp_path / "repeated")
    run_experiment(small_cfg(mode="fixed-subset", subset=(1, 2)), out_dir=tmp_path / "once")
    assert res.selected_nodes["fixed-subset"] == [1, 2]
    assert res.report("fixed-subset").n_selected == 2
    assert ((tmp_path / "repeated" / "trace_fixed.csv").read_bytes()
            == (tmp_path / "once" / "trace_fixed.csv").read_bytes())


def test_run_experiment_stability_without_nodes_holds_nan_outcome(tmp_path):
    # every delay exceeds the horizon, so the selection is empty and no estimator runs
    res = run_experiment(small_cfg(delay_range=(5.0, 9.0), horizon=60), out_dir=tmp_path)
    (rec,) = res.outcomes
    assert (rec.mode, rec.n_selected, rec.iteration) == ("stability", 0, 0)
    assert np.isnan([rec.mse, rec.md, rec.mse_raw, rec.r0, rec.tau0]).all()
    assert res.selected_nodes["stability"] == []
    assert not (tmp_path / "trace_stability.csv").exists()


def test_run_experiment_greedy_writes_report(tmp_path):
    cfg = small_cfg(mode="greedy")
    res = run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.iterations
    assert set(rows[0].keys()) == {"iteration", "r0", "tau0", "n_selected", "mse", "md", "mse_raw"}
    assert np.isfinite(res.report("greedy").mse)


def test_run_experiment_stability_writes_per_node_rows(tmp_path):
    cfg = small_cfg(mode="stability")
    res = run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "stability_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.n_sensors
    assert list(rows[0]) == ["node_id", "selected", "ct_exp", "first_fail", "delay_s",
                             "variance", "beta_hat"]
    n_selected = sum(int(r["selected"]) for r in rows)
    assert n_selected == res.report("stability").n_selected
    # on the two-state plant only nodes delayed by fewer than k_bar steps, all
    # of whose N - k_bar steps apply, are computed; every other node with an
    # applicable step fails at its first, d_i + 1 = N - ct_exp + 1, uncomputed
    live = [int(r["ct_exp"]) == cfg.horizon - cfg.k_bar for r in rows]
    assert 0 < sum(live) < len(rows)
    for r, computed in zip(rows, live):
        beta, ct_exp, first_fail = float(r["beta_hat"]), int(r["ct_exp"]), int(r["first_fail"])
        assert 0.0 < beta <= 1.0 if computed else math.isnan(beta)
        if not computed:
            assert first_fail == (cfg.horizon - ct_exp + 1 if ct_exp else 0)
        assert r["selected"] == ("1" if ct_exp and not first_fail else "0")


def test_run_experiment_greedy_without_delays_sweeps_variance(tmp_path):
    # delay_range = 0 0 passes validation; the sweep holds tau0 at 0
    cfg = small_cfg(mode="greedy", delay_range=(0.0, 0.0))
    res = run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {float(r["tau0"]) for r in rows} == {0.0}
    assert int(rows[0]["n_selected"]) == cfg.n_sensors
    assert np.isfinite(res.report("greedy").mse)


def test_run_experiment_greedy_without_variances_sweeps_delay(tmp_path):
    # variance_range = 0 0 floors every variance at R_MIN; the sweep holds R0
    # at 0, which admits the floor, and shrinks tau0 alone
    cfg = small_cfg(mode="greedy", variance_range=(0.0, 0.0))
    res = run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {float(r["r0"]) for r in rows} == {0.0}
    counts = [int(r["n_selected"]) for r in rows]
    assert counts[0] == cfg.n_sensors
    assert counts == sorted(counts, reverse=True) and counts[-1] < counts[0]
    assert np.isfinite(res.report("greedy").mse)


def test_run_experiment_greedy_reports_first_of_tied_minima(tmp_path):
    # R0 sweeps 0.5, 0.4, ..., 0.1 over nodes of variance 0.25: iterations 1-3
    # run the same subset and tie, iterations 4-5 select nothing and hold NaN;
    # the first of the tied minima is reported
    net_file = tmp_path / "net.txt"
    net_file.write_text("".join(f"{i} {i % 2} 0.25 0.0 0.0\n" for i in range(1, 7)))
    cfg = small_cfg(mode="greedy", network_file=str(net_file), iterations=5)
    res = run_experiment(cfg, out_dir=tmp_path / "out")
    with open(tmp_path / "out" / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n_selected"] for r in rows] == ["6", "6", "6", "0", "0"]
    assert len({r["mse"] for r in rows[:3]}) == 1 and rows[3]["mse"] == rows[4]["mse"] == "nan"
    best = res.report("greedy")
    assert best.iteration == 1
    assert (best.r0, best.tau0) == (float(rows[0]["r0"]), float(rows[0]["tau0"]))
    assert best.mse == float(rows[0]["mse"])
    assert res.selected_nodes["greedy"] == list(range(1, 7))


def test_run_experiment_all_mode_on_an_all_late_file(tmp_path, caplog):
    # the fixed subset still runs; greedy and stability each hold a NaN
    # outcome, where the empty sweep once raised ConfigError
    net_file = tmp_path / "late.txt"
    net_file.write_text(ALL_LATE)
    cfg = small_cfg(mode="all", network_file=str(net_file), horizon=60, seed=1)
    with caplog.at_level("WARNING", logger="dkfsim.harness"):
        res = run_experiment(cfg, out_dir=tmp_path / "out")
    assert res.outcomes.mode.tolist() == ["fixed-subset", "greedy", "stability"]
    fixed = res.report("fixed-subset")
    assert fixed.n_selected == 4 and np.isfinite([fixed.mse, fixed.md, fixed.mse_raw]).all()
    for mode in ("greedy", "stability"):
        rec = res.report(mode)
        assert (rec.n_selected, rec.iteration) == (0, 0)
        assert np.isnan([rec.mse, rec.md, rec.mse_raw, rec.r0, rec.tau0]).all()
        assert res.selected_nodes[mode] == []
    assert [rec.message for rec in caplog.records if rec.name == "dkfsim.harness"] == [
        "greedy selection returned no nodes", "stability selection returned no nodes"]
    with open(tmp_path / "out" / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.iterations and {r["mse"] for r in rows} == {"nan"}
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == ["greedy_report.csv", "stability_report.csv", "trace_fixed.csv"]


def test_run_experiment_all_mode_warns_once_when_truth_never_settles(tmp_path, caplog):
    # the settling index is computed once per experiment and shared by the
    # fixed run, the greedy sweep and the stability run
    with caplog.at_level("WARNING", logger="dkfsim.selection"):
        res = run_experiment(small_cfg(mode="all"), out_dir=tmp_path)
    assert np.isfinite(res.report("stability").mse)
    assert sum("never settles" in rec.message for rec in caplog.records) == 1


def test_run_experiment_all_mode_shares_realization(tmp_path):
    cfg = small_cfg(mode="all")
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.outcomes.mode.tolist() == ["fixed-subset", "greedy", "stability"]


def test_run_experiment_runs_each_subset_once(tmp_path, monkeypatch):
    batch_sizes = []
    real = DkfEngine.fused_run

    def counting(self, masks):
        batch_sizes.append(1 if np.ndim(masks) == 1 else len(masks))
        return real(self, masks)

    monkeypatch.setattr(DkfEngine, "fused_run", counting)
    res = run_experiment(small_cfg(mode="all"), out_dir=tmp_path)
    assert res.selected_nodes["stability"]
    # fixed subset, the whole greedy sweep, the stability subset
    assert len(batch_sizes) == 3
    assert batch_sizes[0] == batch_sizes[2] == 1
    with open(tmp_path / "greedy_report.csv", newline="") as fh:
        evaluated = sum(1 for row in csv.DictReader(fh) if int(row["n_selected"]) > 0)
    assert batch_sizes[1] == evaluated > 1


def test_run_experiment_greedy_runs_one_recursion_and_one_recovery(tmp_path, monkeypatch):
    # the best subset's trace is the sweep's own row: no subset runs twice
    calls = {"recursion": 0, "recovery": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(_kernels, "fused_info_recursion",
                        counted("recursion", _kernels.fused_info_recursion))
    monkeypatch.setattr(dkf, "recover_estimates", counted("recovery", dkf.recover_estimates))
    res = run_experiment(small_cfg(mode="greedy"), out_dir=tmp_path)
    assert res.selected_nodes["greedy"] and (tmp_path / "trace_greedy_best.csv").exists()
    assert calls == {"recursion": 1, "recovery": 1}


def read_trace(path, m=2):
    """A trace CSV's truth and estimate columns as (N+1, m) arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return tuple(np.array([[float(r[f"{col}_{j}"]) for j in range(1, m + 1)] for r in rows])
                 for col in ("x_true", "x_hat"))


def test_run_experiment_outcomes_are_the_runs_their_traces_hold(tmp_path):
    # a trace's 17 significant digits round-trip, so its scores match bit for
    # bit. On this config the greedy best subset run alone rounds differently
    # from its row of the sweep (mse by 3e-17), so a trace from such a re-run
    # fails here
    cfg = small_cfg(mode="all")
    res = run_experiment(cfg, out_dir=tmp_path)
    for mode, name in (("fixed-subset", "trace_fixed.csv"), ("greedy", "trace_greedy_best.csv"),
                       ("stability", "trace_stability.csv")):
        truth, xhat = read_trace(tmp_path / name)
        rec = res.report(mode)
        assert (rec.mse, rec.md, rec.mse_raw) == scores(xhat, truth,
                                                         settling_index(truth, cfg.band))
    # greedy's outcome is the first minimum row of its sweep
    with open(tmp_path / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    best = rows[int(np.nanargmin([float(r["mse"]) for r in rows]))]
    rec = res.report("greedy")
    assert all(float(value) == rec[key] for key, value in best.items())


def test_run_experiment_delay_past_the_int64_range_is_any_late_node(tmp_path):
    # 1e300 s is more than 2**63 steps: the node delivers nothing and has no
    # admission step, exactly as a 5 s delay on the 60-step horizon
    results = {}
    for delay in ("1e300", "5"):
        net_file = tmp_path / f"net-{delay}.txt"
        net_file.write_text(f"1 0 0.1 0.0 0.0\n2 1 0.2 0.05 0.0\n3 0 0.3 {delay} 0.0\n"
                            "4 1 0.4 0.0 0.0\n")
        cfg = small_cfg(mode="all", network_file=str(net_file), horizon=60, seed=1)
        res = run_experiment(cfg, out_dir=tmp_path / delay)
        with open(tmp_path / delay / "stability_report.csv", newline="") as fh:
            report = [{k: v for k, v in row.items() if k != "delay_s"}
                      for row in csv.DictReader(fh)]
        results[delay] = res, report
    (huge, huge_report), (late, late_report) = results["1e300"], results["5"]
    assert huge.selected_nodes == late.selected_nodes
    for name in huge.outcomes.dtype.names:
        np.testing.assert_array_equal(huge.outcomes[name], late.outcomes[name])
    assert huge_report == late_report


def test_run_experiment_deterministic_csvs(tmp_path):
    cfg = small_cfg(mode="all")
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for f in sorted((tmp_path / "a").glob("*.csv")):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_run_experiment_validation_error():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(seed=None))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_single_run_zero_variance(tmp_path):
    cfg = small_cfg(runs=1)
    summary = monte_carlo(cfg, out_dir=tmp_path)
    stats = summary.stats()
    assert stats["mse_var"] == 0.0
    assert stats["md_var"] == 0.0
    assert stats["nodes_var"] == 0.0
    assert summary.runs == 1


def test_monte_carlo_summary_matches_runs_csv(tmp_path):
    cfg = small_cfg(runs=4, jitter_std=math.sqrt(2 * 0.01))
    summary = monte_carlo(cfg, out_dir=tmp_path)
    with open(tmp_path / "montecarlo_runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    ok = [r for r in rows if r["failed"] == "0"]
    mean_from_csv = np.mean([float(r["mse"]) for r in ok])
    assert summary.stats()["mse_mean"] == pytest.approx(mean_from_csv, rel=1e-12)
    with open(tmp_path / "montecarlo_summary.csv", newline="") as fh:
        srow = next(csv.DictReader(fh))
    assert set(srow.keys()) == {"mse_mean", "mse_var", "md_mean", "md_var",
                                "nodes_mean", "nodes_var"}


def test_monte_carlo_runs_differ(tmp_path):
    cfg = small_cfg(runs=3, jitter_std=math.sqrt(2 * 0.01))
    summary = monte_carlo(cfg, out_dir=tmp_path)
    ok = summary.table[~summary.table.failed]
    assert len(ok) == 3
    assert len(set(ok.n_selected)) > 1 or len(set(ok.mse)) == 3


@pytest.mark.parametrize("mode", ["stability", "greedy", "fixed-subset"])
def test_monte_carlo_config_fault_raises_from_the_first_run(tmp_path, mode, caplog):
    # a ConfigError is no run failure: the first run raises it, uncaught,
    # before anything is written
    with pytest.raises(ConfigError, match="no finite inverse") as err:
        monte_carlo(small_cfg(mode=mode, q_scale=1e-320, runs=3), out_dir=tmp_path / "out")
    assert err.value.keys == ("q_scale",)
    assert not (tmp_path / "out").exists()
    assert not caplog.records


def test_monte_carlo_run_that_raises_counts_as_failed(tmp_path, monkeypatch, caplog):
    real = harness.run_experiment

    def diverging_second_run(cfg, out_dir=None):
        if out_dir.name == "run_001":
            raise DivergenceError("non-finite fused information at step 7", step=7)
        return real(cfg, out_dir=out_dir)

    monkeypatch.setattr(harness, "run_experiment", diverging_second_run)
    with caplog.at_level("WARNING", logger="dkfsim.harness"):
        summary = monte_carlo(small_cfg(runs=3), out_dir=tmp_path)
    with open(tmp_path / "montecarlo_runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["failed"] for r in rows] == ["0", "1", "0"]
    assert (rows[1]["n_selected"], rows[1]["mse"], rows[1]["md"]) == ("0", "nan", "nan")
    assert summary.failed_runs == [1]
    assert summary.runs == 3
    ok = [r for r in rows if r["failed"] == "0"]
    stats = summary.stats()
    for key, column in (("mse", "mse"), ("md", "md"), ("nodes", "n_selected")):
        values = np.array([float(r[column]) for r in ok])
        assert (stats[f"{key}_mean"], stats[f"{key}_var"]) == (values.mean(), values.var())
    assert [rec.message for rec in caplog.records if rec.name == "dkfsim.harness"] == [
        "monte carlo run 1 failed: non-finite fused information at step 7"]


def test_run_experiment_byte_identical_across_processes(tmp_path):
    # two fresh interpreters with different string-hash seeds write the same bytes
    rng = np.random.default_rng(3)
    mats = []
    while len(mats) < 60:
        a = 0.9 * rng.standard_normal((3, 3)) / math.sqrt(3)
        if abs(np.linalg.det(a)) > 0.05:
            mats.append(a)
    table = tmp_path / "table.txt"
    table.write_text("\n\n".join("\n".join(" ".join(f"{v:.17g}" for v in row) for row in a)
                                 for a in mats) + "\n")
    cfg = tmp_path / "m3.cfg"
    cfg.write_text(f"state_dim = 3\nx0 = 1 1 1\ntransition = table:{table}\nn_sensors = 200\n"
                   "horizon = 60\nk_bar = 10\nmode = stability\nseed = 5\n")
    src = os.path.dirname(os.path.dirname(dkfsim.__file__))
    script = ("import sys; from dkfsim.config import load_config; "
              "from dkfsim.harness import run_experiment; "
              "run_experiment(load_config(sys.argv[1]), out_dir=sys.argv[2])")
    for run, hash_seed in (("a", "1"), ("b", "2")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / run)],
                       env=env, check=True, capture_output=True, timeout=120)
    written = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert "stability_report.csv" in written
    assert written == sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
