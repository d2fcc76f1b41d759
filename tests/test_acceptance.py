"""Acceptance gate: the ten shipping criteria, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; the test names double as the pass/fail report under -v.
"""

import csv
import math
import time

import numpy as np
import pytest

from dkfsim.cli import main as cli_main
from dkfsim.config import ExperimentConfig
from dkfsim.dkf import DkfEngine
from dkfsim.harness import monte_carlo, run_experiment
from dkfsim.model import builtin_system, transition_matrix
from dkfsim.observability import is_structurally_observable, structure_of
from dkfsim.sensing import SensorNetwork
from dkfsim import _kernels
from dkfsim.model import robust_inverse, transition_sequence

from conftest import all_steps_histories, random_psd, random_system
from reference import beta_hat, i_tilde, kf_covariance_form, psi

BASE_SEED = 0  # the seed-fixed benchmark realization used by criteria 6-8


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def single_row_node(row, r):
    """One zero-delay sensor measuring state `row` with variance r: its H (1, 2),
    its R (1, 1) and the one-node network."""
    return np.eye(2)[[row]], np.array([[r]]), SensorNetwork([row], [r], [0.0], [0.0], 2)


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """One seed-fixed 2000-node benchmark experiment in mode 'all'."""
    out = tmp_path_factory.mktemp("benchmark")
    cfg = ExperimentConfig(seed=BASE_SEED, mode="all", out=str(out))
    start = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, out, elapsed


def test_criterion_01_if_covariance_equivalence():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        sys_ = random_system(rng, n_steps=200)
        h, r, net = single_row_node(int(rng.integers(0, 2)), float(rng.uniform(0.05, 0.5)))
        p0 = float(rng.uniform(0.5, 3.0)) * np.eye(2)
        eng = DkfEngine(sys_, net, 200, np.random.default_rng(200 + trial),
                        info0=np.linalg.inv(p0))
        _, _, xhat, _ = eng.fused_run([1])
        xs, _ = kf_covariance_form(sys_, h, r, eng.z[0], 200, p0=p0)
        worst = max(worst, float(np.abs(xhat - xs).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    report(1, f"IF vs covariance KF on 20 random LTV systems: "
              f"max discrepancy {worst:.2e} < 1e-8 in {elapsed:.2f}s")


def test_criterion_02_zero_delay_fusion_equivalence():
    sys_ = builtin_system()
    worst = 0.0
    for n in (2, 5, 10):
        rng = np.random.default_rng(300 + n)
        rows, variances = zip(*[(int(rng.integers(0, 2)), float(max(rng.uniform(0.0, 0.5), 1e-6)))
                                for _ in range(n)])
        net = SensorNetwork(rows, variances, np.zeros(n), np.zeros(n), 2)
        h_st, r_st = np.eye(2)[list(rows)], np.diag(variances)
        p0 = 2.0 * np.eye(2)
        eng = DkfEngine(sys_, net, 200, np.random.default_rng(400 + n),
                        info0=np.linalg.inv(p0), x0_hat=np.array([1.0, 1.0]))
        _, _, xhat, _ = eng.fused_run(net.ids())
        xs, _ = kf_covariance_form(sys_, h_st, r_st, eng.z.T, 200,
                                   x0_hat=np.array([1.0, 1.0]), p0=p0)
        worst = max(worst, float(np.abs(xhat - xs).max()))
    assert worst < 1e-6
    report(2, f"fusion with 2/5/10 zero-delay nodes vs centralized stacked KF: "
              f"max discrepancy {worst:.2e} < 1e-6")


def test_criterion_03_operator_property_suite():
    rng = np.random.default_rng(500)
    worst_monotone = np.inf
    for _ in range(200):
        a = rng.standard_normal((2, 2))
        while abs(np.linalg.det(a)) < 0.1:
            a = rng.standard_normal((2, 2))
        q = random_psd(rng) + 0.2 * np.eye(2)
        i1 = random_psd(rng)
        i2 = i1 + random_psd(rng)
        diff = psi(i2, a, q) - psi(i1, a, q)
        worst_monotone = min(worst_monotone, float(np.linalg.eigvalsh(diff).min()))
    assert worst_monotone >= -1e-9

    sys_ = builtin_system()
    i_bound = random_psd(rng, scale=3.0) + np.eye(2)
    beta = beta_hat(sys_, 250, i_bound, alpha=1e-6)
    w, v = np.linalg.eigh(i_bound)
    half = v @ np.diag(np.sqrt(w)) @ v.T
    worst_lower = np.inf
    for _ in range(100):
        k = int(rng.integers(0, 250))
        a_k = transition_matrix(sys_, k)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        info = half @ (u @ np.diag(rng.uniform(0.0, 1.0, 2)) @ u.T) @ half.T
        info = 0.5 * (info + info.T)
        a_inv = np.linalg.inv(a_k)
        diff = psi(info, a_k, sys_.process_noise_cov) - beta * (a_inv.T @ info @ a_inv)
        worst_lower = min(worst_lower, float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min()))
    assert worst_lower >= -1e-8
    report(3, f"psi monotone on 200 ordered pairs (min eig {worst_monotone:.2e} >= -1e-9); "
              f"contraction lower bound on 100 samples (min eig {worst_lower:.2e} >= -1e-8)")


def test_criterion_04_information_inverse_equals_error_covariance():
    sys_ = builtin_system()
    h, r, net = single_row_node(1, 0.15)
    p0 = 2.0 * np.eye(2)
    eng = DkfEngine(sys_, net, 200, np.random.default_rng(600), info0=np.linalg.inv(p0))
    info_hist, _, _, _ = eng.fused_run([1])
    _, ps = kf_covariance_form(sys_, h, r, eng.z[0], 200, p0=p0)
    worst = max(
        float(np.abs(np.linalg.inv(info_hist[k]) - ps[k]).max()) for k in range(201)
    )
    assert worst < 1e-8
    report(4, f"per-node information inverse vs Riccati error covariance over "
              f"200 steps: max discrepancy {worst:.2e} < 1e-8")


def test_criterion_05_empirical_error_covariance_floor():
    sys_ = builtin_system()
    n_steps, k_bar = 200, 20
    h, r, net = single_row_node(1, 0.01)  # zero delay, low noise
    l_node = h.T @ np.linalg.solve(r, h)

    a_inv_seq = np.ascontiguousarray(
        [robust_inverse(a)[0] for a in transition_sequence(sys_, n_steps)]
    )
    q_inv = np.linalg.inv(sys_.process_noise_cov)
    hist = _kernels.unpack(
        all_steps_histories(a_inv_seq, q_inv, net.state, l_node[1, 1][None]))[:, 0]
    peak = int(np.argmax(np.trace(hist, axis1=1, axis2=2)))
    i_bound = 0.5 * (hist[peak] + hist[peak].T)
    beta = beta_hat(sys_, n_steps, i_bound, alpha=1e-6)
    bound_matrix = i_tilde(n_steps, k_bar, beta, sys_, l_node)
    # the bound must actually sit below the node's information matrix
    assert np.linalg.eigvalsh(hist[n_steps] - bound_matrix).min() > 0

    errors = []
    for run in range(100):
        eng = DkfEngine(sys_, net, n_steps, np.random.default_rng(700 + run))
        _, _, xhat, _ = eng.fused_run([1])
        e = eng.truth[n_steps] - xhat[n_steps]
        errors.append(np.outer(e, e))
    emp_trace = float(np.trace(np.mean(errors, axis=0)))
    bound_trace = float(np.trace(np.linalg.inv(bound_matrix)))
    assert emp_trace <= 1.1 * bound_trace
    report(5, f"empirical error-covariance trace {emp_trace:.4f} <= "
              f"1.1 x tr(bound^-1) = {1.1 * bound_trace:.4f} (100 runs, k_bar=20)")


def test_criterion_06_benchmark_greedy_reproduction(benchmark_run):
    cfg, result, out, elapsed = benchmark_run
    assert elapsed < 600.0
    with open(out / "greedy_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ran = [(int(r["iteration"]), float(r["mse"]), int(r["n_selected"]))
           for r in rows if r["mse"] != "nan"]
    iters = [r[0] for r in ran]
    mses = [r[1] for r in ran]
    best_pos = int(np.argmin(mses))
    best_iter, best_mse, best_n = ran[best_pos]
    assert iters[0] < best_iter < iters[-1], "minimum must be interior"
    assert 100 <= best_n <= 1500
    report(6, f"greedy sweep on 2000 nodes: interior minimum at iteration "
              f"{best_iter} with {best_n} nodes (MSE {best_mse:.4f}), {elapsed:.1f}s < 600s")


def test_criterion_07_stability_selection_reproduction(benchmark_run):
    cfg, result, out, _ = benchmark_run
    greedy = result.report("greedy")
    stability = result.report("stability")
    assert stability.n_selected > 0
    assert stability.n_selected < greedy.n_selected
    assert stability.mse <= 3.0 * greedy.mse
    report(7, f"stability selection: {stability.n_selected} nodes < greedy best "
              f"{greedy.n_selected}; MSE {stability.mse:.4f} <= 3 x {greedy.mse:.4f}")


def test_criterion_08_stochastic_delay_monte_carlo(benchmark_run, tmp_path):
    cfg, result, _, _ = benchmark_run
    greedy_best_n = result.report("greedy").n_selected
    const_mse = result.report("stability").mse
    mc_cfg = ExperimentConfig(seed=BASE_SEED, mode="stability",
                              jitter_std=math.sqrt(2 * cfg.ts), runs=25)
    summary = monte_carlo(mc_cfg, out_dir=tmp_path)
    stats = summary.stats()
    assert not summary.failed_runs
    assert stats["nodes_mean"] < greedy_best_n
    assert np.isfinite(stats["mse_mean"])
    assert 0.25 * const_mse <= stats["mse_mean"] <= 4.0 * const_mse
    with open(tmp_path / "montecarlo_summary.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert set(row.keys()) == {"mse_mean", "mse_var", "md_mean", "md_var",
                               "nodes_mean", "nodes_var"}
    report(8, f"25-run stochastic-delay study: mean {stats['nodes_mean']:.1f} nodes "
              f"< greedy best {greedy_best_n}; MSE mean {stats['mse_mean']:.4f} "
              f"within [0.25, 4] x {const_mse:.4f}; all six summary statistics present")


def test_criterion_09_structural_observability():
    sys_ = builtin_system()
    a_bar = structure_of(transition_matrix(sys_, 0))
    ok, cert = is_structurally_observable(a_bar, np.array([[False, True]]))
    assert ok and not cert.unreachable_states

    ok2, cert2 = is_structurally_observable(np.eye(2, dtype=bool), np.array([[True, False]]))
    assert not ok2
    assert cert2.unreachable_states == [2]

    rng = np.random.default_rng(900)
    checked = 0
    while checked < 10:
        m = int(rng.integers(1, 5))
        a_pat = rng.random((m, m)) < 0.45
        h_pat = rng.random((1, m)) < 0.6
        verdict, _ = is_structurally_observable(a_pat, h_pat)
        if not verdict:
            continue
        checked += 1
        passes = 0
        for _ in range(100):
            a = np.where(a_pat, rng.uniform(0.5, 1.5, (m, m)), 0.0)
            h = np.where(h_pat, rng.uniform(0.5, 1.5, (1, m)), 0.0)
            obs = [h]
            cur = h
            for _ in range(m - 1):
                cur = cur @ a
                obs.append(cur)
            if np.linalg.matrix_rank(np.vstack(obs)) == m:
                passes += 1
        assert passes >= 99
    report(9, "benchmark pattern observable with certificate; decoupled "
              "counterexample names state 2; 10 structurally observable patterns "
              "pass the generic rank cross-check at >= 99/100")


def test_criterion_10_subcommand_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "n_sensors = 200\nhorizon = 100\niterations = 20\nk_bar = 10\n"
        "seed = 11\nmode = stability\nruns = 3\n"
    )
    commands = ("simulate", "select-greedy", "select-stability", "montecarlo")
    compared = 0
    for command in commands:
        dirs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{command}-{tag}"
            assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            dirs.append(out)
        names = sorted(str(p.relative_to(dirs[0])) for p in dirs[0].glob("**/*.csv"))
        assert names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            compared += 1
    report(10, f"simulate/select-greedy/select-stability/montecarlo re-runs "
               f"byte-identical across {compared} CSV files")
