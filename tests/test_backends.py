import numpy as np
import pytest

from dkfsim import _kernels
from dkfsim._kernels import _pure
from dkfsim.model import builtin_system, robust_inverse, transition_sequence

compiled = pytest.importorskip("dkfsim._kernels._core")


def problem(n=40, n_steps=120, m=2, seed=0):
    rng = np.random.default_rng(seed)
    sys_ = builtin_system() if m == 2 else None
    if m == 2:
        a_seq = transition_sequence(sys_, n_steps)
        q = sys_.process_noise_cov
    else:
        a_seq = np.stack([
            0.8 * np.eye(m) + 0.1 * rng.standard_normal((m, m)) for _ in range(n_steps)
        ])
        w = rng.standard_normal((m, m))
        q = w @ w.T + 0.3 * np.eye(m)
    a_inv = np.ascontiguousarray([robust_inverse(a)[0] for a in a_seq])
    q_inv = np.linalg.inv(q)
    l_all = np.empty((n, m, m))
    for i in range(n):
        h = np.zeros((1, m))
        h[0, int(rng.integers(0, m))] = 1.0
        l_all[i] = h.T @ h / float(max(rng.uniform(0.0, 0.5), 1e-6))
    return a_inv, q_inv, l_all


@pytest.mark.parametrize("m", [2, 3, 5])
def test_node_histories_parity(m):
    a_inv, q_inv, l_all = problem(n=25, n_steps=80, m=m, seed=m)
    info0 = np.zeros_like(l_all)
    h_py = _pure.node_info_histories(a_inv, q_inv, l_all, info0)
    h_c = compiled.node_info_histories(a_inv, q_inv, l_all, info0)
    scale = max(np.abs(h_py).max(), 1.0)
    assert np.abs(h_py - h_c).max() / scale < 1e-12


@pytest.mark.parametrize("m", [2, 4])
def test_fused_recursion_parity(m):
    rng = np.random.default_rng(m + 10)
    a_inv, q_inv, l_all = problem(n=6, n_steps=100, m=m, seed=m + 5)
    # numpy runs a batch of chains; the compiled kernel runs one chain per call
    info_inc = np.stack([
        np.cumsum(np.concatenate([l_all[b:b + 3], np.zeros((98, m, m))]), axis=0)
        for b in range(3)
    ])
    iv_inc = 0.3 * rng.standard_normal((3, 101, m))
    info0 = np.eye(m)
    yv0 = rng.standard_normal(m)
    f_py = _pure.fused_info_recursion(a_inv, q_inv, info_inc, iv_inc, info0, yv0)
    for b in range(3):
        f_c = compiled.fused_info_recursion(a_inv, q_inv, info_inc[b], iv_inc[b], info0, yv0)
        assert np.abs(f_py[0][b] - f_c[0]).max() < 1e-10
        assert np.abs(f_py[1][b] - f_c[1]).max() < 1e-10


def test_backend_selection_and_override(monkeypatch):
    assert _kernels.backend_name() in ("compiled", "python")
    previous = _kernels.get_backend()
    try:
        mod = _kernels.use_backend("python")
        assert mod.NAME == "python"
        assert _kernels.backend_name() == "python"
        mod = _kernels.use_backend("compiled")
        assert mod.NAME == "compiled"
    finally:
        _kernels._active = previous


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        _kernels.use_backend("fortran")


def test_whole_pipeline_identical_across_backends(monkeypatch, tmp_path):
    # run_experiment output should not depend on the backend beyond rounding;
    # the CSVs are formatted at 17 significant digits so compare parsed values
    import csv

    from dkfsim.config import ExperimentConfig
    from dkfsim.harness import run_experiment

    cfg = ExperimentConfig(seed=5, n_sensors=40, horizon=60, iterations=8,
                           k_bar=10, mode="all")
    previous = _kernels.get_backend()
    results = {}
    try:
        for name in ("python", "compiled"):
            _kernels.use_backend(name)
            run_experiment(cfg, out_dir=tmp_path / name)
            parsed = {}
            for fname in ("trace_greedy_best.csv", "trace_fixed.csv"):
                with open(tmp_path / name / fname, newline="") as fh:
                    parsed[fname] = [
                        [float(v) for v in row.values()] for row in csv.DictReader(fh)
                    ]
            results[name] = parsed
    finally:
        _kernels._active = previous
    for fname in results["python"]:
        a = np.array(results["python"][fname])
        b = np.array(results["compiled"][fname])
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)
