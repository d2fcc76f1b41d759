import numpy as np
import pytest

from dkfsim import _kernels
from dkfsim._kernels import _pure
from dkfsim.model import builtin_system, robust_inverse, transition_sequence
from dkfsim.stability import _gamma_max_2x2

from conftest import random_psd

needs_compiled = pytest.mark.skipif(_kernels._core is None,
                                    reason="compiled kernel extension not built")
compiled = _kernels._core


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


def assert_rel_close(a, b, rel=1e-12):
    assert np.abs(a - b).max() <= rel * max(np.abs(b).max(), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_node_histories_2x2_matches_generic(seed):
    # builtin plant, a random plant, random symmetric priors
    a_inv, q_inv, l_all = problem(n=30, n_steps=150, seed=seed)
    rng = np.random.default_rng(seed + 20)
    if seed % 2:
        a_inv = np.ascontiguousarray(a_inv[::-1] + 0.2 * rng.standard_normal(a_inv.shape))
    info0 = np.stack([random_psd(rng) for _ in range(30)])
    assert_rel_close(_pure.node_info_histories_2x2(a_inv, q_inv, l_all, info0),
                     _pure.node_info_histories(a_inv, q_inv, l_all, info0))


def test_m2_node_histories_take_closed_form_on_every_backend(monkeypatch):
    a_inv, q_inv, l_all = problem(n=5, n_steps=20)
    monkeypatch.setattr(_pure, "node_info_histories_2x2", lambda *args: "closed form")
    previous = _kernels.get_backend()
    try:
        for name in _kernels.available_backends():
            _kernels.use_backend(name)
            assert _kernels.node_info_histories(a_inv, q_inv, l_all, l_all) == "closed form"
    finally:
        _kernels._active = previous


@pytest.mark.parametrize("seed", range(4))
def test_gamma_max_2x2_matches_eigh(seed):
    # lambda_max(B^1/2 T B^1/2) through eigh, as the generic beta-hat path takes it
    rng = np.random.default_rng(seed)
    bounds = np.stack([random_psd(rng, scale=10.0 ** rng.uniform(-2, 3)) + 1e-6 * np.eye(2)
                       for _ in range(300)])
    terms = np.stack([random_psd(rng) for _ in range(40)])
    w, v = np.linalg.eigh(bounds)
    halves = v @ (np.sqrt(w)[..., None] * v.transpose(0, 2, 1))
    prods = halves[:, None] @ terms[None] @ halves[:, None]
    want = np.linalg.eigvalsh(0.5 * (prods + prods.swapaxes(-1, -2)))[..., -1].max(axis=1)
    got = _gamma_max_2x2(bounds, terms)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@needs_compiled
@pytest.mark.parametrize("m", [2, 3, 5])
def test_node_histories_parity(m):
    a_inv, q_inv, l_all = problem(n=25, n_steps=80, m=m, seed=m)
    info0 = np.zeros_like(l_all)
    h_py = _pure.node_info_histories(a_inv, q_inv, l_all, info0)
    h_c = compiled.node_info_histories(a_inv, q_inv, l_all, info0)
    scale = max(np.abs(h_py).max(), 1.0)
    assert np.abs(h_py - h_c).max() / scale < 1e-12


@needs_compiled
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


@needs_compiled
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


@needs_compiled
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
