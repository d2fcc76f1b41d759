import numpy as np
import pytest

from dkfsim import _kernels
from dkfsim.model import builtin_system, robust_inverse, transition_sequence
from dkfsim.reference import time_update_general

from conftest import random_psd


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
    assert_rel_close(_kernels.node_info_histories_2x2(a_inv, q_inv, l_all, info0),
                     _kernels.node_info_histories_generic(a_inv, q_inv, l_all, info0))


def test_m2_node_histories_take_closed_form(monkeypatch):
    a_inv, q_inv, l_all = problem(n=5, n_steps=20)
    monkeypatch.setattr(_kernels, "node_info_histories_2x2", lambda *args: "closed form")
    assert _kernels.node_info_histories(a_inv, q_inv, l_all, l_all) == "closed form"


@pytest.mark.parametrize("m", [2, 3, 5])
def test_node_histories_match_time_update_oracle(m):
    # the generic body against one node at a time through reference.time_update_general
    a_inv, q_inv, l_all = problem(n=25, n_steps=80, m=m, seed=m)
    rng = np.random.default_rng(m + 30)
    info0 = np.stack([random_psd(rng, m=m) for _ in range(25)])
    got = _kernels.node_info_histories_generic(a_inv, q_inv, l_all, info0)
    want = np.empty_like(got)
    for i, l_i in enumerate(l_all):
        info = info0[i] + l_i
        want[i, 0] = info
        for k, a_inv_k in enumerate(a_inv):
            info, _ = time_update_general(info, np.zeros(m), a_inv_k, q_inv)
            info = info + l_i
            want[i, k + 1] = info
    assert_rel_close(got, want)
