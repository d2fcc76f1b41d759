import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkfsim import _kernels
from dkfsim.model import builtin_system, robust_inverse, transition_sequence
from dkfsim.reference import time_update_general

from conftest import random_psd, random_system


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


@pytest.mark.parametrize("m", [2, 3, 5])
def test_node_histories_match_time_update_oracle(m):
    # the kernel against one node at a time through reference.time_update_general
    a_inv, q_inv, l_all = problem(n=25, n_steps=80, m=m, seed=m)
    got = unpacked_histories(a_inv, q_inv, l_all)
    assert_rel_close(got, oracle_histories(a_inv, q_inv, l_all))


def unpacked_histories(a_inv, q_inv, l_all):
    """node_info_histories as full matrices (n, N+1, m, m)."""
    return _kernels.unpack(_kernels.node_info_histories(a_inv, q_inv, l_all)).swapaxes(0, 1)


def oracle_histories(a_inv, q_inv, l_all):
    """node_info_histories one node and one step at a time through
    time_update_general, from zero prior information."""
    n, m, _ = l_all.shape
    want = np.empty((n, a_inv.shape[0] + 1, m, m))
    for i, l_i in enumerate(l_all):
        info = l_i
        want[i, 0] = info
        for k, a_inv_k in enumerate(a_inv):
            info, _ = time_update_general(info, np.zeros(m), a_inv_k, q_inv)
            info = info + l_i
            want[i, k + 1] = info
    return want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), n=st.integers(1, 12))
def test_soa_node_histories_match_per_node_oracle(seed, m, n):
    # random plants and multi-row sensors with fewer rows than states, so
    # every l_i is rank deficient and not diagonal
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=40)
    a_inv = np.ascontiguousarray([robust_inverse(a)[0] for a in transition_sequence(sys_, 40)])
    q_inv = np.linalg.inv(sys_.process_noise_cov)
    l_all = np.empty((n, m, m))
    for i in range(n):
        h = rng.standard_normal((int(rng.integers(1, m)), m))
        r = random_psd(rng, m=h.shape[0]) + 0.1 * np.eye(h.shape[0])
        hr = h.T @ np.linalg.inv(r)
        l_all[i] = 0.5 * (hr @ h + (hr @ h).T)
    got = unpacked_histories(a_inv, q_inv, l_all)
    want = oracle_histories(a_inv, q_inv, l_all)
    scale = np.abs(want).max(axis=(2, 3), keepdims=True)
    assert (np.abs(got - want) <= 1e-12 * scale).all()
