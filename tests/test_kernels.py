import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkfsim import _kernels
from dkfsim.model import builtin_system, robust_inverse, transition_sequence
from dkfsim.selection import _admission_windows

from conftest import all_steps_histories, assert_rel_close, random_system
from reference import in_order_trace, oracle_histories


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
    state = rng.integers(0, m, size=n)
    inv_r = 1.0 / np.maximum(rng.uniform(0.0, 0.5, size=n), 1e-6)
    return a_inv, q_inv, state, inv_r


@pytest.mark.parametrize("m", [2, 3, 5])
def test_node_histories_match_time_update_oracle(m):
    # the kernel against one node at a time through reference.node_history
    a_inv, q_inv, state, inv_r = problem(n=25, n_steps=80, m=m, seed=m)
    got = unpacked_histories(a_inv, q_inv, state, inv_r)
    assert_rel_close(got, oracle_histories(a_inv, q_inv, state, inv_r))


def unpacked_histories(a_inv, q_inv, state, inv_r):
    """node_info_histories as full matrices (n, N+1, m, m)."""
    return _kernels.unpack(all_steps_histories(a_inv, q_inv, state, inv_r)).swapaxes(0, 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), n=st.integers(1, 12))
def test_soa_node_histories_match_per_node_oracle(seed, m, n):
    # random plants and nodes on random states with random variances
    # r^2 + 0.1, r standard normal; some states may go unmeasured
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=40)
    a_inv = np.ascontiguousarray([robust_inverse(a)[0] for a in transition_sequence(sys_, 40)])
    q_inv = np.linalg.inv(sys_.process_noise_cov)
    state = rng.integers(0, m, size=n)
    inv_r = 1.0 / (rng.standard_normal(n) ** 2 + 0.1)
    got = unpacked_histories(a_inv, q_inv, state, inv_r)
    want = oracle_histories(a_inv, q_inv, state, inv_r)
    scale = np.abs(want).max(axis=(2, 3), keepdims=True)
    assert (np.abs(got - want) <= 1e-12 * scale).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 12),
       k_bar=st.integers(1, 8), extra_steps=st.integers(1, 25))
def test_windowed_histories_match_all_nodes_call(seed, m, n, k_bar, extra_steps):
    # delays of four kinds: 0, below k_bar, inside (k_bar, N) and at or past
    # N; each step's window holds exactly the nodes whose admission reads it,
    # every windowed entry is the all-nodes call's entry, bit for bit, and the
    # peak is the full history's first max-trace matrix
    rng = np.random.default_rng(seed)
    n_steps = k_bar + extra_steps
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    a_seq = transition_sequence(sys_, n_steps)
    a_inv = np.ascontiguousarray([robust_inverse(a)[0] for a in a_seq])
    q_inv = np.linalg.inv(sys_.process_noise_cov)
    state = rng.integers(0, m, size=n)
    inv_r = 1.0 / (rng.standard_normal(n) ** 2 + 0.1)
    kinds = [np.zeros(n, dtype=np.int64), rng.integers(0, k_bar, size=n),
             rng.integers(k_bar + 1, max(n_steps, k_bar + 2), size=n),
             rng.integers(n_steps, 2 * n_steps, size=n)]
    d = np.sort(np.choose(rng.integers(0, 4, size=n), kinds))
    start, stop = _admission_windows(d, k_bar, n_steps)
    for t in range(n_steps + 1):
        reads = (t >= 1) & (k_bar < t + d) & (t + d <= n_steps)
        np.testing.assert_array_equal(np.flatnonzero(reads), np.arange(start[t], stop[t]))

    full = all_steps_histories(a_inv, q_inv, state, inv_r)
    peak = np.empty((m * (m + 1) // 2, n))
    got = _kernels.node_info_histories(a_inv, q_inv, state, inv_r, start, stop, peak)
    want = np.concatenate([full[:, t, start[t]:stop[t]] for t in range(n_steps + 1)], axis=1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    hist = _kernels.unpack(full)  # (N+1, n, m, m)
    kernel_peak = hist[np.argmax(in_order_trace(hist), axis=0), np.arange(n)]
    assert _kernels.unpack(peak).tobytes() == kernel_peak.tobytes()
    oracle = oracle_histories(a_inv, q_inv, state, inv_r)  # (n, N+1, m, m)
    want_peak = oracle[np.arange(n), np.argmax(in_order_trace(oracle), axis=1)]
    scale = np.abs(want_peak).max(axis=(1, 2), keepdims=True)
    assert (np.abs(_kernels.unpack(peak) - want_peak) <= 1e-12 * scale).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), rhs=st.sampled_from(["1", "m", "m+1"]),
       n=st.integers(1, 400))
def test_soa_solver_matches_linalg_solve(seed, m, rhs, n):
    # random SPD stacks, batch axis last, with 1, m or m + 1 right-hand sides;
    # the solver makes its views once, so a second stack in the same buffer
    # must solve as well as the first
    rng = np.random.default_rng(seed)
    n_rhs = {"1": 1, "m": m, "m+1": m + 1}[rhs]
    aug = np.empty((m, m + n_rhs, n))
    solver = _kernels._SoaSolver(aug)
    for _ in range(2):
        w = rng.standard_normal((n, m, m))
        s = w @ w.transpose(0, 2, 1) + 0.1 * np.eye(m)
        b = rng.standard_normal((n, m, n_rhs))
        aug[:, :m] = s.transpose(1, 2, 0)
        aug[:, m:] = b.transpose(1, 2, 0)
        got = solver().transpose(2, 0, 1)
        want = np.linalg.solve(s, b)
        err = np.abs(got - want).max(axis=(1, 2))
        assert (err <= 1e-13 * np.linalg.cond(s) * np.abs(want).max(axis=(1, 2))).all()
