import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkfsim import _kernels
from dkfsim.model import builtin_system, robust_inverse, transition_sequence

from conftest import assert_rel_close, random_system
from reference import oracle_histories


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
    return _kernels.unpack(_kernels.node_info_histories(a_inv, q_inv, state, inv_r)).swapaxes(0, 1)


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
