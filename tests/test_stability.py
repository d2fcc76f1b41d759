import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkfsim import _kernels
from dkfsim.dkf import Scenario
from dkfsim.errors import ConfigError
from dkfsim.model import builtin_system, transition_matrix
from dkfsim.stability import (
    StabilityParams,
    _distinct_noise_terms,
    beta_hat_batch,
    bound_operator,
    compute_params,
    i_tilde_matrices,
)

from conftest import identity_system, network_of, random_psd, random_system
from reference import (
    beta_hat,
    beta_hat_per_term_loop,
    gamma_hat,
    i_tilde,
    node_history,
    node_information,
    psi,
)


def random_node_columns(rng, n, m):
    """(state, inv_r) of n nodes on random states, variances U[0.05, 0.5]."""
    return rng.integers(0, m, size=n), 1.0 / rng.uniform(0.05, 0.5, size=n)


def scalar_system(a=1.0, q=1.0, n_steps=50):
    from dkfsim.model import LtvSystem, MatrixTable

    return LtvSystem(
        state_dim=1,
        transition=MatrixTable(tuple(np.array([[a]]) for _ in range(n_steps))),
        process_noise_cov=np.array([[q]]),
        initial_state=np.zeros(1),
        sample_time=0.01,
    )


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_identity_case():
    np.testing.assert_allclose(psi(np.eye(2), np.eye(2), np.eye(2)), 0.5 * np.eye(2), atol=1e-14)


def test_psi_scalar_case():
    assert psi([[1.0]], [[2.0]], [[1.0]])[0, 0] == pytest.approx(0.2)


def test_psi_zero_information():
    np.testing.assert_allclose(psi(np.zeros((2, 2)), np.eye(2), np.eye(2)),
                               np.zeros((2, 2)), atol=1e-15)


def test_psi_simplified_equals_general_form():
    # invertible inputs: the explicit inverse form and the Joseph-style
    # general form agree to 1e-10
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        while abs(np.linalg.det(a)) < 0.1:
            a = rng.standard_normal((2, 2))
        q = random_psd(rng) + 0.1 * np.eye(2)
        info = random_psd(rng) + 0.05 * np.eye(2)
        simplified = np.linalg.inv(a @ np.linalg.solve(info, a.T) + q)
        a_inv, q_inv = np.linalg.inv(a), np.linalg.inv(q)
        mk = a_inv.T @ info @ a_inv
        c = np.linalg.solve(mk + q_inv, mk).T
        d = np.eye(2) - c
        general = d @ mk @ d.T + c @ q_inv @ c.T
        np.testing.assert_allclose(general, simplified, atol=1e-10)
        np.testing.assert_allclose(psi(info, a, q), simplified, atol=1e-10)


# ---------------------------------------------------------------------------
# gamma-hat / beta-hat
# ---------------------------------------------------------------------------


def test_gamma_hat_scalar_one():
    assert gamma_hat([[1.0]], [[1.0]], [[0.0]], alpha=1.0) == pytest.approx(1.0)


def test_gamma_hat_vanishing_noise():
    assert gamma_hat([[1.0]], [[1e-14]], [[0.0]], alpha=1.0) == pytest.approx(0.0, abs=1e-12)


def test_gamma_hat_linear_in_q():
    info = random_psd(np.random.default_rng(1))
    a = np.array([[0.7, 0.2], [0.1, 0.9]])
    q = random_psd(np.random.default_rng(2)) + 0.1 * np.eye(2)
    g1 = gamma_hat(a, q, info, alpha=1e-6)
    g4 = gamma_hat(a, 4.0 * q, info, alpha=1e-6)
    assert g4 == pytest.approx(4.0 * g1, rel=1e-10)


def test_gamma_hat_certifies_its_inequality():
    # A^{-1} Q A^{-T} <= gamma (info + alpha I)^{-1} must hold at the returned gamma
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        q = random_psd(rng) + 0.1 * np.eye(2)
        info = random_psd(rng)
        alpha = 1e-6
        g = gamma_hat(a, q, info, alpha)
        lhs = np.linalg.inv(a) @ q @ np.linalg.inv(a).T
        rhs = g * np.linalg.inv(info + alpha * np.eye(2))
        assert np.linalg.eigvalsh(rhs - lhs).min() >= -1e-9 * max(g, 1.0)


def test_beta_hat_scalar_half():
    sys_ = scalar_system(a=1.0, q=1.0)
    assert beta_hat(sys_, 10, np.array([[0.0]]), alpha=1.0) == pytest.approx(0.5)


def test_beta_hat_noiseless_limit_is_one():
    sys_ = scalar_system(a=1.0, q=1e-15)
    assert beta_hat(sys_, 10, np.array([[0.0]]), alpha=1.0) == pytest.approx(1.0, abs=1e-12)


def test_beta_hat_benchmark_system_in_range():
    sys_ = builtin_system()
    i_bound = np.diag([5.0, 8.0])
    b = beta_hat(sys_, 300, i_bound, alpha=1e-6)
    assert 0.0 < b <= 1.0


def test_beta_hat_batch_matches_single():
    sys_ = builtin_system()
    rng = np.random.default_rng(3)
    bounds = np.stack([random_psd(rng, scale=3.0) for _ in range(5)])
    batch = beta_hat_batch(bounds, 1e-6, _distinct_noise_terms(Scenario(sys_, None, 120)))
    for i in range(5):
        assert batch[i] == pytest.approx(beta_hat(sys_, 120, bounds[i], 1e-6), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3, 4, 5]), n_bounds=st.integers(1, 25),
       n_steps=st.integers(1, 60), log_alpha=st.floats(-8.0, 0.0))
def test_beta_hat_batch_pruned_equals_per_term_loop(seed, m, n_bounds, n_steps, log_alpha):
    # bounds of any rank and scale, so the trace floor prunes near-ties too
    rng = np.random.default_rng(seed)
    scenario = Scenario(random_system(rng, m=m, n_steps=n_steps), None, n_steps)
    bounds = np.empty((n_bounds, m, m))
    for i in range(n_bounds):
        f = rng.standard_normal((m, int(rng.integers(0, m + 1))))
        bounds[i] = 10.0 ** rng.uniform(-3, 4) * (f @ f.T)
    alpha = 10.0 ** log_alpha
    assert np.array_equal(beta_hat_batch(bounds, alpha, _distinct_noise_terms(scenario)),
                          beta_hat_per_term_loop(scenario, bounds, alpha))


def test_contraction_lower_bound_with_computed_beta():
    # psi(I) >= beta * A^{-T} I A^{-1} for 100 random I <= i_bound
    rng = np.random.default_rng(13)
    sys_ = builtin_system()
    i_bound = random_psd(rng, scale=4.0) + np.eye(2)
    beta = beta_hat(sys_, 250, i_bound, alpha=1e-6)
    w, v = np.linalg.eigh(i_bound)
    half = v @ np.diag(np.sqrt(w)) @ v.T
    for _ in range(100):
        k = int(rng.integers(0, 250))
        a_k = transition_matrix(sys_, k)
        u = rng.standard_normal((2, 2))
        uq, _ = np.linalg.qr(u)
        contraction = uq @ np.diag(rng.uniform(0.0, 1.0, 2)) @ uq.T
        info = half @ contraction @ half.T
        info = 0.5 * (info + info.T)
        a_inv = np.linalg.inv(a_k)
        diff = psi(info, a_k, sys_.process_noise_cov) - beta * (a_inv.T @ info @ a_inv)
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T)).min() >= -1e-8


# ---------------------------------------------------------------------------
# i-tilde
# ---------------------------------------------------------------------------


def test_i_tilde_window_one_returns_l():
    sys_ = builtin_system()
    l_node = np.array([[0.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(i_tilde(50, 1, 0.5, sys_, l_node), l_node, atol=0)


def test_i_tilde_identity_transitions_hand_value():
    sys_ = identity_system(n_steps=50)
    l_node = np.array([[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(i_tilde(10, 2, 0.5, sys_, l_node), 1.5 * l_node, atol=1e-14)


def test_i_tilde_rank_one_entry():
    # l from H=[0 1], R=0.25: entry (2,2) = 4 for a window of one step
    sys_ = builtin_system()
    h = np.array([[0.0, 1.0]])
    out = i_tilde(30, 1, 0.9, sys_, h.T @ np.linalg.solve([[0.25]], h))
    np.testing.assert_allclose(out, [[0.0, 0.0], [0.0, 4.0]], atol=1e-14)
    assert np.linalg.matrix_rank(out) == 1


def test_i_tilde_requires_k_at_least_k_bar():
    with pytest.raises(ConfigError):
        i_tilde(5, 10, 0.5, builtin_system(), np.eye(2))


def test_i_tilde_symmetric_psd_and_monotone_in_window():
    sys_ = builtin_system()
    rng = np.random.default_rng(14)
    l_node = random_psd(rng)
    prev = None
    for k_bar in (1, 3, 6, 10):
        out = i_tilde(60, k_bar, 0.4, sys_, l_node)
        np.testing.assert_allclose(out, out.T, atol=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        if prev is not None:
            assert np.linalg.eigvalsh(out - prev).min() >= -1e-12
        prev = out


def test_i_tilde_matrices_consistent_with_direct():
    sys_ = builtin_system()
    rng = np.random.default_rng(16)
    state, inv_r = random_node_columns(rng, 3, 2)
    l_all = node_information(state, inv_r, 2)
    betas = np.array([0.2, 0.5, 0.9])
    mats = _kernels.unpack(i_tilde_matrices(bound_operator(Scenario(sys_, None, 45), 5),
                                            betas, state, inv_r))
    for i in range(3):
        for pos, k in enumerate(range(6, 46)):
            np.testing.assert_allclose(
                mats[pos, i], i_tilde(k, 5, betas[i], sys_, l_all[i]), atol=1e-11
            )


@pytest.mark.parametrize("m", [3, 5])
def test_i_tilde_matrices_match_reference_multi_row(m):
    # random plants and nodes on random states, each bound against the
    # one-matrix reference with l_i = e_s e_s^T / r_i
    rng = np.random.default_rng(40 + m)
    n, n_steps, k_bar = 6, 40, 8
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    state, inv_r = random_node_columns(rng, n, m)
    l_all = node_information(state, inv_r, m)
    scenario = Scenario(sys_, None, n_steps)
    betas = rng.uniform(0.3, 1.0, size=n)
    mats = _kernels.unpack(i_tilde_matrices(
        bound_operator(scenario, k_bar), betas, state, inv_r))
    for i in range(n):
        for pos, k in enumerate(range(k_bar + 1, n_steps + 1)):
            want = i_tilde(k, k_bar, betas[i], sys_, l_all[i])
            assert np.abs(mats[pos, i] - want).max() <= 1e-12 * np.abs(want).max()


def test_bound_operator_built_once_equals_per_chunk():
    # stability_select builds the operator once per pass; rebuilding it for
    # each node chunk gives the same bounds
    rng = np.random.default_rng(41)
    m, n, n_steps, k_bar = 4, 10, 30, 6
    scenario = Scenario(random_system(rng, m=m, n_steps=n_steps), None, n_steps)
    state, inv_r = random_node_columns(rng, n, m)
    betas = rng.uniform(0.3, 1.0, size=n)
    operator = bound_operator(scenario, k_bar)
    assert operator.flags.c_contiguous
    for part in (slice(0, 4), slice(4, 10)):
        once = i_tilde_matrices(operator, betas[part], state[part], inv_r[part])
        rebuilt = bound_operator(scenario, k_bar)
        assert np.array_equal(once, i_tilde_matrices(rebuilt, betas[part], state[part],
                                                     inv_r[part]))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_histories_and_bounds_are_exactly_symmetric(m):
    # the packed layout keeps the lower triangle in np.tril_indices order and
    # drops the upper one, which stability_select and the eigvalsh fallback
    # restore by mirroring: each packed entry must match both the (a, d) and
    # the (d, a) entry of the full-matrix references
    rng = np.random.default_rng(60 + m)
    n, n_steps, k_bar = 12, 40, 6
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    state, inv_r = random_node_columns(rng, n, m)
    l_all = node_information(state, inv_r, m)
    scenario = Scenario(sys_, None, n_steps)
    rows, cols = np.tril_indices(m)
    hist = _kernels.node_info_histories(scenario.a_inv_seq, scenario.q_inv, state, inv_r)
    betas = rng.uniform(0.3, 1.0, size=n)
    bounds = i_tilde_matrices(bound_operator(scenario, k_bar),
                              betas, state, inv_r)
    for i in range(n):
        for k, info in enumerate(node_history(scenario.a_inv_seq, scenario.q_inv, l_all[i])):
            scale = np.abs(info).max()
            assert np.abs(hist[:, k, i] - info[rows, cols]).max() <= 1e-12 * scale
            assert np.abs(hist[:, k, i] - info[cols, rows]).max() <= 1e-12 * scale
        for pos, k in enumerate(range(k_bar + 1, n_steps + 1)):
            want = i_tilde(k, k_bar, betas[i], sys_, l_all[i])
            scale = np.abs(want).max()
            assert np.abs(bounds[:, pos, i] - want[rows, cols]).max() <= 1e-12 * scale
            assert np.abs(bounds[:, pos, i] - want[cols, rows]).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_stability_params_validation():
    with pytest.raises(ConfigError):
        StabilityParams(k_bar=0)
    with pytest.raises(ConfigError):
        StabilityParams(alpha=0.0)


def test_compute_params_modes():
    assert compute_params() == StabilityParams()
    assert compute_params(k_bar=5, alpha=1e-3) == StabilityParams(k_bar=5, alpha=1e-3)


def test_information_inverse_matches_riccati_covariance():
    # exact per-node filtering: info_post^{-1} equals the propagated error
    # covariance of the covariance-form recursion at every step
    from dkfsim.dkf import DkfEngine
    from reference import kf_covariance_form

    sys_ = builtin_system()
    p0 = 2.0 * np.eye(2)
    eng = DkfEngine(sys_, network_of((1, 0.15)), 200, np.random.default_rng(9),
                    info0=np.linalg.inv(p0))
    info_hist, _, _, _ = eng.fused_run(eng.network.mask([1]))
    _, ps = kf_covariance_form(sys_, np.array([[0.0, 1.0]]), [[0.15]], eng.readings([0])[0], 200,
                               p0=p0)
    for k in range(201):
        np.testing.assert_allclose(np.linalg.inv(info_hist[k]), ps[k], atol=1e-8)
