import warnings

import numpy as np
import pytest

from dkfsim.errors import ConfigError, DivergenceError, HorizonError
from dkfsim.model import (
    LtvSystem,
    MatrixTable,
    builtin_system,
    is_effectively_singular,
    load_matrix_table,
    robust_inverse,
    simulate,
    transition_matrix,
    transition_sequence,
)

from conftest import identity_system, random_system


def test_builtin_transition_at_k0():
    sys_ = builtin_system(ts=0.01)
    np.testing.assert_allclose(
        transition_matrix(sys_, 0), [[0.5, 0.25], [0.25, 1.0]], atol=0
    )


def test_table_mode_single_identity():
    sys_ = identity_system(n_steps=1)
    np.testing.assert_array_equal(transition_matrix(sys_, 0), np.eye(2))


def test_builtin_a22_quarter_when_t_is_two():
    # t_k = 2 at k = 200 for Ts = 0.01; 2^-2 = 0.25
    sys_ = builtin_system(ts=0.01)
    assert transition_matrix(sys_, 200)[1, 1] == pytest.approx(0.25)
    # t_k is clamped at 2, so a22 stays at 0.25
    assert transition_matrix(sys_, 5000)[1, 1] == pytest.approx(0.25)


def test_builtin_matches_closed_form_over_horizon():
    sys_ = builtin_system(ts=0.01)
    for k in range(0, 300, 7):
        t_k = min(k * 0.01, 2.0)
        expected = np.array([[0.5, 0.25], [0.25, 2.0 ** (-t_k)]])
        np.testing.assert_allclose(transition_matrix(sys_, k), expected, rtol=0, atol=0)


def test_table_out_of_range_raises_horizon_error():
    sys_ = identity_system(n_steps=3)
    with pytest.raises(HorizonError):
        transition_matrix(sys_, 3)


def test_negative_step_rejected():
    with pytest.raises(ConfigError):
        transition_matrix(builtin_system(), -1)


def test_simulate_identity_no_noise_keeps_state(zero_rng):
    sys_ = LtvSystem(
        state_dim=2,
        transition=MatrixTable(tuple(np.eye(2) for _ in range(10))),
        process_noise_cov=1e-12 * np.eye(2),
        initial_state=np.array([1.0, 1.0]),
        sample_time=0.01,
    )
    traj = simulate(sys_, transition_sequence(sys_, 10), zero_rng)
    np.testing.assert_allclose(traj, np.ones((11, 2)), atol=1e-15)


def test_simulate_one_step_hand_product(zero_rng):
    # x(1) = A(0) [1, 1] = [0.75, 1.25] with noise stubbed to zero
    sys_ = builtin_system(q_scale=0.1)
    traj = simulate(sys_, transition_sequence(sys_, 1), zero_rng)
    np.testing.assert_allclose(traj[1], [0.75, 1.25], atol=1e-15)


def test_simulate_deterministic_given_seed():
    sys_ = builtin_system()
    a_seq = transition_sequence(sys_, 50)
    t1 = simulate(sys_, a_seq, np.random.default_rng(123))
    t2 = simulate(sys_, a_seq, np.random.default_rng(123))
    np.testing.assert_array_equal(t1, t2)


def test_simulate_length_matches_horizon():
    sys_ = builtin_system()
    traj = simulate(sys_, transition_sequence(sys_, 37), np.random.default_rng(0))
    assert len(traj) == 38


def test_simulate_rejects_zero_steps():
    with pytest.raises(ConfigError):
        simulate(builtin_system(), np.empty((0, 2, 2)), np.random.default_rng(0))


def test_simulate_divergence_names_step():
    sys_ = LtvSystem(
        state_dim=1,
        transition=MatrixTable(tuple(np.array([[1e200]]) for _ in range(4))),
        process_noise_cov=np.eye(1),
        initial_state=np.array([1e200]),
        sample_time=1.0,
    )
    # the overflow at step 1 once warned before the DivergenceError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=r"^state diverged at step 1$") as err:
            simulate(sys_, transition_sequence(sys_, 4), np.random.default_rng(0))
    assert err.value.step == 1


def test_noise_covariance_matches_scaled_q():
    # empirical covariance of w over many draws within 10% per entry
    q = np.array([[0.1, 0.03], [0.03, 0.2]])
    for scale in (1.0, 4.0):
        sys_ = LtvSystem(
            state_dim=2,
            transition=MatrixTable(tuple(np.zeros((2, 2)) for _ in range(1))),
            process_noise_cov=scale * q,
            initial_state=np.zeros(2),
            sample_time=0.01,
        )
        rng = np.random.default_rng(7)
        draws = rng.standard_normal((100_000, 2)) @ sys_._chol_q.T
        emp = np.cov(draws.T, bias=True)
        np.testing.assert_allclose(emp, scale * q, rtol=0.1)


def test_q_symmetry_and_positivity_enforced():
    with pytest.raises(ConfigError):
        builtin_system(q_scale=-1.0)
    with pytest.raises(ConfigError):
        LtvSystem(
            state_dim=2,
            transition=MatrixTable((np.eye(2),)),
            process_noise_cov=np.array([[1.0, 0.5], [0.0, 1.0]]),
            initial_state=np.zeros(2),
            sample_time=0.01,
        )


def test_invalid_dimensions_rejected():
    with pytest.raises(ConfigError):
        LtvSystem(
            state_dim=0,
            transition=MatrixTable((np.eye(1),)),
            process_noise_cov=np.eye(1),
            initial_state=np.zeros(1),
            sample_time=0.01,
        )
    with pytest.raises(ConfigError):
        builtin_system(x0=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError):
        builtin_system(ts=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_table_or_initial_state_rejected(bad):
    # a NaN in a transition table once reached the SVD of robust_inverse
    # ("SVD did not converge"); both the table and x0 are refused up front
    table = np.eye(2)
    table[0, 1] = bad
    with pytest.raises(ConfigError) as err:
        LtvSystem(state_dim=2, transition=MatrixTable((np.eye(2), table)),
                  process_noise_cov=np.eye(2), initial_state=np.zeros(2), sample_time=0.01)
    assert err.value.keys == ("transition",)
    with pytest.raises(ConfigError) as err:
        LtvSystem(state_dim=2, transition=MatrixTable((np.eye(2),)),
                  process_noise_cov=np.eye(2), initial_state=np.array([0.0, bad]),
                  sample_time=0.01)
    assert err.value.keys == ("x0",)


def test_singularity_identity_false():
    assert not is_effectively_singular(np.eye(3))


def test_singularity_zero_matrix_true():
    assert is_effectively_singular(np.zeros((2, 2)))


def test_singularity_tiny_singular_value():
    # relative to the largest singular value: SINGULAR_TOL = 1e-10
    assert is_effectively_singular(np.diag([1.0, 1e-14]))
    assert not is_effectively_singular(np.diag([1.0, 1e-6]))
    assert not is_effectively_singular(np.diag([1e-6, 1e-12]))


@pytest.mark.parametrize("m", [2, 5])
def test_robust_inverse_of_a_stack_equals_one_call_per_matrix(m):
    # Scenario inverts the whole A(k) stack in one call; each matrix, singular
    # ones included, keeps the bits and the flag of its own call
    mats = np.array(random_system(np.random.default_rng(m), m=m, n_steps=200).transition.matrices)
    mats[[7, 150]] = np.diag(np.arange(m, dtype=float)), np.zeros((m, m))
    inv, used_pinv = robust_inverse(mats)
    want = [robust_inverse(a) for a in mats]
    assert np.array_equal(inv, [a_inv for a_inv, _ in want])
    assert used_pinv.tolist() == [flag for _, flag in want]
    assert np.flatnonzero(used_pinv).tolist() == [7, 150]
    single = robust_inverse(mats[0])
    assert isinstance(single[1], bool) and single[1] is False
    assert np.array_equal(single[0], np.linalg.inv(mats[0]))
    flags = is_effectively_singular(mats.reshape(20, 10, m, m))
    assert flags.shape == (20, 10) and flags.sum() == 2


def test_matrix_table_roundtrip(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1 0\n0 1\n\n0.5 0.25\n0.25 1.0\n")
    table = load_matrix_table(path)
    assert len(table.matrices) == 2
    np.testing.assert_allclose(table.matrices[1], [[0.5, 0.25], [0.25, 1.0]])


def test_matrix_table_whitespace_only_separator(tmp_path):
    # a separator line of spaces and a tab, then two blank lines
    path = tmp_path / "table.txt"
    path.write_text("1 0\n0 1\n  \t\n2 0\n0 2\n\n\n3 0\n0 3\n")
    table = load_matrix_table(path)
    assert len(table.matrices) == 3
    np.testing.assert_array_equal(table.matrices[1], 2.0 * np.eye(2))
    np.testing.assert_array_equal(table.matrices[2], 3.0 * np.eye(2))


def test_matrix_table_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 two\n3 4\n")
    with pytest.raises(ConfigError):
        load_matrix_table(path)
