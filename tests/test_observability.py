import itertools

import numpy as np
import pytest

from dkfsim.errors import ConfigError
from dkfsim.model import builtin_system, transition_matrix
from dkfsim.observability import is_structurally_observable, structure_of, union_structure


def obs_matrix(a, h):
    """Classical observability matrix [H; HA; ...; HA^{m-1}]."""
    m = a.shape[0]
    blocks = [h]
    cur = h
    for _ in range(m - 1):
        cur = cur @ a
        blocks.append(cur)
    return np.vstack(blocks)


def test_structure_of_identity():
    s = structure_of(np.eye(3))
    np.testing.assert_array_equal(s, np.eye(3, dtype=bool))


def test_structure_of_benchmark_transition_all_stars():
    a0 = transition_matrix(builtin_system(), 0)
    assert structure_of(a0).all()


def test_structure_of_zero_matrix():
    assert not structure_of(np.zeros((2, 2))).any()


def test_union_structure_over_horizon():
    s = union_structure(builtin_system(), 300)
    assert s.all()


def test_benchmark_pattern_observable_with_single_row():
    a_bar = structure_of(transition_matrix(builtin_system(), 0))
    for row in ([[True, False]], [[False, True]]):
        ok, cert = is_structurally_observable(a_bar, np.array(row))
        assert ok
        assert cert.unreachable_states == []
        assert not cert.dilation_set
        assert len(cert.matching) == 2


def test_decoupled_counterexample_names_state_two():
    a_bar = np.eye(2, dtype=bool)
    h = np.array([[True, False]])
    ok, cert = is_structurally_observable(a_bar, h)
    assert not ok
    assert cert.unreachable_states == [2]


def test_single_state_observable():
    ok, cert = is_structurally_observable(np.array([[True]]), np.array([[True]]))
    assert ok


def test_empty_output_set_not_observable():
    ok, cert = is_structurally_observable(np.eye(2, dtype=bool), np.zeros((0, 2), dtype=bool))
    assert not ok
    assert cert.unreachable_states == [1, 2]


def test_direction_convention_chain_systems():
    # x1 feeds x2 (a21 star): measuring x1 sees nothing of x2; measuring x2
    # recovers the chain.
    lower = np.array([[True, False], [True, True]])
    h1 = np.array([[True, False]])
    h2 = np.array([[False, True]])
    ok1, _ = is_structurally_observable(lower, h1)
    ok2, _ = is_structurally_observable(lower, h2)
    assert not ok1
    assert ok2


def test_dilation_detected():
    # static states seen only through one combined output row: every state is
    # reachable from y, but x1 and x2 are structurally indistinguishable
    a_bar = np.zeros((2, 2), dtype=bool)
    h = np.array([[True, True]])
    ok, cert = is_structurally_observable(a_bar, h)
    assert not ok
    assert cert.unreachable_states == []  # reachability alone is satisfied
    assert cert.dilation_set
    # generic realizations are indeed rank-deficient
    rng = np.random.default_rng(0)
    for _ in range(20):
        hnum = rng.uniform(0.5, 1.5, (1, 2))
        assert np.linalg.matrix_rank(obs_matrix(np.zeros((2, 2)), hnum)) < 2


def test_adding_sensors_never_breaks_observability():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        a_bar = rng.random((m, m)) < 0.4
        rows = [rng.random((1, m)) < 0.5 for _ in range(3)]
        verdicts = []
        for count in (1, 2, 3):
            ok, _ = is_structurally_observable(a_bar, np.vstack(rows[:count]))
            verdicts.append(ok)
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert not (earlier and not later)


def test_verdict_invariant_to_sensor_permutation():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        a_bar = rng.random((m, m)) < 0.4
        rows = [rng.random((1, m)) < 0.5 for _ in range(3)]
        base, _ = is_structurally_observable(a_bar, np.vstack(rows))
        for perm in itertools.permutations(rows):
            ok, _ = is_structurally_observable(a_bar, np.vstack(perm))
            assert ok == base


def test_structural_implies_generic_rank():
    # random numerical realizations of structurally observable patterns pass
    # the classical rank test with probability >= 0.99
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 12:
        m = int(rng.integers(1, 5))
        a_bar = rng.random((m, m)) < 0.45
        h_bar = rng.random((1, m)) < 0.6
        ok, _ = is_structurally_observable(a_bar, h_bar)
        if not ok:
            continue
        checked += 1
        passes = 0
        for _ in range(100):
            a = np.where(a_bar, rng.uniform(0.5, 1.5, (m, m)), 0.0)
            h = np.where(h_bar, rng.uniform(0.5, 1.5, (1, m)), 0.0)
            if np.linalg.matrix_rank(obs_matrix(a, h)) == m:
                passes += 1
        assert passes >= 99


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigError):
        is_structurally_observable(np.eye(2, dtype=bool), np.array([[True, False, True]]))


def test_certificate_printable():
    ok, cert = is_structurally_observable(np.eye(2, dtype=bool), np.array([[True, False]]))
    text = str(cert)
    assert "structurally observable: False" in text
    assert "unreachable states: [2]" in text
    assert "edge convention" in text
