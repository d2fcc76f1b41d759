import numpy as np
import pytest

from dkfsim.dkf import DkfEngine, Scenario, recover_estimates
from dkfsim.errors import ConfigError, NumericError, SelectionError
from dkfsim.model import builtin_system, robust_inverse, transition_matrix
from dkfsim.reference import kf_covariance_form, psi, time_update_general
from dkfsim.sensing import DelaySpec, SensorNetwork, SensorNode
from dkfsim.selection import max_deviation

from conftest import random_system


def single_row_node(node_id, row, r, base=0.0, m=2):
    h = np.zeros((1, m))
    h[0, row] = 1.0
    return SensorNode(id=node_id, h=h, r=np.array([[r]]), delay=DelaySpec(base=base))


def random_network(rng, n, delay_range=(0.0, 0.0)):
    nodes = []
    for i in range(n):
        nodes.append(
            single_row_node(
                i + 1,
                int(rng.integers(0, 2)),
                float(max(rng.uniform(0.05, 0.5), 1e-6)),
                base=float(rng.uniform(*delay_range)),
            )
        )
    return SensorNetwork(tuple(nodes))


# ---------------------------------------------------------------------------
# one-matrix information time update (reference.time_update_general)
# ---------------------------------------------------------------------------


def test_time_update_zero_information_stays_zero():
    info, iv = time_update_general(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.eye(2))
    np.testing.assert_allclose(info, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(iv, np.zeros(2), atol=1e-15)


def test_time_update_identity_hand_value():
    info, _ = time_update_general(np.eye(2), np.zeros(2), np.eye(2), np.eye(2))
    np.testing.assert_allclose(info, 0.5 * np.eye(2), atol=1e-14)


def test_time_update_matches_psi_operator():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.standard_normal((2, 2))
        while abs(np.linalg.det(a)) < 0.1:
            a = rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2))
        q = w @ w.T + 0.1 * np.eye(2)
        v = rng.standard_normal((2, 2))
        info = v @ v.T + 0.05 * np.eye(2)
        out, _ = time_update_general(info, np.zeros(2), robust_inverse(a)[0], np.linalg.inv(q))
        np.testing.assert_allclose(out, psi(info, a, q), atol=1e-10)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def test_zero_delay_fusion_matches_centralized_stacked_kf():
    import scipy.linalg as sla

    sys_ = builtin_system()
    rng = np.random.default_rng(17)
    net = random_network(rng, 3)
    p0 = 2.5 * np.eye(2)
    x0h = np.array([1.0, 1.0])
    eng = DkfEngine(sys_, net, 150, np.random.default_rng(2),
                    info0=np.linalg.inv(p0), x0_hat=x0h)
    _, _, xhat, _ = eng.fused_run([1, 2, 3])
    h_st = np.vstack([net.h[i, :q] for i, q in enumerate(net.rows)])
    r_bd = sla.block_diag(*[net.r[i, :q, :q] for i, q in enumerate(net.rows)])
    z_st = np.hstack(eng.measurements)
    xs, _ = kf_covariance_form(sys_, h_st, r_bd, z_st, 150, x0_hat=x0h, p0=p0)
    assert np.abs(xhat - xs).max() < 1e-6


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def test_fused_run_deterministic():
    sys_ = builtin_system()
    net = random_network(np.random.default_rng(1), 5, delay_range=(0.0, 0.5))
    e1, e2 = (DkfEngine(sys_, net, 80, np.random.default_rng(99)) for _ in range(2))
    info1, _, x1, _ = e1.fused_run([1, 3, 5])
    info2, _, x2, _ = e2.fused_run([1, 3, 5])
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(e1.truth, e2.truth)
    np.testing.assert_array_equal(info1, info2)


def test_fused_run_rejects_bad_subsets():
    sys_ = builtin_system()
    net = random_network(np.random.default_rng(1), 3)
    engine = DkfEngine(sys_, net, 10, np.random.default_rng(0))
    with pytest.raises(SelectionError):
        engine.fused_run([])
    with pytest.raises(SelectionError):
        engine.fused_run([7])


def test_delays_increase_transient_deviation():
    sys_ = builtin_system()
    rng = np.random.default_rng(0)
    nodes_delayed = random_network(rng, 400, delay_range=(0.0, 2.0))
    nodes_zero = SensorNetwork.from_columns(nodes_delayed.h, nodes_delayed.r, np.zeros(400),
                                            np.zeros(400), nodes_delayed.rows)
    eng_d = DkfEngine(sys_, nodes_delayed, 200, np.random.default_rng(12))
    eng_0 = DkfEngine(sys_, nodes_zero, 200, np.random.default_rng(12))
    md_delayed = max_deviation(eng_d.fused_run(nodes_delayed.ids())[2], eng_d.truth)
    md_zero = max_deviation(eng_0.fused_run(nodes_zero.ids())[2], eng_0.truth)
    assert md_delayed > md_zero


# ---------------------------------------------------------------------------
# batched fused runs
# ---------------------------------------------------------------------------


def stepwise_fused_run(engine, ids):
    """Oracle for one subset: a general time update between steps, then every
    node whose delay has elapsed adds l_i and its d_i-stale IV delta."""
    idx = np.array(sorted(ids)) - 1
    n_out = engine.n_steps + 1
    m = engine.sys.state_dim
    info_hist = np.empty((n_out, m, m))
    yv_hist = np.empty((n_out, m))
    info, yv = engine.info0, engine.yv0
    for k in range(n_out):
        if k > 0:
            info, yv = time_update_general(info, yv, engine.scenario.a_inv_seq[k - 1],
                                           engine.scenario.q_inv)
        for i in idx:
            d = engine.delays[i]
            if d <= k:
                info = info + engine.scenario.l_all[i]
                yv = yv + engine.div_all[i, k - d]
        info_hist[k] = info
        yv_hist[k] = yv
    return info_hist, yv_hist


def mixed_network(m=2):
    """Single-row nodes, one 2-row node, and one node delayed past a 60-step horizon."""
    nodes = [single_row_node(i + 1, i % m, 0.1 + 0.05 * i, base=0.07 * i, m=m) for i in range(5)]
    h = np.zeros((2, m))
    h[0, 0], h[1, :2] = 1.0, (0.5, 1.0)
    nodes.append(SensorNode(id=6, h=h, r=np.array([[0.2, 0.05], [0.05, 0.3]]),
                            delay=DelaySpec(base=0.12)))
    nodes.append(single_row_node(7, 1, 0.15, base=3.0, m=m))
    return SensorNetwork(tuple(nodes))


def assert_rel_close(a, b, rel=1e-12):
    assert np.abs(a - b).max() <= rel * max(np.abs(b).max(), 1e-300)


def test_fused_runs_rows_match_stepwise_oracle():
    # the two-state benchmark plant and a random three-state plant
    for sys_ in (builtin_system(), random_system(np.random.default_rng(8), m=3, n_steps=60)):
        m = sys_.state_dim
        net = mixed_network(m)
        eng = DkfEngine(sys_, net, 60, np.random.default_rng(4),
                        info0=0.5 * np.eye(m), x0_hat=np.array([1.0, -1.0, 0.5][:m]))
        subsets = [net.ids(), [2, 6], [7], [1, 3, 7]]
        masks = np.zeros((len(subsets), len(net)), dtype=bool)
        for b, ids in enumerate(subsets):
            masks[b, np.array(ids) - 1] = True
        info_hist, yv_hist, xhat, flags = eng.fused_runs(masks)
        assert info_hist.shape == (4, 61, m, m) and xhat.shape == (4, 61, m)
        for b, ids in enumerate(subsets):
            want_info, want_yv = stepwise_fused_run(eng, ids)
            want_x, want_flags = recover_estimates(want_info, want_yv)
            assert_rel_close(info_hist[b], want_info)
            assert_rel_close(yv_hist[b], want_yv)
            assert_rel_close(xhat[b], want_x)
            np.testing.assert_array_equal(flags[b], want_flags)
        # node 7 never arrives: its run is the prior propagated alone
        np.testing.assert_array_equal(info_hist[2], stepwise_fused_run(eng, [])[0])


def test_fused_run_is_row_zero_of_fused_runs():
    eng = DkfEngine(builtin_system(), mixed_network(), 60, np.random.default_rng(5))
    mask = np.zeros((1, 7), dtype=bool)
    mask[0, [0, 3, 5]] = True
    single = eng.fused_run([1, 4, 6])
    batched = eng.fused_runs(mask)
    for got, want in zip(single, batched):
        np.testing.assert_array_equal(got, want[0])


def test_fused_runs_rejects_bad_masks():
    eng = DkfEngine(builtin_system(), mixed_network(), 20, np.random.default_rng(0))
    with pytest.raises(SelectionError, match="row 1"):
        eng.fused_runs(np.array([[True] * 7, [False] * 7]))
    with pytest.raises(SelectionError):
        eng.fused_runs(np.ones((2, 6), dtype=bool))
    with pytest.raises(SelectionError):
        eng.fused_runs(np.ones((2, 7)))


def test_fused_runs_non_finite_names_row_and_step(monkeypatch):
    from dkfsim import _kernels

    real = _kernels.fused_info_recursion

    def poisoned(*args):
        info_hist, yv_hist = real(*args)
        info_hist[1, 7, 0, 1] = np.nan
        info_hist[1, 9, 0, 0] = np.inf
        return info_hist, yv_hist

    monkeypatch.setattr(_kernels, "fused_info_recursion", poisoned)
    eng = DkfEngine(builtin_system(), mixed_network(), 20, np.random.default_rng(0))
    with pytest.raises(NumericError, match=r"mask row 1 \(0-based\) at step 7$") as err:
        eng.fused_runs(np.ones((3, 7), dtype=bool))
    assert (err.value.row, err.value.step) == (1, 7)


# ---------------------------------------------------------------------------
# covariance-form oracle and duality invariants
# ---------------------------------------------------------------------------


def test_covariance_kf_exact_observer_with_tiny_noise():
    sys_ = builtin_system(q_scale=1e-12)
    truth = [sys_.initial_state]
    for k in range(10):
        truth.append(transition_matrix(sys_, k) @ truth[-1])
    truth = np.array(truth)
    h = np.eye(2)
    z = truth  # exact full-state measurements
    xs, _ = kf_covariance_form(sys_, h, 1e-9 * np.eye(2), z, 10, p0=10 * np.eye(2))
    assert np.abs(xs[2:] - truth[2:]).max() < 1e-6


def test_covariance_kf_singular_innovation_raises():
    sys_ = builtin_system(q_scale=1e-12)
    from dkfsim.errors import NumericError

    with pytest.raises(NumericError):
        kf_covariance_form(sys_, np.eye(2), np.zeros((2, 2)),
                           np.zeros((3, 2)), 2, p0=np.zeros((2, 2)))


def test_if_covariance_duality_on_random_systems():
    rng = np.random.default_rng(21)
    for trial in range(5):
        sys_ = random_system(rng, n_steps=200)
        node = single_row_node(1, int(rng.integers(0, 2)), float(rng.uniform(0.1, 0.5)))
        p0 = np.eye(2) * float(rng.uniform(0.5, 3.0))
        eng = DkfEngine(sys_, SensorNetwork((node,)), 200,
                        np.random.default_rng(trial), info0=np.linalg.inv(p0))
        info_hist, _, xhat, _ = eng.fused_run([1])
        z = eng.measurements[0]
        xs, ps = kf_covariance_form(sys_, node.h, node.r, z, 200, p0=p0)
        assert np.abs(xhat - xs).max() < 1e-8
        for k in range(0, 201, 20):
            np.testing.assert_allclose(np.linalg.inv(info_hist[k]), ps[k], atol=1e-8)


def test_zero_delay_subset_growth_never_decreases_information():
    sys_ = builtin_system()
    rng = np.random.default_rng(14)
    net = random_network(rng, 6)
    eng = DkfEngine(sys_, net, 60, np.random.default_rng(3))
    prev_info = None
    for size in (2, 4, 6):
        info_hist, _, _, _ = eng.fused_run(list(range(1, size + 1)))
        if prev_info is not None:
            for k in range(61):
                diff = info_hist[k] - prev_info[k]
                assert np.linalg.eigvalsh(diff).min() >= -1e-10
        prev_info = info_hist


def test_engine_rejects_network_of_another_state_dim():
    node = SensorNode(id=1, h=np.array([[0.0, 0.0, 1.0]]), r=np.array([[0.2]]))
    net = SensorNetwork((node,))
    message = "^nodes measure a 3-state plant, the system has 2 states$"
    with pytest.raises(ConfigError, match=message):
        DkfEngine(builtin_system(), net, 10, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=message):
        Scenario(builtin_system(), net, 10)
