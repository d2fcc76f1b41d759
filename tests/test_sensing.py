import numpy as np
import pytest

from dkfsim.errors import ConfigError
from dkfsim.sensing import (
    R_MIN,
    SensorNetwork,
    load_network,
    resolve_delays,
    sample_network,
)

from conftest import network_of
from reference import delay_steps, first_node_error, per_node_sample, resolved_per_node


def assert_same_columns(a, b):
    """Two networks hold the same nodes: equal state dims, states, variances and delays."""
    assert len(a) == len(b) and a.state_dim == b.state_dim
    for name in ("state", "variance", "base", "jitter"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_sample_network_scenario_statistics():
    rng = np.random.default_rng(11)
    net = sample_network(2000, (0.0, 0.5), (0.0, 2.0), rng)
    assert len(net) == 2000
    assert np.all((net.variance >= R_MIN) & (net.variance <= 0.5))
    assert np.all((net.base >= 0.0) & (net.base <= 2.0))
    # both measured states present in roughly even proportion
    assert 0.4 < net.state.mean() < 0.6
    assert net.ids() == list(range(1, 2001))


def test_sample_network_degenerate_ranges_clamped():
    rng = np.random.default_rng(3)
    net = sample_network(1, (0.0, 0.0), (0.0, 0.0), rng)
    assert net.variance[0] == pytest.approx(R_MIN)
    assert net.base[0] == 0.0


def test_sample_network_deterministic():
    net1 = sample_network(50, (0.0, 0.5), (0.0, 2.0), np.random.default_rng(9))
    net2 = sample_network(50, (0.0, 0.5), (0.0, 2.0), np.random.default_rng(9))
    assert_same_columns(net1, net2)


def test_sample_network_empty_rejected():
    with pytest.raises(ConfigError):
        sample_network(0, (0.0, 0.5), (0.0, 2.0), np.random.default_rng(0))


def test_sample_network_bad_range_rejected():
    with pytest.raises(ConfigError):
        sample_network(5, (0.5, 0.1), (0.0, 2.0), np.random.default_rng(0))


@pytest.mark.parametrize("variance_range, delay_range", [
    ((0.0, 0.5), (0.0, np.inf)), ((0.0, np.nan), (0.0, 2.0)), ((-np.inf, 0.5), (0.0, 2.0))])
def test_sample_network_refuses_non_finite_range(variance_range, delay_range):
    with pytest.raises(ConfigError, match="must satisfy 0 <= lo <= hi < inf$"):
        sample_network(5, variance_range, delay_range, np.random.default_rng(0))


def both_delay_steps(base, ts):
    """base seconds in filter steps by the reference rule and by a one-node network."""
    return delay_steps(base, ts), int(network_of((0, 0.25, base)).delay_steps(ts)[0])


def test_delay_steps_exact_division():
    assert both_delay_steps(0.02, ts=0.01) == (2, 2)


def test_delay_steps_ties_away_from_zero():
    # 0.015 / 0.01 = 1.5 rounds to 2; 0.145 / 0.01 gives 14.499999999999998,
    # a tie all the same
    assert both_delay_steps(0.015, ts=0.01) == (2, 2)
    assert both_delay_steps(0.145, ts=0.01) == (15, 15)
    assert both_delay_steps(0.0149, ts=0.01) == (1, 1)


def test_delay_steps_negative_jitter_clamped():
    class NegRng:
        def normal(self, loc, scale):
            return np.full(np.shape(scale), -0.03)

    net = resolve_delays(network_of((1, 0.25, 0.0, 0.02)), NegRng())
    assert net.base.tolist() == [0.0]
    assert net.delay_steps(0.01).tolist() == [0]


def test_delay_steps_refuses_unresolved_jitter():
    net = network_of((1, 0.25), (1, 0.25, 0.0, 0.1))
    with pytest.raises(ConfigError, match="^node 2 has unresolved stochastic delay; "
                                          "apply sensing.resolve_delays$"):
        net.delay_steps(0.01)


def test_delay_steps_integer_multiple_exact():
    for k in range(0, 300, 13):
        assert both_delay_steps(k * 0.01, ts=0.01) == (k, k)


def test_resolve_delays_folds_jitter_once():
    net = network_of(*[(1, 0.25, 1.0, 0.5)] * 4)
    resolved = resolve_delays(net, np.random.default_rng(2))
    assert (resolved.jitter == 0.0).all()
    assert len(set(resolved.base.tolist())) > 1  # distinct draws per node
    assert (resolved.base >= 0.0).all()


def test_node_invariants_enforced(tmp_path):
    with pytest.raises(ConfigError, match="^node 1: variance must be finite and > 0$"):
        network_of((0, 0.0))
    with pytest.raises(ConfigError, match=r"^node 2: state index outside \[0, 2\)$"):
        network_of((0, 0.2), (-1, 0.2))
    path = tmp_path / "net.txt"
    path.write_text("1 0 0.2 0.0 0.0\n3 1 0.2 0.0 0.0\n")
    with pytest.raises(ConfigError, match="^node ids must be contiguous 1..n in order$"):
        load_network(path, state_dim=2)


def test_load_network_parses_hand_written_file(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(
        "# id row variance delay_s jitter_std\n"
        "1 0 0.25 0.5 0.0\n"
        "\n"
        "2 2 0.1 0.0 0.05  # trailing comment\n"
        "3 1 0.0 1.25 0.0\n",
        encoding="utf-8",
    )
    net = load_network(path, state_dim=3)
    ref = network_of((0, 0.25, 0.5), (2, 0.1, 0.0, 0.05),
                     (1, R_MIN, 1.25), m=3)  # variance 0 clamped
    assert_same_columns(net, ref)


def test_load_network_refuses_negative_variance_naming_the_node(tmp_path):
    # the floor R_MIN once made this node the network's most trusted sensor
    path = tmp_path / "net.txt"
    path.write_text("1 0 -5 0.0 0.0\n2 1 0.2 0.0 0.0\n")
    with pytest.raises(ConfigError, match="^node 1: variance must be finite and > 0$"):
        load_network(path, state_dim=2)
    path.write_text("1 0 0.0 0.0 0.0\n2 1 0.5e-6 0.0 0.0\n")
    np.testing.assert_array_equal(load_network(path, state_dim=2).variance, [R_MIN, R_MIN])


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("field, column", [(2, "variance"), (3, "delay"), (4, "jitter")])
def test_load_network_refuses_non_finite_values_naming_the_node(tmp_path, field, column, value):
    # an infinite variance once ran and returned NaN estimates; a NaN delay
    # became -2^63 steps
    line = ["2", "1", "0.1", "0.3", "0.0"]
    line[field] = value
    path = tmp_path / "net.txt"
    path.write_text("1 0 0.2 0.0 0.0\n" + " ".join(line) + "\n")
    with pytest.raises(ConfigError, match=f"^node 2: {column}"):
        load_network(path, state_dim=2)


# ---------------------------------------------------------------------------
# column validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("faults", [
    [(3, "variance", -0.1)],
    [(2, "state", 2), (4, "variance", 0.0)],
    [(4, "state", -1), (2, "variance", -1.0)],
    [(1, "base", -0.5), (3, "variance", 0.0)],
    [(3, "jitter", -0.1)],
    [(5, "variance", 0.0), (5, "base", -1.0)],  # a node's delay is checked before its variance
    # non-finite values, which once passed: an infinite variance gave NaN
    # estimates, a NaN delay -2^63 steps, a NaN jitter no jitter at all
    [(2, "variance", np.inf)],
    [(4, "variance", np.nan), (5, "state", 7)],
    [(0, "base", np.nan)],
    [(1, "base", np.inf), (1, "variance", np.nan)],
    [(5, "jitter", np.nan)],
    [(3, "jitter", np.inf)],
])
def test_from_columns_raises_the_per_node_error(faults):
    # the constructor validates all columns in one pass and raises the error
    # of the first faulty node, as checking the nodes one by one would
    n = 6
    cols = {"state": np.zeros(n, dtype=int), "variance": np.full(n, 0.2),
            "base": np.full(n, 0.1), "jitter": np.zeros(n)}
    for i, name, value in faults:
        cols[name][i] = value
    want = first_node_error(**cols)
    assert want is not None
    with pytest.raises(ConfigError) as err:
        SensorNetwork(**cols, state_dim=2)
    assert str(err.value) == want


def test_network_refuses_nodes_of_mixed_state_dim():
    # every node measures a state of the network's one plant
    with pytest.raises(ConfigError, match=r"^node 2: state index outside \[0, 2\)$"):
        network_of((1, 0.2), (2, 0.2))
    assert network_of((1, 0.2), (2, 0.2), m=3).state_dim == 3


def test_network_refuses_columns_of_other_lengths():
    with pytest.raises(ConfigError, match="do not describe 3 nodes"):
        SensorNetwork([0, 1, 0], [0.3, 1.0], np.zeros(3), np.zeros(3), 2)
    with pytest.raises(ConfigError, match="do not describe 2 nodes"):
        SensorNetwork([[0, 1]], [0.3, 1.0], np.zeros(2), np.zeros(2), 2)
    net = SensorNetwork([0, 1, 0], [0.3, 1.0, 0.3], np.zeros(3), np.zeros(3), 2)
    for column in (net.state, net.variance, net.base, net.jitter):
        assert not column.flags.writeable


@pytest.mark.parametrize("state_dim", [2, 3])
def test_sample_and_resolve_match_per_node_construction(state_dim):
    args = (300, (0.0, 0.5), (0.0, 2.0))
    rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
    net = sample_network(*args, rng_a, state_dim=state_dim, jitter_std=0.1)
    ref_nodes = per_node_sample(*args, rng_b, state_dim=state_dim, jitter_std=0.1)
    assert_same_columns(net, network_of(*ref_nodes, m=state_dim))
    resolved = resolve_delays(net, rng_a)
    # reference: one jitter draw per node, folded into the base, clamped at 0
    assert_same_columns(resolved, network_of(*resolved_per_node(ref_nodes, rng_b), m=state_dim))
    assert rng_a.random() == rng_b.random()  # both consumed the same draws


def test_delay_steps_match_per_node():
    nodes = [(0, 0.25, 0.013 * i, 0.02 * (i % 3)) for i in range(40)]
    net = resolve_delays(network_of(*nodes), np.random.default_rng(4))
    want = [delay_steps(base, 0.01)
            for _, _, base, _ in resolved_per_node(nodes, np.random.default_rng(4))]
    np.testing.assert_array_equal(net.delay_steps(0.01), want)


def test_engine_measurements_match_per_node_construction():
    from dkfsim.dkf import DkfEngine
    from dkfsim.model import builtin_system, simulate, transition_sequence

    # 300 nodes of random state and variance, some jittered (resolved before
    # the engine is built)
    rng = np.random.default_rng(2)
    nodes = [(int(rng.integers(0, 2)), float(rng.uniform(0.05, 0.6)),
              float(rng.uniform(0.0, 1.0)), 0.05 * (i % 2)) for i in range(300)]
    net = resolve_delays(network_of(*nodes), np.random.default_rng(8))
    sys_ = builtin_system()
    engine_rng = np.random.default_rng(9)
    engine = DkfEngine(sys_, net, 60, engine_rng)
    assert engine.z.shape == (300, 61)
    # reference: the per-node set-up with one-row H = e_s^T and R = [[r]]:
    # z = H x + chol(R) w, l = H^T R^{-1} H, N+1 draws per node in id order
    rng = np.random.default_rng(9)
    truth = simulate(sys_, transition_sequence(sys_, 60), rng)
    assert np.array_equal(truth, engine.truth)
    for i, (s, r, _, _) in enumerate(nodes):
        h = np.eye(2)[[s]]
        r_mat = np.array([[r]])
        z = (h @ truth.T).T + rng.standard_normal((61, 1)) @ np.linalg.cholesky(r_mat).T
        hr = h.T @ np.linalg.inv(r_mat)
        assert np.array_equal(engine.z[i], z[:, 0])
        l_node = 0.5 * ((hr @ h) + (hr @ h).T)
        assert np.array_equal(np.outer(h[0], h[0]) * engine.inv_r[i], l_node)
    np.testing.assert_array_equal(engine.delays, [
        delay_steps(base, sys_.sample_time)
        for _, _, base, _ in resolved_per_node(nodes, np.random.default_rng(8))])
    assert engine_rng.random() == rng.random()  # the engine drew no delay
