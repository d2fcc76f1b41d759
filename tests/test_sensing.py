import numpy as np
import pytest

from dkfsim.errors import ConfigError
from dkfsim.reference import delay_steps
from dkfsim.sensing import (
    R_MIN,
    DelaySpec,
    SensorNetwork,
    SensorNode,
    load_network,
    resolve_delays,
    sample_network,
)


def make_node(h_row=(0.0, 1.0), r=0.25, base=0.0, jitter=0.0, node_id=1):
    return SensorNode(
        id=node_id,
        h=np.array([list(h_row)]),
        r=np.array([[r]]),
        delay=DelaySpec(base=base, jitter_std=jitter),
    )


def assert_same_columns(a, b):
    """Two networks hold the same nodes: equal ids, H, R, rows and delays."""
    assert len(a) == len(b)
    for name in ("h", "r", "rows", "base", "jitter"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_sample_network_scenario_statistics():
    rng = np.random.default_rng(11)
    net = sample_network(2000, (0.0, 0.5), (0.0, 2.0), rng)
    assert len(net) == 2000
    variances = net.r[:, 0, 0]
    delays = net.base
    rows = np.argmax(net.h[:, 0], axis=1)
    assert np.all((variances >= R_MIN) & (variances <= 0.5))
    assert np.all((delays >= 0.0) & (delays <= 2.0))
    # both measurement rows present in roughly even proportion
    assert 0.4 < rows.mean() < 0.6
    assert net.ids() == list(range(1, 2001))


def test_sample_network_degenerate_ranges_clamped():
    rng = np.random.default_rng(3)
    net = sample_network(1, (0.0, 0.0), (0.0, 0.0), rng)
    assert net.r[0, 0, 0] == pytest.approx(R_MIN)
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


def test_delay_steps_exact_division():
    assert delay_steps(make_node(base=0.02), ts=0.01) == 2


def test_delay_steps_ties_away_from_zero():
    # 0.015 / 0.01 = 1.5 rounds to 2
    assert delay_steps(make_node(base=0.015), ts=0.01) == 2
    assert delay_steps(make_node(base=0.0149), ts=0.01) == 1


def test_delay_steps_negative_jitter_clamped():
    class NegRng:
        def normal(self, loc, scale):
            return np.full(np.shape(scale), -0.03)

    net = resolve_delays(SensorNetwork((make_node(base=0.0, jitter=0.02),)), NegRng())
    assert net.base.tolist() == [0.0]
    assert net.delay_steps(0.01).tolist() == [0]


def test_delay_steps_refuses_unresolved_jitter():
    net = SensorNetwork((make_node(), make_node(jitter=0.1, node_id=2)))
    with pytest.raises(ConfigError, match="^node 2 has unresolved stochastic delay; "
                                          "apply sensing.resolve_delays$"):
        net.delay_steps(0.01)


def test_delay_steps_integer_multiple_exact():
    for k in range(0, 300, 13):
        assert delay_steps(make_node(base=k * 0.01), ts=0.01) == k


def test_resolve_delays_folds_jitter_once():
    nodes = tuple(make_node(base=1.0, jitter=0.5, node_id=i + 1) for i in range(4))
    net = SensorNetwork(nodes)
    resolved = resolve_delays(net, np.random.default_rng(2))
    assert (resolved.jitter == 0.0).all()
    assert len(set(resolved.base.tolist())) > 1  # distinct draws per node
    assert (resolved.base >= 0.0).all()


def test_node_invariants_enforced():
    with pytest.raises(ConfigError):
        SensorNode(id=1, h=np.array([[1.0, 0.0]]), r=np.array([[0.0]]))
    with pytest.raises(ConfigError):
        SensorNode(id=1, h=np.array([[1.0, 0.0], [2.0, 0.0]]), r=np.eye(2))
    with pytest.raises(ConfigError):
        SensorNetwork((make_node(node_id=1), make_node(node_id=3)))


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
    ref = SensorNetwork((
        make_node((1.0, 0.0, 0.0), r=0.25, base=0.5, node_id=1),
        make_node((0.0, 0.0, 1.0), r=0.1, jitter=0.05, node_id=2),
        make_node((0.0, 1.0, 0.0), r=R_MIN, base=1.25, node_id=3),  # variance 0 clamped
    ))
    assert_same_columns(net, ref)


# ---------------------------------------------------------------------------
# columnar network vs per-node construction
# ---------------------------------------------------------------------------


def first_node_error(h, r, base, jitter):
    """The ConfigError message building the nodes one by one raises first, or None."""
    try:
        for i in range(len(base)):
            SensorNode(id=i + 1, h=h[i], r=r[i],
                       delay=DelaySpec(base=float(base[i]), jitter_std=float(jitter[i])))
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("faults", [
    [(3, "r", -0.1)],
    [(2, "h", 0.0), (4, "r", 0.0)],
    [(4, "h", 0.0), (2, "r", -1.0)],
    [(1, "base", -0.5), (3, "r", 0.0)],
    [(3, "jitter", -0.1)],
    [(5, "r", 0.0), (5, "base", -1.0)],  # a node's delay is checked before its R
])
def test_from_columns_raises_the_per_node_error(faults):
    n = 6
    cols = {"h": np.zeros((n, 1, 2)), "r": np.full((n, 1, 1), 0.2),
            "base": np.full(n, 0.1), "jitter": np.zeros(n)}
    cols["h"][:, 0, 0] = 1.0
    for i, name, value in faults:
        cols[name][i] = value
    want = first_node_error(**cols)
    assert want is not None
    with pytest.raises(ConfigError) as err:
        SensorNetwork.from_columns(**cols)
    assert str(err.value) == want


def test_network_refuses_nodes_of_mixed_state_dim():
    nodes = (make_node((1.0, 0.0)), make_node((0.0, 1.0, 0.0), node_id=2))
    with pytest.raises(ConfigError, match="^node 2 measures a 3-state plant, node 1 a 2-state one$"):
        SensorNetwork(nodes)


def test_from_columns_mixed_rows_validated_per_row_count():
    h = np.zeros((3, 2, 2))
    h[0, 0, 0] = 1.0
    h[1] = [[1.0, 0.0], [2.0, 0.0]]  # two rows of rank one
    h[2, 0, 1] = 1.0
    r = np.zeros((3, 2, 2))
    r[0, 0, 0] = r[2, 0, 0] = 0.3
    r[1] = np.eye(2)
    with pytest.raises(ConfigError, match="^node 2: H must have full row rank"):
        SensorNetwork.from_columns(h, r, np.zeros(3), np.zeros(3), rows=[1, 2, 1])
    h[1, 1] = [0.5, 1.0]
    net = SensorNetwork.from_columns(h, r, np.zeros(3), np.zeros(3), rows=[1, 2, 1])
    np.testing.assert_array_equal(net.rows, [1, 2, 1])
    np.testing.assert_array_equal(net.variances, [0.3, 1.0, 0.3])
    with pytest.raises(ConfigError, match="do not describe 3 nodes"):
        SensorNetwork.from_columns(h, r[:2], np.zeros(3), np.zeros(3), rows=[1, 2, 1])


def per_node_sample(n, variance_range, delay_range, rng, state_dim=2, jitter_std=0.0):
    """Reference: sample_network's draws as one SensorNode per node (a tuple)."""
    rows = rng.integers(0, state_dim, size=n)
    variances = np.maximum(rng.uniform(variance_range[0], variance_range[1], size=n), R_MIN)
    delays = rng.uniform(delay_range[0], delay_range[1], size=n)
    nodes = []
    for i in range(n):
        h = np.zeros((1, state_dim))
        h[0, rows[i]] = 1.0
        nodes.append(SensorNode(id=i + 1, h=h, r=np.array([[variances[i]]]),
                                delay=DelaySpec(base=float(delays[i]), jitter_std=jitter_std)))
    return tuple(nodes)


def resolved_per_node(nodes, rng):
    """Reference: resolve_delays one node at a time, in id order."""
    return [
        SensorNode(id=node.id, h=node.h, r=node.r, delay=DelaySpec(base=max(
            node.delay.base + rng.normal(0.0, node.delay.jitter_std), 0.0)))
        if node.delay.jitter_std > 0.0 else node
        for node in nodes
    ]


@pytest.mark.parametrize("state_dim", [2, 3])
def test_sample_and_resolve_match_per_node_construction(state_dim):
    args = (300, (0.0, 0.5), (0.0, 2.0))
    rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
    net = sample_network(*args, rng_a, state_dim=state_dim, jitter_std=0.1)
    ref_nodes = per_node_sample(*args, rng_b, state_dim=state_dim, jitter_std=0.1)
    assert_same_columns(net, SensorNetwork(ref_nodes))
    resolved = resolve_delays(net, rng_a)
    # reference: one jitter draw per node, folded into the base, clamped at 0
    assert_same_columns(resolved, SensorNetwork(resolved_per_node(ref_nodes, rng_b)))
    assert rng_a.random() == rng_b.random()  # both consumed the same draws


def test_delay_steps_match_per_node():
    nodes = tuple(make_node(base=0.013 * i, jitter=0.02 * (i % 3), node_id=i + 1)
                  for i in range(40))
    net = resolve_delays(SensorNetwork(nodes), np.random.default_rng(4))
    want = [delay_steps(node, 0.01) for node in resolved_per_node(nodes, np.random.default_rng(4))]
    np.testing.assert_array_equal(net.delay_steps(0.01), want)


def test_engine_measurements_match_per_node_construction():
    from dkfsim.dkf import DkfEngine
    from dkfsim.model import builtin_system, simulate

    # single-row and two-row nodes, some jittered (resolved before the engine
    # is built), more nodes than one noise block
    rng = np.random.default_rng(2)
    nodes = []
    for i in range(300):
        p = 2 if i % 7 == 3 else 1
        a = rng.standard_normal((p, p))
        nodes.append(SensorNode(
            id=i + 1, h=rng.standard_normal((p, 2)), r=0.1 * a @ a.T + 0.2 * np.eye(p),
            delay=DelaySpec(base=float(rng.uniform(0.0, 1.0)), jitter_std=0.05 * (i % 2)),
        ))
    net = resolve_delays(SensorNetwork(tuple(nodes)), np.random.default_rng(8))
    sys_ = builtin_system()
    engine_rng = np.random.default_rng(9)
    engine = DkfEngine(sys_, net, 60, engine_rng)
    # reference: the per-node engine set-up
    rng = np.random.default_rng(9)
    truth = simulate(sys_, 60, rng)
    assert np.array_equal(truth, engine.truth)
    for i, node in enumerate(nodes):
        z = (node.h @ truth.T).T + rng.standard_normal((61, node.h.shape[0])) @ np.linalg.cholesky(node.r).T
        hr = node.h.T @ np.linalg.inv(node.r)
        assert np.array_equal(engine.measurements[i, :, :node.h.shape[0]], z)
        assert not engine.measurements[i, :, node.h.shape[0]:].any()
        assert np.array_equal(engine.scenario.l_all[i], 0.5 * ((hr @ node.h) + (hr @ node.h).T))
        assert np.array_equal(engine.div_all[i], z @ hr.T)
    np.testing.assert_array_equal(engine.delays, [
        delay_steps(node, sys_.sample_time)
        for node in resolved_per_node(nodes, np.random.default_rng(8))])
    assert engine_rng.random() == rng.random()  # the engine drew no delay
