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
    save_network,
)


def make_node(h_row=(0.0, 1.0), r=0.25, base=0.0, jitter=0.0, node_id=1):
    return SensorNode(
        id=node_id,
        h=np.array([list(h_row)]),
        r=np.array([[r]]),
        delay=DelaySpec(base=base, jitter_std=jitter),
    )


def test_sample_network_scenario_statistics():
    rng = np.random.default_rng(11)
    net = sample_network(2000, (0.0, 0.5), (0.0, 2.0), rng)
    assert len(net) == 2000
    variances = np.array([node.r[0, 0] for node in net])
    delays = np.array([node.delay.base for node in net])
    rows = np.array([int(np.argmax(node.h[0])) for node in net])
    assert np.all((variances >= R_MIN) & (variances <= 0.5))
    assert np.all((delays >= 0.0) & (delays <= 2.0))
    # both measurement rows present in roughly even proportion
    assert 0.4 < rows.mean() < 0.6
    assert net.ids() == list(range(1, 2001))


def test_sample_network_degenerate_ranges_clamped():
    rng = np.random.default_rng(3)
    net = sample_network(1, (0.0, 0.0), (0.0, 0.0), rng)
    node = net.node(1)
    assert node.r[0, 0] == pytest.approx(R_MIN)
    assert node.delay.base == 0.0


def test_sample_network_deterministic():
    net1 = sample_network(50, (0.0, 0.5), (0.0, 2.0), np.random.default_rng(9))
    net2 = sample_network(50, (0.0, 0.5), (0.0, 2.0), np.random.default_rng(9))
    for a, b in zip(net1, net2):
        assert a.id == b.id
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.r, b.r)
        assert a.delay == b.delay


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


def test_delay_steps_negative_jitter_clamped(zero_rng):
    class NegRng:
        def normal(self, loc, scale):
            return -0.03

    node = make_node(base=0.0, jitter=0.02)
    assert delay_steps(node, ts=0.01, rng=NegRng()) == 0


def test_delay_steps_requires_rng_for_jitter():
    with pytest.raises(ConfigError):
        delay_steps(make_node(jitter=0.1), ts=0.01)


def test_delay_steps_integer_multiple_exact():
    for k in range(0, 300, 13):
        assert delay_steps(make_node(base=k * 0.01), ts=0.01) == k


def test_resolve_delays_folds_jitter_once():
    nodes = tuple(make_node(base=1.0, jitter=0.5, node_id=i + 1) for i in range(4))
    net = SensorNetwork(nodes)
    resolved = resolve_delays(net, np.random.default_rng(2))
    assert all(node.delay.jitter_std == 0.0 for node in resolved)
    bases = [node.delay.base for node in resolved]
    assert len(set(bases)) > 1  # distinct draws per node
    assert all(b >= 0.0 for b in bases)


def test_node_invariants_enforced():
    with pytest.raises(ConfigError):
        SensorNode(id=1, h=np.array([[1.0, 0.0]]), r=np.array([[0.0]]))
    with pytest.raises(ConfigError):
        SensorNode(id=1, h=np.array([[1.0, 0.0], [2.0, 0.0]]), r=np.eye(2))
    with pytest.raises(ConfigError):
        SensorNetwork((make_node(node_id=1), make_node(node_id=3)))


def test_network_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    net = sample_network(10, (0.0, 0.5), (0.0, 2.0), rng, jitter_std=0.05)
    path = tmp_path / "net.txt"
    save_network(net, path)
    loaded = load_network(path)
    assert len(loaded) == 10
    for a, b in zip(net, loaded):
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_allclose(a.r, b.r)
        assert a.delay.base == pytest.approx(b.delay.base)
        assert a.delay.jitter_std == pytest.approx(b.delay.jitter_std)


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
    assert [node.h.shape for node in net] == [(1, 2), (2, 2), (1, 2)]
    np.testing.assert_array_equal(net.variances, [0.3, 1.0, 0.3])
    with pytest.raises(ConfigError, match="do not describe 3 nodes"):
        SensorNetwork.from_columns(h, r[:2], np.zeros(3), np.zeros(3), rows=[1, 2, 1])


def per_node_sample(n, variance_range, delay_range, rng, state_dim=2, jitter_std=0.0):
    """Reference: sample_network building one SensorNode per node."""
    rows = rng.integers(0, state_dim, size=n)
    variances = np.maximum(rng.uniform(variance_range[0], variance_range[1], size=n), R_MIN)
    delays = rng.uniform(delay_range[0], delay_range[1], size=n)
    nodes = []
    for i in range(n):
        h = np.zeros((1, state_dim))
        h[0, rows[i]] = 1.0
        nodes.append(SensorNode(id=i + 1, h=h, r=np.array([[variances[i]]]),
                                delay=DelaySpec(base=float(delays[i]), jitter_std=jitter_std)))
    return SensorNetwork(tuple(nodes))


def assert_same_nodes(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.id == y.id and x.delay == y.delay
        np.testing.assert_array_equal(x.h, y.h)
        np.testing.assert_array_equal(x.r, y.r)


@pytest.mark.parametrize("state_dim", [2, 3])
def test_sample_and_resolve_match_per_node_construction(state_dim):
    args = (300, (0.0, 0.5), (0.0, 2.0))
    rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
    net = sample_network(*args, rng_a, state_dim=state_dim, jitter_std=0.1)
    ref = per_node_sample(*args, rng_b, state_dim=state_dim, jitter_std=0.1)
    assert_same_nodes(net, ref)
    resolved = resolve_delays(net, rng_a)
    # reference: one jitter draw per node, folded into the base, clamped at 0
    ref_nodes = [
        SensorNode(id=node.id, h=node.h, r=node.r, delay=DelaySpec(
            base=max(node.delay.base + rng_b.normal(0.0, node.delay.jitter_std), 0.0)))
        for node in ref
    ]
    assert_same_nodes(resolved, ref_nodes)
    assert rng_a.random() == rng_b.random()  # both consumed the same draws


def test_delay_steps_match_per_node():
    nodes = tuple(make_node(base=0.013 * i, jitter=0.02 * (i % 3), node_id=i + 1)
                  for i in range(40))
    net = SensorNetwork(nodes)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    want = [delay_steps(node, 0.01, rng_b) for node in nodes]
    np.testing.assert_array_equal(net.delay_steps(0.01, rng_a), want)
    with pytest.raises(ConfigError, match="node 2 has stochastic delay"):
        net.delay_steps(0.01)


def test_engine_measurements_match_per_node_construction():
    from dkfsim.dkf import DkfEngine
    from dkfsim.model import builtin_system, simulate

    # single-row and two-row nodes, some jittered, more nodes than one noise block
    rng = np.random.default_rng(2)
    nodes = []
    for i in range(300):
        p = 2 if i % 7 == 3 else 1
        a = rng.standard_normal((p, p))
        nodes.append(SensorNode(
            id=i + 1, h=rng.standard_normal((p, 2)), r=0.1 * a @ a.T + 0.2 * np.eye(p),
            delay=DelaySpec(base=float(rng.uniform(0.0, 1.0)), jitter_std=0.05 * (i % 2)),
        ))
    net = SensorNetwork(tuple(nodes))
    sys_ = builtin_system()
    engine = DkfEngine(sys_, net, 60, np.random.default_rng(9))
    # reference: the per-node engine set-up
    rng = np.random.default_rng(9)
    truth = simulate(sys_, 60, rng).states
    assert np.array_equal(truth, engine.truth.states)
    for i, node in enumerate(nodes):
        z = (node.h @ truth.T).T + rng.standard_normal((61, node.h.shape[0])) @ np.linalg.cholesky(node.r).T
        hr = node.h.T @ np.linalg.inv(node.r)
        assert np.array_equal(engine.measurements[i], z)
        assert np.array_equal(engine.scenario.l_all[i], 0.5 * ((hr @ node.h) + (hr @ node.h).T))
        assert np.array_equal(engine.div_all[i], z @ hr.T)
    np.testing.assert_array_equal(engine.delays, [delay_steps(node, sys_.sample_time, rng)
                                                  for node in nodes])
