import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkfsim import _kernels, selection
from dkfsim.dkf import DkfEngine, Scenario
from dkfsim.errors import ConfigError, DivergenceError, MetricError, NumericError
from dkfsim.model import LtvSystem, MatrixTable, builtin_system
from dkfsim.sensing import R_MIN, SensorNetwork, sample_network
from dkfsim.selection import (
    GREEDY_REPORT,
    greedy_select,
    greedy_sweep,
    max_deviation,
    mse,
    mse_raw,
    _positive_definite,
    scores,
    settling_index,
    stability_select,
    sweep_masks,
)
from dkfsim.stability import StabilityParams, bound_operator, compute_params, i_tilde_matrices

from conftest import network_of, random_system
from reference import (i_tilde, in_order_trace, oracle_histories, per_iteration_sweep,
                       per_node_admission)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_settling_constant_trajectory_is_zero():
    traj = np.ones((100, 2))
    assert settling_index(traj, band=0.01) == 0


def test_settling_decaying_exponential_uses_floor():
    # 0.5^k decays to ~0; the band floor 0.01*max|x| puts the settle point at
    # the first k with 0.5^k <= 0.01, i.e. k = 7
    traj = (0.5 ** np.arange(100))[:, None]
    assert settling_index(traj, band=0.01) == 7


def test_settling_step_to_constant():
    traj = np.zeros((50, 1))
    traj[10:] = 1.0
    assert settling_index(traj, band=0.01) == 10


def test_settling_never_settles_falls_back_to_half(caplog):
    rng = np.random.default_rng(0)
    traj = rng.standard_normal((101, 2))  # pure noise never settles
    with caplog.at_level("WARNING"):
        idx = settling_index(traj, band=0.01)
    assert idx == 50
    assert any("never settles" in rec.message for rec in caplog.records)


def test_settling_band_validation():
    with pytest.raises(ConfigError):
        settling_index(np.ones((10, 1)), band=1.5)


def test_mse_zero_for_perfect_estimate():
    x = np.random.default_rng(0).standard_normal((20, 2))
    assert mse(x, x) == 0.0


def test_mse_single_step_hand_value():
    assert mse(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])) == pytest.approx(1.0)
    assert mse_raw(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])) == pytest.approx(1.0)


def test_mse_quadratic_scaling():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 2))
    e = rng.standard_normal((30, 2))
    assert mse(x + 2 * e, x) == pytest.approx(4.0 * mse(x + e, x), rel=1e-12)


def test_mse_normalization_by_step_count():
    x = np.zeros((10, 2))
    xh = np.ones((10, 2))
    assert mse_raw(xh, x) == pytest.approx(10 * mse(xh, x))


def test_mse_length_mismatch_rejected():
    with pytest.raises(MetricError):
        mse(np.ones((5, 2)), np.ones((6, 2)))
    with pytest.raises(MetricError):
        mse(np.ones((5, 2)), np.ones((5, 2)), from_index=5)


def test_max_deviation_zero_and_hand_value():
    x = np.array([[1.0, 2.0]])
    assert max_deviation(x, x) == 0.0
    assert max_deviation(np.array([[1.5, 2.0]]), x) == pytest.approx(0.25)


def test_max_deviation_undefined_for_zero_truth():
    with pytest.raises(MetricError):
        max_deviation(np.ones((3, 2)), np.zeros((3, 2)))


def test_metrics_invariant_under_component_permutation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 3))
    xh = x + 0.1 * rng.standard_normal((40, 3))
    perm = [2, 0, 1]
    assert mse(xh, x) == pytest.approx(mse(xh[:, perm], x[:, perm]))
    assert max_deviation(xh, x) == pytest.approx(max_deviation(xh[:, perm], x[:, perm]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6), n_steps=st.integers(1, 210),
       m=st.integers(1, 4), data=st.data())
def test_metrics_on_a_stack_equal_per_row_calls(seed, batch, n_steps, m, data):
    # up to 840 entries per row, past numpy's 128-entry pairwise-summation block
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal((n_steps, m))
    stack = truth + rng.uniform(0.0, 2.0, (batch, 1, 1)) * rng.standard_normal((batch, n_steps, m))
    stack[data.draw(st.integers(0, batch - 1))] = truth  # one row equal to the truth
    from_index = data.draw(st.integers(0, n_steps - 1))
    for metric, args in ((mse, (from_index,)), (mse_raw, (from_index,)), (max_deviation, ())):
        batched = metric(stack, truth, *args)
        assert batched.shape == (batch,)
        assert np.array_equal(batched, [metric(row, truth, *args) for row in stack])
    # scores gives the three metrics of one trajectory or a stack in one call
    for x_hat in (stack[0], stack):
        want = (mse(x_hat, truth, from_index), max_deviation(x_hat, truth),
                mse_raw(x_hat, truth, from_index))
        assert all(np.array_equal(got, value)
                   for got, value in zip(scores(x_hat, truth, from_index), want, strict=True))


@pytest.mark.parametrize("metric", [mse, mse_raw, max_deviation])
@pytest.mark.parametrize("shape", [(3, 5, 2), (3, 6, 3), (6,), (2, 3, 6, 1)])
def test_metrics_reject_a_stack_of_other_trailing_shape(metric, shape):
    with pytest.raises(MetricError, match="shapes differ"):
        metric(np.ones(shape), np.ones((6, 2)))


# ---------------------------------------------------------------------------
# greedy sweep
# ---------------------------------------------------------------------------


def sweep(engine, iterations, r_max, tau_max):
    return greedy_select(greedy_sweep(engine, iterations, r_max, tau_max), engine.truth,
                         settling_index(engine.truth, 0.01))


def test_greedy_first_iteration_selects_everything():
    sys_ = builtin_system()
    rng = np.random.default_rng(3)
    net = sample_network(40, (0.0, 0.5), (0.0, 2.0), rng)
    report = sweep(DkfEngine(sys_, net, 60, rng), 1, 0.5, 2.0)
    assert isinstance(report, np.recarray) and report.dtype == GREEDY_REPORT
    assert report.dtype.names == ("iteration", "r0", "tau0", "n_selected", "mse", "md",
                                  "mse_raw")
    assert len(report) == 1
    assert report[0].n_selected == 40
    assert (report[0].r0, report[0].tau0) == (0.5, 2.0)


def test_greedy_boundary_inclusion():
    # a node sitting exactly at the thresholds is included (<= comparison)
    sys_ = builtin_system()
    net = network_of((0, 0.5, 2.0), (0, 0.1, 0.1))
    assert sweep_masks(net, 0.5, 2.0).tolist() == [True, True]
    assert sweep_masks(net, 0.49, 2.0).tolist() == [False, True]
    report = sweep(DkfEngine(sys_, net, 40, np.random.default_rng(0)), 1, 0.5, 2.0)
    assert report[0].n_selected == 2


def test_sweep_masks_zero_variance_threshold_admits_the_floor():
    # variances are clamped up to R_MIN, so R0 = 0 admits the floored nodes on
    # delay alone; a node above the floor stays out
    net = network_of((0, R_MIN, 0.5), (0, 2 * R_MIN, 0.0), (0, R_MIN, 1.5))
    assert sweep_masks(net, 0.0, 1.0).tolist() == [True, False, False]
    assert sweep_masks(net, np.zeros(2), np.array([2.0, 0.0])).tolist() == [
        [True, False, True], [False, False, False]]


def test_greedy_thresholds_nonincreasing_and_subsets_nested():
    sys_ = builtin_system()
    rng = np.random.default_rng(4)
    net = sample_network(60, (0.0, 0.5), (0.0, 2.0), rng)
    report = sweep(DkfEngine(sys_, net, 50, rng), 12, 0.5, 2.0)
    assert (np.diff(report.r0) <= 0).all() and (np.diff(report.tau0) <= 0).all()
    masks = sweep_masks(net, report.r0, report.tau0)
    assert masks.shape == (12, 60)
    assert (masks[1:] <= masks[:-1]).all()  # each subset inside the one before
    assert report.n_selected.tolist() == masks.sum(axis=1).tolist()


def test_greedy_empty_iteration_records_sentinel():
    sys_ = builtin_system()
    net = network_of((0, 0.5, 2.0))
    report = sweep(DkfEngine(sys_, net, 40, np.random.default_rng(0)), 10, 0.5, 2.0)
    assert report[0].n_selected == 1 and np.isfinite(report[0].mse)
    assert report[-1].n_selected == 0  # thresholds shrank below the node
    assert np.isnan(report[-1].mse) and np.isnan(report[-1].md) and np.isnan(report[-1].mse_raw)


def test_greedy_shares_one_realization():
    # two records over the same subset content must carry identical metrics
    sys_ = builtin_system()
    net = network_of((0, 0.05, 0.0), (0, 0.06, 0.05))
    report = sweep(DkfEngine(sys_, net, 60, np.random.default_rng(1)), 5, 0.5, 2.0)
    full = report[report.n_selected == 2]
    assert len(full) >= 2
    assert (full.mse == full.mse[0]).all()
    assert (full.md == full.md[0]).all()


def assert_sweep_matches(report, network, expected, rel=1e-12):
    assert len(report) == len(expected)
    masks = sweep_masks(network, report.r0, report.tau0)
    for it, (rep, mask, (nodes, thresholds, *metrics)) in enumerate(
            zip(report, masks, expected), start=1):
        assert rep.iteration == it
        assert frozenset((np.flatnonzero(mask) + 1).tolist()) == nodes
        assert rep.n_selected == len(nodes)
        assert (rep.r0, rep.tau0) == thresholds
        for got, want in zip((rep.mse, rep.md, rep.mse_raw), metrics):
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert abs(got - want) <= rel * abs(want)


def test_greedy_batched_matches_per_iteration_runs():
    # a node delayed past the 60-step horizon, and trailing iterations whose
    # thresholds fall below every node
    sys_ = builtin_system()
    nodes = [(i % 2, 0.1 + 0.04 * i, 0.15 * i) for i in range(8)]
    nodes += [(1, 0.2, 0.05), (1, 0.12, 1.9)]
    net = network_of(*nodes)
    engine = DkfEngine(sys_, net, 60, np.random.default_rng(8))
    report = sweep(engine, 10, 0.5, 2.0)
    masks = sweep_masks(net, report.r0, report.tau0)
    assert report[-1].n_selected == 0 and report[0].n_selected == 10
    assert masks[:, 8].any() and masks[0, 9]
    assert_sweep_matches(report, net, per_iteration_sweep(engine, nodes, 10, 0.5, 2.0))


def random_nodes(rng, m, n_nodes, max_delay):
    """(state, variance, base) of n_nodes sensors on random states, variances
    0.1 a^2 + U[0.01, 0.5] with a standard normal, delays U[0, max_delay] s."""
    return [(int(rng.integers(0, m)),
             float(0.1 * rng.standard_normal() ** 2 + rng.uniform(0.01, 0.5)),
             float(rng.uniform(0.0, max_delay))) for _ in range(n_nodes)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]),
       n_nodes=st.integers(1, 8), iterations=st.integers(1, 8), n_steps=st.integers(8, 40))
def test_greedy_batched_matches_per_iteration_property(seed, m, n_nodes, iterations, n_steps):
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    # delays up to 1.5x the horizon, so some nodes never arrive
    nodes = random_nodes(rng, m, n_nodes, 1.5 * n_steps * sys_.sample_time)
    net = network_of(*nodes, m=m)
    r_max = float(rng.uniform(0.2, 1.5))
    tau_max = float(rng.uniform(0.05, 1.5 * n_steps * sys_.sample_time))
    engine = DkfEngine(sys_, net, n_steps, rng)
    report = sweep(engine, iterations, r_max, tau_max)
    assert_sweep_matches(report, net,
                         per_iteration_sweep(engine, nodes, iterations, r_max, tau_max))


def test_greedy_non_finite_names_iteration_and_step(monkeypatch):
    real = _kernels.fused_info_recursion

    def poisoned(*args):
        info_hist, yv_hist = real(*args)
        info_hist[1, 12, 1, 1] = np.nan  # batch row 1 runs iteration 2
        return info_hist, yv_hist

    monkeypatch.setattr(_kernels, "fused_info_recursion", poisoned)
    net = network_of(*[(0, 0.1 * (i + 1)) for i in range(4)])
    with pytest.raises(NumericError, match=r"greedy iteration 2 at step 12$") as err:
        greedy_sweep(DkfEngine(builtin_system(), net, 30, np.random.default_rng(0)), 4, 0.5, 1.0)
    assert err.value.step == 12


def test_greedy_requires_resolved_network():
    sys_ = builtin_system()
    net = network_of((0, 0.25, 0.0, 0.1))
    with pytest.raises(ConfigError, match="node 1 has unresolved stochastic delay"):
        greedy_sweep(DkfEngine(sys_, net, 30, np.random.default_rng(0)), 2, 0.5, 2.0)


@pytest.mark.parametrize("r_max, tau_max", [(np.nan, 2.0), (0.5, np.nan), (np.inf, 2.0),
                                           (0.5, -np.inf), (-0.1, 2.0)])
def test_greedy_refuses_thresholds_not_finite_and_non_negative(r_max, tau_max):
    # a NaN threshold passed a "< 0" check and gave an all-empty sweep with NaN metrics
    engine = DkfEngine(builtin_system(), network_of((0, 0.2), (1, 0.3)), 30,
                       np.random.default_rng(0))
    with pytest.raises(ConfigError, match="^r_max and tau_max must be finite and >= 0, got ") as err:
        greedy_sweep(engine, 4, r_max, tau_max)
    assert err.value.keys == ("variance_range", "delay_range")


# ---------------------------------------------------------------------------
# stability selection
# ---------------------------------------------------------------------------


def test_stability_select_excludes_delay_beyond_horizon(caplog):
    sys_ = builtin_system()
    net = network_of((1, 0.1, 0.0), (0, 0.1, 3.0))  # node 2: 300 steps > horizon
    params = StabilityParams(k_bar=10)
    selected, report = stability_select(Scenario(sys_, net, 60), params)
    assert 2 not in selected
    assert report[1].ct_exp == 0
    assert 1 in selected


def test_stability_select_all_delays_beyond_horizon_warns(caplog):
    sys_ = builtin_system()
    net = network_of((0, 0.25, 5.0), (0, 0.25, 9.0))
    with caplog.at_level("WARNING"):
        selected, _ = stability_select(Scenario(sys_, net, 50), StabilityParams(k_bar=10))
    assert selected == set()
    assert any("larger than the estimation horizon" in rec.message for rec in caplog.records)


def test_stability_select_empty_network():
    scenario = Scenario(builtin_system(), network_of(), 100)
    selected, report = stability_select(scenario, StabilityParams())
    assert selected == set()
    assert isinstance(report, np.recarray) and report.size == 0
    assert report.dtype.names == ("node_id", "selected", "ct_exp", "first_fail", "delay_s",
                                  "variance", "beta_hat")


def test_stability_select_order_invariance():
    sys_ = builtin_system()
    rng = np.random.default_rng(5)
    nodes = [(int(rng.integers(0, 2)), float(rng.uniform(0.05, 0.5)), float(rng.uniform(0, 0.5)))
             for _ in range(12)]
    net_a = network_of(*nodes)
    params = StabilityParams(k_bar=10)
    sel_a, _ = stability_select(Scenario(sys_, net_a, 80), params)
    # permute physical order, renumber ids, map back
    perm = rng.permutation(12)
    renumbered = network_of(*[nodes[p] for p in perm])
    sel_b, _ = stability_select(Scenario(sys_, renumbered, 80), params)
    mapped = {int(perm[j - 1]) + 1 for j in sel_b}
    assert mapped == sel_a


def test_stability_select_fresh_low_noise_nodes_admitted():
    sys_ = builtin_system()
    net = network_of((0, 1e-6), (1, 1e-6))
    scenario = Scenario(sys_, net, 150)
    selected, _ = stability_select(scenario, compute_params())
    assert selected == {1, 2}


def test_stability_select_prefers_low_staleness():
    sys_ = builtin_system()
    net = network_of(*[(i % 2, 0.2, i * 0.05) for i in range(10)])
    params = StabilityParams(k_bar=10)
    selected, report = stability_select(Scenario(sys_, net, 120), params)
    delays = dict(zip(report.node_id.tolist(), report.delay_s.tolist()))
    if selected:
        worst_selected = max(delays[i] for i in selected)
        rejected = [i for i in net.ids() if i not in selected and report[i - 1].ct_exp > 0]
        if rejected:
            assert min(delays[i] for i in rejected) >= worst_selected


def test_stability_select_refuses_non_finite_histories():
    # with Q = 1e300 I every node's history is NaN from step 1 on; beta-hat
    # came out finite from step 0 and the pass admitted no node, exit 0. Only
    # the nodes with d_i < k_bar are computed, and the error names the first
    # non-finite step, 1, and the first of those nodes in id order
    scenario = Scenario(builtin_system(q_scale=1e300),
                        sample_network(50, (0.0, 0.5), (0.0, 0.2), np.random.default_rng(7)), 60)
    k_bar = 5
    live = np.flatnonzero(scenario.delays < k_bar)
    assert live[0] > 0  # node 1 is not live, so naming it would be wrong
    with pytest.raises(DivergenceError, match=rf"^non-finite information history of node "
                                              rf"{live[0] + 1} at step 1$") as err:
        stability_select(scenario, StabilityParams(k_bar=k_bar))
    assert err.value.step == 1
    with np.errstate(invalid="ignore"):
        hist = _kernels.node_info_histories(scenario.a_inv_seq, scenario.q_inv,
                                            scenario.network.state, scenario.inv_r)
    assert np.isfinite(hist[:, 0]).all()
    assert not np.isfinite(hist[:, 1, live[0]]).all()


def test_stability_select_requires_horizon_beyond_window():
    with pytest.raises(ConfigError):
        stability_select(Scenario(builtin_system(), network_of((0, 0.25)), 30),
                         StabilityParams(k_bar=30))


def test_stability_select_requires_a_network():
    with pytest.raises(ConfigError, match="no sensor network"):
        stability_select(Scenario(builtin_system(), None, 50), StabilityParams(k_bar=5))


def test_stability_select_rejects_unresolved_jitter():
    net = network_of((0, 0.25, 0.0, 0.1))
    with pytest.raises(ConfigError, match="node 1 has unresolved stochastic delay"):
        stability_select(Scenario(builtin_system(), net, 50), StabilityParams(k_bar=5))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2, 3, 5, 8]),
       n_nodes=st.integers(1, 8), k_bar=st.integers(1, 8), extra_steps=st.integers(1, 30))
def test_stability_select_matches_per_node_loop(seed, m, n_nodes, k_bar, extra_steps):
    rng = np.random.default_rng(seed)
    n_steps = k_bar + extra_steps
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    # delays up to 1.5x the horizon, so some nodes have no applicable step
    nodes = random_nodes(rng, m, n_nodes, 1.5 * n_steps * sys_.sample_time)
    scenario = Scenario(sys_, network_of(*nodes, m=m), n_steps)
    params = StabilityParams(k_bar=k_bar)
    assert_matches_per_node_admission(scenario, nodes, params, *stability_select(scenario, params))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), n_nodes=st.integers(1, 8),
       k_bar=st.integers(1, 5), extra_steps=st.integers(1, 20))
def test_stability_select_rejects_by_proof_at_first_applicable_step(seed, m, n_nodes, k_bar,
                                                                    extra_steps):
    # a node with k_bar <= d_i < N first applies at k = d_i + 1, which reads
    # I_i(1) = psi(l_i) + l_i against l_i plus PSD terms; psi(l_i) has rank one,
    # so at m >= 2 the oracle's margin there is <= 0 up to rounding, and the
    # selection rejects the node there without computing it. At k_bar <= 2 the
    # margin is 0 in exact arithmetic, so a check that read the sign rounding
    # gives it would admit some of these nodes
    rng = np.random.default_rng(seed)
    n_steps = k_bar + extra_steps
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    nodes = random_nodes(rng, m, n_nodes, 1.5 * n_steps * sys_.sample_time)
    scenario = Scenario(sys_, network_of(*nodes, m=m), n_steps)
    params = StabilityParams(k_bar=k_bar)
    selected, report = stability_select(scenario, params)
    reference = per_node_admission(sys_, nodes, params, n_steps)
    for row, d in zip(report, scenario.delays.tolist()):
        if k_bar <= d < n_steps:
            margins = reference[row.node_id][1]
            assert margins[0] <= 1e-9 * max(1.0, float(np.abs(margins).max()))
            assert not row.selected and row.node_id not in selected
            assert row.first_fail == d + 1
            assert math.isnan(row.beta_hat)


def test_stability_select_one_state_plant_computes_every_applicable_node(monkeypatch):
    # at m = 1, psi(l_i) has full rank and the proof does not hold: every node
    # with an applicable step is computed, and at k_bar = 1, where the bound is
    # l_i alone, every one of them passes, delayed past k_bar or not
    rng = np.random.default_rng(43)
    n_steps, k_bar = 30, 1
    sys_ = random_system(rng, m=1, n_steps=n_steps)
    nodes = random_nodes(rng, 1, 12, 1.5 * n_steps * sys_.sample_time)
    scenario = Scenario(sys_, network_of(*nodes, m=1), n_steps)
    applicable = scenario.delays < n_steps
    assert (scenario.delays[applicable] >= k_bar).any() and not applicable.all()
    computed = []
    histories = _kernels.node_info_histories

    def spy(a_inv_seq, q_inv, state, inv_r, *args, **kwargs):
        computed.extend(inv_r.tolist())
        return histories(a_inv_seq, q_inv, state, inv_r, *args, **kwargs)
    monkeypatch.setattr(_kernels, "node_info_histories", spy)
    params = StabilityParams(k_bar=k_bar)
    selected, report = stability_select(scenario, params)
    assert sorted(computed) == sorted(scenario.inv_r[applicable].tolist())
    assert selected == set((np.flatnonzero(applicable) + 1).tolist())
    assert np.isfinite(report.beta_hat).tolist() == applicable.tolist()
    assert_matches_per_node_admission(scenario, nodes, params, selected, report)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 12),
       k_bar=st.integers(1, 8), extra_steps=st.integers(1, 25))
def test_stability_select_beta_hat_reads_first_max_trace_matrix(seed, m, n, k_bar, extra_steps):
    # delays of four kinds: 0, below k_bar, inside (k_bar, N) and at or past
    # N. Each computed node's beta-hat input is, bit for bit, its history's
    # matrix at the first step of largest trace (the diagonal added in order),
    # and within 1e-12 of the per-node oracle's
    rng = np.random.default_rng(seed)
    n_steps = k_bar + extra_steps
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    kinds = [np.zeros(n, dtype=np.int64), rng.integers(0, k_bar, size=n),
             rng.integers(k_bar + 1, max(n_steps, k_bar + 2), size=n),
             rng.integers(n_steps, 2 * n_steps, size=n)]
    delays = np.choose(rng.integers(0, 4, size=n), kinds)
    nodes = [(int(rng.integers(0, m)), float(rng.uniform(0.01, 0.5)), d * sys_.sample_time)
             for d in delays.tolist()]
    scenario = Scenario(sys_, network_of(*nodes, m=m), n_steps)
    inputs = []
    beta_hat_batch = selection.beta_hat_batch

    def spy(bounds, alpha, terms):
        inputs.append(bounds)
        return beta_hat_batch(bounds, alpha, terms)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "beta_hat_batch", spy)
        report = stability_select(scenario, StabilityParams(k_bar=k_bar))[1]
    computed = np.isfinite(report.beta_hat)
    if not computed.any():
        assert inputs == []
        return
    got = np.concatenate(inputs)
    state, inv_r = scenario.network.state[computed], scenario.inv_r[computed]
    hist = _kernels.unpack(_kernels.node_info_histories(scenario.a_inv_seq, scenario.q_inv,
                                                        state, inv_r))  # (N+1, n, m, m)
    want = hist[np.argmax(in_order_trace(hist), axis=0), np.arange(state.size)]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    oracle = oracle_histories(scenario.a_inv_seq, scenario.q_inv, state, inv_r)
    want_peak = oracle[np.arange(state.size), np.argmax(in_order_trace(oracle), axis=1)]
    scale = np.abs(want_peak).max(axis=(1, 2), keepdims=True)
    assert (np.abs(got - want_peak) <= 1e-12 * scale).all()


def spy_history_shapes(monkeypatch):
    """Record the shape of every history stability_select computes."""
    shapes = []
    histories = _kernels.node_info_histories

    def spy(*args, **kwargs):
        hist = histories(*args, **kwargs)
        shapes.append(hist.shape)
        return hist
    monkeypatch.setattr(_kernels, "node_info_histories", spy)
    return shapes


def test_stability_select_every_delay_past_horizon_matches_per_node_loop(monkeypatch):
    # delays N .. 2N steps: no node has an admission step, so none is computed:
    # ct_exp and first_fail are 0 and beta-hat is NaN everywhere
    rng = np.random.default_rng(41)
    m, n_steps, k_bar = 3, 30, 5
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    nodes = [(state, r, d * sys_.sample_time) for state, r, d in
             zip(rng.integers(0, m, 9).tolist(), rng.uniform(0.05, 0.5, 9).tolist(),
                 [n_steps, *rng.integers(n_steps, 2 * n_steps, 8).tolist()])]
    scenario = Scenario(sys_, network_of(*nodes, m=m), n_steps)
    params = StabilityParams(k_bar=k_bar)
    shapes = spy_history_shapes(monkeypatch)
    selected, report = stability_select(scenario, params)
    assert shapes == []
    assert selected == set() and (report.ct_exp == 0).all() and (report.first_fail == 0).all()
    assert np.isnan(report.beta_hat).all()
    assert_matches_per_node_admission(scenario, nodes, params, selected, report)


def test_stability_select_without_live_nodes_computes_no_history(monkeypatch):
    # every delay in [k_bar, N): the proof rejects every node at k = d_i + 1, so
    # no history is computed, and Q = 1e300 I, whose histories are NaN from
    # step 1 on, selects nothing without a DivergenceError
    m, n_steps, k_bar = 2, 60, 5
    delays = np.arange(k_bar, n_steps, 6)
    net = network_of(*[(int(i % m), 0.2, d * 0.01) for i, d in enumerate(delays.tolist())])
    scenario = Scenario(builtin_system(q_scale=1e300), net, n_steps)
    np.testing.assert_array_equal(scenario.delays, delays)
    shapes = spy_history_shapes(monkeypatch)
    selected, report = stability_select(scenario, StabilityParams(k_bar=k_bar))
    assert shapes == []
    assert selected == set() and not report.selected.any()
    np.testing.assert_array_equal(report.ct_exp, n_steps - delays)
    np.testing.assert_array_equal(report.first_fail, delays + 1)
    assert np.isnan(report.beta_hat).all()


def test_stability_select_every_delay_zero_matches_per_node_loop(monkeypatch):
    # zero delays: every node is live, so one chunk holds every node's whole
    # history, steps 0 to N
    rng = np.random.default_rng(42)
    m, n_steps, k_bar = 3, 30, 5
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    nodes = [(state, r, 0.0) for state, r in
             zip(rng.integers(0, m, 9).tolist(), rng.uniform(0.05, 0.5, 9).tolist())]
    scenario = Scenario(sys_, network_of(*nodes, m=m), n_steps)
    params = StabilityParams(k_bar=k_bar)
    shapes = spy_history_shapes(monkeypatch)
    selected, report = stability_select(scenario, params)
    assert shapes == [(m * (m + 1) // 2, n_steps + 1, 9)]
    assert (report.ct_exp == n_steps - k_bar).all()
    assert_matches_per_node_admission(scenario, nodes, params, selected, report)


def assert_matches_per_node_admission(scenario, nodes, params, selected, report):
    """stability_select's outcome against per_node_admission's, run on the
    (state, variance, base) tuples the scenario's network was built from.

    The oracle gives one margin per applicable step, from the first,
    max(k_bar, d_i) + 1, to N. A margin within rounding of zero may fall
    either way, so first_fail = k needs margin(k) <= +tol and every earlier
    margin > -tol, and first_fail = 0 needs every margin > -tol. A node
    carries beta-hat iff it is computed: d_i < k_bar at m >= 2, d_i < N at
    m = 1; the others hold NaN.
    """
    net, n_steps = scenario.network, scenario.n_steps
    reference = per_node_admission(scenario.sys, nodes, params, n_steps)
    np.testing.assert_array_equal(report.node_id, net.ids())
    np.testing.assert_array_equal(report.delay_s, net.base)
    np.testing.assert_array_equal(report.variance, net.variance)
    live = scenario.delays < (params.k_bar if scenario.sys.state_dim >= 2 else n_steps)
    for row, computed in zip(report, live.tolist()):
        beta, margins = reference[row.node_id]
        if computed:
            assert row.beta_hat == pytest.approx(beta, rel=1e-9)
        else:
            assert math.isnan(row.beta_hat)
        assert row.ct_exp == margins.size
        tol = 1e-9 * max(1.0, float(np.abs(margins).max(initial=0.0)))
        if row.first_fail == 0:
            assert (margins > -tol).all()
        else:
            j = row.first_fail - (n_steps + 1 - margins.size)  # its position in margins
            assert 0 <= j < margins.size
            assert margins[j] <= tol and (margins[:j] > -tol).all()
        assert row.selected == (row.ct_exp > 0 and row.first_fail == 0)
        assert (row.node_id in selected) == row.selected


@pytest.mark.parametrize("m", [3, 5])
def test_bounds_and_admissions_match_reference_with_one_state_unmeasured(m):
    # no node measures the last state, so the bound operator's rows for it
    # meet only zero inputs; the bounds still match reference.i_tilde and the
    # admissions the per-node loop
    rng = np.random.default_rng(71)
    n_steps, k_bar = 40, 6
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    nodes = random_nodes(rng, m - 1, 16, 0.3 * n_steps * sys_.sample_time)
    net = network_of(*nodes, m=m)
    assert set(net.state.tolist()) == set(range(m - 1))
    scenario = Scenario(sys_, net, n_steps)
    betas = rng.uniform(0.3, 1.0, size=len(net))
    operator = bound_operator(scenario, k_bar)
    mats = _kernels.unpack(i_tilde_matrices(operator, betas, net.state, scenario.inv_r))
    for i, (state, r, _) in enumerate(nodes):
        l_node = np.zeros((m, m))
        l_node[state, state] = 1.0 / r
        for pos, k in enumerate(range(k_bar + 1, n_steps + 1)):
            want = i_tilde(k, k_bar, betas[i], sys_, l_node)
            assert np.abs(mats[pos, i] - want).max() <= 1e-12 * np.abs(want).max()
    params = StabilityParams(k_bar=k_bar)
    selected, report = stability_select(scenario, params)
    assert 0 < len(selected) < len(net)
    assert_matches_per_node_admission(scenario, nodes, params, selected, report)


def pack(mats):
    """The packed layout _positive_definite reads: lower triangles (P, e) of a
    stack (e, m, m), in np.tril_indices order."""
    rows, cols = np.tril_indices(mats.shape[-1])
    return mats[:, rows, cols].T


def layouts(packed):
    """The same packed stack C-ordered, F-ordered and as a strided view (every
    other column of a wider array): the admission decision must not depend on
    memory order."""
    wide = np.full((packed.shape[0], 2 * packed.shape[1]), np.nan)
    wide[:, ::2] = packed
    arrays = np.ascontiguousarray(packed), np.asfortranarray(packed), wide[:, ::2]
    assert [a.flags.c_contiguous for a in arrays] == [True, False, False]
    assert [a.flags.f_contiguous for a in arrays] == [False, True, False]
    return arrays


def spectrum_matrices(rng, m, lam_min, count):
    """count matrices s V diag(lambda) V^T (random orthogonal V, s in 1e-6..1e6)
    with lambda in [0.1, 1] but for the smallest, set to lam_min(m, max|D|)."""
    mats = np.empty((count, m, m))
    for i in range(count):
        v, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = rng.uniform(0.1, 1.0, m)
        lam[0] = lam_min(m, np.abs((v * lam) @ v.T).max())
        mats[i] = 10.0 ** rng.uniform(-6, 6) * ((v * lam) @ v.T)
    return 0.5 * (mats + mats.swapaxes(1, 2))


def bracket_shift(m, peak):
    return _kernels.CHOLESKY_SLACK * m * (m + 1) * np.finfo(float).eps * peak


LAMBDA_MIN = {
    "zero": lambda m, peak: 0.0,
    "tiny+": lambda m, peak: 1e-15 * peak,
    "tiny-": lambda m, peak: -1e-15 * peak,
    "shift+": bracket_shift,
    "shift-": lambda m, peak: -bracket_shift(m, peak),
    "clear+": lambda m, peak: 1e-3 * peak,
    "clear-": lambda m, peak: -1e-3 * peak,
}


def bracket_decisions(packed):
    """(certified positive, certified negative) per entry of a packed stack:
    the shifted Cholesky of D - delta I succeeds, or that of D + delta I
    breaks down, on entries whose scale the bracket trusts."""
    delta, trusted = _kernels.rounding_shift(packed)
    positive = _kernels._cholesky_succeeds(np.array(packed), delta) & trusted
    negative = ~_kernels._cholesky_succeeds(np.array(packed), -delta) & trusted
    return positive, negative


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3, 4, 5]),
       kind=st.sampled_from(sorted(LAMBDA_MIN)))
def test_positive_definite_matches_eigvalsh(seed, m, kind):
    # an entry the Cholesky bracket decides is decided as eigvalsh decides it,
    # for every m including 2 and in every memory layout of the pack; one it
    # does not decide (lambda_min within the shift of zero) counts as failing
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((40, m, m))
    mats = np.concatenate([spectrum_matrices(rng, m, LAMBDA_MIN[kind], 40),
                           noise + noise.swapaxes(1, 2)])
    want = np.linalg.eigvalsh(mats)[:, 0] > 0.0
    positive, negative = bracket_decisions(pack(mats))
    decided = positive | negative
    assert not (positive & negative).any()
    assert np.array_equal(positive[decided], want[decided])
    if kind.startswith("clear"):
        assert decided.all()
    for packed in layouts(pack(mats)):
        got = _positive_definite(packed)
        assert np.array_equal(got[decided], want[decided]) and not got[~decided].any()


def test_positive_definite_rejects_near_zero_without_eigvalsh(monkeypatch):
    # lambda_min = +-1e-15 max|D| lies within the bracket's shift: neither
    # Cholesky decides it, and it fails without an eigvalsh call; entries with
    # lambda_min = +-1e-3 max|D| are decided as eigvalsh decides them
    rng = np.random.default_rng(4)
    near = np.concatenate([spectrum_matrices(rng, 4, LAMBDA_MIN[k], 20) for k in ("tiny+", "tiny-")])
    clear = np.concatenate([spectrum_matrices(rng, 4, LAMBDA_MIN[k], 20) for k in ("clear+", "clear-")])
    want = np.linalg.eigvalsh(clear)[:, 0] > 0.0
    assert want.sum() == 20
    positive, negative = bracket_decisions(pack(near))
    assert not (positive | negative).any()
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)))
    got = _positive_definite(pack(np.concatenate([near, clear])))
    assert calls == []
    assert not got[:len(near)].any()
    assert np.array_equal(got[len(near):], want)


def chunk_test_network(rng, m, n_live, n_steps, ts, k_bar):
    """n_live nodes delayed by fewer than k_bar steps, which stability_select
    computes, and half as many delayed by k_bar to 0.8 N steps, which it
    rejects by proof, in random id order."""
    delays = np.concatenate([rng.integers(0, k_bar, n_live),
                             rng.integers(k_bar, int(0.8 * n_steps), n_live // 2)])
    return network_of(*[(int(rng.integers(0, m)), float(rng.uniform(0.01, 0.5)), d * ts)
                        for d in rng.permutation(delays).tolist()], m=m)


def spy_chunks(monkeypatch, nodes_per_chunk, n_steps, m):
    """Budget stability_select's chunks at nodes_per_chunk nodes; returns the
    list the chunk sizes it runs are appended to."""
    monkeypatch.setattr(selection, "STABILITY_CHUNK",
                        nodes_per_chunk * (n_steps + 1) * m * (m + 1) // 2)
    sizes = []
    histories = _kernels.node_info_histories

    def spy(a_inv_seq, q_inv, state, *args, **kwargs):
        sizes.append(len(state))
        return histories(a_inv_seq, q_inv, state, *args, **kwargs)
    monkeypatch.setattr(_kernels, "node_info_histories", spy)
    return sizes


def test_stability_select_chunks_match_one_chunk(monkeypatch):
    rng = np.random.default_rng(11)
    m, n_steps = 5, 30
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    scenario = Scenario(sys_, chunk_test_network(rng, m, 40, n_steps, sys_.sample_time, 6),
                        n_steps)
    params = StabilityParams(k_bar=6)
    whole = stability_select(scenario, params)
    sizes = spy_chunks(monkeypatch, 7, n_steps, m)
    chunked = stability_select(scenario, params)
    assert sizes == [7] * 5 + [5]  # the 40 live nodes; the 20 others are never computed
    assert chunked[0] == whole[0]
    assert chunked[1].tobytes() == whole[1].tobytes()
    assert 0 < len(whole[0]) < 40


def test_stability_select_warns_each_pinv_step_once(monkeypatch, caplog):
    rng = np.random.default_rng(12)
    m, n_steps = 3, 30
    mats = list(random_system(rng, m=m, n_steps=n_steps).transition.matrices)
    mats[10] = np.diag([0.9, 0.8, 0.0])  # A(10) singular: the bounds take its pseudo-inverse
    sys_ = LtvSystem(state_dim=m, transition=MatrixTable(tuple(mats)),
                     process_noise_cov=0.3 * np.eye(m), initial_state=np.ones(m), sample_time=0.01)
    scenario = Scenario(sys_, chunk_test_network(rng, m, 20, n_steps, sys_.sample_time, 5),
                        n_steps)
    sizes = spy_chunks(monkeypatch, 8, n_steps, m)
    with caplog.at_level("WARNING"):
        stability_select(scenario, StabilityParams(k_bar=5))
    assert sizes == [7, 7, 6]  # the 20 live nodes in the fewest chunks of at most 8, of equal size
    assert [r.message for r in caplog.records if "effectively singular" in r.message] == [
        "i_tilde: A(10) effectively singular, using pseudo-inverse"]


N_PINV = 30


@pytest.mark.parametrize("j", [1, 2, N_PINV - 1])
@pytest.mark.parametrize("k_bar", [1, 2, 5])
def test_pinv_warnings_match_reference_window(caplog, k_bar, j):
    # the bounds for k in (k_bar, N] invert A(j) for 2 <= j < N, and none for a
    # one-step window: the selection names each singular A(j) once, exactly
    # the steps reference.i_tilde logs over the same window
    rng = np.random.default_rng(13)
    m = 3
    mats = list(random_system(rng, m=m, n_steps=N_PINV).transition.matrices)
    mats[j] = np.diag([0.9, 0.8, 0.0])
    sys_ = LtvSystem(state_dim=m, transition=MatrixTable(tuple(mats)),
                     process_noise_cov=0.3 * np.eye(m), initial_state=np.ones(m), sample_time=0.01)
    net = chunk_test_network(rng, m, 6, N_PINV, sys_.sample_time, k_bar)
    with caplog.at_level("WARNING"):
        stability_select(Scenario(sys_, net, N_PINV), StabilityParams(k_bar=k_bar))
    selection = [r.message for r in caplog.records if "effectively singular" in r.message]
    caplog.clear()
    with caplog.at_level("WARNING"):
        for k in range(k_bar + 1, N_PINV + 1):
            i_tilde(k, k_bar, 0.5, sys_, np.eye(m))
    reference = {r.message for r in caplog.records if "effectively singular" in r.message}
    assert selection == sorted(reference)
    assert len(selection) == (k_bar >= 2 and j >= 2)


def benchmark_shaped_scenario(seed=21, max_delay=0.5):
    """2000 sensors on random states of a random 5-state plant over N = 200
    steps, delays U[0, max_delay] s: the shape of the 5-state stability
    benchmark, whose delays are U[0, 2 s]."""
    rng = np.random.default_rng(seed)
    m, n, n_steps = 5, 2000, 200
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    network = SensorNetwork(rng.integers(0, m, size=n), rng.uniform(0.05, 0.5, size=n),
                            rng.uniform(0.0, max_delay, size=n), np.zeros(n), m)
    return Scenario(sys_, network, n_steps)


def test_stability_select_takes_fewest_equal_chunks(monkeypatch):
    # delays U[0, 0.19 s], under k_bar = 20 steps, make all 2000 nodes live, at
    # 3015 packed entries each: at most 695 nodes per chunk, so 3 chunks of 667
    # nodes or one fewer. The benchmark's delays U[0, 2 s] leave about a tenth
    # of the nodes live, and they form one chunk
    sizes = []
    histories = _kernels.node_info_histories

    def spy(a_inv_seq, q_inv, state, *args, **kwargs):
        sizes.append(len(state))
        return histories(a_inv_seq, q_inv, state, *args, **kwargs)
    monkeypatch.setattr(_kernels, "node_info_histories", spy)
    stability_select(benchmark_shaped_scenario(max_delay=0.19), StabilityParams(k_bar=20))
    assert sizes == [667, 667, 666]
    sizes.clear()
    scenario = benchmark_shaped_scenario(max_delay=2.0)
    stability_select(scenario, StabilityParams(k_bar=20))
    assert sizes == [(scenario.delays < 20).sum()] and 150 < sizes[0] < 250


def test_stability_select_traced_peak_stays_within_chunk_budget():
    # alive at the peak: one chunk's whole packed histories, the bound
    # operator (2.7e5 entries here), and one admission block's bounds with the
    # history gathered against them. With delays U[0, 0.19 s], under k_bar = 20
    # steps, every node is live and three chunks fill the budget: the peak is
    # 1.37x the budget. With delays U[0, 2 s], as on the benchmark, about 200
    # nodes are live, in one chunk: 0.66x. Copying each block for its Cholesky
    # check reaches 1.46x and 0.75x, and keeping every chunk's histories
    # alive 3.28x
    for max_delay, bound in ((0.19, 1.4), (2.0, 0.7)):
        scenario = benchmark_shaped_scenario(max_delay=max_delay)
        tracemalloc.start()
        try:
            stability_select(scenario, StabilityParams(k_bar=20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * selection.STABILITY_CHUNK * 8, max_delay


def test_three_state_system_end_to_end():
    # basis-row sensors generalize beyond two states; run both selectors
    from dkfsim.model import LtvSystem, MatrixTable

    rng = np.random.default_rng(7)
    n_steps = 80
    a = np.array([[0.6, 0.2, 0.0], [0.1, 0.5, 0.2], [0.0, 0.1, 0.7]])
    sys_ = LtvSystem(
        state_dim=3,
        transition=MatrixTable(tuple(a for _ in range(n_steps))),
        process_noise_cov=0.1 * np.eye(3),
        initial_state=np.ones(3),
        sample_time=0.01,
    )
    net = sample_network(30, (0.0, 0.3), (0.0, 0.3), rng, state_dim=3)
    report = sweep(DkfEngine(sys_, net, n_steps, rng), 8, 0.3, 0.3)
    assert np.isfinite(report.mse).any()
    selected, _ = stability_select(Scenario(sys_, net, n_steps), StabilityParams(k_bar=8))
    assert selected <= set(net.ids())
