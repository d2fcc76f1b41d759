import os
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkfsim import _kernels, dkf
from dkfsim.dkf import DkfEngine, Scenario, recover_estimates
from dkfsim.errors import ConfigError, NumericError, SelectionError
from dkfsim.model import builtin_system, robust_inverse, simulate, transition_matrix
from dkfsim.sensing import SensorNetwork, sample_network
from dkfsim.selection import max_deviation, sweep_masks

from conftest import assert_rel_close, network_of, random_psd, random_system
from reference import (
    iv_delta,
    kf_covariance_form,
    node_l,
    psi,
    recover_estimate,
    stacked_model,
    stepwise_fused_run,
    time_update_general,
)


def random_network(rng, n, delay_range=(0.0, 0.0)):
    return network_of(*[(int(rng.integers(0, 2)), float(max(rng.uniform(0.05, 0.5), 1e-6)),
                         float(rng.uniform(*delay_range))) for _ in range(n)])


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
    sys_ = builtin_system()
    rng = np.random.default_rng(17)
    net = random_network(rng, 3)
    p0 = 2.5 * np.eye(2)
    x0h = np.array([1.0, 1.0])
    eng = DkfEngine(sys_, net, 150, np.random.default_rng(2),
                    info0=np.linalg.inv(p0), x0_hat=x0h)
    _, _, xhat, _ = eng.fused_run(net.mask([1, 2, 3]))
    xs, _ = kf_covariance_form(sys_, *stacked_model(net), eng.readings(np.arange(3)).T, 150,
                               x0_hat=x0h, p0=p0)
    assert np.abs(xhat - xs).max() < 1e-6


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


def test_fused_run_deterministic():
    sys_ = builtin_system()
    net = random_network(np.random.default_rng(1), 5, delay_range=(0.0, 0.5))
    e1, e2 = (DkfEngine(sys_, net, 80, np.random.default_rng(99)) for _ in range(2))
    info1, _, x1, _ = e1.fused_run(net.mask([1, 3, 5]))
    info2, _, x2, _ = e2.fused_run(net.mask([1, 3, 5]))
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(e1.truth, e2.truth)
    np.testing.assert_array_equal(info1, info2)


def test_fused_run_rejects_bad_subsets():
    sys_ = builtin_system()
    net = random_network(np.random.default_rng(1), 3)
    engine = DkfEngine(sys_, net, 10, np.random.default_rng(0))
    with pytest.raises(SelectionError, match="^node subset is empty$"):
        net.mask([])
    with pytest.raises(SelectionError, match=r"^unknown node ids in subset: \[0, 7\]$"):
        net.mask([7, 0, 7])
    # ids that are not integers are named, not truncated to their integer part
    with pytest.raises(SelectionError, match=r"^node ids must be integers, got \[2\.7, 1\.2\]$"):
        net.mask([2.7, 1.2])
    with pytest.raises(SelectionError, match="^node ids must be integers"):
        net.mask(np.array([1.0, 2.0]))
    with pytest.raises(SelectionError, match=r"^node ids must be integers, got \[True\]$"):
        net.mask([True, 2])
    # repeats count once, in any order
    assert net.mask(np.array([3, 1, 3])).tolist() == [True, False, True]
    # a list of ids is no mask: the engine takes bool masks only
    with pytest.raises(SelectionError, match=r"^masks must be a \(3,\) or \(B, 3\) bool array"):
        engine.fused_run([1, 3])
    np.testing.assert_array_equal(engine.fused_run(net.mask(np.array([3, 1])))[0],
                                  engine.fused_run(net.mask([1, 3]))[0])


def test_delays_increase_transient_deviation():
    sys_ = builtin_system()
    rng = np.random.default_rng(0)
    nodes_delayed = random_network(rng, 400, delay_range=(0.0, 2.0))
    nodes_zero = SensorNetwork(nodes_delayed.state, nodes_delayed.variance, np.zeros(400),
                               np.zeros(400), 2)
    eng_d = DkfEngine(sys_, nodes_delayed, 200, np.random.default_rng(12))
    eng_0 = DkfEngine(sys_, nodes_zero, 200, np.random.default_rng(12))
    md_delayed = max_deviation(eng_d.fused_run(np.ones(400, dtype=bool))[2], eng_d.truth)
    md_zero = max_deviation(eng_0.fused_run(np.ones(400, dtype=bool))[2], eng_0.truth)
    assert md_delayed > md_zero


# ---------------------------------------------------------------------------
# batched fused runs
# ---------------------------------------------------------------------------


def mixed_network(m=2):
    """Nodes on every state with distinct delays, and node 7 delayed past a
    60-step horizon."""
    nodes = [(i % m, 0.1 + 0.05 * i, 0.07 * i) for i in range(5)]
    nodes += [(m - 1, 0.2, 0.12), (1, 0.15, 3.0)]
    return network_of(*nodes, m=m)


def test_fused_runs_rows_match_stepwise_oracle():
    # the two-state benchmark plant and a random three-state plant
    for sys_ in (builtin_system(), random_system(np.random.default_rng(8), m=3, n_steps=60)):
        m = sys_.state_dim
        net = mixed_network(m)
        eng = DkfEngine(sys_, net, 60, np.random.default_rng(4),
                        info0=0.5 * np.eye(m), x0_hat=np.array([1.0, -1.0, 0.5][:m]))
        subsets = [net.ids(), [2, 6], [7], [1, 3, 7]]
        masks = np.array([net.mask(ids) for ids in subsets])
        info_hist, yv_hist, xhat, flags = eng.fused_run(masks)
        assert info_hist.shape == (4, 61, m, m) and xhat.shape == (4, 61, m)
        for b, ids in enumerate(subsets):
            want_info, want_yv = stepwise_fused_run(eng, ids)
            want_x, want_flags = recover_estimates(want_info, want_yv)
            assert_rel_close(info_hist[b], want_info)
            assert_rel_close(yv_hist[b], want_yv)
            assert_rel_close(xhat[b], want_x)
            np.testing.assert_array_equal(flags[b], want_flags)
        # node 7 never arrives: its run is the prior propagated alone, bit for bit
        alone_info, alone_yv = _kernels.fused_info_recursion(
            eng.a_inv_seq, eng.q_inv, np.zeros((1, 61, m)), np.zeros((1, 61, m)),
            eng.info0, eng.yv0)
        np.testing.assert_array_equal(info_hist[2], alone_info[0])
        np.testing.assert_array_equal(yv_hist[2], alone_yv[0])


def random_basis_network(rng, n, m, max_delay=0.0):
    """n nodes measuring random states, variances r^2 + 0.1 with r standard
    normal, delays uniform in [0, max_delay] s."""
    return network_of(*[(int(rng.integers(0, m)), float(random_psd(rng, m=1)[0, 0]) + 0.1,
                         float(rng.uniform(0.0, max_delay))) for _ in range(n)], m=m)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), n=st.integers(1, 6),
       prior=st.booleans())
def test_fused_runs_match_stepwise_oracle_on_random_plants(seed, m, n, prior):
    # random LTV plants, sensors on random states, delays up to 0.4 s on a
    # 0.3 s horizon (some nodes never arrive), zero or random priors, random masks
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=30)
    net = random_basis_network(rng, n, m, max_delay=0.4)
    info0 = random_psd(rng, m=m) + 0.1 * np.eye(m) if prior else None
    x0_hat = rng.standard_normal(m) if prior else None
    eng = DkfEngine(sys_, net, 30, rng, info0=info0, x0_hat=x0_hat)
    masks = rng.random((int(rng.integers(1, 5)), n)) < 0.5
    masks[np.arange(len(masks)), rng.integers(0, n, len(masks))] = True
    info_hist, yv_hist, xhat, flags = eng.fused_run(masks)
    for b, mask in enumerate(masks):
        want_info, want_yv = stepwise_fused_run(eng, np.flatnonzero(mask) + 1)
        want_x, want_flags = recover_estimates(want_info, want_yv)
        assert np.abs(info_hist[b] - want_info).max() <= 1e-12 * np.abs(want_info).max()
        assert np.abs(yv_hist[b] - want_yv).max() <= 1e-12 * np.abs(want_yv).max()
        np.testing.assert_array_equal(flags[b], want_flags)
        ok = ~want_flags
        # x = I^{-1} yv moves by up to cond(I) times the rounding of I and yv
        cond = np.linalg.cond(want_info[ok])
        err = np.abs(xhat[b, ok] - want_x[ok]).max(axis=-1)
        assert (err <= 1e-10 * cond * np.abs(want_x[ok]).max(axis=-1)).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), n=st.integers(4, 12),
       block=st.integers(1, 4))
def test_fused_runs_match_stepwise_oracle_across_delivery_blocks(seed, m, n, block):
    # blocks of 1-4 nodes split state classes and delay groups; every state
    # but one has nodes, node 1 is delayed by exactly the horizon, node 2 past
    # it, and delays repeat. The batch repeats columns, so that the nodes of
    # one mask column span delivery blocks, repeats a row, and has a row that
    # selects node 2 alone
    n_steps = 20
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    states = np.delete(np.arange(m), rng.integers(0, m))
    state = np.concatenate([states, rng.choice(states, n - states.size)])
    steps = np.concatenate([[n_steps, n_steps + 1], rng.integers(0, 4, n - 2) * 5])
    net = network_of(*[(int(s), float(random_psd(rng, m=1)[0, 0]) + 0.1, 0.01 * float(d))
                       for s, d in zip(state, steps)], m=m)
    eng = DkfEngine(sys_, net, n_steps, rng)
    masks = rng.random((int(rng.integers(1, 5)), n)) < 0.6
    masks[:, rng.random(n) < 0.5] = masks[:, [rng.integers(0, n)]]
    masks[np.arange(len(masks)), rng.integers(0, n, len(masks))] = True
    masks = np.vstack([masks, masks[rng.integers(0, len(masks))], np.arange(n) == 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkf, "DELIVERY_BLOCK", block)
        info_hist, yv_hist, _, flags = eng.fused_run(masks)
    for b, mask in enumerate(masks):
        want_info, want_yv = stepwise_fused_run(eng, np.flatnonzero(mask) + 1)
        assert_rel_close(info_hist[b], want_info)
        assert_rel_close(yv_hist[b], want_yv)
        np.testing.assert_array_equal(flags[b], recover_estimates(want_info, want_yv)[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), n=st.integers(4, 12),
       n_rows=st.integers(1, 6), block=st.integers(1, 4))
def test_chain_rows_match_stepwise_oracle(seed, m, n, n_rows, block):
    # the greedy sweep's masks: shrinking random thresholds on a random network
    # give a chain, each row holding the next, with repeated rows. Node 1 is
    # delayed by exactly the horizon and node 2 past it, and blocks of 1-4
    # nodes split the (group, state) buckets, one group per exit row
    n_steps = 20
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=n_steps)
    steps = np.concatenate([[n_steps, n_steps + 1], rng.integers(0, n_steps, n - 2)])
    net = network_of(*[(int(rng.integers(0, m)), float(rng.uniform(0.05, 0.5)), 0.01 * float(d))
                       for d in steps], m=m)
    eng = DkfEngine(sys_, net, n_steps, rng)
    # row 0 admits every node; the rest repeat or shrink
    shrink = np.concatenate([[1.0], np.sort(rng.uniform(0.0, 1.0, 3))[::-1]])
    shrink = shrink[np.sort(np.r_[0, rng.integers(0, shrink.size, n_rows - 1)])]
    masks = sweep_masks(net, 0.5 * shrink, 0.01 * (n_steps + 1) * shrink)
    masks = masks[masks.any(axis=1)]
    assert not (masks[1:] & ~masks[:-1]).any()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dkf, "DELIVERY_BLOCK", block)
        info_hist, yv_hist, _, flags = eng.fused_run(masks)
    for b, mask in enumerate(masks):
        want_info, want_yv = stepwise_fused_run(eng, np.flatnonzero(mask) + 1)
        assert_rel_close(info_hist[b], want_info)
        assert_rel_close(yv_hist[b], want_yv)
        np.testing.assert_array_equal(flags[b], recover_estimates(want_info, want_yv)[1])


def greedy_sweep_engine():
    """The greedy sweep's shape: 2000 nodes with delays up to the horizon,
    N = 200, and the ~98 non-empty masks of a 100-iteration sweep."""
    rng = np.random.default_rng(3)
    net = sample_network(2000, (0.0, 0.5), (0.0, 2.0), rng)
    eng = DkfEngine(builtin_system(), net, 200, rng)
    shrink = 1.0 - np.arange(100) / 100
    masks = sweep_masks(net, 0.5 * shrink, 2.0 * shrink)
    return eng, masks[masks.any(axis=1)]


def test_fused_runs_traced_peak_stays_within_one_delivery_block(monkeypatch):
    # the greedy sweep's shape. Alive at the peak: the increments and the
    # histories (twice the outputs), recover_estimates' work arrays (the
    # packed bracket, then the solve stack), and one block's buffers (the
    # padded and delivered readings, N+1 wide, and its mask columns). A
    # whole-network delivered table costs ~10x the block's.
    eng, masks = greedy_sweep_engine()
    net = eng.network
    n_out = eng.n_steps + 1

    def traced_peak():
        tracemalloc.start()
        try:
            outputs = sum(a.nbytes for a in eng.fused_run(masks))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, outputs

    peak, outputs = traced_peak()
    bound = 3.5 * outputs + dkf.DELIVERY_BLOCK * (3 * n_out + 2 * len(masks)) * 8
    assert peak <= bound
    monkeypatch.setattr(dkf, "DELIVERY_BLOCK", len(net))
    assert traced_peak()[0] > bound


def test_engine_build_keeps_one_network_sized_array():
    # the benchmark's shape, 2000 nodes and N = 200: the engine keeps the
    # (n, N+1) noise draw and forms readings per delivery block. Forming every
    # node's readings at build, through a second (n, N+1) gather of the truth,
    # peaked at 2.02 n(N+1) 8 bytes
    rng = np.random.default_rng(3)
    net = sample_network(2000, (0.0, 0.5), (0.0, 2.0), rng)
    tracemalloc.start()
    try:
        DkfEngine(builtin_system(), net, 200, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(net) * 201 * 8


# ---------------------------------------------------------------------------
# the noise draw, made beside the caller
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                           np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_engine_noise_draw_hands_the_stream_on_exactly(bit_generator):
    # the draw runs in a worker thread on a copy of rng's bit generator; a draw
    # from rng right after the constructor waits for it and continues the
    # stream where the synchronous draw of a seeded twin leaves it
    # (threads switch every microsecond, so a draw not ordered by the lock
    # would interleave with the worker's)
    sys_ = builtin_system()
    net = sample_network(300, (0.0, 0.5), (0.0, 2.0), np.random.default_rng(5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            rng = np.random.Generator(bit_generator(seed))
            twin = np.random.Generator(bit_generator(seed))
            eng = DkfEngine(sys_, net, 200, rng)
            got = rng.random(5)
            truth = simulate(sys_, eng.a_seq, twin)
            noise = twin.standard_normal((300, 201))
            assert np.array_equal(got, twin.random(5))
            assert np.array_equal(eng.noise, noise)
            assert np.array_equal(eng.truth, truth)
    finally:
        sys.setswitchinterval(interval)


def test_engine_returns_with_the_draw_holding_the_lock(monkeypatch):
    # the worker's fill waits on a gate: the constructor has returned, the
    # worker holds rng's lock, and a draw from rng in another thread waits
    # until the noise is drawn, then continues the stream after it
    gate = threading.Event()
    fill = dkf._standard_normal_into

    def gated(bit_generator, out):
        assert gate.wait(10)
        fill(bit_generator, out)

    monkeypatch.setattr(dkf, "_standard_normal_into", gated)
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    net = network_of((0, 0.2), (1, 0.3))
    eng = DkfEngine(builtin_system(), net, 10, rng)
    assert not rng.bit_generator.lock.acquire(blocking=False)  # held by the worker
    later = []
    reader = threading.Thread(target=lambda: later.append(rng.random(5)))
    reader.start()
    reader.join(0.2)
    assert reader.is_alive() and not later
    gate.set()
    reader.join(10)
    assert not reader.is_alive()
    simulate(builtin_system(), eng.a_seq, twin)
    assert np.array_equal(eng.noise, twin.standard_normal((2, 11)))
    assert np.array_equal(later[0], twin.random(5))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_waits_for_the_noise_draw(monkeypatch):
    # the worker's fill waits on a gate that a timer opens, so the fork comes
    # while the draw is unfinished. The fork waits for it, and the one child
    # continues rng's stream and reads the noise as a synchronous twin does.
    # A child forked mid-draw would block on rng's lock, which no thread in
    # it releases, until the alarm ends it
    gate = threading.Event()
    fill = dkf._standard_normal_into

    def gated(bit_generator, out):
        assert gate.wait(10)
        fill(bit_generator, out)

    monkeypatch.setattr(dkf, "_standard_normal_into", gated)
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    eng = DkfEngine(builtin_system(), network_of((0, 0.2), (1, 0.3)), 10, rng)
    simulate(builtin_system(), eng.a_seq, twin)
    noise, after = twin.standard_normal((2, 11)), twin.random(5)
    opener = threading.Timer(0.2, gate.set)
    opener.start()
    with warnings.catch_warnings():
        # Python 3.12+ warns of a fork while the timer thread may be alive
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child exits here, without the parent's cleanup
        same = False
        try:
            signal.alarm(5)
            same = np.array_equal(rng.random(5), after) and np.array_equal(eng.noise, noise)
        finally:
            os._exit(0 if same else 1)
    opener.join()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0  # -SIGALRM if the child hung
    assert np.array_equal(rng.random(5), after) and np.array_equal(eng.noise, noise)


def test_readings_check_indices_before_writing():
    # the take skips numpy's own index check (and its buffering of out): the
    # variance gather refuses an index outside [-n, n) before out is touched,
    # and wraps a negative one as the take does
    eng = DkfEngine(builtin_system(), network_of((0, 0.2), (1, 0.3), (0, 0.4)), 10,
                    np.random.default_rng(2))
    out = np.full((1, 11), 7.0)
    with pytest.raises(IndexError):
        eng.readings([3], out=out)
    assert (out == 7.0).all()
    assert np.array_equal(eng.readings([-1]), eng.readings(np.arange(3))[2:])


def test_failed_noise_draw_raises_where_the_noise_is_read(monkeypatch):
    def fail(bit_generator, out):
        raise RuntimeError("draw failed")

    monkeypatch.setattr(dkf, "_standard_normal_into", fail)
    rng = np.random.default_rng(4)
    eng = DkfEngine(builtin_system(), network_of((0, 0.2), (1, 0.3)), 10, rng)
    for read in (lambda: eng.noise, lambda: eng.readings([0]),
                 lambda: eng.fused_run(np.array([True, True]))):
        with pytest.raises(RuntimeError, match="^draw failed$"):
            read()
    # the worker released rng's lock: a later draw returns instead of blocking
    assert rng.bit_generator.lock.acquire(timeout=10)
    rng.bit_generator.lock.release()
    rng.random()


def test_unread_engine_leaves_no_thread_behind():
    before = set(threading.enumerate())
    DkfEngine(builtin_system(), network_of((0, 0.2), (1, 0.3)), 10, np.random.default_rng(0))
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert threading.active_count() == len(before)


def test_sweep_rows_match_single_row_runs(monkeypatch):
    # the greedy sweep's chain of ~98 rows, and a random batch of its shape
    # that is no chain: one pass over the used nodes, one readings call per
    # delivery block, sums every row, and each row matches its run alone
    eng, sweep = greedy_sweep_engine()
    rng = np.random.default_rng(11)
    batch = rng.random(sweep.shape) < rng.uniform(0.05, 0.95, (len(sweep), 1))
    batch[np.arange(len(batch)), rng.integers(0, batch.shape[1], len(batch))] = True
    assert (batch[1:] & ~batch[:-1]).any()
    readings, calls = eng.readings, []

    def spy(nodes, out=None):
        calls.append(len(nodes))
        return readings(nodes, out=out)

    monkeypatch.setattr(eng, "readings", spy)
    for masks in (sweep, batch):
        calls.clear()
        info_hist, yv_hist, xhat, flags = eng.fused_run(masks)
        used = np.count_nonzero(masks.any(axis=0) & (eng.delays <= eng.n_steps))
        assert sum(calls) == used and len(calls) == -(-used // dkf.DELIVERY_BLOCK)
        for b, mask in enumerate(masks):
            info, yv, x, f = eng.fused_run(mask)
            assert_rel_close(info_hist[b], info)
            assert_rel_close(yv_hist[b], yv)
            assert_rel_close(xhat[b], x)
            np.testing.assert_array_equal(flags[b], f)


def test_recovery_sends_only_flagged_entries_to_eigvalsh(monkeypatch):
    # on the greedy sweep's shape the Cholesky bracket certifies every
    # unflagged entry: eigvalsh sees exactly the flagged ones (the steps
    # before a run's nodes span every state) and LAPACK solve never runs
    eng, masks = greedy_sweep_engine()
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(np.array(a))
        return eigvalsh(a)

    def no_solve(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    info_hist, _, _, flags = eng.fused_run(masks)
    assert len(masks) >= 90 and flags.any()
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], info_hist[flags])


def planted_spectrum(rng, m, kind, scale):
    """One symmetric s V diag(lambda) V^T (random orthogonal V) with lambda in
    [0.1, 1] but for kind: zero (the zero matrix), rank (one to m-1 zero
    eigenvalues), edge+ / edge- (lambda_min / lambda_max = 1e-10 (1 +- 1e-7)),
    or clear."""
    if kind == "zero":
        return np.zeros((m, m))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(0.1, 1.0, m)
    if kind == "rank":
        lam[:rng.integers(1, m)] = 0.0
    elif kind in ("edge+", "edge-"):
        lam[0] = 1e-10 * (1.0 + (1e-7 if kind == "edge+" else -1e-7)) * lam.max()
    mat = scale * ((v * lam) @ v.T)
    return 0.5 * (mat + mat.T)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5),
       scale=st.sampled_from([1e-160, 1e-6, 1.0, 1e6, 1e160]))
def test_recover_estimates_matches_one_matrix_oracle(seed, m, scale):
    # zero, rank-deficient, near-threshold and clear PSD matrices, shuffled,
    # at scales inside and outside the bracket's trusted range
    rng = np.random.default_rng(seed)
    kinds = ["zero", "rank", "edge+", "edge-"] * 3 + ["clear"] * 20
    info = np.stack([planted_spectrum(rng, m, kinds[i], scale)
                     for i in rng.permutation(len(kinds))])
    yv = scale * rng.standard_normal((len(kinds), m))
    xhat, flags = recover_estimates(info, yv)
    want = [recover_estimate(a, b) for a, b in zip(info, yv)]
    want_x = np.array([x for x, _ in want])
    np.testing.assert_array_equal(flags, [flag for _, flag in want])
    assert flags.any() and not flags.all()
    np.testing.assert_array_equal(xhat[flags], want_x[flags])
    ok = ~flags
    # the eliminations differ in rounding only, up to cond(I) times eps
    cond = np.linalg.cond(info[ok])
    err = np.abs(xhat[ok] - want_x[ok]).max(axis=-1)
    assert (err <= 1e-10 * cond * np.abs(want_x[ok]).max(axis=-1)).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), n=st.integers(1, 6))
def test_zero_delay_fused_run_matches_stacked_kf_on_random_plants(seed, m, n):
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=30)
    net = random_basis_network(rng, n, m)
    p0 = random_psd(rng, m=m) + 0.1 * np.eye(m)
    x0_hat = rng.standard_normal(m)
    eng = DkfEngine(sys_, net, 30, rng, info0=np.linalg.inv(p0), x0_hat=x0_hat)
    _, _, xhat, _ = eng.fused_run(np.ones(n, dtype=bool))
    xs, _ = kf_covariance_form(sys_, *stacked_model(net), eng.readings(np.arange(n)).T, 30,
                               x0_hat=x0_hat, p0=p0)
    assert np.abs(xhat - xs).max() <= 1e-8 * max(np.abs(xs).max(), 1.0)


def test_fused_run_is_row_zero_of_fused_runs():
    # an (n,) mask runs as the one row of a (1, n) batch, without its axis
    eng = DkfEngine(builtin_system(), mixed_network(), 60, np.random.default_rng(5))
    mask = eng.network.mask([1, 4, 6])
    single = eng.fused_run(mask)
    batched = eng.fused_run(mask[None])
    for got, want in zip(single, batched):
        np.testing.assert_array_equal(got, want[0])


def test_fused_runs_rejects_bad_masks():
    eng = DkfEngine(builtin_system(), mixed_network(), 20, np.random.default_rng(0))
    with pytest.raises(SelectionError, match="row 1"):
        eng.fused_run(np.array([[True] * 7, [False] * 7]))
    with pytest.raises(SelectionError, match="row 0"):
        eng.fused_run(np.zeros(7, dtype=bool))
    for bad in (np.ones((2, 6), dtype=bool), np.ones((2, 7)), np.ones((1, 2, 7), dtype=bool)):
        with pytest.raises(SelectionError, match=r"^masks must be a \(7,\) or \(B, 7\) bool"):
            eng.fused_run(bad)


def test_fused_runs_non_finite_names_row_and_step(monkeypatch):
    real = _kernels.fused_info_recursion

    def poisoned(*args):
        info_hist, yv_hist = real(*args)
        info_hist[1, 7, 0, 1] = np.nan
        info_hist[1, 9, 0, 0] = np.inf
        return info_hist, yv_hist

    monkeypatch.setattr(_kernels, "fused_info_recursion", poisoned)
    eng = DkfEngine(builtin_system(), mixed_network(), 20, np.random.default_rng(0))
    with pytest.raises(NumericError, match=r"mask row 1 \(0-based\) at step 7$") as err:
        eng.fused_run(np.ones((3, 7), dtype=bool))
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
        net = network_of((int(rng.integers(0, 2)), float(rng.uniform(0.1, 0.5))))
        p0 = np.eye(2) * float(rng.uniform(0.5, 3.0))
        eng = DkfEngine(sys_, net, 200, np.random.default_rng(trial), info0=np.linalg.inv(p0))
        info_hist, _, xhat, _ = eng.fused_run(np.ones(1, dtype=bool))
        xs, ps = kf_covariance_form(sys_, *stacked_model(net), eng.readings([0])[0], 200,
                                    p0=p0)
        assert np.abs(xhat - xs).max() < 1e-8
        for k in range(0, 201, 20):
            np.testing.assert_allclose(np.linalg.inv(info_hist[k]), ps[k], atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), n=st.integers(2, 6))
def test_subset_growth_never_decreases_information(seed, m, n):
    # random LTV plants, sensors on random states, delays up to 0.4 s on a
    # 0.3 s horizon and a random prior; nested masks run as one fused_run
    # call, and at every step a superset's information minus its subset's is PSD
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng, m=m, n_steps=30)
    net = random_basis_network(rng, n, m, max_delay=0.4)
    info0 = random_psd(rng, m=m) + 0.1 * np.eye(m)
    eng = DkfEngine(sys_, net, 30, rng, info0=info0, x0_hat=rng.standard_normal(m))
    masks = np.tri(n, dtype=bool)[:, rng.permutation(n)]  # row b holds b + 1 nodes
    info_hist = eng.fused_run(masks)[0]
    growth = np.linalg.eigvalsh(info_hist[1:] - info_hist[:-1])[..., 0]
    scale = np.abs(info_hist[1:]).max(axis=(-2, -1))
    assert (growth >= -1e-12 * scale).all()


def test_node_delayed_by_the_horizon_delivers_only_at_the_last_step():
    # node 2's delay is exactly N steps: it adds l_2 and its step-0 IV delta at
    # step N and nothing before
    n_steps = 40
    net = network_of((0, 0.2), (1, 0.1, 0.4))
    eng = DkfEngine(builtin_system(), net, n_steps, np.random.default_rng(6))
    assert eng.delays.tolist() == [0, n_steps]
    info_hist, yv_hist, _, _ = eng.fused_run(np.array([[True, False], [True, True]]))
    assert_rel_close(info_hist[1, :n_steps], info_hist[0, :n_steps])
    assert_rel_close(yv_hist[1, :n_steps], yv_hist[0, :n_steps])
    scale = np.abs(info_hist[1, n_steps]).max()
    assert np.abs(info_hist[1, n_steps] - info_hist[0, n_steps] - node_l(eng, 1)).max() \
        <= 1e-12 * scale
    scale = np.abs(yv_hist[1, n_steps]).max()
    assert np.abs(yv_hist[1, n_steps] - yv_hist[0, n_steps] - iv_delta(eng, 1, 0)).max() \
        <= 1e-12 * scale


@pytest.mark.parametrize("prior, message", [
    ({"info0": np.eye(3)}, r"^info0 must be a finite \(2, 2\) matrix, got shape \(3, 3\)$"),
    ({"info0": [[1.0, 0.0], [0.0, np.nan]]}, r"^info0 must be a finite \(2, 2\) matrix"),
    ({"info0": [[1.0, np.inf], [np.inf, 1.0]]}, r"^info0 must be a finite \(2, 2\) matrix"),
    ({"info0": -np.eye(2)}, r"^info0 must be positive semidefinite \(min eig -1\)$"),
    ({"info0": [[1.0, 2.0], [2.0, 1.0]]}, r"^info0 must be positive semidefinite \(min eig -1\)$"),
    ({"x0_hat": [1.0, 1.0, 1.0]}, r"^x0_hat must be 2 finite values, got shape \(3,\)$"),
    ({"info0": np.eye(2), "x0_hat": [1.0, np.nan]}, r"^x0_hat must be 2 finite values"),
], ids=["info0-3x3", "info0-nan", "info0-inf", "info0-negative", "info0-indefinite",
        "x0_hat-length-3", "x0_hat-nan"])
def test_engine_refuses_an_invalid_prior(prior, message):
    # a wrong-sized, non-finite or indefinite prior information, or an initial
    # estimate of the wrong length or non-finite, is refused before any draw
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match=message):
        DkfEngine(builtin_system(), network_of((0, 0.2)), 10, rng, **prior)
    assert rng.random() == np.random.default_rng(0).random()


def test_engine_accepts_a_semidefinite_prior_within_rounding():
    info0 = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one, min eig ~0 from either side
    eng = DkfEngine(builtin_system(), network_of((0, 0.2)), 10, np.random.default_rng(0),
                    info0=info0, x0_hat=[1.0, -1.0])
    assert np.array_equal(eng.info0, info0)


def test_scenario_refuses_process_noise_without_finite_inverse():
    # Q = 1e-320 I is positive definite but its inverse overflows; the
    # stability selection once admitted no node and the fused runs diverged
    with pytest.raises(ConfigError, match="^process noise Q has no finite inverse$") as err:
        Scenario(builtin_system(q_scale=1e-320), None, 10)
    assert err.value.keys == ("q_scale",)


def test_engine_rejects_network_of_another_state_dim():
    net = network_of((2, 0.2), m=3)
    message = "^nodes measure a 3-state plant, the system has 2 states$"
    with pytest.raises(ConfigError, match=message):
        DkfEngine(builtin_system(), net, 10, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=message):
        Scenario(builtin_system(), net, 10)
