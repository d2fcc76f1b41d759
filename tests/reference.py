"""The tests' oracle module: reference implementations that tests compare
production code with.

It lives under tests/, so the installed package carries none of it, and no
dkfsim module imports it (tests/test_api.py checks both). Each function
computes for one node, one matrix, one step or one sweep iteration what the
batched code in dkf, selection, stability, sensing and _kernels computes for
whole networks at once:

- time_update_general: one information time update (_kernels._TimeUpdate);
- node_history: one node's information history (_kernels.node_info_histories);
- kf_covariance_form: the covariance-form Kalman filter (DkfEngine.fused_runs);
- recover_estimate: one estimate from an information pair (dkf.recover_estimates);
- psi, gamma_hat, beta_hat, i_tilde: the stability operator, contraction
  constant and bound matrix (stability.beta_hat_batch, i_tilde_matrices);
- delay_steps: one node's delay in filter steps (SensorNetwork.delay_steps);
- node_information, stacked_model: the one-matrix oracles' inputs, each
  node's l_i = e_s e_s^T / r_i and the network as one stacked sensor (H, R);
- node_l, iv_delta, stepwise_fused_run: one subset's fused run, step by step
  and node by node (DkfEngine.fused_runs);
- in_order_trace: the traces by which the kernel picks each node's peak;
- oracle_histories: node_history for every node (_kernels.node_info_histories);
- per_iteration_sweep: the greedy sweep, one fused run per iteration
  (selection.greedy_select);
- per_node_admission: the stability admission, one node at a time
  (selection.stability_select);
- beta_hat_per_term_loop: the contraction constants with one eigvalsh per
  noise term, bit for bit the pruned batch (stability.beta_hat_batch);
- per_node_sample, resolved_per_node, first_node_error: the network's draws,
  delay resolution and column validation, one node at a time
  (sensing.sample_network, resolve_delays, SensorNetwork).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from dkfsim.dkf import _symmetrize
from dkfsim.errors import ConfigError, NumericError
from dkfsim.model import LtvSystem, is_effectively_singular, robust_inverse, transition_matrix
from dkfsim.selection import max_deviation, mse, mse_raw, settling_index
from dkfsim.sensing import R_MIN
from dkfsim.stability import _distinct_noise_terms

log = logging.getLogger(__name__)


def time_update_general(info, iv, a_inv, q_inv):
    """One general-form time update of an information pair.

    M = Ainv^T I Ainv, C = M (M + Q^{-1})^{-1},
    I' = (I-C) M (I-C)^T + C Q^{-1} C^T, yv' = (I-C) Ainv^T yv.

    The Joseph-style product keeps the update valid for singular info; it
    equals (A I^{-1} A^T + Q)^{-1} whenever info is invertible.
    """
    mk = a_inv.T @ info @ a_inv
    c = np.linalg.solve(mk + q_inv, mk).T
    d = np.eye(info.shape[0]) - c
    info_next = _symmetrize(d @ mk @ d.T + c @ q_inv @ c.T)
    iv_next = d @ (a_inv.T @ iv)
    return info_next, iv_next


def node_history(a_inv, q_inv, l_node) -> np.ndarray:
    """One node's delay-free posterior information I(k|k), k = 0..N: I(0|0) = l_node,
    then time_update_general by each A(k)^{-1} of a_inv, plus l_node."""
    m = l_node.shape[0]
    hist = [l_node]
    for a_inv_k in a_inv:
        info, _ = time_update_general(hist[-1], np.zeros(m), a_inv_k, q_inv)
        hist.append(info + l_node)
    return np.array(hist)


def kf_covariance_form(sys: LtvSystem, h_stacked, r_blockdiag, z,
                       n_steps: int, x0_hat=None, p0=None):
    """Standard covariance-form Kalman filter (Joseph update).

    z holds the readings, shape (n_steps+1, p); returns (xhat (N+1, m), cov (N+1, m, m)).
    """
    h = np.atleast_2d(np.asarray(h_stacked, dtype=float))
    r = np.atleast_2d(np.asarray(r_blockdiag, dtype=float))
    z = np.asarray(z, dtype=float).reshape(n_steps + 1, -1)
    m = sys.state_dim
    if h.shape != (z.shape[1], m) or r.shape != (z.shape[1], z.shape[1]):
        raise ConfigError("inconsistent oracle dimensions")
    x = np.zeros(m) if x0_hat is None else np.asarray(x0_hat, dtype=float).copy()
    p = np.eye(m) if p0 is None else np.asarray(p0, dtype=float).copy()
    eye = np.eye(m)
    xs = np.empty((n_steps + 1, m))
    ps = np.empty((n_steps + 1, m, m))
    for k in range(n_steps + 1):
        if k > 0:
            a = transition_matrix(sys, k - 1)
            x = a @ x
            p = _symmetrize(a @ p @ a.T + sys.process_noise_cov)
        s = h @ p @ h.T + r
        if is_effectively_singular(s):
            raise NumericError(f"singular innovation covariance at step {k}")
        gain = p @ h.T @ np.linalg.inv(s)
        x = x + gain @ (z[k] - h @ x)
        ikh = eye - gain @ h
        p = _symmetrize(ikh @ p @ ikh.T + gain @ r @ gain.T)
        xs[k] = x
        ps[k] = p
    return xs, ps


def recover_estimate(info, yv):
    """x = I^{-1} yv for one information pair, the pseudo-inverse where I is
    singular: |lambda|_min < 1e-10 |lambda|_max or |lambda|_min == 0 over
    np.linalg.eigvalsh(I). Returns (x (m,), flag), flag True where pinv ran."""
    svals = np.abs(np.linalg.eigvalsh(info))
    if svals.min() < 1e-10 * svals.max() or svals.min() == 0.0:
        return np.linalg.pinv(info) @ yv, True
    return np.linalg.solve(info, yv), False


def psi(info, a_k, q) -> np.ndarray:
    """One-step information-matrix time update.

    (A info^{-1} A^T + Q)^{-1} for invertible info; otherwise the general
    form (I-C) M (I-C)^T + C Q^{-1} C^T with M = A^{-T} info A^{-1} and
    C = M (M + Q^{-1})^{-1} (time_update_general).
    """
    info = _symmetrize(np.asarray(info, dtype=float))
    a_k = np.asarray(a_k, dtype=float)
    q = np.asarray(q, dtype=float)
    if not is_effectively_singular(info):
        out = np.linalg.inv(a_k @ np.linalg.solve(info, a_k.T) + q)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite psi result")
        return _symmetrize(out)
    a_inv, _ = robust_inverse(a_k)
    out, _ = time_update_general(info, np.zeros(info.shape[0]), a_inv, np.linalg.inv(q))
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite psi result")
    return out


def _psd_sqrt(b):
    w, v = np.linalg.eigh(_symmetrize(b))
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T


def gamma_hat(a_k, q, info, alpha: float) -> float:
    """Smallest gamma with A^{-1} Q A^{-T} <= gamma (info + alpha I)^{-1}.

    Computed as the largest eigenvalue of
    (info + alpha I)^{1/2} A^{-1} Q A^{-T} (info + alpha I)^{1/2}.
    """
    if alpha <= 0.0:
        raise ConfigError("alpha must be > 0", keys=("alpha",))
    info = _symmetrize(np.asarray(info, dtype=float))
    a_inv, _ = robust_inverse(np.asarray(a_k, dtype=float))
    half = _psd_sqrt(info + alpha * np.eye(info.shape[0]))
    t = a_inv @ np.asarray(q, dtype=float) @ a_inv.T
    return float(max(np.linalg.eigvalsh(_symmetrize(half @ t @ half)).max(), 0.0))


def beta_hat(sys: LtvSystem, horizon_n: int, i_bound, alpha: float) -> float:
    """min over k in [0, horizon) of 1 / (1 + gamma_hat(A(k), Q, i_bound, alpha)),
    one gamma_hat per distinct A(k)."""
    i_bound = np.atleast_2d(np.asarray(i_bound, dtype=float))
    distinct = {}
    for k in range(horizon_n):
        a_k = transition_matrix(sys, k)
        distinct.setdefault(a_k.tobytes(), a_k)
    return min(1.0 / (1.0 + gamma_hat(a_k, sys.process_noise_cov, i_bound, alpha))
               for a_k in distinct.values())


def i_tilde(k: int, k_bar: int, beta: float, sys: LtvSystem, l_node) -> np.ndarray:
    """Lower-bound matrix at step k over a window of k_bar steps:

    sum_{tau=1..k_bar} beta^{tau-1} G_tau^T l G_tau,
    G_tau = (A(k-1) ... A(k-tau+1))^{-1}, with G_1 = I.
    """
    if k < k_bar:
        raise ConfigError(f"k={k} must be >= k_bar={k_bar}", keys=("k_bar",))
    l_node = _symmetrize(np.asarray(l_node, dtype=float))
    m = l_node.shape[0]
    g = np.eye(m)
    total = np.zeros((m, m))
    scale = 1.0
    for tau in range(1, k_bar + 1):
        if tau > 1:
            a_inv, used_pinv = robust_inverse(transition_matrix(sys, k - tau + 1))
            if used_pinv:
                log.warning("i_tilde: A(%d) effectively singular, using pseudo-inverse", k - tau + 1)
            g = a_inv @ g
            scale *= beta
        total += scale * (g.T @ l_node @ g)
    return _symmetrize(total)


def delay_steps(base: float, ts: float) -> int:
    """A constant delay of base seconds in filter steps.

    Round-to-nearest with ties away from zero: the whole steps, plus one when
    the fraction left reaches a half less 1e-9, a slack that absorbs binary
    representation error in ratios like 0.015/0.01.
    """
    if ts <= 0.0:
        raise ConfigError("ts must be positive", keys=("ts",))
    whole, frac = divmod(base / ts, 1.0)
    return int(whole) + (frac >= 0.5 - 1e-9)


# ---------------------------------------------------------------------------
# oracle inputs
# ---------------------------------------------------------------------------


def stacked_model(network):
    """(H, R) of the whole network as one centralized sensor: one basis row
    and one diagonal variance per node."""
    return np.eye(network.state_dim)[network.state], np.diag(network.variance)


def node_information(state, inv_r, m):
    """Each node's l_i = e_s e_s^T / r_i as an (n, m, m) stack, for the
    one-matrix oracles above."""
    state = np.asarray(state)
    l_all = np.zeros((state.size, m, m))
    l_all[np.arange(state.size), state, state] = inv_r
    return l_all


# ---------------------------------------------------------------------------
# fused runs and node histories
# ---------------------------------------------------------------------------


def node_l(engine, i):
    """Node i's information contribution l_i = e_s e_s^T / r_i."""
    return node_information(engine.network.state[[i]], engine.inv_r[[i]],
                            engine.sys.state_dim)[0]


def iv_delta(engine, i, k):
    """Node i's IV delta H_i^T R_i^{-1} z_i(k), the column l_i e_s times z_i(k)."""
    return node_l(engine, i)[:, engine.network.state[i]] * engine.z[i, k]


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
            info, yv = time_update_general(info, yv, engine.a_inv_seq[k - 1], engine.q_inv)
        for i in idx:
            d = engine.delays[i]
            if d <= k:
                info = info + node_l(engine, i)
                yv = yv + iv_delta(engine, i, k - d)
        info_hist[k] = info
        yv_hist[k] = yv
    return info_hist, yv_hist


def in_order_trace(mats):
    """Traces of a stack (..., m, m), the diagonal added in order as
    _kernels.node_info_histories adds it to pick each node's peak (np.trace
    adds it pairwise from m = 8 on, so a tie to the last bit may differ)."""
    return sum(np.moveaxis(np.diagonal(mats, axis1=-2, axis2=-1), -1, 0))


def oracle_histories(a_inv, q_inv, state, inv_r):
    """node_info_histories one node at a time through node_history with
    l_i = e_s e_s^T / r_i."""
    l_all = node_information(state, inv_r, q_inv.shape[0])
    return np.array([node_history(a_inv, q_inv, l_i) for l_i in l_all])


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def per_iteration_sweep(engine, nodes, iterations, r_max, tau_max):
    """The sweep as one engine.fused_run per non-empty iteration (reference),
    with thresholds read from the (state, variance, base) tuples the engine's
    network was built from; R0 counts as at least R_MIN, the variance floor.

    Returns (nodes, thresholds, mse, md, mse_raw) per iteration.
    """
    settle = settling_index(engine.truth, 0.01)
    out = []
    for it in range(1, iterations + 1):
        r0 = r_max * (1.0 - (it - 1) / iterations)
        tau0 = tau_max * (1.0 - (it - 1) / iterations)
        chosen = [i + 1 for i, (_, r, base) in enumerate(nodes)
                  if r <= max(r0, R_MIN) and base <= tau0]
        if not chosen:
            out.append((frozenset(), (r0, tau0), math.nan, math.nan, math.nan))
            continue
        _, _, xhat, _ = engine.fused_run(chosen)
        out.append((frozenset(chosen), (r0, tau0), mse(xhat, engine.truth, settle),
                    max_deviation(xhat, engine.truth), mse_raw(xhat, engine.truth, settle)))
    return out


def per_node_admission(sys_, nodes, params, n_steps):
    """Reference: the per-node admission loop over the (state, variance, base)
    tuples the network was built from, each node one row H = e_s^T and R = [[r]].
    Returns node id -> (beta, margins): beta_hat at the node's peak-trace
    history entry, and one margin per applicable step, the min eig of the
    delayed information minus the scalar i_tilde bound."""
    a_inv = np.stack([robust_inverse(transition_matrix(sys_, k))[0] for k in range(n_steps)])
    q = sys_.process_noise_cov
    out = {}
    for node_id, (state, r, base) in enumerate(nodes, start=1):
        h = np.eye(sys_.state_dim)[[state]]
        l_node = h.T @ np.linalg.solve([[r]], h)
        hist = node_history(a_inv, np.linalg.inv(q), l_node)
        peak = hist[np.argmax(in_order_trace(hist))]
        beta = beta_hat(sys_, n_steps, peak, params.alpha)
        d = delay_steps(base, sys_.sample_time)
        margins = []
        for k in range(params.k_bar + 1, n_steps + 1):
            if k - d < 1:
                continue
            diff = hist[k - d] - i_tilde(k, params.k_bar, beta, sys_, l_node)
            margins.append(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
        out[node_id] = (beta, np.array(margins))
    return out


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def beta_hat_per_term_loop(scenario, bounds, alpha):
    """Reference: beta-hat with one eigvalsh per noise term over every bound."""
    m = bounds.shape[-1]
    w, v = np.linalg.eigh(_symmetrize(bounds) + alpha * np.eye(m))
    halves = v @ (np.sqrt(np.maximum(w, 0.0))[..., None] * v.transpose(0, 2, 1))
    gamma_max = np.zeros(bounds.shape[0])
    for t in _distinct_noise_terms(scenario):
        prod = _symmetrize(halves @ t @ halves)
        gamma_max = np.maximum(gamma_max, np.linalg.eigvalsh(prod)[:, -1])
    return 1.0 / (1.0 + np.maximum(gamma_max, 0.0))


# ---------------------------------------------------------------------------
# sensing
# ---------------------------------------------------------------------------


def first_node_error(state, variance, base, jitter, state_dim=2):
    """Reference: the message of the first faulty node, checking each node's
    rules one at a time in order (delay base, jitter, variance, state); None
    when every node is valid."""
    for i in range(len(state)):
        rules = [
            (math.isfinite(base[i]) and base[i] >= 0.0, "delay base must be finite and >= 0"),
            (math.isfinite(jitter[i]) and jitter[i] >= 0.0, "jitter_std must be finite and >= 0"),
            (math.isfinite(variance[i]) and variance[i] > 0.0, "variance must be finite and > 0"),
            (0 <= state[i] < state_dim, f"state index outside [0, {state_dim})"),
        ]
        for ok, message in rules:
            if not ok:
                return f"node {i + 1}: {message}"
    return None


def per_node_sample(n, variance_range, delay_range, rng, state_dim=2, jitter_std=0.0):
    """Reference: sample_network's draws as one (state, variance, base, jitter)
    tuple per node."""
    states = rng.integers(0, state_dim, size=n)
    variances = np.maximum(rng.uniform(variance_range[0], variance_range[1], size=n), R_MIN)
    delays = rng.uniform(delay_range[0], delay_range[1], size=n)
    return [(int(states[i]), float(variances[i]), float(delays[i]), jitter_std) for i in range(n)]


def resolved_per_node(nodes, rng):
    """Reference: resolve_delays one node at a time, in id order."""
    return [(s, r, max(base + rng.normal(0.0, jitter), 0.0), 0.0) if jitter > 0.0
            else (s, r, base, jitter)
            for s, r, base, jitter in nodes]
