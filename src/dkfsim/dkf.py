"""Information-filter node recursions, the whole-run engine that fuses delayed
node information at the estimator, and a covariance-form Kalman filter used as
a test oracle.

Node filters run on their own delay-free clocks. The estimator receives each
node's (posterior - prior) information differences with a per-node staleness
of d_i steps and compensates only through its own time updates
(DkfEngine.fused_runs, batched over subsets).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import ConfigError, DivergenceError, NumericError, SelectionError
from .model import (
    LtvSystem,
    is_effectively_singular,
    robust_inverse,
    simulate,
    transition_matrix,
    transition_sequence,
)
from .sensing import SensorNetwork, row_groups

NOISE_BLOCK = 256  # nodes per measurement-noise draw in DkfEngine


def _symmetrize(a):
    """(a + a^T) / 2 over the last two axes, for one matrix or a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


# ---------------------------------------------------------------------------
# Node-level recursions (reference implementations; the batched kernels in
# dkfsim._kernels implement the same arithmetic for whole networks at once).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeFilterState:
    """Snapshot of one node filter.

    Before a measurement update the posterior fields equal the priors, so the
    (posterior - prior) difference is exactly the node's pending report.
    x estimates are None while the information matrix is singular.
    """

    info_prior: np.ndarray
    info_post: np.ndarray
    iv_prior: np.ndarray
    iv_post: np.ndarray
    x_prior: np.ndarray | None = None
    x_post: np.ndarray | None = None

    @property
    def state_dim(self) -> int:
        return self.info_post.shape[0]


def _recover(info, iv):
    if is_effectively_singular(info):
        return None
    return np.linalg.solve(info, iv)


def node_init(m: int, info0=None, x0_hat=None) -> NodeFilterState:
    """Initial state with prior information info0 (default 0, i.e. no prior)."""
    info = np.zeros((m, m)) if info0 is None else _symmetrize(np.asarray(info0, dtype=float))
    if x0_hat is None:
        iv = np.zeros(m)
    else:
        iv = info @ np.asarray(x0_hat, dtype=float)
    x = _recover(info, iv)
    return NodeFilterState(
        info_prior=info, info_post=info.copy(), iv_prior=iv, iv_post=iv.copy(),
        x_prior=x, x_post=None if x is None else x.copy(),
    )


def node_measurement_update(state: NodeFilterState, z, h, r) -> NodeFilterState:
    """info_post = info_prior + H^T R^{-1} H; iv_post = iv_prior + H^T R^{-1} z."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if h.shape[1] != state.state_dim or r.shape[0] != h.shape[0] or z.shape[0] != h.shape[0]:
        raise ConfigError("inconsistent measurement dimensions")
    if is_effectively_singular(r):
        raise ConfigError("measurement covariance is singular")
    hr = h.T @ np.linalg.inv(r)
    info_post = _symmetrize(state.info_prior + hr @ h)
    iv_post = state.iv_prior + hr @ z
    return replace(
        state,
        info_post=info_post,
        iv_post=iv_post,
        x_post=_recover(info_post, iv_post),
    )


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


def node_time_update(state: NodeFilterState, a_k, q, step=None) -> NodeFilterState:
    """Propagate the posterior to the next-step prior (general-form update)."""
    a_inv, _ = robust_inverse(np.asarray(a_k, dtype=float))
    q_inv = np.linalg.inv(np.asarray(q, dtype=float))
    info_next, iv_next = time_update_general(state.info_post, state.iv_post, a_inv, q_inv)
    if not (np.all(np.isfinite(info_next)) and np.all(np.isfinite(iv_next))):
        where = "" if step is None else f" at step {step}"
        raise NumericError(f"non-finite information after time update{where}")
    x = _recover(info_next, iv_next)
    return NodeFilterState(
        info_prior=info_next, info_post=info_next.copy(),
        iv_prior=iv_next, iv_post=iv_next.copy(),
        x_prior=x, x_post=None if x is None else x.copy(),
    )


# ---------------------------------------------------------------------------
# Whole-run engine
# ---------------------------------------------------------------------------


def recover_estimates(info_hist, yv_hist):
    """x(k) = I(k)^{-1} yv(k) for a stacked history, pseudo-inverse where singular.

    Singular means the smallest singular value is below 1e-10 times the
    largest, or zero; the information matrices are symmetric, so their
    singular values are the absolute eigenvalues.
    Returns (xhat (N+1, m), pinv_flags (N+1,) bool).
    """
    svals = np.abs(np.linalg.eigvalsh(info_hist))
    s_min, s_max = svals.min(axis=-1), svals.max(axis=-1)
    flags = (s_min < 1e-10 * s_max) | (s_min == 0.0)
    xhat = np.empty_like(yv_hist)
    ok = ~flags
    if ok.any():
        xhat[ok] = np.linalg.solve(info_hist[ok], yv_hist[ok][..., None])[..., 0]
    if flags.any():
        xhat[flags] = (np.linalg.pinv(info_hist[flags]) @ yv_hist[flags][..., None])[..., 0]
    return xhat, flags


class Scenario:
    """What a plant, a network and a horizon fix before any random draw.

    sys, network and n_steps are the inputs; a_seq / a_inv_seq: A(k) and its
    inverse for k < n_steps (the pseudo-inverse at the steps listed in
    a_pinv_steps); q_inv: Q^{-1}; per node hr = H^T R^{-1} (n, m, p), zero
    past the node's own rows, and l_all = H^T R^{-1} H (n, m, m).
    network=None prepares the plant part only. The engine, the stability
    selection and the bound computations read these from one instance
    instead of deriving them again.
    """

    def __init__(self, sys: LtvSystem, network: SensorNetwork | None, n_steps: int):
        if n_steps < 1:
            raise ConfigError("n_steps must be >= 1", keys=("horizon",))
        if network is not None and len(network) and network.state_dim != sys.state_dim:
            raise ConfigError(f"nodes measure a {network.state_dim}-state plant, "
                              f"the system has {sys.state_dim} states")
        self.sys = sys
        self.network = network
        self.n_steps = n_steps
        self.a_seq = transition_sequence(sys, n_steps)
        inv_pairs = [robust_inverse(a) for a in self.a_seq]
        self.a_inv_seq = np.ascontiguousarray([p[0] for p in inv_pairs])
        self.a_pinv_steps = [k for k, p in enumerate(inv_pairs) if p[1]]
        self.q_inv = np.linalg.inv(sys.process_noise_cov)
        if network is None:
            return
        m = sys.state_dim
        n, p, _ = network.h.shape
        self.hr = np.zeros((n, m, p))
        self.l_all = np.empty((n, m, m))
        # one batch per row count: every node's products keep its own shapes
        for q, idx in row_groups(network.rows):
            h = network.h[idx, :q]
            hr = h.transpose(0, 2, 1) @ np.linalg.inv(network.r[idx, :q, :q])
            self.hr[idx, :, :q] = hr
            self.l_all[idx] = _symmetrize(hr @ h)


class DkfEngine:
    """One realization of plant, measurements, and delays, reusable across
    subsets: the one way to run the estimator (fused_run, fused_runs).

    Measurement noise is drawn for every network node (in id order) regardless
    of the subset later filtered on, so runs over different subsets of the same
    engine share one realization; the greedy sweep depends on this.
    """

    def __init__(self, sys: LtvSystem, network: SensorNetwork, n_steps: int,
                 rng: np.random.Generator, info0=None, x0_hat=None):
        self.scenario = sc = Scenario(sys, network, n_steps)
        self.sys = sys
        self.network = network
        self.n_steps = n_steps
        m = sys.state_dim
        # perfbench's dkf.engine hook counts the pinv steps on the engine itself
        self.a_pinv_steps = sc.a_pinv_steps
        self.truth = simulate(sys, n_steps, rng)
        n_out = n_steps + 1
        n = len(network)
        states_t = self.truth.states.T
        self.measurements = [None] * n
        self.div_all = np.empty((n, n_out, m))
        # node i draws its (N+1, p_i) noise block right after node i-1's; one
        # draw per block of nodes keeps that order and bounds the temporaries
        for lo in range(0, n, NOISE_BLOCK):
            rows = network.rows[lo:lo + NOISE_BLOCK]
            sizes = n_out * rows
            noise = rng.standard_normal(int(sizes.sum()))
            offsets = np.cumsum(sizes) - sizes
            for q, idx in row_groups(rows):
                w = noise[offsets[idx, None] + np.arange(n_out * q)].reshape(-1, n_out, q)
                idx = idx + lo
                chol = np.linalg.cholesky(network.r[idx, :q, :q])
                z = (network.h[idx, :q] @ states_t).transpose(0, 2, 1) + w @ chol.transpose(0, 2, 1)
                self.div_all[idx] = z @ sc.hr[idx, :, :q].transpose(0, 2, 1)
                for i, z_i in zip(idx, z):
                    self.measurements[i] = z_i
        self.delays = network.delay_steps(sys.sample_time, rng)
        self.info0 = np.zeros((m, m)) if info0 is None else _symmetrize(np.asarray(info0, dtype=float))
        if x0_hat is None:
            self.yv0 = np.zeros(m)
        else:
            self.yv0 = self.info0 @ np.asarray(x0_hat, dtype=float)

    def fused_run(self, subset):
        """Run the estimator over one subset; returns (info_hist, yv_hist, xhat, flags)."""
        ids = sorted(set(int(i) for i in subset))
        if not ids:
            raise SelectionError("node subset is empty")
        n = len(self.network)
        unknown = [i for i in ids if not 1 <= i <= n]
        if unknown:
            raise SelectionError(f"unknown node ids in subset: {unknown}")
        mask = np.zeros((1, n), dtype=bool)
        mask[0, np.array(ids) - 1] = True
        return tuple(a[0] for a in self.fused_runs(mask))

    def fused_runs(self, masks):
        """Run the estimator over B subsets at once, one shared realization.

        masks: (B, n) bool; row b selects the nodes of run b (column i is node
        id i+1). Returns (info_hist (B, N+1, m, m), yv_hist (B, N+1, m),
        xhat (B, N+1, m), flags (B, N+1)).
        """
        masks = np.asarray(masks)
        n = len(self.network)
        if masks.dtype != bool or masks.ndim != 2 or masks.shape[1] != n:
            raise SelectionError(
                f"masks must be a (B, {n}) bool array, got {masks.dtype} {masks.shape}"
            )
        empty = np.flatnonzero(~masks.any(axis=1))
        if empty.size:
            raise SelectionError(f"mask row {int(empty[0])} selects no node")
        n_runs = masks.shape[0]
        n_out = self.n_steps + 1
        m = self.sys.state_dim
        # delivered sums: each node adds l_i from step d_i on and its IV deltas
        # d_i steps late; nodes delayed past the horizon deliver nothing
        used = np.flatnonzero(masks.any(axis=0) & (self.delays <= self.n_steps))
        used = used[np.argsort(self.delays[used], kind="stable")]
        group_delays, starts = np.unique(self.delays[used], return_index=True)
        sc = self.scenario
        l_flat = sc.l_all.reshape(n, m * m)
        info_inc = np.zeros((n_runs, n_out, m * m))
        iv_inc = np.zeros((n_runs, n_out, m))
        for delay, rows in zip(group_delays, np.split(used, starts[1:])):
            w_rows = masks[:, rows].astype(float)
            info_inc[:, delay] = w_rows @ l_flat[rows]
            div = self.div_all[rows, : n_out - delay].reshape(rows.size, -1)
            iv_inc[:, delay:] += (w_rows @ div).reshape(n_runs, n_out - delay, m)
        info_inc = np.cumsum(info_inc, axis=1, out=info_inc).reshape(n_runs, n_out, m, m)
        info_hist, yv_hist = _kernels.fused_info_recursion(
            sc.a_inv_seq, sc.q_inv, info_inc, iv_inc, self.info0, self.yv0
        )
        finite = np.isfinite(info_hist).all(axis=(2, 3))
        if not finite.all():
            row, step = (int(v) for v in np.argwhere(~finite)[0])
            raise DivergenceError(
                f"non-finite fused information in mask row {row} (0-based) at step {step}",
                step=step, row=row,
            )
        xhat, flags = recover_estimates(info_hist.reshape(-1, m, m), yv_hist.reshape(-1, m))
        return info_hist, yv_hist, xhat.reshape(n_runs, n_out, m), flags.reshape(n_runs, n_out)


# ---------------------------------------------------------------------------
# Covariance-form oracle
# ---------------------------------------------------------------------------


def kf_covariance_form(sys: LtvSystem, h_stacked, r_blockdiag, measurements,
                       n_steps: int, x0_hat=None, p0=None):
    """Standard covariance-form Kalman filter (Joseph update); test oracle only.

    measurements has shape (n_steps+1, p); returns (xhat (N+1, m), cov (N+1, m, m)).
    """
    h = np.atleast_2d(np.asarray(h_stacked, dtype=float))
    r = np.atleast_2d(np.asarray(r_blockdiag, dtype=float))
    z = np.asarray(measurements, dtype=float).reshape(n_steps + 1, -1)
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
