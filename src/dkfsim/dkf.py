"""The whole-run engine that fuses delayed node information at the estimator,
and the prepared Scenario it reads.

Node filters run on their own delay-free clocks. The estimator receives each
node's (posterior - prior) information differences with a per-node staleness
of d_i steps and compensates only through its own time updates
(DkfEngine.fused_runs, batched over subsets).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ConfigError, DivergenceError, SelectionError
from .model import LtvSystem, robust_inverse, simulate, transition_sequence
from .model import transition_matrix  # noqa: F401 - per-layer tracing wraps this name
from .sensing import SensorNetwork, row_groups

# nodes per measurement-noise draw in DkfEngine. One draw for the whole network
# gives the same bits but holds all of its noise and gathered blocks at once:
# on configs/benchmark.cfg in greedy mode it raised peak RSS from 55 to 72 MB
NOISE_BLOCK = 256


def _symmetrize(a):
    """(a + a^T) / 2 over the last two axes, for one matrix or a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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
        states_t = self.truth.T
        # node i's measurements are measurements[i, :, :p_i], zero past its rows
        self.measurements = np.zeros((n, n_out, network.h.shape[1]))
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
                self.measurements[idx, :, :q] = z
                self.div_all[idx] = z @ sc.hr[idx, :, :q].transpose(0, 2, 1)
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

