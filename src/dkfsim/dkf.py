"""The whole-run engine that fuses delayed node information at the estimator,
and the prepared Scenario it reads.

Node filters run on their own delay-free clocks. The estimator receives each
node's (posterior - prior) information differences with a per-node staleness
of d_i steps and compensates only through its own time updates
(DkfEngine.fused_runs, batched over subsets).

Every node measures one state with a scalar variance, so below the network a
node is the pair (s_i, 1/r_i) and l_i = e_s e_s^T / r_i is never formed: what
a subset has delivered by step k is a sum per state class, node i measuring
state j adding 1/r_i to diagonal entry j from step d_i on and z_i(k - d_i) / r_i
to IV entry j. DkfEngine._delivered_sums forms these sums for a chain of
nested subsets, such as the greedy sweep's, as suffix sums over the rows, in
blocks of DELIVERY_BLOCK nodes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .errors import ConfigError, DivergenceError, SelectionError
from .model import LtvSystem, robust_inverse, simulate, transition_sequence
from .model import transition_matrix  # noqa: F401 - per-layer tracing wraps this name
from .sensing import SensorNetwork

# nodes per block of DkfEngine._delivered_sums: its padded and delivered
# readings are (b, 2(N+1)) and (b, N+1), so no buffer grows with the network
# (one whole-network block took the greedy sweep's traced peak from 4.2 to 14 MB)
DELIVERY_BLOCK = 256


def _symmetrize(a):
    """(a + a^T) / 2 over the last two axes, for one matrix or a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def recover_estimates(info_hist, yv_hist):
    """x = I^{-1} yv for each matrix of a stack, pseudo-inverse where singular.

    info_hist is (S, m, m) and yv_hist (S, m): fused_runs passes its B
    histories of N+1 steps stacked, S = B (N+1). Singular (flagged) means
    |lambda|_min < 1e-10 |lambda|_max or |lambda|_min == 0 over the
    eigenvalues np.linalg.eigvalsh computes; the information matrices are
    symmetric, so these are the singular values.

    Most entries are decided without eigvalsh. With t = 1e-10 tr I + delta
    and delta the bracket shift (_kernels.rounding_shift), an unpivoted
    Cholesky of I - t I runs on the packed lower triangles. If it succeeds,
    the computed factor is exact for I - t I plus a perturbation below delta
    (Higham, Accuracy and Stability, Thm 10.3), so lambda_min(I) > 1e-10 tr I
    plus the rounding of eigvalsh. Then I is positive definite, so
    tr I >= lambda_max, and eigvalsh finds every eigenvalue positive with the
    smallest at least 1e-10 times the largest: the entry is not flagged. Every
    other entry, including any whose max|I| lies outside (1e-150, 1e150), such
    as the all-zero matrix of a step before any delivery, goes to eigvalsh
    with the rule above, so the flags are eigvalsh's own.

    Information matrices are positive semidefinite up to a rounding far below
    1e-10 |lambda|_max, so an unflagged entry is positive definite with
    condition number at most 1e10. Those are solved by the kernel's
    unpivoted elimination (_kernels._SoaSolver) on one (m, m + 1, S)
    stack; flagged ones by the pseudo-inverse.
    Returns (xhat (S, m), pinv_flags (S,) bool).
    """
    n_mats, m = yv_hist.shape
    rows, cols = np.tril_indices(m)
    # (P, S) packed lower triangles, C-ordered, so each bracket row is contiguous
    work = info_hist.reshape(n_mats, m * m).T[rows * m + cols]
    delta, trusted = _kernels.rounding_shift(work)
    shift = 1e-10 * work[rows == cols].sum(axis=0)
    shift += delta
    certified = _kernels._cholesky_succeeds(work, shift)
    del work, delta, shift
    rest = np.flatnonzero(~(certified & trusted))
    flags = np.zeros(n_mats, dtype=bool)
    if rest.size:
        svals = np.abs(np.linalg.eigvalsh(info_hist[rest]))
        s_min, s_max = svals.min(axis=-1), svals.max(axis=-1)
        flags[rest] = (s_min < 1e-10 * s_max) | (s_min == 0.0)
    flagged = np.flatnonzero(flags)
    aug = np.empty((m, m + 1, n_mats))
    aug[:, :m] = info_hist.transpose(1, 2, 0)
    aug[:, m] = yv_hist.T
    # the identity keeps the elimination finite where the pseudo-inverse answers
    aug[:, :m, flagged] = np.eye(m)[:, :, None]
    xhat = np.ascontiguousarray(_kernels._SoaSolver(aug)()[:, 0].T)
    del aug
    if flagged.size:
        xhat[flagged] = (np.linalg.pinv(info_hist[flagged]) @ yv_hist[flagged][..., None])[..., 0]
    return xhat, flags


def _prior(info0, x0_hat, m):
    """The step-0 information (symmetrized) and information vector, zero where
    not given. ConfigError unless info0 is a finite (m, m) matrix with no
    eigenvalue below -1e-12 max|info0| and x0_hat is m finite values."""
    info0 = np.zeros((m, m)) if info0 is None else np.asarray(info0, dtype=float)
    if info0.shape != (m, m) or not np.isfinite(info0).all():
        raise ConfigError(f"info0 must be a finite ({m}, {m}) matrix, got shape {info0.shape}")
    info0 = _symmetrize(info0)
    lowest = np.linalg.eigvalsh(info0)[0]
    if lowest < -1e-12 * np.abs(info0).max():
        raise ConfigError(f"info0 must be positive semidefinite (min eig {lowest:g})")
    if x0_hat is None:
        return info0, np.zeros(m)
    x0_hat = np.asarray(x0_hat, dtype=float)
    if x0_hat.shape != (m,) or not np.isfinite(x0_hat).all():
        raise ConfigError(f"x0_hat must be {m} finite values, got shape {x0_hat.shape}")
    return info0, info0 @ x0_hat


class Scenario:
    """What a plant, a network and a horizon fix before any random draw.

    sys, network and n_steps are the inputs; a_seq / a_inv_seq: A(k) and its
    inverse for k < n_steps (the pseudo-inverse at the steps listed in
    a_pinv_steps); q_inv: Q^{-1}; per node, inv_r (n,): 1/r_i, so that
    l_i = e_s e_s^T inv_r[i] for s = network.state[i], and delays (n,): d_i in
    steps. A Q^{-1} not finite or unresolved jitter raises ConfigError.
    network=None prepares the plant part only. DkfEngine is a Scenario, so
    the stability selection and the bound computations read these from the
    engine itself instead of deriving them again.
    """

    def __init__(self, sys: LtvSystem, network: SensorNetwork | None, n_steps: int):
        if n_steps < 1:
            raise ConfigError("n_steps must be >= 1", keys=("horizon",))
        if network is not None and network.state_dim != sys.state_dim:
            raise ConfigError(f"nodes measure a {network.state_dim}-state plant, "
                              f"the system has {sys.state_dim} states")
        self.sys = sys
        self.network = network
        self.n_steps = n_steps
        self.a_seq = transition_sequence(sys, n_steps)
        self.a_inv_seq, used_pinv = robust_inverse(self.a_seq)
        self.a_pinv_steps = np.flatnonzero(used_pinv).tolist()
        self.q_inv = np.linalg.inv(sys.process_noise_cov)
        if not np.isfinite(self.q_inv).all():
            raise ConfigError("process noise Q has no finite inverse", keys=("q_scale",))
        if network is None:
            return
        self.inv_r = 1.0 / network.variance
        self.delays = network.delay_steps(sys.sample_time)


class DkfEngine(Scenario):
    """A Scenario with one realization of plant and sensor readings, reusable
    across subsets: the one way to run the estimator (fused_run, fused_runs).

    z (n, N+1) holds every node's readings z_i(k) = x_s(k) + sqrt(r_i) w_i(k),
    s the state node i measures and r_i its variance. The noise w is drawn
    for every network node in one call (node i's N+1 draws right after node
    i-1's) regardless of the subset later filtered on, so runs over different
    subsets of the same engine share one realization; the greedy sweep
    depends on this. Delays must be constant: a network with jitter raises
    ConfigError (sensing.resolve_delays draws it first). The optional prior
    info0 (m, m) and x0_hat (m,) is checked before any draw (_prior).
    """

    def __init__(self, sys: LtvSystem, network: SensorNetwork, n_steps: int,
                 rng: np.random.Generator, info0=None, x0_hat=None):
        super().__init__(sys, network, n_steps)
        self.info0, self.yv0 = _prior(info0, x0_hat, sys.state_dim)
        self.truth = simulate(sys, self.a_seq, rng)
        self.z = rng.standard_normal((len(network), n_steps + 1))
        self.z *= np.sqrt(network.variance)[:, None]
        self.z += self.truth[:, network.state].T

    def fused_run(self, subset):
        """Run the estimator over one subset of node ids (integers, repeats
        counted once); returns (info_hist, yv_hist, xhat, flags)."""
        not_integers = [i for i in subset
                        if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
        if not_integers:
            raise SelectionError(f"node ids must be integers, got {not_integers}")
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

        What the subsets' nodes deliver is summed per state class
        (_delivered_sums): in one pass over the used nodes when each row
        holds the next, as in the greedy sweep, else one pass per row.
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
        m = self.sys.state_dim
        info_inc, iv_inc = self._delivered_sums(masks)
        info_hist, yv_hist = _kernels.fused_info_recursion(
            self.a_inv_seq, self.q_inv, info_inc, iv_inc, self.info0, self.yv0
        )
        finite = np.isfinite(info_hist).all(axis=(2, 3))
        if not finite.all():
            row, step = (int(v) for v in np.argwhere(~finite)[0])
            raise DivergenceError(
                f"non-finite fused information in mask row {row} (0-based) at step {step}",
                step=step, row=row,
            )
        xhat, flags = recover_estimates(info_hist.reshape(-1, m, m), yv_hist.reshape(-1, m))
        return info_hist, yv_hist, xhat.reshape(yv_hist.shape), flags.reshape(yv_hist.shape[:2])

    def _delivered_sums(self, masks):
        """What the nodes of each mask row have delivered by each step.

        Returns info_inc (B, N+1, m), the diagonal of the sum of l_i over the
        row's nodes with d_i <= k, and iv_inc (B, N+1, m), the sum of their IV
        deltas z_i(k - d_i) / r_i in their states' entries. Nodes delayed past
        the horizon deliver nothing.

        The rows are summed as a chain, each row holding the next, as a single
        row does and as the greedy sweep's shrinking thresholds give; a batch
        that is not a chain runs one row at a time. In a chain node i sits in
        rows 0..e_i - 1, e_i the number of rows that hold it (its exit row),
        so row b's sums are suffix sums, over exits e > b, of sums per bucket
        (exit, state). The used nodes, sorted by bucket, are taken
        DELIVERY_BLOCK at a time, each block adding its delayed readings to
        their buckets; the buckets' 1/r_i are summed per delay. One suffix
        cumsum over exits, and for the information one cumsum over k, then
        give every row's sums.
        """
        n_runs = masks.shape[0]
        if (masks[1:] & ~masks[:-1]).any():
            rows = (self._delivered_sums(row[None]) for row in masks)
            return tuple(np.concatenate(sums) for sums in zip(*rows))
        n_out = self.n_steps + 1
        m = self.sys.state_dim
        state, delays, inv_r = self.network.state, self.delays, self.inv_r
        exits = masks.sum(axis=0)
        used = np.flatnonzero((exits > 0) & (delays <= self.n_steps))
        bucket = (exits[used] - 1) * m + state[used]  # flat index of (exit - 1, state)
        order = np.argsort(bucket, kind="stable")
        used, bucket = used[order], bucket[order]
        # (B, m, N+1) buckets, summed in place into the rows' sums
        info = np.bincount(bucket * n_out + delays[used], weights=inv_r[used],
                           minlength=n_runs * m * n_out).reshape(n_runs, m, n_out)
        iv = np.zeros((n_runs, m, n_out))
        iv_rows = iv.reshape(n_runs * m, n_out)
        # z_i times 1/r_i (not divided by r_i, which rounds differently),
        # right-aligned in zeros so that row i's window at offset N+1 - d_i
        # is z_i(k - d_i) / r_i for k >= d_i and zero before
        padded = np.zeros((min(used.size, DELIVERY_BLOCK), 2 * n_out))
        windows = sliding_window_view(padded, n_out, axis=1)
        for start in range(0, used.size, DELIVERY_BLOCK):
            block = used[start:start + DELIVERY_BLOCK]
            b = bucket[start:start + DELIVERY_BLOCK]
            np.multiply(self.z[block], inv_r[block, None], out=padded[:block.size, n_out:])
            delivered = windows[np.arange(block.size), n_out - delays[block]]
            firsts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
            iv_rows[b[firsts]] += np.add.reduceat(delivered, firsts, axis=0)
        for sums in (info[::-1], iv[::-1]):
            np.cumsum(sums, axis=0, out=sums)
        np.cumsum(info, axis=2, out=info)
        return info.transpose(0, 2, 1), iv.transpose(0, 2, 1)
