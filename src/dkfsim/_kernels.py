"""Filter-recursion kernels in numpy, batched across nodes or chains.

Both kernels run one information time update, _time_update, with
S = M + Q^{-1}:

    M = Ainv^T I Ainv,  I' = Q^{-1} S^{-1} M  (symmetrized),
    yv' = Q^{-1} S^{-1} Ainv^T yv,

followed by the additive measurement step. Since I - C = Q^{-1} S^{-1} for
the gain C = M S^{-1}, this equals the Joseph form
(I - C) M (I - C)^T + C Q^{-1} C^T (Anderson & Moore, Optimal Filtering)
without its products. The step acts on a structure-of-arrays stack, every
matrix (m, m, n) with the batch axis last: a few gemms against the shared
A^{-1}(k) and Q^{-1} and an elimination over whole (n,) rows.

- node_info_histories runs one recursion per node, given as (s_i, 1/r_i),
  over thousands of nodes and stores each step packed: the P = m (m + 1) / 2
  lower-triangle entries of each symmetric matrix, in np.tril_indices order,
  as a (P, N+1, n) history, the layout the stability bounds and the admission
  check keep (unpack restores full matrices).
- fused_info_recursion runs B estimator chains (the greedy sweep's subsets;
  single-chain callers pass one row); each chain's information vector is
  one more right-hand side of the elimination.
"""

import math

import numpy as np


def backend_name() -> str:
    """The kernel path recorded with benchmark results; numpy is the only one."""
    return "python"


def _time_update(info, a_inv, q_inv, aug, half, out):
    """info <- Q^{-1} S^{-1} M, symmetrized, in place for an (m, m, n) stack.

    half (m, m n), aug (m, m + r, n) and out (m, r n), r >= m, are the
    caller's buffers, so no step allocates. Columns 2m: of aug hold extra
    right-hand sides the caller filled; returns Q^{-1} S^{-1} times them, the
    (m, r - m, n) view of out.
    """
    m, _, n = info.shape
    a_inv_t = a_inv.T
    mk = aug[:, m:2 * m]
    np.matmul(a_inv_t, info.reshape(m, m * n), out=half)
    np.matmul(a_inv_t, half.reshape(m, m, n), out=mk)
    np.add(mk, q_inv[:, :, None], out=aug[:, :m])
    y = _solve_spd_soa(aug)
    np.matmul(q_inv, y.reshape(m, -1), out=out)
    pred = out.reshape(m, -1, n)
    np.add(pred[:, :m], pred[:, :m].transpose(1, 0, 2), out=info)
    info *= 0.5
    return pred[:, m:]


def node_info_histories(a_inv_seq, q_inv, state, inv_r):
    """Posterior information histories I_i(k|k) for every node, k = 0..N, packed.

    a_inv_seq: (N, m, m) inverses of A(0..N-1); q_inv: (m, m); node i measures
    state s = state[i] with 1/r_i = inv_r[i], so l_i = e_s e_s^T inv_r[i] adds
    to its diagonal only. Every node starts from zero prior information.
    Returns (P, N+1, n): row p holds entry np.tril_indices(m)[p] of every
    node's matrix at every step. The matrices are exactly symmetric, so the
    lower triangle is all of them.
    """
    n = state.shape[0]
    m = q_inv.shape[0]
    n_steps = a_inv_seq.shape[0]
    rows, cols = np.tril_indices(m)
    lower = rows * m + cols  # flat index of each packed entry in an (m, m) matrix
    hist = np.empty((lower.size, n_steps + 1, n))
    info = np.zeros((m, m, n))
    diag = info.reshape(m * m, n)[::m + 1]  # (m, n) view of every node's diagonal
    # each node's diagonal of l_i, laid out once: a dense add per step, where
    # a fancy-indexed one took 10x as long
    l_diag = np.zeros((m, n))
    l_diag[state, np.arange(n)] = inv_r
    diag += l_diag
    half = np.empty((m, m * n))
    aug = np.empty((m, 2 * m, n))
    out = np.empty((m, m * n))
    hist[:, 0] = info.reshape(m * m, n)[lower]
    for k in range(n_steps):
        _time_update(info, a_inv_seq[k], q_inv, aug, half, out)
        diag += l_diag
        hist[:, k + 1] = info.reshape(m * m, n)[lower]
    return hist


def packed_dim(n_pairs: int) -> int:
    """The matrix size m of a packed layout with n_pairs = m (m + 1) / 2 rows."""
    return (math.isqrt(8 * n_pairs + 1) - 1) // 2


def packed_index(m: int) -> np.ndarray:
    """(m, m) packed row of each entry (i, j) of a symmetric matrix: the
    position of (max(i, j), min(i, j)) in np.tril_indices(m) order."""
    rows, cols = np.tril_indices(m)
    index = np.empty((m, m), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return index


def unpack(packed) -> np.ndarray:
    """Full symmetric matrices (..., m, m) from packed lower triangles (P, ...)
    in np.tril_indices order, P = m (m + 1) / 2."""
    index = packed_index(packed_dim(packed.shape[0]))
    return np.moveaxis(packed[index], (0, 1), (-2, -1))


def _solve_spd_soa(aug):
    """S^{-1} rhs in place for [S | rhs] stacked as aug (m, m + m', n), S SPD,
    batch axis last: Gaussian elimination without pivoting, then back
    substitution. Returns the rhs part of aug, which now holds the solution."""
    m = aug.shape[0]
    for j in range(m - 1):
        f = aug[j + 1:, j] / aug[j, j]
        aug[j + 1:, j + 1:] -= f[:, None] * aug[j, None, j + 1:]
    y = aug[:, m:]
    for j in range(m - 1, -1, -1):
        y[j] /= aug[j, j]
        y[:j] -= aug[:j, j, None] * y[j, None]
    return y


def fused_info_recursion(a_inv_seq, q_inv, info_inc, iv_inc, info0, yv0):
    """B independent fused estimator chains over one horizon.

    The chains share A^{-1}(k), Q^{-1} and the prior and differ only in what
    their nodes deliver. info_inc: (B, N+1, m) delivered information sums per
    step, on the diagonal only, as every node measures one state; iv_inc:
    (B, N+1, m) delivered IV-delta sums per step; info0 (m, m) / yv0 (m,):
    prior information and information vector at step 0.
    Returns (info_hist (B, N+1, m, m), yv_hist (B, N+1, m)).
    """
    n_chains, n_out, m = info_inc.shape
    info_inc = info_inc.transpose(1, 2, 0)
    iv_inc = iv_inc.transpose(1, 2, 0)
    info_hist = np.empty((n_out, m, m, n_chains))
    yv_hist = np.empty((n_out, m, n_chains))
    info = np.repeat(info0[:, :, None], n_chains, axis=2)
    diag = info.reshape(m * m, n_chains)[::m + 1]
    diag += info_inc[0]
    yv = yv0[:, None] + iv_inc[0]
    info_hist[0] = info
    yv_hist[0] = yv
    half = np.empty((m, m * n_chains))
    aug = np.empty((m, 2 * m + 1, n_chains))
    out = np.empty((m, (m + 1) * n_chains))
    for k in range(1, n_out):
        a_inv = a_inv_seq[k - 1]
        np.matmul(a_inv.T, yv, out=aug[:, 2 * m])
        yv_pred = _time_update(info, a_inv, q_inv, aug, half, out)[:, 0]
        np.add(yv_pred, iv_inc[k], out=yv)
        diag += info_inc[k]
        info_hist[k] = info
        yv_hist[k] = yv
    return (np.ascontiguousarray(info_hist.transpose(3, 0, 1, 2)),
            np.ascontiguousarray(yv_hist.transpose(2, 0, 1)))
