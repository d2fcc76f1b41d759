"""Filter-recursion kernels in numpy, batched across nodes or chains.

Both kernels run one information time update, _TimeUpdate, with
S = M + Q^{-1}:

    M = Ainv^T I Ainv,  I' = Q^{-1} S^{-1} M  (symmetrized),
    yv' = Q^{-1} S^{-1} Ainv^T yv,

followed by the additive measurement step. Since I - C = Q^{-1} S^{-1} for
the gain C = M S^{-1}, this equals the Joseph form
(I - C) M (I - C)^T + C Q^{-1} C^T (Anderson & Moore, Optimal Filtering)
without its products. The step acts on a structure-of-arrays stack, every
matrix (m, m, n) with the batch axis last: three gemms against the shared
A^{-1}(k) and Q^{-1} and an elimination over whole (n,) rows (_SoaSolver).
Each kernel call prepares its step once, buffers and views alike, so a step
is only ufunc and matmul calls writing into them: at a batch of one chain
the number of those calls, not their arithmetic, sets a step's cost.

- node_info_histories runs one recursion per node, given as (s_i, 1/r_i),
  over thousands of nodes and stores every step packed: the P = m (m + 1) / 2
  lower-triangle entries of each symmetric matrix, in np.tril_indices order,
  the layout the stability bounds and the admission check keep (unpack
  restores full matrices), as one (P, N+1, n) array.
- fused_info_recursion runs B estimator chains (the greedy sweep's subsets;
  single-chain callers pass one row); each chain's information vector is
  one more right-hand side of the elimination.

The same packed layout carries the shifted Cholesky (_cholesky_succeeds) that
the admission check and the estimate recovery use to certify eigenvalue
bounds without eigvalsh.
"""

import itertools
import math

import numpy as np

CHOLESKY_SLACK = 8.0  # c in the bracket shift delta = c m (m + 1) eps max|D|


def backend_name() -> str:
    """The kernel path recorded with benchmark results; numpy is the only one."""
    return "python"


class _TimeUpdate:
    """One kernel call's information time update, prepared once.

    Holds the (m, m, n) information stack info, zero until the caller sets
    it, which each call updates in place to Q^{-1} S^{-1} M (symmetrized),
    and every buffer and view the step touches: half (m, m n) for A^{-T} I,
    aug (m, 2m + r', n) = [S | M | extra] with the prepared elimination on
    it, and out (m, (m + r') n) for the product with Q^{-1}. A step is then
    only ufunc and matmul calls with out=. Columns 2m: of aug, the view
    extra, hold r' right-hand sides the caller fills before each step; after
    it, extra_out, the (m, r', n) view of out, holds Q^{-1} S^{-1} times them.
    """

    def __init__(self, q_inv, n, n_extra=0):
        m = q_inv.shape[0]
        self.info = np.zeros((m, m, n))
        self._info_2d = self.info.reshape(m, m * n)
        self._half = np.empty((m, m * n))
        self._half_3d = self._half.reshape(m, m, n)
        aug = np.empty((m, 2 * m + n_extra, n))
        self._s, self._mk, self.extra = aug[:, :m], aug[:, m:2 * m], aug[:, 2 * m:]
        # Q^{-1} repeated for every column, so the add reads it contiguously
        self._q_inv, self._q_inv_stack = q_inv, np.repeat(q_inv[:, :, None], n, axis=2)
        self._solve = _SoaSolver(aug)
        self._y_2d = self._solve.y.reshape(m, -1)
        self._out = np.empty((m, (m + n_extra) * n))
        pred = self._out.reshape(m, m + n_extra, n)
        self._pred, self._pred_t = pred[:, :m], pred[:, :m].transpose(1, 0, 2)
        self.extra_out = pred[:, m:]

    def __call__(self, a_inv_t):
        """One step, given A^{-T}(k) = a_inv_t."""
        np.matmul(a_inv_t, self._info_2d, self._half)
        np.matmul(a_inv_t, self._half_3d, self._mk)
        np.add(self._mk, self._q_inv_stack, self._s)
        self._solve()
        np.matmul(self._q_inv, self._y_2d, self._out)
        np.add(self._pred, self._pred_t, self.info)
        np.multiply(self.info, 0.5, self.info)


def node_info_histories(a_inv_seq, q_inv, state, inv_r):
    """Posterior information histories I_i(k|k) of every node, k = 0..N,
    packed.

    a_inv_seq: (N, m, m) inverses of A(0..N-1); q_inv: (m, m); node i measures
    state s = state[i] with 1/r_i = inv_r[i], so l_i = e_s e_s^T inv_r[i] adds
    to its diagonal only. Every node starts from zero prior information.
    Returns (P, N+1, n): row p holds entry np.tril_indices(m)[p] of node i's
    matrix at step k in column (k, i). The matrices are exactly symmetric, so
    the lower triangle is all of them.
    """
    n = state.shape[0]
    m = q_inv.shape[0]
    rows, cols = np.tril_indices(m)
    lower = rows * m + cols  # flat index of each packed entry in an (m, m) matrix
    hist = np.empty((lower.size, a_inv_seq.shape[0] + 1, n))
    step = _TimeUpdate(q_inv, n)
    info = step.info.reshape(m * m, n)
    diag = info[::m + 1]  # (m, n) view of every node's diagonal
    # each node's diagonal of l_i, laid out once: a dense add per step, where
    # a fancy-indexed one took 10x as long
    l_diag = np.zeros((m, n))
    l_diag[state, np.arange(n)] = inv_r
    # step 0 is l_i alone: no time update before it
    for k, a_inv_t in enumerate(itertools.chain([None], a_inv_seq.transpose(0, 2, 1))):
        if a_inv_t is not None:
            step(a_inv_t)
        np.add(diag, l_diag, diag)
        hist[:, k] = info[lower]
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


class _SoaSolver:
    """S^{-1} rhs in place for [S | rhs] stacked as aug (m, m + r, n), S SPD,
    batch axis last: Gaussian elimination without pivoting, then back
    substitution. Every view, the multipliers and one scratch buffer for the
    products are made here, so a call is only ufuncs with out=; y is the rhs
    part of aug, which a call overwrites with the solution and returns."""

    def __init__(self, aug):
        m, width, n = aug.shape
        self.y = y = aug[:, m:]
        f = np.empty((m - 1, n))
        scratch = np.empty((m - 1) * (width - 1) * n)
        self._eliminate = []
        for j in range(m - 1):
            below, right = m - j - 1, width - j - 1
            self._eliminate.append((aug[j + 1:, j], aug[j, j], f[:below], f[:below, None],
                                    aug[j, None, j + 1:],
                                    scratch[:below * right * n].reshape(below, right, n),
                                    aug[j + 1:, j + 1:]))
        # row j of y is divided by its pivot, then eliminated from the rows
        # above it; row 0 has none, so it is only divided
        self._substitute = [(y[j], aug[j, j], aug[:j, j, None], y[j, None],
                             scratch[:y[:j].size].reshape(y[:j].shape), y[:j])
                            for j in range(m - 1, 0, -1)]
        self._last = (y[0], aug[0, 0])

    def __call__(self):
        for col, pivot, f, f_col, row, prod, rest in self._eliminate:
            np.divide(col, pivot, f)
            np.multiply(f_col, row, prod)
            np.subtract(rest, prod, rest)
        for y_j, pivot, col, y_row, prod, above in self._substitute:
            np.divide(y_j, pivot, y_j)
            np.multiply(col, y_row, prod)
            np.subtract(above, prod, above)
        y_0, pivot = self._last
        np.divide(y_0, pivot, y_0)
        return self.y


def rounding_shift(packed):
    """(delta, trusted) per column of a packed stack (P, e) of symmetric
    matrices D: delta = CHOLESKY_SLACK m (m + 1) eps max|D| exceeds the
    backward error of both an unpivoted Cholesky of D (Higham, Accuracy and
    Stability, Thm 10.3) and np.linalg.eigvalsh on D; trusted is where
    1e-150 < max|D| < 1e150, so no product of the factorization under- or
    overflows."""
    m = packed_dim(packed.shape[0])
    scale = np.maximum(packed.max(axis=0), -packed.min(axis=0))  # max|D|, without an |D| copy
    delta = CHOLESKY_SLACK * m * (m + 1) * np.finfo(float).eps * scale
    return delta, (scale > 1e-150) & (scale < 1e150)


def _cholesky_succeeds(w, shift):
    """Whether an unpivoted Cholesky of each D - shift I succeeds, every pivot
    positive.

    w (P, e) holds the lower triangle of one symmetric matrix D per column,
    in np.tril_indices order, so row i of the triangle is one run of packed
    rows; shift is (e,). The factorization runs in place: w is overwritten,
    so callers pass a copy of what they still need. A pivot that is NaN, as
    every pivot after a breakdown is, counts as a failure.
    """
    m = packed_dim(w.shape[0])
    index = packed_index(m)
    w[index.diagonal()] -= shift
    succeeded = np.ones(w.shape[-1], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(m):
            pivot = w[index[j, j]]
            succeeded &= pivot > 0.0
            col = w[index[j + 1:, j]] / np.sqrt(pivot)  # column j of the factor below the pivot
            for i in range(j + 1, m):
                w[index[i, j + 1]:index[i, i] + 1] -= col[i - j - 1] * col[:i - j]
    return succeeded


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
    step = _TimeUpdate(q_inv, n_chains, 1)
    info = step.info
    info[:] = info0[:, :, None]
    diag = info.reshape(m * m, n_chains)[::m + 1]
    diag += info_inc[0]
    np.add(yv0[:, None], iv_inc[0], yv_hist[0])
    info_hist[0] = info
    yv_rhs, yv_pred = step.extra[:, 0], step.extra_out[:, 0]
    steps = zip(a_inv_seq.transpose(0, 2, 1), info_inc[1:], iv_inc[1:], info_hist[1:],
                yv_hist[:-1], yv_hist[1:])
    # a diverging chain turns non-finite silently: DkfEngine.fused_run checks
    # the histories right after this call and raises DivergenceError naming it
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for a_inv_t, info_k, iv_k, info_out, yv, yv_out in steps:
            np.matmul(a_inv_t, yv, yv_rhs)
            step(a_inv_t)
            np.add(yv_pred, iv_k, yv_out)
            np.add(diag, info_k, diag)
            np.copyto(info_out, info)
    return (np.ascontiguousarray(info_hist.transpose(3, 0, 1, 2)),
            np.ascontiguousarray(yv_hist.transpose(2, 0, 1)))
