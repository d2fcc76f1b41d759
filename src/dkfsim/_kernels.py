"""Filter-recursion kernels in numpy, batched across nodes or chains.

Both kernels run the general information-matrix time update

    M = Ainv^T I Ainv,  C = M (M + Q^{-1})^{-1},
    I' = (I - C) M (I - C)^T + C Q^{-1} C^T   (symmetrized),
    yv' = (I - C) Ainv^T yv,

followed by the additive measurement step. The node axis and the chain axis
take it in different layouts:

- node_info_histories runs one recursion per node over thousands of nodes.
  For m = 2 it takes the elementwise closed form node_info_histories_2x2;
  otherwise node_info_histories_generic holds the nodes' information as one
  (m, m, n) structure-of-arrays stack, so every step is a few gemms against
  the shared A^{-1}(k) and elementwise sums over whole node rows.
- fused_info_recursion runs B <= 100 estimator chains (the greedy sweep's
  subsets; single-chain callers pass one row) through _predict, batched
  LAPACK over a (B, m, m) stack. Its outputs are the estimates every reported
  MSE and MD comes from, so it keeps the arithmetic the benchmark references
  were recorded with; the structure-of-arrays form moves their last bits.
"""

import numpy as np


def backend_name() -> str:
    """The kernel path recorded with benchmark results; numpy is the only one."""
    return "python"


def _predict(info, a_inv, q_inv):
    """Joseph-form information prediction over a stack of information matrices.

    info: (..., m, m); a_inv, q_inv: (m, m). Returns the symmetrized
    (I - C) M (I - C)^T + C Q^{-1} C^T and I - C, with M = Ainv^T I Ainv and
    C = M (M + Q^{-1})^{-1}.
    """
    mk = a_inv.T @ info @ a_inv
    c = np.linalg.solve(mk + q_inv, mk).swapaxes(-1, -2)
    d = np.eye(mk.shape[-1]) - c
    pred = d @ mk @ d.swapaxes(-1, -2) + c @ q_inv @ c.swapaxes(-1, -2)
    return 0.5 * (pred + pred.swapaxes(-1, -2)), d


def node_info_histories(a_inv_seq, q_inv, l_all, info0):
    """Posterior information histories I_i(k|k) for every node, k = 0..N.

    a_inv_seq: (N, m, m) inverses of A(0..N-1); q_inv: (m, m);
    l_all: (n, m, m) per-node H^T R^{-1} H; info0: (n, m, m) priors I_i(0|-1).
    Returns (n, N+1, m, m).
    """
    if l_all.shape[-1] == 2:
        return node_info_histories_2x2(a_inv_seq, q_inv, l_all, info0)
    return node_info_histories_generic(a_inv_seq, q_inv, l_all, info0)


def node_info_histories_generic(a_inv_seq, q_inv, l_all, info0):
    """node_info_histories for any m, in structure-of-arrays form.

    The information of all nodes is one (m, m, n) stack, node axis last, so
    every operation below acts on whole (n,) rows: M = Ainv^T I Ainv is two
    gemms against the shared Ainv, Y = S^{-1} M with S = M + Q^{-1} an
    unpivoted elimination (S is SPD), and, with C = Y^T and E = I - Y, the
    Joseph form E^T M E + Y^T Q^{-1} Y two m-term sums of elementwise products.
    """
    n, m, _ = l_all.shape
    n_steps = a_inv_seq.shape[0]
    hist = np.empty((n, n_steps + 1, m, m))
    l_soa = np.ascontiguousarray(l_all.transpose(1, 2, 0))
    info = info0.transpose(1, 2, 0) + l_soa
    hist[:, 0] = info.transpose(2, 0, 1)
    q_col = q_inv[:, :, None]
    eye = np.eye(m)[:, :, None]
    for k in range(n_steps):
        a_inv_t = a_inv_seq[k].T
        mk = a_inv_t @ (a_inv_t @ info.reshape(m, m * n)).reshape(m, m, n)
        y = _solve_spd_soa(mk + q_col, mk)
        e = eye - y
        left = np.concatenate([e, y])
        right = np.concatenate([np.einsum("bcn,cdn->bdn", mk, e),
                                (q_inv @ y.reshape(m, m * n)).reshape(m, m, n)])
        pred = np.einsum("ban,bdn->adn", left, right)
        info = 0.5 * (pred + pred.transpose(1, 0, 2)) + l_soa
        hist[:, k + 1] = info.transpose(2, 0, 1)
    return hist


def _solve_spd_soa(s, rhs):
    """S^{-1} rhs for SPD stacks s (m, m, n), rhs (m, m', n), node axis last:
    Gaussian elimination without pivoting on [S | rhs], then back substitution."""
    m = s.shape[0]
    w = np.concatenate([s, rhs], axis=1)
    for j in range(m - 1):
        f = w[j + 1:, j] / w[j, j]
        w[j + 1:, j + 1:] -= f[:, None] * w[j, None, j + 1:]
    y = w[:, m:]
    for j in range(m - 1, -1, -1):
        y[j] /= w[j, j]
        y[:j] -= w[:j, j, None] * y[j, None]
    return y


def node_info_histories_2x2(a_inv_seq, q_inv, l_all, info0):
    """node_info_histories for m = 2, elementwise across nodes.

    The same Joseph-form update on the three distinct entries (11, 12, 22) of
    each symmetric information matrix, with the 2x2 solve in closed form:
    C = M S^{-1}, S = M + Q^{-1}. l_all and info0 must be symmetric.
    """
    n = l_all.shape[0]
    n_steps = a_inv_seq.shape[0]
    hist = np.empty((n, n_steps + 1, 2, 2))
    info = info0 + l_all
    hist[:, 0] = info
    upper = ([0, 0, 1], [0, 1, 1])
    l_up = l_all[:, upper[0], upper[1]].T  # (3, n)
    i_up = info[:, upper[0], upper[1]].T
    q11, q12, q22 = q_inv[0, 0], q_inv[0, 1], q_inv[1, 1]
    # M = A^T I A is linear in the entries of I: m_up = lin[k] @ i_up
    a, b, c, d = (a_inv_seq[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    lin = np.stack([np.stack([a * a, 2.0 * a * c, c * c], axis=-1),
                    np.stack([a * b, a * d + b * c, c * d], axis=-1),
                    np.stack([b * b, 2.0 * b * d, d * d], axis=-1)], axis=1)
    out = np.empty((n_steps, 3, n))
    for k in range(n_steps):
        m11, m12, m22 = lin[k] @ i_up
        s11, s12, s22 = m11 + q11, m12 + q12, m22 + q22
        r = 1.0 / (s11 * s22 - s12 * s12)
        c11 = (m11 * s22 - m12 * s12) * r
        c12 = (m12 * s11 - m11 * s12) * r
        c21 = (m12 * s22 - m22 * s12) * r
        c22 = (m22 * s11 - m12 * s12) * r
        e11, e22 = 1.0 - c11, 1.0 - c22
        # F = (I - C) M and G = C Q^{-1}; I' = F (I - C)^T + G C^T + l
        f11, f12 = e11 * m11 - c12 * m12, e11 * m12 - c12 * m22
        f21, f22 = e22 * m12 - c21 * m11, e22 * m22 - c21 * m12
        g11, g12 = c11 * q11 + c12 * q12, c11 * q12 + c12 * q22
        g21, g22 = c21 * q11 + c22 * q12, c21 * q12 + c22 * q22
        i_up = out[k]
        i_up[0] = f11 * e11 - f12 * c12 + g11 * c11 + g12 * c12
        i_up[1] = f21 * e11 - f22 * c12 + g21 * c11 + g22 * c12
        i_up[2] = f22 * e22 - f21 * c21 + g21 * c21 + g22 * c22
        i_up += l_up
    for pos, (i, j) in enumerate(zip(*upper)):
        hist[:, 1:, i, j] = out[:, pos].T
    hist[:, 1:, 1, 0] = hist[:, 1:, 0, 1]
    return hist


def fused_info_recursion(a_inv_seq, q_inv, info_inc, iv_inc, info0, yv0):
    """B independent fused estimator chains over one horizon.

    The chains share A^{-1}(k), Q^{-1} and the prior and differ only in what
    their nodes deliver. info_inc: (B, N+1, m, m) delivered information sums
    per step; iv_inc: (B, N+1, m) delivered IV-delta sums per step;
    info0 (m, m) / yv0 (m,): prior information and information vector at step 0.
    Returns (info_hist (B, N+1, m, m), yv_hist (B, N+1, m)).
    """
    n_chains, n_out, m, _ = info_inc.shape
    info_hist = np.empty((n_chains, n_out, m, m))
    yv_hist = np.empty((n_chains, n_out, m))
    info = info0 + info_inc[:, 0]
    yv = yv0 + iv_inc[:, 0]
    info_hist[:, 0] = info
    yv_hist[:, 0] = yv
    for k in range(1, n_out):
        a_inv = a_inv_seq[k - 1]
        pred, d = _predict(info, a_inv, q_inv)
        yv = (d @ (yv @ a_inv)[..., None])[..., 0]
        info = pred + info_inc[:, k]
        yv = yv + iv_inc[:, k]
        info_hist[:, k] = info
        yv_hist[:, k] = yv
    return info_hist, yv_hist
