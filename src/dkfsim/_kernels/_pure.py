"""Pure-numpy backend for the filter-recursion kernels.

Both kernels run the general information-matrix time update

    M = Ainv^T I Ainv,  C = M (M + Q^{-1})^{-1},
    I' = (I - C) M (I - C)^T + C Q^{-1} C^T   (symmetrized),
    yv' = (I - C) Ainv^T yv,

followed by the additive measurement step. node_info_histories matches
dkfsim._kernels._core exactly; fused_info_recursion is batched over chains
and is the only fused recursion the package runs.
"""

import numpy as np

NAME = "python"


def node_info_histories(a_inv_seq, q_inv, l_all, info0):
    """Posterior information histories I_i(k|k) for every node, k = 0..N.

    a_inv_seq: (N, m, m) inverses of A(0..N-1); q_inv: (m, m);
    l_all: (n, m, m) per-node H^T R^{-1} H; info0: (n, m, m) priors I_i(0|-1).
    Returns (n, N+1, m, m).
    """
    n, m, _ = l_all.shape
    n_steps = a_inv_seq.shape[0]
    eye = np.eye(m)
    hist = np.empty((n, n_steps + 1, m, m))
    info = info0 + l_all
    hist[:, 0] = info
    for k in range(n_steps):
        a_inv = a_inv_seq[k]
        mk = a_inv.T[None] @ info @ a_inv[None]
        c = np.linalg.solve(mk + q_inv[None], mk).transpose(0, 2, 1)
        d = eye[None] - c
        pred = d @ mk @ d.transpose(0, 2, 1) + c @ q_inv[None] @ c.transpose(0, 2, 1)
        pred = 0.5 * (pred + pred.transpose(0, 2, 1))
        info = pred + l_all
        hist[:, k + 1] = info
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
    eye = np.eye(m)
    info_hist = np.empty((n_chains, n_out, m, m))
    yv_hist = np.empty((n_chains, n_out, m))
    info = info0 + info_inc[:, 0]
    yv = yv0 + iv_inc[:, 0]
    info_hist[:, 0] = info
    yv_hist[:, 0] = yv
    for k in range(1, n_out):
        a_inv = a_inv_seq[k - 1]
        mk = a_inv.T @ info @ a_inv
        c = np.linalg.solve(mk + q_inv, mk).transpose(0, 2, 1)
        d = eye - c
        pred = d @ mk @ d.transpose(0, 2, 1) + c @ q_inv @ c.transpose(0, 2, 1)
        pred = 0.5 * (pred + pred.transpose(0, 2, 1))
        yv = (d @ (yv @ a_inv)[..., None])[..., 0]
        info = pred + info_inc[:, k]
        yv = yv + iv_inc[:, k]
        info_hist[:, k] = info
        yv_hist[:, k] = yv
    return info_hist, yv_hist
