"""Structural observability of (A-bar, H-bar) via graph reachability plus a
dilation check (Hall condition through maximum bipartite matching).

Edge convention, by duality with structural controllability of (A^T, H^T):
state edge x_j -> x_i exists iff a_bar[j, i] is a free parameter (x_i feeds
x_j's update, so information about x_i flows toward the measured chain), and
output edge y -> x_i exists iff the output row has a free parameter in
column i. The pair is structurally observable iff every state is reachable
from some output along these edges and the stacked pattern [A-bar; H-bar]
admits a matching of distinct rows onto all state columns (no dilation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import LtvSystem, transition_matrix

STRUCTURE_TOL = 1e-12


@dataclass
class ObservabilityCertificate:
    """Audit trail for a structural-observability verdict."""

    observable: bool
    reachable_states: list = field(default_factory=list)
    unreachable_states: list = field(default_factory=list)
    matching: list = field(default_factory=list)  # (state_column, row_label) pairs
    dilation_set: list = field(default_factory=list)

    def __str__(self):
        lines = [f"structurally observable: {self.observable}"]
        lines.append(f"reachable states: {sorted(self.reachable_states)}")
        if self.unreachable_states:
            lines.append(f"unreachable states: {sorted(self.unreachable_states)}")
        if self.matching:
            lines.append("matching (state <- row): " +
                         ", ".join(f"x{s} <- {r}" for s, r in self.matching))
        if self.dilation_set:
            lines.append(f"dilation on states: {sorted(self.dilation_set)}")
        lines.append("edge convention: x_j->x_i iff a_bar[j,i] is free (digraph of A^T); y->x_i "
                     "iff the output row is free in column i; states are 1-indexed")
        return "\n".join(lines)


def structure_of(a) -> np.ndarray:
    """Bool pattern, True (a free parameter) wherever |a_ij| > STRUCTURE_TOL."""
    return np.abs(np.asarray(a, dtype=float)) > STRUCTURE_TOL


def union_structure(sys: LtvSystem, horizon_n: int) -> np.ndarray:
    """Union pattern of A(k) over k in [0, horizon): free iff free at any step."""
    pattern = np.zeros((sys.state_dim, sys.state_dim), dtype=bool)
    for k in range(horizon_n):
        pattern |= structure_of(transition_matrix(sys, k))
    return pattern


def _max_matching(adj, n_left, n_right):
    """Kuhn's augmenting-path matching. adj[i] lists right vertices of left i.

    Returns match_left (len n_left, -1 if unmatched) and match_right.
    """
    match_left = [-1] * n_left
    match_right = [-1] * n_right

    def try_augment(i, visited):
        for j in adj[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_right[j] == -1 or try_augment(match_right[j], visited):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(n_left):
        try_augment(i, [False] * n_right)
    return match_left, match_right


def _hall_violator(adj, match_left, match_right, n_right):
    """Minimal-style Hall violator: left vertices alternating-reachable from an
    unmatched left vertex; their neighborhood is strictly smaller."""
    start = [i for i, mj in enumerate(match_left) if mj == -1]
    seen_left = set(start)
    seen_right = set()
    queue = deque(start)
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j in seen_right:
                continue
            seen_right.add(j)
            owner = match_right[j]
            if owner != -1 and owner not in seen_left:
                seen_left.add(owner)
                queue.append(owner)
    return sorted(seen_left)


def is_structurally_observable(a_bar, h_bar) -> tuple:
    """Verdict plus certificate for the (m, m) pattern A-bar and the (p, m)
    pattern H-bar, one row per output (bool arrays)."""
    a = np.asarray(a_bar, dtype=bool)
    h = np.asarray(h_bar, dtype=bool)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ConfigError("A-bar must be square")
    if h.ndim != 2 or h.shape[1] != m:
        raise ConfigError("H-bar column count must match state dimension")
    cert = ObservabilityCertificate(observable=False)
    if not len(h):
        cert.unreachable_states = list(range(1, m + 1))
        return False, cert

    # Reachability from the output vertices along y->x_i then x_j->x_i
    # (x_j -> x_i iff a[j, i]); a path visits at most m states.
    reachable = h.any(axis=0)
    for _ in range(m):
        reachable |= a[reachable].any(axis=0)
    cert.reachable_states = [int(i) + 1 for i in np.nonzero(reachable)[0]]
    cert.unreachable_states = [int(i) + 1 for i in np.nonzero(~reachable)[0]]

    # Dilation: match every state column of [A-bar; H-bar] to a distinct row.
    stacked = np.vstack([a, h])
    labels = [f"a{r + 1}" for r in range(m)] + [f"h{r + 1}" for r in range(len(h))]
    adj = [list(np.nonzero(stacked[:, col])[0]) for col in range(m)]
    match_left, match_right = _max_matching(adj, m, stacked.shape[0])
    matched = sum(1 for j in match_left if j != -1)
    cert.matching = [(col + 1, labels[j]) for col, j in enumerate(match_left) if j != -1]
    if matched < m:
        cert.dilation_set = _hall_violator(adj, match_left, match_right, stacked.shape[0])
        cert.dilation_set = [s + 1 for s in cert.dilation_set]

    cert.observable = bool(reachable.all()) and matched == m
    return cert.observable, cert
