"""Discrete-time stochastic LTV plant: x(k+1) = A(k) x(k) + w(k).

Two transition rules are supported: a built-in two-state parametric family
whose only time-varying entry is a22 = 2^(-t_k) with t_k = k*Ts clamped to
[0, 2], and an explicit per-step matrix table loaded from file.

The stability analysis elsewhere assumes the open-loop plant is mean-square
stable. That assumption is documented, not enforced: the built-in family has
spectral radius slightly above one for small k and becomes contractive as
a22 decays toward its 0.25 plateau.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, HorizonError

SYMMETRY_TOL = 1e-12
SINGULAR_TOL = 1e-10


def _as_matrix(a, name="matrix"):
    """a as one square matrix or a stack (..., m, m) of them."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ConfigError(f"{name} must be square, got shape {a.shape}", keys=(name,))
    return a


def _check_spd(q, name="Q"):
    if not np.all(np.abs(q - q.T) <= SYMMETRY_TOL):
        raise ConfigError(f"{name} must be symmetric within {SYMMETRY_TOL}", keys=(name,))
    w = np.linalg.eigvalsh(0.5 * (q + q.T))
    if w.min() <= 0.0:
        raise ConfigError(f"{name} must be positive definite (min eig {w.min():g})", keys=(name,))


class BuiltinFamily:
    """Two-state transition family A(k) = [[0.5, 0.25], [0.25, 2^(-t_k)]],
    t_k = min(k Ts, 2)."""

    def matrix(self, k: int, ts: float) -> np.ndarray:
        return np.array([[0.5, 0.25], [0.25, 2.0 ** (-min(k * ts, 2.0))]])


@dataclass(frozen=True)
class MatrixTable:
    """Explicit per-step transition matrices A(0), A(1), ..."""

    matrices: tuple = ()

    def matrix(self, k: int, ts: float) -> np.ndarray:
        if k >= len(self.matrices):
            raise HorizonError(
                f"transition table has {len(self.matrices)} entries, step {k} requested",
                keys=("transition",),
            )
        return self.matrices[k]


@dataclass
class LtvSystem:
    """Plant definition: transition rule, process noise, initial state, Ts."""

    state_dim: int
    transition: BuiltinFamily | MatrixTable
    process_noise_cov: np.ndarray
    initial_state: np.ndarray
    sample_time: float
    _chol_q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.state_dim < 1:
            raise ConfigError("state_dim must be >= 1", keys=("state_dim",))
        if self.sample_time <= 0.0:
            raise ConfigError("sample_time must be positive", keys=("ts",))
        q = _as_matrix(self.process_noise_cov, "process_noise_cov")
        if q.shape != (self.state_dim, self.state_dim):
            raise ConfigError(
                f"process_noise_cov shape {q.shape} does not match state_dim {self.state_dim}",
                keys=("process_noise_cov",),
            )
        _check_spd(q, "process_noise_cov")
        self.process_noise_cov = q
        x0 = np.asarray(self.initial_state, dtype=float).reshape(-1)
        if x0.shape != (self.state_dim,):
            raise ConfigError(
                f"initial_state length {x0.shape[0]} does not match state_dim", keys=("x0",)
            )
        if not np.isfinite(x0).all():
            raise ConfigError("initial_state must be finite", keys=("x0",))
        self.initial_state = x0
        if isinstance(self.transition, BuiltinFamily) and self.state_dim != 2:
            raise ConfigError("built-in transition family is two-state", keys=("state_dim",))
        for a in getattr(self.transition, "matrices", ()):
            if a.shape != (self.state_dim, self.state_dim):
                raise ConfigError(
                    f"table matrix shape {a.shape} does not match state_dim", keys=("transition",)
                )
            if not np.isfinite(a).all():
                raise ConfigError("table matrices must be finite", keys=("transition",))
        # factor once; reused by every simulate() call
        self._chol_q = np.linalg.cholesky(q)


def transition_matrix(sys: LtvSystem, k: int) -> np.ndarray:
    """A(k) for step k >= 0."""
    if k < 0:
        raise ConfigError(f"step index must be >= 0, got {k}")
    return sys.transition.matrix(k, sys.sample_time)


def transition_sequence(sys: LtvSystem, n_steps: int) -> np.ndarray:
    """Stack A(0..n_steps-1) into an (n_steps, m, m) array."""
    return np.stack([transition_matrix(sys, k) for k in range(n_steps)])


def simulate(sys: LtvSystem, a_seq, rng: np.random.Generator) -> np.ndarray:
    """Propagate the plant through the prepared transitions a_seq = A(0..N-1)
    (transition_sequence), with w(k) ~ N(0, Q) drawn from rng; returns the
    states x(0..N) as an (N+1, m) array. DivergenceError names the first step
    whose state is not finite."""
    n_steps = len(a_seq)
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1", keys=("horizon",))
    m = sys.state_dim
    noise = rng.standard_normal((n_steps, m)) @ sys._chol_q.T
    states = np.empty((n_steps + 1, m))
    states[0] = sys.initial_state
    # a diverging state turns non-finite silently: the check below names the
    # first non-finite step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            states[k + 1] = a_seq[k] @ states[k] + noise[k]
    diverged = ~np.isfinite(states).all(axis=1)
    if diverged.any():
        step = int(diverged.argmax())
        raise DivergenceError(f"state diverged at step {step}", step=step)
    return states


def is_effectively_singular(a):
    """True when the smallest singular value of a falls below SINGULAR_TOL
    times the largest.

    a is one matrix or a stack (..., m, m), which gives one flag per matrix.
    A matrix without entries or with no nonzero singular value is singular.
    """
    a = _as_matrix(a, "a")
    s = np.linalg.svd(a, compute_uv=False)
    top = s.max(axis=-1, initial=0.0)
    singular = (top == 0.0) | (s.min(axis=-1, initial=np.inf) < SINGULAR_TOL * top)
    return bool(singular) if a.ndim == 2 else singular


def robust_inverse(a):
    """Inverse of a, switching to the pseudo-inverse for near-singular input.

    a is one matrix or a stack (..., m, m) inverted matrix by matrix in one
    call. Returns (inverse, used_pinv): used_pinv is a bool for one matrix
    and a bool array of the stack's leading shape for a stack.
    """
    a = _as_matrix(a, "a")
    used_pinv = is_effectively_singular(a)
    if a.ndim == 2:
        return (np.linalg.pinv(a) if used_pinv else np.linalg.inv(a)), used_pinv
    out = np.empty_like(a)
    out[~used_pinv] = np.linalg.inv(a[~used_pinv])
    out[used_pinv] = np.linalg.pinv(a[used_pinv])
    return out, used_pinv


def load_matrix_table(path) -> MatrixTable:
    """Read a transition table: whitespace-separated rows, blocks separated by
    lines that are empty or hold only whitespace."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    matrices = []
    for blank, block in itertools.groupby(lines, key=lambda line: not line.strip()):
        if blank:
            continue
        rows = [line.split() for line in block]
        try:
            mat = np.array([[float(v) for v in row] for row in rows])
        except ValueError as exc:
            raise ConfigError(f"bad matrix block in {path}: {exc}", keys=("transition",)) from exc
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError(f"non-square matrix block in {path}", keys=("transition",))
        matrices.append(mat)
    if not matrices:
        raise ConfigError(f"no matrices found in {path}", keys=("transition",))
    return MatrixTable(tuple(matrices))


def builtin_system(
    q_scale: float = 0.1,
    ts: float = 0.01,
    x0: Sequence[float] = (1.0, 1.0),
) -> LtvSystem:
    """The two-state benchmark plant with Q = q_scale * I."""
    return LtvSystem(
        state_dim=2,
        transition=BuiltinFamily(),
        process_noise_cov=q_scale * np.eye(2),
        initial_state=np.asarray(x0, dtype=float),
        sample_time=ts,
    )
