"""Discrete-time stochastic LTV plant: x(k+1) = A(k) x(k) + w(k).

Two transition rules are supported: a built-in two-state parametric family
whose only time-varying entry is a22 = 2^(-t_k) with t_k = k*Ts clamped to a
configured range, and an explicit per-step matrix table loaded from file.

The stability analysis elsewhere assumes the open-loop plant is mean-square
stable. That assumption is documented, not enforced: the built-in family has
spectral radius slightly above one for small k and becomes contractive as
a22 decays toward its 0.25 plateau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, HorizonError

SYMMETRY_TOL = 1e-12
SINGULAR_TOL = 1e-10


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {a.shape}", keys=(name,))
    return a


def _check_spd(q, name="Q"):
    if not np.all(np.abs(q - q.T) <= SYMMETRY_TOL):
        raise ConfigError(f"{name} must be symmetric within {SYMMETRY_TOL}", keys=(name,))
    w = np.linalg.eigvalsh(0.5 * (q + q.T))
    if w.min() <= 0.0:
        raise ConfigError(f"{name} must be positive definite (min eig {w.min():g})", keys=(name,))


@dataclass(frozen=True)
class BuiltinFamily:
    """Two-state transition family: fixed entries except a22 = 2^(-t_k)."""

    a11: float = 0.5
    a12: float = 0.25
    a21: float = 0.25
    t_range: tuple[float, float] = (0.0, 2.0)

    def matrix(self, k: int, ts: float) -> np.ndarray:
        t_k = min(max(k * ts, self.t_range[0]), self.t_range[1])
        return np.array([[self.a11, self.a12], [self.a21, 2.0 ** (-t_k)]])


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
        self.initial_state = x0
        if isinstance(self.transition, BuiltinFamily) and self.state_dim != 2:
            raise ConfigError("built-in transition family is two-state", keys=("state_dim",))
        for a in getattr(self.transition, "matrices", ()):
            if a.shape != (self.state_dim, self.state_dim):
                raise ConfigError(
                    f"table matrix shape {a.shape} does not match state_dim", keys=("transition",)
                )
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


def simulate(sys: LtvSystem, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Propagate the plant for n_steps with w(k) ~ N(0, Q) drawn from rng;
    returns the states x(0..N) as an (N+1, m) array."""
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1", keys=("horizon",))
    m = sys.state_dim
    noise = rng.standard_normal((n_steps, m)) @ sys._chol_q.T
    states = np.empty((n_steps + 1, m))
    states[0] = sys.initial_state
    for k in range(n_steps):
        states[k + 1] = transition_matrix(sys, k) @ states[k] + noise[k]
        if not np.all(np.isfinite(states[k + 1])):
            raise DivergenceError(f"state diverged at step {k + 1}", step=k + 1)
    return states


def is_effectively_singular(a, tol: float | None = None) -> bool:
    """True when the smallest singular value of a falls below tol.

    With tol=None the threshold is SINGULAR_TOL relative to the largest
    singular value; an explicit tol is absolute.
    """
    a = _as_matrix(a, "a")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return True
    if tol is None:
        tol = SINGULAR_TOL * s[0]
    return bool(s[-1] < tol)


def robust_inverse(a, tol: float | None = None) -> tuple[np.ndarray, bool]:
    """Inverse of a, switching to the pseudo-inverse for near-singular input.

    Returns (inverse, used_pinv).
    """
    a = _as_matrix(a, "a")
    if is_effectively_singular(a, tol):
        return np.linalg.pinv(a), True
    return np.linalg.inv(a), False


def load_matrix_table(path) -> MatrixTable:
    """Read a transition table: whitespace-separated rows, blank-line-separated blocks."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    matrices = []
    for block in text.split("\n\n"):
        rows = [line.split() for line in block.strip().splitlines() if line.strip()]
        if not rows:
            continue
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
    t_range: tuple[float, float] = (0.0, 2.0),
) -> LtvSystem:
    """The two-state benchmark plant with Q = q_scale * I."""
    return LtvSystem(
        state_dim=2,
        transition=BuiltinFamily(t_range=t_range),
        process_noise_cov=q_scale * np.eye(2),
        initial_state=np.asarray(x0, dtype=float),
        sample_time=ts,
    )
