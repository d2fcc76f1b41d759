"""Kernel backend selection.

The per-node information histories of a two-state plant run the m = 2
closed form in numpy on every backend; it beats the compiled kernel. For
other state dimensions they run either in the compiled extension
(dkfsim._kernels._core, built from Cython) or in the pure-numpy fallback.
The compiled backend is preferred when importable; set DKFSIM_BACKEND=python
or DKFSIM_BACKEND=compiled to force a choice.

The fused estimator recursion always runs the batched numpy body, on every
backend: the compiled kernel has no batch axis, and giving it one means
regenerating _core.c from _core.pyx with Cython. Per chain the compiled
kernel is faster, but end to end one batched call per greedy sweep beats a
Python loop of compiled single-chain calls. Single-chain callers (fixed and
stability runs, the information-bound pilot pass) take the batched body with
one row.
"""

import os

from . import _pure

try:
    from . import _core
except ImportError:  # pragma: no cover - depends on build host
    _core = None

_BACKENDS = {"python": _pure}
if _core is not None:
    _BACKENDS["compiled"] = _core

_active = None


def use_backend(name: str):
    """Select a backend by name ('python' or 'compiled'); returns the module."""
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown or unavailable backend {name!r}; have {sorted(_BACKENDS)}")
    _active = _BACKENDS[name]
    return _active


def get_backend():
    """The active backend module, resolving DKFSIM_BACKEND on first use."""
    global _active
    if _active is None:
        requested = os.environ.get("DKFSIM_BACKEND")
        if requested:
            use_backend(requested)
        else:
            _active = _BACKENDS.get("compiled", _pure)
    return _active


def backend_name() -> str:
    return get_backend().NAME


def available_backends() -> list:
    return sorted(_BACKENDS)


def node_info_histories(a_inv_seq, q_inv, l_all, info0):
    if l_all.shape[-1] == 2:
        return _pure.node_info_histories_2x2(a_inv_seq, q_inv, l_all, info0)
    return get_backend().node_info_histories(a_inv_seq, q_inv, l_all, info0)


def fused_info_recursion(a_inv_seq, q_inv, info_inc, iv_inc, info0, yv0):
    return _pure.fused_info_recursion(a_inv_seq, q_inv, info_inc, iv_inc, info0, yv0)
