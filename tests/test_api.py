"""The package's public names and the call sites the benchmark's tracer wraps
must exist, so a deletion that drops one fails here rather than only when the
benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import dkfsim

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module; its dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    assert [name for name in dkfsim.__all__ if not hasattr(dkfsim, name)] == []


def test_traced_sites_exist(monkeypatch):
    sites = load_spans(monkeypatch)._sites()
    assert sites
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in sites if not hasattr(owner, attr)]
    assert missing == []
