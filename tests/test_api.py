"""The package's public names and the call sites the benchmark's tracer wraps
must exist, so a deletion that drops one fails here rather than only when the
benchmark runs; and the test-only oracles of dkfsim.reference stay out of the
package's import graph and public names."""

import ast
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


def imports_reference(tree) -> bool:
    """Whether a module's syntax tree imports dkfsim.reference in any spelling."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "dkfsim.reference" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("reference", "dkfsim.reference"):
                return True
            if node.module in (None, "dkfsim") and any(a.name == "reference" for a in node.names):
                return True
    return False


def test_reference_stays_out_of_the_production_path():
    # the one-matrix oracles are for tests: no package module imports them
    # and the package does not export them
    src = Path(dkfsim.__file__).parent
    importers = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "reference.py"
                 and imports_reference(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []
    tree = ast.parse((src / "reference.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined
    assert sorted(defined & set(dkfsim.__all__)) == []
