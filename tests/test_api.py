"""The package's public names and the call sites the benchmark's tracer wraps
must exist, so a deletion that drops one fails here rather than only when the
benchmark runs; and the test-only oracles of tests/reference.py stay out of the
package and its import graph."""

import ast
import importlib.util
import re
import shutil
import sys
from pathlib import Path

import dkfsim
from dkfsim import harness
from dkfsim.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module; its dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    assert [name for name in dkfsim.__all__ if not hasattr(dkfsim, name)] == []


def test_readme_library_sketch_runs(monkeypatch, tmp_path):
    # the sketch once called settling_index without its band and raised TypeError
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "benchmark.cfg", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_traced_sites_exist(monkeypatch):
    sites = load_spans(monkeypatch)._sites()
    assert sites
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in sites if not hasattr(owner, attr)]
    assert missing == []


def test_traced_hooks_read_real_results(monkeypatch, tmp_path):
    # the hooks read what the wrapped calls return (greedy_select's reports,
    # the stability rows' ct_exp, the engine's a_pinv_steps, fused_run's
    # flags): a small mode=all experiment and a one-run Monte Carlo under the
    # tracer must raise nothing and reach every site each workload expects
    spans = load_spans(monkeypatch)
    cfg = ExperimentConfig(seed=3, n_sensors=60, horizon=80, iterations=15, k_bar=10,
                           mode="all", out=str(tmp_path))
    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_experiment(cfg, out_dir=tmp_path / "all")
        summary = harness.monte_carlo(cfg, runs=1, out_dir=tmp_path / "mc")
    assert summary.failed_runs == []
    assert {w: spans.missing_sites(tracer, w) for w in spans.EXPECTED_SITES} == {
        w: [] for w in spans.EXPECTED_SITES}
    assert tracer.counts["selection.greedy.iterations"] == 15
    assert tracer.counts["selection.applicable"] > 0
    assert None not in spans.layer_metrics(tracer).values()


REFERENCE_NAMES = ("reference", "dkfsim.reference")


def imports_reference(tree) -> bool:
    """Whether a module's syntax tree imports the oracle module, as reference
    or dkfsim.reference, in any spelling: import, from-import, relative import,
    or importlib.import_module / __import__ of the name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name in REFERENCE_NAMES or alias.name.startswith("reference.")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in REFERENCE_NAMES:
                return True
            if node.module in (None, "dkfsim") and any(a.name == "reference" for a in node.names):
                return True
        elif isinstance(node, ast.Call) and node.args:
            arg = node.args[0]
            if (isinstance(arg, ast.Constant)
                    and arg.value in (*REFERENCE_NAMES, ".reference")):
                return True
    return False


def test_reference_stays_out_of_the_production_path():
    # the one-matrix oracles live in tests/reference.py. Under pytest tests/
    # is on sys.path, so a package module that imported reference would pass
    # here and fail only once installed: the package holds no such module and
    # none of its modules imports one
    assert importlib.util.find_spec("dkfsim.reference") is None
    src = Path(dkfsim.__file__).parent
    importers = [path.name for path in sorted(src.glob("*.py"))
                 if imports_reference(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []
    spellings = ["import reference", "import reference as ref", "import dkfsim.reference",
                 "from reference import psi", "from dkfsim.reference import psi",
                 "from .reference import psi", "from . import reference",
                 "from dkfsim import reference", "importlib.import_module('reference')",
                 "__import__('dkfsim.reference')", "import_module('.reference', 'dkfsim')"]
    assert [text for text in spellings if not imports_reference(ast.parse(text))] == []
    assert not imports_reference(ast.parse("from .selection import reference_window"))
