"""The benchmark uses symbetti by name; each name must exist and its checks pass.

`perfbench/tracer.py` wraps `(module, attribute)` pairs listed in its
`WRAPPED` table, and `perfbench/checks.py`, `run.py` and `child.py` import
symbetti names of their own; `checks.check_generated` runs the subset
oracle on every generated ideal.  A rename, a deletion or an oracle that
raises breaks benchmark runs, which the tests under `perfbench/` catch only
when run on their own, so they are checked here as well.
"""

import ast
import importlib
import importlib.util
import io
import pathlib

import pytest

from symbetti.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    wrapped = load_tracer().WRAPPED
    assert wrapped
    missing = [(module, attr) for module, attr, _ in wrapped
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_imported_names_resolve():
    imported = []
    for script in ("checks.py", "run.py", "child.py"):
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symbetti"):
                imported += [(script, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                # `import symbetti.cli` needs the module itself
                imported += [(script, *alias.name.rsplit(".", 1)) for alias in node.names
                             if alias.name.startswith("symbetti.")]
    assert {script for script, _, _ in imported} == {"checks.py", "run.py", "child.py"}
    missing = [entry for entry in imported
               if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_ideals_pass_the_benchmark_checks(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    checked = 0
    for k, (gens, characteristic, _) in enumerate(workloads.seeded_ideals(seed)):
        path = tmp_path / f"seed{seed}-{k}.json"
        workloads.write_ideal(str(path), gens, characteristic, path.stem)
        out = io.StringIO()
        assert main(["betti", "--ideal", str(path), "--n", str(workloads.SEEDED_N),
                     "--format", "json"], out=out) == 0
        problems, count = checks.check_generated(out.getvalue(), gens, characteristic,
                                                 workloads.SEEDED_N)
        assert problems == [], (gens, characteristic)
        checked += count
    assert checked > 0
