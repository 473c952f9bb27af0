"""The benchmark tracer replaces module attributes by name; each must exist.

`perfbench/tracer.py` wraps `(module, attribute)` pairs listed in its
`WRAPPED` table.  A rename or deletion in `symbetti` that drops one of them
breaks traced benchmark runs, which the tests under `perfbench/` catch only
when run on their own, so the table is checked here as well.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
