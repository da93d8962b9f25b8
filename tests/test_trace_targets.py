"""The per-layer tracer in ``perfbench/layertrace.py`` wraps cycleval functions
and methods by name.  A renamed or deleted target would only surface as a
failed traced benchmark run; this test reads the tracer's ``FUNCTIONS`` table
(without importing the tracer) and checks every name against the package."""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _traced_functions() -> dict:
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERTRACE} defines no FUNCTIONS table")


def test_every_traced_function_exists():
    table = _traced_functions()
    assert table
    missing = []
    for span, (modname, qualnames) in table.items():
        mod = importlib.import_module(f"cycleval.{modname}")
        for qualname in qualnames:
            owner, _, attr = qualname.rpartition(".")
            # methods are wrapped on the class that defines them
            where = vars(getattr(mod, owner, None) or object) if owner else vars(mod)
            if not callable(where.get(attr)):
                missing.append(f"{span}: cycleval.{modname}.{qualname}")
    assert not missing, missing
