"""Every module-level function and class in ``src/cycleval`` is used by the
program.  A definition passes when another place in the package names it
(re-exports in ``__init__.py`` do not count), when the per-layer tracer's
``FUNCTIONS`` table in ``perfbench/layertrace.py`` wraps it, or when it is on
the allowlist below.  Everything is read with ``ast``; nothing is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycleval"
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"

# reached only from tests, kept on purpose
ALLOWED = {
    ("forms", "interior_product"): "Cartan-formula reference for lie_derivative",
    ("grammar", "serialize_form"): "round-trip reference for parse_form",
    ("rumin", "homogeneity_degree"): "exact fiber-scaling criterion, not yet wired in",
    ("rumin", "dually_epi_conditions"): "exact dual-epi criterion, not yet wired in",
    ("rumin", "image_of_dbar_membership"): "exact kernel-image criterion, not yet wired in",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _names_read(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _traced() -> set:
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return {(modname, qualname)
                    for modname, qualnames in ast.literal_eval(node.value).values()
                    for qualname in qualnames if "." not in qualname}
    raise AssertionError(f"{LAYERTRACE} defines no FUNCTIONS table")


def _unreached() -> set:
    statements = [(modname, node, _names_read(node))
                  for modname, tree in _modules().items() for node in tree.body]
    return {(modname, node.name) for modname, node, _ in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(node.name in names for _, other, names in statements
                        if other is not node)}


def test_every_definition_is_reached():
    stray = _unreached() - _traced() - set(ALLOWED)
    assert not stray, "\n".join(sorted(f"cycleval.{m}.{name}" for m, name in stray))


def test_allowlist_is_current():
    # an allowlisted name that has gained a caller, or is gone, leaves the list
    stale = set(ALLOWED) - _unreached()
    assert not stale, sorted(f"cycleval.{m}.{name}" for m, name in stale)
