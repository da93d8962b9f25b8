"""Every node set and pass pair of a numeric integral comes from
``cycleval.quadrature``: no other module of the package names the pass-pair
runner or a Gauss-Legendre rule, so none builds nodes or runs passes of its
own.  Everything is read with ``ast``; nothing is imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cycleval"

RULE_NAMES = {"two_pass", "gl_interval", "leggauss"}


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_rules_and_passes_live_in_quadrature_alone():
    stray = sorted(f"{path.name}: {name}"
                   for path in PACKAGE.glob("*.py") if path.stem != "quadrature"
                   for name in set(_names(ast.parse(path.read_text()))) & RULE_NAMES)
    assert not stray, stray


# numpy entries that may call a BLAS routine
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def test_quadrature_sums_and_maps_without_blas():
    # a threaded BLAS dot splits its sum by the thread count, so report
    # bytes followed OPENBLAS_NUM_THREADS: the node sums and the maps of
    # the rules are elementwise numpy, without np.dot or @
    tree = ast.parse((PACKAGE / "quadrature.py").read_text())
    matmuls = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.BinOp, ast.AugAssign))
               and isinstance(node.op, ast.MatMult)]
    assert not matmuls, matmuls
    assert not set(_names(tree)) & BLAS_NAMES
