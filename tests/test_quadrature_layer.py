"""Every node set and pass pair of a numeric integral comes from
``cycleval.quadrature``: no other module of the package names the pass-pair
runner or a Gauss-Legendre rule, so none builds nodes or runs passes of its
own.  Everything is read with ``ast``; nothing is imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cycleval"

RULE_NAMES = {"two_pass", "gl_interval", "leggauss", "_leggauss", "_gauss_table",
              "_GAUSS_TABLE"}


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


def test_node_block_is_named_in_quadrature_alone():
    # one block loop, quadrature's, hands every integrand its nodes: no
    # other module cuts nodes into blocks of its own
    naming = sorted(path.stem for path in PACKAGE.glob("*.py")
                    if "_NODE_BLOCK" in set(_names(ast.parse(path.read_text()))))
    assert naming == ["quadrature"]


# the evaluator and suite modules, and the names of a rule's orders and
# grading: quadrature's domains carry their pass pairs, and the
# ridge-aligned route reads its grading off the smoothing
EVALUATORS = ("cycles", "lab", "polyhedral", "bridge", "numeric_suites")
RULE_ARGUMENTS = {"order", "orders", "refine", "layer"}


def test_no_evaluator_takes_or_passes_a_rule_argument():
    found = []
    for module in EVALUATORS:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                found += [f"{module}:{node.lineno} parameter {a.arg}"
                          for a in params if a.arg in RULE_ARGUMENTS]
            elif isinstance(node, ast.Call):
                found += [f"{module}:{node.lineno} keyword {k.arg}"
                          for k in node.keywords if k.arg in RULE_ARGUMENTS]
    assert not found, found


def _strings(tree: ast.AST):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_gauss_legendre_table_is_read_in_quadrature_alone():
    # the package's Gauss-Legendre table is named by quadrature alone, which
    # reads it, and is shipped as package data
    table = "gauss_legendre.json"
    assert (PACKAGE / table).is_file()
    readers = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if any(table in text for text in _strings(ast.parse(path.read_text()))))
    assert readers == ["quadrature"]
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert f'"{table}"' in pyproject


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
