"""Exact linear algebra: one Gauss-Jordan elimination and one determinant.

Rational matrices are scaled row by row to integers and divided out once
at the end.  :func:`inverse` and :func:`solve` reduce by fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968), with the first
nonzero entry of each column (left to right) as pivot, so the free
variables a solve sets to 0 are always the same ones.

:func:`det` is the first-row Laplace expansion.  It never divides, so it
works on any entries with ``+``, ``-`` and ``*``: integers, :class:`Poly`
and batched float arrays of shape ``(N,)``, one determinant per row.  For
k <= 3 it performs exactly the operations of the usual closed forms, in
the same order.  :func:`polarized_det` is the mixed discriminant built on
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .polynomials import Q, _as_fraction


def _int_rows(M) -> tuple[list, int]:
    """The rows of M (ints and Fractions), each times the least common
    denominator of its entries, and the product of those factors."""
    rows, scale = [], 1
    for row in M:
        lcm = math.lcm(*[v.denominator for v in row])
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
        scale *= lcm
    return rows, scale


def _eliminate(a: list, ncols: int) -> tuple[list, int]:
    """Reduce the integer rows ``a`` in place to p times their reduced row
    echelon form on their first ``ncols`` columns; returns the pivot
    columns and p, the last pivot.  Each step divides exactly by the
    previous pivot, and each row stays a nonzero multiple of the row that
    elimination over Fractions gives."""
    pivots = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv, pr = a[row][col], a[row]
        for r in range(len(a)):
            if r != row:
                f = a[r][col]
                a[r] = [(pv * v - f * w) // prev for v, w in zip(a[r], pr)]
        prev = pv
        pivots.append(col)
    return pivots, prev


def inverse(M) -> list:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(M)
    a, _ = _int_rows([[_as_fraction(v) for v in row] + [int(k == i) for k in range(n)]
                      for i, row in enumerate(M)])
    pivots, p = _eliminate(a, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [[Q(v, p) for v in row[n:]] for row in a]


def solve(A, b) -> tuple[Optional[list], int]:
    """Exact solution of ``A x = b`` and the rank of ``A``.

    The solution is None if the system is inconsistent; free variables
    are set to 0.
    """
    if not A:
        return [], 0
    ncols = len(A[0])
    a, _ = _int_rows([[_as_fraction(v) for v in (*row, bi)] for row, bi in zip(A, b)])
    pivots, p = _eliminate(a, ncols)
    if any(row[ncols] != 0 for row in a[len(pivots):]):
        return None, len(pivots)
    x = [Q(0)] * ncols
    for row, col in zip(a, pivots):
        x[col] = Q(row[ncols], p)
    return x, len(pivots)


def det(rows):
    """Determinant of a square matrix given as a list of row lists or tuples;
    1 for the empty matrix.  From k = 2 on, ints and Fractions give a
    Fraction."""
    if len(rows) > 1 and all(type(v) is Fraction or type(v) is int for row in rows for v in row):
        ints, scale = _int_rows(rows)
        return Q(_laplace(ints), scale)
    return _laplace(rows)


def _laplace(rows):
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = None
    for j in range(k):
        term = rows[0][j] * _laplace([row[:j] + row[j + 1:] for row in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def polarized_det(mats):
    """Mixed discriminant D(A_1..A_n) of n square n x n matrices,
    (1/n!) sum over nonempty S of (-1)^(n-|S|) det(sum_{i in S} A_i)."""
    n = len(mats)
    total = None
    for r in range(1, n + 1):
        for S in combinations(range(n), r):
            M = [list(row) for row in mats[S[0]]]
            for i in S[1:]:
                M = [[u + v for u, v in zip(mr, ar)] for mr, ar in zip(M, mats[i])]
            d = det(M)
            if (n - r) % 2:
                d = -d
            total = d if total is None else total + d
    return total / math.factorial(n)
