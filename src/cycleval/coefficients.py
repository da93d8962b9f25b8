"""Coefficient functions for differential forms on T*R^n.

Two kinds are supported, and both stay inside the class under addition,
multiplication, exact partial differentiation and linear substitutions in x:

* polynomials in (x, y) with exact rational coefficients, optionally tagged
  with an axis-aligned ``support box`` in x (the window used by exact
  integration);
* bump-modulated terms  ``p(x, y) * beta_M(x)^a / q_M(x)^m``  where
  ``q_M(x) = 1 - x^T M x`` for a rational positive definite matrix M and
  ``beta_M(x) = exp(1 - 1/q_M(x))`` inside the ellipsoid ``x^T M x < 1``,
  extended by zero outside.  Differentiating beta_M produces exactly the
  inverse powers of q_M that the ``denom_pow`` slot tracks, so derivatives of
  any order remain in the class.

A coefficient is a finite sum of such atoms.  Atoms with distinct bump
signatures are treated as linearly independent, which is sound for every
identity asserted by the workbench (claimed zeros are genuine zeros).

Interning and caches.  Every distinct bump matrix (entries compared as
fractions, so ``1`` and ``Fraction(2, 2)`` give the same matrix) is interned
once per process, under a lock, as a small integer id, and each factor is
one shared object per ``(id, beta_pow, denom_pow)``; a :class:`BumpFactor`
hashes and compares by that triple and never rehashes its matrix.  What a
matrix fixes is a ``functools.cache``d function of its id: ``q_M`` per
(id, number of ring variables), the x-gradient of ``q_M`` per (id, ring
size, variable), ``G^T M G`` per (id, id of G), the ellipsoid's bounding
box and the float copy of the matrix per id.  A substitution interns its
linear x-matrix G like a bump matrix, once per call, so that a transformed
factor is looked up by two ints.  Each factor keeps the factors with
``denom_pow`` raised by one and by two, which differentiation produces.  The
caches hold only such small objects and are never evicted.

Supports.  Over which box each atom is integrated is decided in one place,
:meth:`CoefficientFn.atom_supports`; :meth:`CoefficientFn.support_box`,
``Form.check_windows`` and the polyhedral, polyline and zero-section routes
read the atoms and their boxes from it.

Canonical by construction.  An atom is canonical when no ``q_M`` with
``denom_pow > 0`` in its signature divides its polynomial; a
:class:`CoefficientFn` holds only canonical, nonzero atoms with distinct
sorted signatures, so equality is a dictionary comparison.  The public
constructor canonicalises every atom it is given.  The algebra divides by
``q_M`` only where such a factor can appear: where contributions are
summed (atoms present on both sides of ``+``, and ``*``, ``diff`` and
``subs_linear``, which also bring in new polynomial factors).  Negation,
scaling by a nonzero constant and atoms of ``+`` present on one side only
keep canonical atoms canonical and are taken over without a division,
as are products with one monomial (a one-term ``Poly``, or a coefficient
whose one atom is a monomial without a bump factor): q_M(0) = 1, so q_M
shares no factor with a monomial m and divides p m only if it divides p.
A division is tried only when the x-degrees of the polynomial's terms span
at least 2: ``q_M r`` holds the lowest x-degree part of ``r`` and a part
two degrees above its highest one.

Numerics.  The numeric code imports numpy when it is called, so the exact
algebra runs without it.  :meth:`CoefficientFn.eval_array`
evaluates one coefficient: it keeps what it computes on its nodes in an
:class:`EvalCache` (the power columns ``x_v^p`` that
:meth:`Poly.eval_array` builds, ``q_M`` once per matrix id and
``beta_M^a / q_M^m`` once per ``(id, a, m)``), so atoms that share a
matrix or a monomial share the work within the call.  Many coefficients
on the same nodes, such as every form of a graph-pullback or conormal
integrand, are compiled into one :class:`CompiledBatch`: one exponent
table and float coefficients summed exactly per group of atoms that share
a weight and a bump signature, so that a node block costs one monomial
table, one product per coefficient and one weight column per group, and
each coefficient's row comes out the same whatever else is in the batch.
A batch compiled once serves a whole battery of functions, and one
:class:`EvalCache` then spans one node block of the whole battery: the
bump factors and the rows of bump groups in x alone are computed once per
block for every function whose graph lies over those nodes.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import cache, reduce
from operator import attrgetter, or_
from typing import TYPE_CHECKING, Optional, Sequence

from .exactla import inverse
from .polynomials import FIELD_BITS, Poly, Q, _MASK, _as_fraction, _reduced, field_sum

if TYPE_CHECKING:
    import numpy as np

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]
BoxT = tuple   # tuple[tuple[Fraction, Fraction], ...]


class SupportError(ValueError):
    """Raised when an operation needs a horizontal support that is missing."""


def _sqrt_upper(x: Fraction) -> Fraction:
    """Rational over-estimate of sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    s = math.sqrt(float(x))
    up = Fraction(s).limit_denominator(10**9) + Fraction(1, 10**6)
    while up * up < x:
        up += Fraction(1, 10**6)
    return up


# -- interned bump matrices -------------------------------------------------------

_INTERN_LOCK = threading.Lock()
_MATRICES: list = []                 # id -> matrix of Fractions
_MATRIX_IDS: dict = {}               # matrix -> id
_FACTORS: dict = {}                  # (id, beta_pow, denom_pow) -> BumpFactor


def _matrix_key(M) -> Matrix:
    return tuple(tuple(_as_fraction(v) for v in row) for row in M)


def _intern(M) -> int:
    """Id of the matrix ``M``; equal matrices share one id in every thread."""
    key = _matrix_key(M)
    mid = _MATRIX_IDS.get(key)
    if mid is None:
        with _INTERN_LOCK:
            mid = _MATRIX_IDS.get(key)
            if mid is None:
                mid = len(_MATRICES)
                _MATRICES.append(key)
                _MATRIX_IDS[key] = mid
    return mid


def _factor(mid: int, beta_pow: int, denom_pow: int) -> "BumpFactor":
    """The shared BumpFactor of an interned matrix with the given powers."""
    ident = (mid, beta_pow, denom_pow)
    f = _FACTORS.get(ident)
    if f is None:
        f = object.__new__(BumpFactor)
        f._init(mid, beta_pow, denom_pow)
        f = _FACTORS.setdefault(ident, f)
    return f


class BumpFactor:
    """``beta_M(x)^beta_pow / q_M(x)^denom_pow`` with q_M = 1 - x^T M x.

    Immutable; equal factors hash and compare equal by interned matrix id.
    """

    __slots__ = ("M", "beta_pow", "denom_pow", "mid", "order", "_ident", "_hash",
                 "_raised")

    def __init__(self, M: Matrix, beta_pow: int = 1, denom_pow: int = 0):
        self._init(_intern(M), beta_pow, denom_pow)

    def _init(self, mid: int, beta_pow: int, denom_pow: int) -> None:
        ident = (mid, beta_pow, denom_pow)
        init = object.__setattr__
        init(self, "M", _MATRICES[mid])
        init(self, "beta_pow", beta_pow)
        init(self, "denom_pow", denom_pow)
        init(self, "mid", mid)
        # sort key of factors within a signature: by matrix entries, so
        # atom order does not depend on the order of interning
        init(self, "order", (_MATRICES[mid], beta_pow, denom_pow))
        init(self, "_ident", ident)
        init(self, "_hash", hash(ident))
        init(self, "_raised", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, BumpFactor):
            return NotImplemented
        return self._ident == other._ident

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"BumpFactor(M={self.M!r}, beta_pow={self.beta_pow!r}, "
                f"denom_pow={self.denom_pow!r})")

    def __reduce__(self):
        # ids are per process: rebuild from the matrix
        return (BumpFactor, (self.M, self.beta_pow, self.denom_pow))

    def q_poly(self, nvars: int) -> Poly:
        return _q_poly(self.mid, nvars)

    def q_grad(self, var: int, nvars: int) -> Poly:
        """``dq_M / dx_var = -2 (M x)_var`` in a ring of ``nvars`` variables."""
        return _q_grad(self.mid, nvars, var)

    def bbox(self) -> BoxT:
        return _bbox(self.mid)

    def raised(self) -> tuple["BumpFactor", "BumpFactor"]:
        """This factor with ``denom_pow`` raised by one and by two."""
        up = self._raised
        if up is None:
            mid, bp, dp = self._ident
            up = (_factor(mid, bp, dp + 1), _factor(mid, bp, dp + 2))
            object.__setattr__(self, "_raised", up)
        return up

    def transform(self, G: Sequence[Sequence[Fraction]]) -> "BumpFactor":
        """Bump factor of ``x -> beta_M(G x)``; new matrix is G^T M G."""
        return _factor(_transformed_id(self.mid, _intern(G)), self.beta_pow, self.denom_pow)


@cache
def _q_poly(mid: int, nvars: int) -> Poly:
    """``q_M`` of the interned matrix ``M`` in a ring of ``nvars`` variables."""
    M = _MATRICES[mid]
    n = len(M)
    p = Poly.const(nvars, 1)
    for i in range(n):
        for j in range(n):
            if M[i][j]:
                e = [0] * nvars
                e[i] += 1
                e[j] += 1
                p = p - Poly(nvars, {tuple(e): M[i][j]})
    return p


@cache
def _q_grad(mid: int, nvars: int, var: int) -> Poly:
    terms = {}
    for j, m in enumerate(_MATRICES[mid][var]):
        if m:
            e = [0] * nvars
            e[j] = 1
            terms[tuple(e)] = -2 * m
    return Poly(nvars, terms)


@cache
def _bbox(mid: int) -> BoxT:
    """The bounding box of the ellipsoid x^T M x < 1, the support box of
    its atoms."""
    inv = inverse(_MATRICES[mid])
    half = [_sqrt_upper(inv[i][i]) for i in range(len(inv))]
    return tuple((-h, h) for h in half)


@cache
def _transformed_id(mid: int, gid: int) -> int:
    """Id of ``G^T M G`` for the interned matrices ``M`` and ``G``."""
    M, G = _MATRICES[mid], _MATRICES[gid]
    n = len(M)
    GT_M_G = tuple(
        tuple(
            sum(G[a][i] * M[a][b] * G[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return _intern(GT_M_G)


@cache
def _float_matrix(mid: int) -> np.ndarray:
    import numpy as np

    return np.array(_MATRICES[mid], dtype=float)


class EvalCache:
    """Float values on one node array: power columns, ``q_M`` per matrix id,
    bump factors per ``(id, beta_pow, denom_pow)`` and the x-only row sums
    of a :class:`CompiledBatch`'s bump groups, shared by the atoms of one
    :meth:`CoefficientFn.eval_array` call or by the
    :meth:`CompiledBatch.add_to` calls on one node block.  What ``add_to``
    keeps depends on the x coordinates alone, so the functions of a
    battery, whose graphs lie over the same x nodes, share one cache per
    block.  Valid only for the nodes it was filled on, and its row sums
    only for the batch that filled them; make a new one for new nodes."""

    __slots__ = ("powers", "_q", "_factors", "_rows")

    def __init__(self):
        self.powers: dict = {}      # (var, exponent) -> column, see Poly.eval_array
        self._q: dict = {}          # id -> (inside mask, q inside, beta inside)
        self._factors: dict = {}    # (id, beta_pow, denom_pow) -> column
        self._rows: dict = {}       # (group, row) -> x-only row sum, see add_to

    def _q_inside(self, mid: int, pts: np.ndarray):
        out = self._q.get(mid)
        if out is None:
            import numpy as np

            M = _float_matrix(mid)
            X = pts[:, :len(M)]
            MX = X @ M.T
            quad = MX[:, 0] * X[:, 0]
            for i in range(1, len(M)):
                quad += MX[:, i] * X[:, i]
            q = 1.0 - quad
            inside = q > 1e-300
            q_in = q[inside]
            with np.errstate(over="ignore", under="ignore"):
                beta_in = np.exp(1.0 - 1.0 / q_in)
            out = self._q[mid] = (inside, q_in, beta_in)
        return out

    def factor(self, f: BumpFactor, pts: np.ndarray) -> np.ndarray:
        """``beta_M^a / q_M^m`` at ``pts``, zero outside the ellipsoid."""
        val = self._factors.get(f._ident)
        if val is None:
            import numpy as np

            inside, q_in, beta_in = self._q_inside(f.mid, pts)
            val = np.zeros(pts.shape[0])
            val[inside] = beta_in ** f.beta_pow / q_in ** f.denom_pow
            self._factors[f._ident] = val
        return val


class CompiledBatch:
    """Rows of weighted coefficient sums, compiled once for evaluation on
    many node blocks.

    ``pieces`` are ``(row, key, coeff, sign)``: row ``row`` of the result
    is the sum of ``sign * coeff * w[key]`` over its pieces, where the
    weight column ``w[key]`` is supplied per node block; :attr:`keys` lists
    the keys that occur.  The coefficients must be free of parameters.  It
    only sums: the rule for a row is read off its form, not the batch.

    The atoms are grouped by ``(key, signature)``.  Each group's
    coefficient of each (exponent, row) is summed exactly and turned into
    a float once.  The exponents of all groups, closed under lowering the
    last nonzero exponent by one and ordered by total degree, are the rows
    of one monomial table: each is one earlier row times one coordinate.
    A node block costs that table and, per group, one weight column (its
    ``w[key]`` times its bump factors) that scales the group's polynomial
    rows before they are added to their result rows; a selection of rows
    costs the part of the table and the groups that it uses.  The table is
    scheduled: each of its rows is computed just before the first group
    that reads it or a row computed from it, and its slot is reused after
    the last, so a block holds only the live rows, never the whole table.
    The bump factors and the polynomial rows of bump groups in x alone
    depend on the x nodes only: they are kept in the block's
    :class:`EvalCache`, which the calls on one node block may share.

    A result row depends only on its own pieces, never on the other rows
    of the batch: groups are taken in a fixed order (by key, then
    signature), and each polynomial row is summed term by term in the
    table's order, with no reduction whose order could depend on the
    batch.  So a form evaluated in a batch, or in a selection of its rows,
    gets the bits it gets alone.
    """

    __slots__ = ("n", "keys", "_steps", "_groups", "_plans")

    def __init__(self, n: int, pieces):
        width = 2 * n
        sums: dict = {}  # (key, sig) -> {(exponent, row): Fraction}
        for row, key, coeff, sign in pieces:
            for sig, poly in coeff.atoms.items():
                acc = sums.setdefault((key, sig), {})
                for e, c in poly.terms.items():
                    e = e[:width] + (0,) * (width - len(e))
                    acc[e, row] = acc.get((e, row), 0) + sign * c
        groups = []
        exponents = set()
        for (key, sig), acc in sorted(sums.items(), key=_group_order):
            acc = {er: c for er, c in acc.items() if c}
            if acc:
                groups.append((key, sig, acc))
                exponents.update(e for e, _ in acc)
        todo = list(exponents)
        while todo:
            lowered = _lowered(todo.pop())
            if lowered is not None and lowered[0] not in exponents:
                exponents.add(lowered[0])
                todo.append(lowered[0])
        order = sorted(exponents, key=lambda e: (sum(e), e))
        column = {e: i for i, e in enumerate(order)}
        # order[0] is the zero exponent, the constant row of the table
        self._steps = [(column[p], v) for p, v in map(_lowered, order[1:])]
        self.n = n
        self.keys = list(dict.fromkeys(key for key, _, _ in groups))
        self._groups = []
        for key, sig, acc in groups:
            rows: dict = {}
            for (e, r), c in acc.items():
                rows.setdefault(r, []).append((column[e], float(c)))
            # a bump group's row in x alone: its sum is kept in the cache
            self._groups.append((key, sig, [
                (r, sorted(rows[r]),
                 bool(sig) and not any(any(order[k][n:]) for k, _ in rows[r]))
                for r in sorted(rows)]))
        self._plans: dict = {}  # rows selected (None for all) -> plan of add_to

    def _plan(self, rows) -> tuple:
        """``(width, groups)`` of :meth:`add_to` for the rows ``rows``, a
        tuple, or None for all: ``width`` table slots, and each group
        ``(index, key, signature, steps, [(row, slot in out, terms,
        x-only)])`` with its rows selected.  ``steps`` ``(slot, parent slot,
        variable)`` compute, in the full table's order, the table rows that
        the group is the first to need (the constant row has parent slot
        None); ``terms`` are ``(slot, coefficient)``.  Each table row is the
        same chain of products as in the full table, so it has the same
        bits, and so has each result row."""
        plan = self._plans.get(rows)
        if plan is not None:
            return plan
        slot = None if rows is None else {r: k for k, r in enumerate(rows)}
        kept = []
        for g, (key, sig, group_rows) in enumerate(self._groups):
            chosen = [(r, r if slot is None else slot[r], terms, x_only)
                      for r, terms, x_only in group_rows if slot is None or r in slot]
            if chosen:
                kept.append((g, key, sig, chosen))
        # the first group to need each table row, and the last to read it
        # or to compute a row from it
        first, last = {}, {}
        for t, (*_, group_rows) in enumerate(kept):
            for _, _, terms, _ in group_rows:
                for k, _ in terms:
                    last[k] = t
                    while k not in first:
                        first[k] = t
                        if not k:
                            break
                        k = self._steps[k - 1][0]
                        last[k] = t
        starts = [[] for _ in kept]
        ends = [[] for _ in kept]
        for k in sorted(first):
            starts[first[k]].append(k)
            ends[last[k]].append(k)
        width, free, where, groups = 0, [], {}, []
        for t, (g, key, sig, group_rows) in enumerate(kept):
            steps = []
            for k in starts[t]:
                where[k] = free.pop() if free else width
                width = max(width, where[k] + 1)
                parent, var = self._steps[k - 1] if k else (None, None)
                steps.append((where[k], None if parent is None else where[parent], var))
            groups.append((g, key, sig, steps,
                           [(r, s, [(where[k], c) for k, c in terms], x_only)
                            for r, s, terms, x_only in group_rows]))
            for k in ends[t]:
                free.append(where[k])
        plan = self._plans[rows] = (width, groups)
        return plan

    def add_to(self, out: np.ndarray, Z: np.ndarray, weights: dict,
               cache: Optional[EvalCache] = None, rows=None) -> None:
        """Add the rows at a node block to ``out`` of shape (rows, B).

        ``Z`` holds the coordinates (x, y) of the B nodes as a C-contiguous
        (2n, B) array; ``weights`` maps each of :attr:`keys` to its weight
        column at the nodes (or a scalar).  ``rows`` selects rows: ``out[k]``
        receives row ``rows[k]``, and the other rows cost nothing; by default
        ``out[r]`` receives row r.  ``cache``, by default a new one, keeps
        what depends on the x coordinates alone: the bump factors and the
        sums of the rows of bump groups that are polynomials in x.  The
        calls of this batch on nodes with the same x coordinates, such as
        one node block of the graphs of a battery, may share it, whatever
        rows they select.
        """
        width, groups = self._plan(None if rows is None else tuple(rows))
        if not groups:
            return
        import numpy as np

        table = np.empty((width, Z.shape[1]))
        if cache is None:
            cache = EvalCache()
        X = Z[:self.n].T
        term = np.empty(Z.shape[1])
        for g, key, sig, steps, group_rows in groups:
            for k, parent, var in steps:
                if parent is None:
                    table[k] = 1.0
                else:
                    np.multiply(table[parent], Z[var], out=table[k])
            w = weights[key]
            for f in sig:
                w = w * cache.factor(f, X)
            for row, slot, terms, x_only in group_rows:
                if x_only:
                    vals = cache._rows.get((g, row))
                    if vals is None:
                        vals = cache._rows[g, row] = _row_sum(np, table, terms, term)
                    vals = vals * w
                else:
                    vals = _row_sum(np, table, terms, term)
                    vals *= w
                out[slot] += vals


def _row_sum(np, table: np.ndarray, terms: list, term: np.ndarray) -> np.ndarray:
    """The sum of ``c * table[k]`` over a row's terms ``(k, c)``, in order;
    ``term`` is scratch space of one table row, ``np`` the numpy module of
    the caller, which imports it once per node block, not once per row."""
    (k, c), *rest = terms
    vals = table[k] * c
    for k, c in rest:
        vals += np.multiply(table[k], c, out=term)
    return vals


def _group_order(item):
    (key, sig), _ = item
    return key, [f.order for f in sig]


def _lowered(e: tuple):
    """``(e with its last nonzero entry lowered by one, that entry's index)``,
    or None for the zero exponent."""
    for v in range(len(e) - 1, -1, -1):
        if e[v]:
            return e[:v] + (e[v] - 1,) + e[v + 1:], v
    return None


def ball_bump(n: int, R) -> BumpFactor:
    """The standard bump supported in |x| < R, i.e. M = I / R^2."""
    R = _as_fraction(R)
    M = tuple(tuple(Q(1, 1) / (R * R) if i == j else Q(0) for j in range(n)) for i in range(n))
    return BumpFactor(M)


Signature = tuple  # tuple[BumpFactor, ...] sorted by BumpFactor.order

_ORDER = attrgetter("order")


def _merge_bumps(a: Signature, b: Signature) -> Signature:
    # a lone factor is merged and sorted already
    if not b and len(a) <= 1:
        return a
    if not a and len(b) <= 1:
        return b
    by_m: dict[int, list[int]] = {}
    for f in a + b:
        pows = by_m.setdefault(f.mid, [0, 0])
        pows[0] += f.beta_pow
        pows[1] += f.denom_pow
    return tuple(sorted(
        (_factor(mid, bp, dp) for mid, (bp, dp) in by_m.items()), key=_ORDER))


class CoefficientFn:
    """Finite sum of polynomial / bump-modulated atoms on T*R^n.

    ``n`` is the base dimension; polynomial variables are
    (x_1..x_n, y_1..y_n, params...).  ``declared_box`` marks the horizontal
    window of a purely polynomial coefficient (bump atoms carry their own
    support).
    """

    __slots__ = ("n", "atoms", "declared_box")

    def __init__(self, n: int, atoms=None, declared_box: Optional[BoxT] = None):
        self.n = n
        self.atoms = _canonical_atoms(
            atoms.items() if isinstance(atoms, dict) else atoms or ())
        self.declared_box = _norm_box(declared_box)

    @classmethod
    def _trusted(cls, n: int, atoms: dict, declared_box: Optional[BoxT]) -> "CoefficientFn":
        """Wrap atoms that are already canonical, nonzero and keyed by sorted
        signatures, with an already normalised box."""
        c = object.__new__(cls)
        c.n = n
        c.atoms = atoms
        c.declared_box = declared_box
        return c

    @classmethod
    def _canonicalised(cls, n: int, atoms: dict, declared_box: Optional[BoxT]) -> "CoefficientFn":
        """Canonicalise every atom; the box is already normalised."""
        return cls._trusted(n, _canonical_atoms(atoms.items()), declared_box)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CoefficientFn":
        return cls(n)

    @classmethod
    def from_poly(cls, n: int, poly: Poly, box: Optional[BoxT] = None) -> "CoefficientFn":
        return cls(n, {(): poly}, declared_box=box)

    @classmethod
    def constant(cls, n: int, c) -> "CoefficientFn":
        return cls.from_poly(n, Poly.const(2 * n, c))

    @classmethod
    def bump(cls, n: int, factor: BumpFactor, poly: Optional[Poly] = None) -> "CoefficientFn":
        if poly is None:
            poly = Poly.const(2 * n, 1)
        return cls(n, {(factor,): poly})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.atoms

    def has_bump(self) -> bool:
        return any(sig for sig in self.atoms)

    def nvars(self) -> int:
        return max((p.nvars for p in self.atoms.values()), default=2 * self.n)

    def has_params(self) -> bool:
        shift = FIELD_BITS * 2 * self.n
        return any(k >> shift for p in self.atoms.values() for k in p.num)

    def depends_on_y(self) -> bool:
        y = _y_mask(self.n)
        return any(k & y for p in self.atoms.values() for k in p.num)

    def diff_variables(self) -> list[int]:
        """The variables among (x, y), ascending, whose partial derivative
        can be nonzero: those in some atom's monomials, and every x when an
        atom has a bump factor.  Every other partial derivative is zero."""
        used = 0
        bump = False
        for sig, poly in self.atoms.items():
            used = reduce(or_, poly.num, used)
            bump = bump or bool(sig)
        return [v for v in range(2 * self.n)
                if (bump and v < self.n) or (used >> (FIELD_BITS * v)) & _MASK]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientFn):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.atoms == other.atoms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.atoms:
            return "CoefficientFn(0)"
        bits = []
        for sig, poly in sorted(self.atoms.items(), key=lambda kv: repr(kv[0])):
            tag = "".join(f"[beta^{f.beta_pow}/q^{f.denom_pow}]" for f in sig)
            bits.append(f"({poly}){tag}")
        return "CoefficientFn(" + " + ".join(bits) + ")"

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "CoefficientFn") -> "CoefficientFn":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        box = self.declared_box if other.declared_box is None else other.declared_box
        if self.declared_box is not None and self.declared_box != box:
            # one window cannot hold a polynomial on each of two windows
            raise ValueError(f"cannot add coefficients on the windows "
                             f"{_box_text(self.declared_box)} and {_box_text(box)}")
        merged: dict[Signature, Poly] = dict(self.atoms)
        summed = set()
        for sig, poly in other.atoms.items():
            old = merged.get(sig)
            if old is None:
                merged[sig] = poly
            else:
                merged[sig] = old + poly
                summed.add(sig)
        if summed:
            # only a sum of two atoms can turn into a multiple of q_M
            merged = _canonical_atoms(merged.items(), summed)
        return CoefficientFn._trusted(self.n, merged, box)

    def __neg__(self) -> "CoefficientFn":
        return CoefficientFn._trusted(self.n, {s: -p for s, p in self.atoms.items()},
                                      self.declared_box)

    def __sub__(self, other: "CoefficientFn") -> "CoefficientFn":
        return self + (-other)

    def scale(self, c) -> "CoefficientFn":
        if type(c) is not int:
            c = _as_fraction(c)
        if c == 0:
            return CoefficientFn.zero(self.n)
        return CoefficientFn._trusted(self.n, {s: p.scale(c) for s, p in self.atoms.items()},
                                      self.declared_box)

    def __mul__(self, other) -> "CoefficientFn":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            # a monomial keeps atoms canonical (see the module docstring)
            wrap = CoefficientFn._trusted if len(other.num) == 1 else CoefficientFn._canonicalised
            return wrap(self.n, {s: p * other for s, p in self.atoms.items()}, self.declared_box)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        box = _box_intersection(self.declared_box, other.declared_box)
        for a, b in ((self, other), (other, self)):
            if list(b.atoms) == [()] and len(b.atoms[()].num) == 1:
                return CoefficientFn._trusted(self.n, (a * b.atoms[()]).atoms, box)
        out: dict[Signature, Poly] = {}
        for s1, p1 in self.atoms.items():
            for s2, p2 in other.atoms.items():
                sig = _merge_bumps(s1, s2)
                poly = p1 * p2
                if sig in out:
                    out[sig] = out[sig] + poly
                else:
                    out[sig] = poly
        return CoefficientFn._canonicalised(self.n, out, box)

    __rmul__ = __mul__

    # -- calculus ---------------------------------------------------------------

    def diff(self, var: int) -> "CoefficientFn":
        """Exact partial derivative; ``var`` indexes (x..., y..., params...).

        For a canonical atom ``p beta^a / q^m`` with ``m > 0`` the new atoms
        ``p dq beta^a / q^(m+1)`` and ``/ q^(m+2)`` are canonical again:
        ``dq`` is a linear form in x, prime to every q_M (q_M(0) = 1), so a
        q_M dividing ``p dq`` would divide ``p``.  They are not divided by
        q_M unless another contribution lands on their signature.
        """
        # (signature, polynomial, canonical) per contribution, in order
        parts = []
        for sig, poly in self.atoms.items():
            parts.append((sig, poly.diff(var), False))
            if var >= self.n or not sig:
                continue
            # bump factors depend on x only
            for idx, f in enumerate(sig):
                dq = f.q_grad(var, poly.nvars)
                if not dq.num:
                    continue
                # d(beta^a)/dx = a beta^a q^{-2} dq ; d(q^{-m})/dx = -m q^{-m-1} dq
                pdq = poly * dq
                head, tail = sig[:idx], sig[idx + 1:]
                up1, up2 = f.raised()
                parts.append((head + (up2,) + tail, pdq.scale(f.beta_pow), f.denom_pow > 0))
                if f.denom_pow:
                    parts.append((head + (up1,) + tail, pdq.scale(-f.denom_pow), True))
        out: dict[Signature, Poly] = {}
        unreduced = set()  # signatures that may hold a multiple of q_M
        for sig, part, canonical in parts:
            if not part.num:
                continue
            old = out.get(sig)
            if old is None:
                out[sig] = part
                if not canonical:
                    unreduced.add(sig)
            else:
                # a sum, also where a plain derivative meets a bump term
                out[sig] = old + part
                unreduced.add(sig)
        return CoefficientFn._trusted(self.n, _canonical_atoms(out.items(), unreduced),
                                      self.declared_box)

    def subs_linear(self, F) -> "CoefficientFn":
        """Compose with a ``forms.PolynomialMap`` F; bump atoms need its
        x-part linear in x.

        ``F.components[v]`` is the expression substituted for variable
        ``v``; trailing parameter slots map to themselves.  Their powers
        are kept in ``F.powers`` across calls.  A bump factor is
        transformed by the interned matrix ``F.x_matrix_id()``, read only
        when an atom has one.
        """
        n = self.n
        repl = F.components
        m = max(self.nvars(), len(repl))
        full_repl = list(repl) + [Poly.variable(m, v) for v in range(len(repl), m)]
        full_repl = [p.extend(max(m, max(q.nvars for q in full_repl))) for p in full_repl]

        gid = F.x_matrix_id() if any(sig for sig in self.atoms) else None

        out: dict[Signature, Poly] = {}
        for sig, poly in self.atoms.items():
            new_sig = tuple(sorted(
                (_factor(_transformed_id(f.mid, gid), f.beta_pow, f.denom_pow) for f in sig),
                key=_ORDER)) if sig else sig
            newp = poly.extend(m).subs(full_repl[:m], F.powers)
            if new_sig in out:
                out[new_sig] = out[new_sig] + newp
            else:
                out[new_sig] = newp
        new_box = (_box_subs(self.declared_box, full_repl[:n], n)
                   if self.declared_box is not None else None)
        return CoefficientFn._canonicalised(self.n, out, new_box)

    # -- numerics -----------------------------------------------------------------

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (N, >= 2n); parameters must be absent."""
        if self.has_params():
            raise ValueError("cannot evaluate a coefficient with free parameters")
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        width = self.nvars()
        if pts.shape[1] < width:
            pts = _pad(pts, width)
        cache = EvalCache()
        out = np.zeros(pts.shape[0])
        for sig, poly in self.atoms.items():
            vals = poly.eval_array(pts, cache.powers)
            for f in sig:
                vals = vals * cache.factor(f, pts)
            out += vals
        return out

    def eval_x_array(self, xpts: np.ndarray) -> np.ndarray:
        """Evaluate at (x, y=0); requires no y-dependence is intended."""
        import numpy as np

        xpts = np.asarray(xpts, dtype=float)
        pts = np.zeros((xpts.shape[0], self.nvars()))
        pts[:, :self.n] = xpts
        return self.eval_array(pts)

    def eval_point(self, pt: Sequence[float]) -> float:
        import numpy as np

        return float(self.eval_array(np.asarray(pt, dtype=float)[None, :])[0])

    # -- restriction and support ----------------------------------------------------

    def restrict_y_zero(self) -> "CoefficientFn":
        out: dict[Signature, Poly] = {}
        y = _y_mask(self.n)
        for sig, poly in self.atoms.items():
            kept = {k: c for k, c in poly.num.items() if not k & y}
            if kept:
                out[sig] = _reduced(poly.nvars, kept, poly.den)
        return CoefficientFn._canonicalised(self.n, out, self.declared_box)

    def atom_supports(self) -> list:
        """Each atom, in order, with the box it is integrated over: pairs
        ``(atom, box)`` of the atom alone, as a coefficient on this
        coefficient's window, and the bump boxes of its signature
        intersected in order and then with the window.  A polynomial atom's
        box is the window, None without one.  Every evaluator and check
        reads an atom's support here."""
        window = self.declared_box
        return [(CoefficientFn._trusted(self.n, {sig: poly}, window),
                 reduce(_box_intersection, [f.bbox() for f in sig] + [window]))
                for sig, poly in self.atoms.items()]

    def support_box(self) -> Optional[BoxT]:
        """Axis-aligned over-cover of the horizontal support, if known: the
        union of the :meth:`atom_supports` boxes, None if one is None."""
        if self.is_zero():
            return tuple((Q(0), Q(0)) for _ in range(self.n))
        boxes = [box for _, box in self.atom_supports()]
        return None if None in boxes else reduce(_box_union, boxes)

    def bump_matrix(self):
        """The matrix M, as nested tuples, when no window is declared and
        every atom is one bump factor of M: the coefficient is then a
        function of x^T M x times a polynomial.  None otherwise."""
        if self.declared_box is None and self.atoms:
            mids = {sig[0].mid if len(sig) == 1 else None for sig in self.atoms}
            if len(mids) == 1 and None not in mids:
                return _MATRICES[mids.pop()]
        return None

    def support_domain(self):
        """The support :class:`~cycleval.quadrature.Ellipse` of the
        :meth:`bump_matrix` when n = 2, otherwise :meth:`support_box`: the
        plain ellipse rule is 2-D, and the 3-D one takes an integrand's
        degree (``cycles.graph_rule``).  It reads only ``n``,
        ``bump_matrix`` and ``support_box``, and is a :class:`~cycleval.forms.Form`
        method as well."""
        M = self.bump_matrix() if self.n == 2 else None
        if M is None:
            return self.support_box()
        from .quadrature import Ellipse  # numeric code alone needs the rules

        return Ellipse(M)

    def integral_vanishes_by_parity(self) -> bool:
        """True when the x-integral is exactly zero by odd symmetry.

        Bump factors are even in x, so it suffices that every polynomial
        monomial carries an odd power of some x variable (declared boxes must
        be symmetric).
        """
        n = self.n
        if self.declared_box is not None:
            if any(lo != -hi for lo, hi in self.declared_box):
                return False
        for poly in self.atoms.values():
            for e in poly.terms:
                if not any(e[i] % 2 for i in range(n)):
                    return False
        return True


def _y_mask(n: int) -> int:
    """The bits of the y-exponents in a monomial key of T*R^n."""
    return ((1 << (FIELD_BITS * n)) - 1) << (FIELD_BITS * n)


def _pad(pts: np.ndarray, nvars: int) -> np.ndarray:
    import numpy as np

    out = np.zeros((pts.shape[0], nvars))
    out[:, :pts.shape[1]] = pts
    return out


def _canonical_atom(sig: Signature, poly: Poly) -> tuple[Signature, Poly]:
    """Divide out explicit q_M factors so equal functions share one atom.

    Factors of one matrix are merged first, so a signature holds each
    matrix once, sorted by ``BumpFactor.order``.
    """
    return _reduce_atom(_merge_bumps(tuple(sig), ()), poly)


def _x_degree_span(poly: Poly, n: int) -> int:
    """Spread of the total degrees of ``poly``'s terms in its first n variables."""
    degs = [field_sum(k, n) for k in poly.num]
    return max(degs) - min(degs)


def _reduce_atom(sig: Signature, poly: Poly) -> tuple[Signature, Poly]:
    """``_canonical_atom`` for a signature that is already sorted."""
    changed = True
    while changed and poly.num:
        changed = False
        for idx, f in enumerate(sig):
            if f.denom_pow <= 0:
                continue
            q = f.q_poly(poly.nvars)
            # a multiple q_M r has the lowest x-degree part of r and, from
            # x^T M x (when it is not zero), a part two degrees above r's top
            if len(q.num) > 1 and _x_degree_span(poly, len(f.M)) < 2:
                continue
            quo = poly.divide_exact(q)
            if quo is not None:
                poly = quo
                lst = list(sig)
                lst[idx] = _factor(f.mid, f.beta_pow, f.denom_pow - 1)
                sig = tuple(lst)
                changed = True
                break
    return sig, poly


def _canonical_atoms(items, unreduced=None) -> dict:
    """Canonical atoms of the ``(sig, poly)`` pairs in ``items``.

    With ``unreduced`` given, only atoms whose signature is in it are divided
    by q_M; the caller guarantees that the others are canonical already.
    """
    norm: dict[Signature, Poly] = {}
    for sig, poly in items:
        # a plain polynomial (empty signature) is canonical
        if sig and (unreduced is None or sig in unreduced):
            sig, poly = _canonical_atom(sig, poly)
        _accumulate(norm, sig, poly)
    return norm


def _accumulate(norm: dict, sig: Signature, poly: Poly) -> None:
    """Add the canonical atom ``(sig, poly)`` to ``norm`` in place.

    A sum with an atom already present is canonicalised again; if it loses
    a factor of q_M it moves to its new signature.  New signatures are
    appended, so atom order follows first appearance.
    """
    while poly.num:
        old = norm.get(sig)
        if old is None:
            norm[sig] = poly
            return
        total = old + poly
        new_sig, new_poly = _reduce_atom(sig, total)
        if new_sig == sig:
            if new_poly.num:
                norm[sig] = new_poly
            else:
                del norm[sig]
            return
        del norm[sig]
        sig, poly = new_sig, new_poly


def linear_x_matrix_id(repl: Sequence[Poly], n: int) -> int:
    """Interned id of G with repl[i] = sum_j G[i][j] x_j for i < n, else
    raise ValueError."""
    G = []
    for p in repl[:n]:
        row = [Q(0)] * n
        for k, c in p.num.items():
            # a linear monomial is one bit, the lowest of its field
            j, rest = divmod(k.bit_length() - 1, FIELD_BITS)
            if k & (k - 1) or rest:
                raise ValueError("bump coefficients require a linear substitution in x")
            if j >= n:
                raise ValueError("bump coefficients cannot mix x with y or parameters")
            row[j] = Fraction(c, p.den)
        G.append(row)
    return _intern(G)


def _norm_box(box) -> Optional[BoxT]:
    if box is None:
        return None
    return tuple((_as_fraction(lo), _as_fraction(hi)) for lo, hi in box)


def _box_text(box: Optional[BoxT]) -> str:
    return "none" if box is None else " x ".join(f"[{lo}, {hi}]" for lo, hi in box)


def _box_union(a: Optional[BoxT], b: Optional[BoxT]) -> Optional[BoxT]:
    if a is None:
        return b
    if b is None:
        return a
    return tuple((min(al, bl), max(ah, bh)) for (al, ah), (bl, bh) in zip(a, b))


def _box_intersection(a: Optional[BoxT], b: Optional[BoxT]) -> Optional[BoxT]:
    if a is None:
        return b
    if b is None:
        return a
    out = []
    for (al, ah), (bl, bh) in zip(a, b):
        lo, hi = max(al, bl), min(ah, bh)
        if lo > hi:
            lo = hi = Q(0)
        out.append((lo, hi))
    return tuple(out)


def _box_subs(box: BoxT, x_repl: Sequence[Poly], n: int) -> Optional[BoxT]:
    # declared boxes survive only the identity substitution on x
    for i, p in enumerate(x_repl):
        if p != Poly.variable(p.nvars, i):
            return None
    return box
