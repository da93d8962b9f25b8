"""Exact exterior algebra on T*R^n with coordinates (x_1..x_n, y_1..y_n).

Monomials are stored as ``coeff * dx_I ^ dy_J`` with both index sets
ascending and all dx factors before all dy factors; every operation
normalises to this order with the Koszul sign, so equality of forms is a
dictionary comparison of exact coefficients.

Generator codes: ``dx_i -> i - 1`` and ``dy_j -> n + j - 1`` (0-based
internally, 1-based in the public (I, J) helpers).

The Lie derivative along a polynomial field is computed term by term,
L_X(c dz_K) = X(c) dz_K + c sum_p dz_k1 ^ .. ^ d(X_kp) ^ .. ^ dz_kq: one
partial derivative of each coefficient per nonzero component of X, and no
exterior derivative of the form, where Cartan's d i_X + i_X d takes two.
Both d and L_X differentiate a coefficient only in the variables it can
depend on (:meth:`CoefficientFn.diff_variables`).

Caches.  The Koszul sign of a pair of keys is memoised: for n <= 4 there
are at most (2^8)^2 pairs.  A :class:`PolynomialMap` is immutable and keeps
the expansion of dF_k1 ^ .. ^ dF_kp for each key it has pulled back, so a
pullback costs one substitution and one product per term and minor.
``wedge``, ``exterior_derivative``, ``pullback``, ``lie_derivative`` and
``lefschetz_L_inverse`` build sorted keys of the right degree themselves;
they wrap their results with ``Form._trusted``, which only drops zero
coefficients, while ``Form(n, degree, terms)`` checks every key it is given.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Optional, Sequence

from .coefficients import (
    BoxT,
    CoefficientFn,
    SupportError,
    _box_text,
    _box_union,
    ball_bump,
    linear_x_matrix_id,
)
from .exactla import inverse
from .polynomials import Poly, Q, _as_fraction

if TYPE_CHECKING:
    from .quadrature import EvalResult

MAX_DIMENSION = 4  # basis matrices for the Lefschetz inverse stay tiny

NO_SUPPORT = "form needs horizontally compact (or windowed) support"
FREE_PARAMETERS = "cannot evaluate a form with free parameters"

Key = tuple  # tuple[int, ...], strictly increasing generator codes


class DimensionMismatch(ValueError):
    pass


class DegreeError(ValueError):
    pass


@cache
def merge_sign(a: Key, b: Key) -> tuple[int, Optional[Key]]:
    """Koszul sign for e_a ^ e_b -> e_{sorted(a+b)}; 0 when indices repeat."""
    if set(a) & set(b):
        return 0, None
    inversions = 0
    for x in b:
        inversions += sum(1 for y in a if y > x)
    merged = tuple(sorted(a + b))
    return (-1) ** (inversions % 2), merged


class Form:
    """Homogeneous-degree differential form with exact coefficients."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms=None):
        if not (1 <= n <= MAX_DIMENSION):
            raise DimensionMismatch(f"dimension must be in 1..{MAX_DIMENSION}")
        if not (0 <= degree <= 2 * n):
            raise DegreeError("degree out of range")
        self.n = n
        self.degree = degree
        clean: dict[Key, CoefficientFn] = {}
        if terms:
            for key, c in (terms.items() if isinstance(terms, dict) else terms):
                key = tuple(key)
                if len(key) != degree or list(key) != sorted(set(key)):
                    raise ValueError(f"bad monomial key {key} for degree {degree}")
                if any(not 0 <= v < 2 * n for v in key):
                    raise ValueError("generator code out of range")
                if c.is_zero():
                    continue
                clean[key] = clean[key] + c if key in clean else c
                if clean[key].is_zero():
                    del clean[key]
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, degree: int, terms: dict) -> "Form":
        """Wrap ``terms`` built by the algebra (sorted keys of ``degree``
        valid generator codes, dimension and degree in range), dropping its
        zero coefficients."""
        f = object.__new__(cls)
        f.n = n
        f.degree = degree
        f.terms = {k: c for k, c in terms.items() if c.atoms}
        return f

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, degree: int = 0) -> "Form":
        return cls(n, degree)

    @classmethod
    def from_coefficient(cls, n: int, c: CoefficientFn) -> "Form":
        return cls(n, 0, {(): c})

    @classmethod
    def constant(cls, n: int, c) -> "Form":
        return cls.from_coefficient(n, CoefficientFn.constant(n, c))

    @classmethod
    def monomial(cls, n: int, I: Sequence[int], J: Sequence[int],
                 coeff: CoefficientFn | Poly | int | Fraction = 1,
                 box: Optional[BoxT] = None) -> "Form":
        """Build ``coeff * dx_I ^ dy_J`` from 1-based index sets."""
        key = key_from_ij(n, I, J)
        if isinstance(coeff, CoefficientFn):
            c = coeff
        elif isinstance(coeff, Poly):
            c = CoefficientFn.from_poly(n, coeff, box=box)
        else:
            c = CoefficientFn.from_poly(n, Poly.const(2 * n, coeff), box=box)
        return cls(n, len(key), {key: c})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.terms:
            return f"Form(n={self.n}, 0)"
        bits = []
        for key in sorted(self.terms):
            gens = "^".join(_gen_name(v, self.n) for v in key) or "1"
            bits.append(f"({self.terms[key]!r}) {gens}")
        return f"Form(n={self.n}, " + " + ".join(bits) + ")"

    def coefficient(self, I: Sequence[int], J: Sequence[int]) -> CoefficientFn:
        key = key_from_ij(self.n, I, J)
        return self.terms.get(key, CoefficientFn.zero(self.n))

    def depends_on_y(self) -> bool:
        return any(c.depends_on_y() for c in self.terms.values())

    def support_box(self) -> Optional[BoxT]:
        box = None
        for c in self.terms.values():
            b = c.support_box()
            if b is None:
                return None
            box = _box_union(box, b)
        return box or tuple((Q(0), Q(0)) for _ in range(self.n))

    def check_evaluable(self) -> BoxT:
        """The support box of the form, which every evaluator asks for:
        D(f)[tau] needs a horizontally compact support and no free
        parameters, so an unknown support (a polynomial without a window) or
        a parameter raises SupportError."""
        box = self.support_box()
        if box is None:
            raise SupportError(NO_SUPPORT)
        if any(c.has_params() for c in self.terms.values()):
            raise SupportError(FREE_PARAMETERS)
        return box

    def check_windows(self) -> None:
        """Raise SupportError when the coefficients with a polynomial atom
        carry different windows: the graph evaluators integrate every term
        over the one support box, which is right for a polynomial only on
        its own window (:meth:`check_evaluable` refuses one without)."""
        first = None
        for c in self.terms.values():
            if () not in c.atoms or c.declared_box is None:
                continue
            if first is None:
                first = c.declared_box
            elif c.declared_box != first:
                raise SupportError(
                    f"the polynomial coefficients of one form have the windows "
                    f"{_box_text(first)} and {_box_text(c.declared_box)}; the graph "
                    "evaluators integrate every term over one box")

    def bump_matrix(self):
        """The one :meth:`CoefficientFn.bump_matrix` of every coefficient,
        if they share one, else None."""
        matrices = {c.bump_matrix() for c in self.terms.values()}
        return matrices.pop() if len(matrices) == 1 else None

    def support_domain(self):
        """The support ellipse of the :meth:`bump_matrix` when n = 2 (see
        :meth:`CoefficientFn.support_domain`), else :meth:`support_box`."""
        M = self.bump_matrix() if self.n == 2 else None
        if M is None:
            return self.support_box()
        from .quadrature import Ellipse  # numeric code alone needs the rules

        return Ellipse(M)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return Form(self.n, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.n, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        return Form(self.n, self.degree, {k: v.scale(c) for k, v in self.terms.items()})

    def map_coefficients(self, fn) -> "Form":
        return Form(self.n, self.degree, {k: fn(c) for k, c in self.terms.items()})

    def _check(self, other: "Form"):
        if self.n != other.n:
            raise DimensionMismatch("forms live on different cotangent spaces")


def key_from_ij(n: int, I: Sequence[int], J: Sequence[int]) -> Key:
    I = sorted(I)
    J = sorted(J)
    if I and not (1 <= I[0] and I[-1] <= n) or J and not (1 <= J[0] and J[-1] <= n):
        raise ValueError("indices are 1-based and bounded by n")
    return tuple(i - 1 for i in I) + tuple(n + j - 1 for j in J)


def _gen_name(v: int, n: int) -> str:
    return f"dx{v + 1}" if v < n else f"dy{v - n + 1}"


# -- core operations ----------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bilinear, associative, Koszul signs on sorted keys."""
    if a.n != b.n:
        raise DimensionMismatch("wedge of forms on different spaces")
    deg = a.degree + b.degree
    if deg > 2 * a.n:
        return Form.zero(a.n, 2 * a.n)
    out: dict[Key, CoefficientFn] = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            s, key = merge_sign(k1, k2)
            if s == 0:
                continue
            c = (c1 * c2).scale(s)
            out[key] = out[key] + c if key in out else c
    return Form._trusted(a.n, deg, out)


def exterior_derivative(a: Form) -> Form:
    """d, acting on coefficients by exact partial differentiation."""
    n = a.n
    if a.degree >= 2 * n:
        return Form.zero(n, 2 * n)
    out: dict[Key, CoefficientFn] = {}
    for key, c in a.terms.items():
        for v in c.diff_variables():
            s, newkey = merge_sign((v,), key)
            if s == 0:
                continue
            dc = c.diff(v)
            if dc.is_zero():
                continue
            dc = dc.scale(s)
            out[newkey] = out[newkey] + dc if newkey in out else dc
    return Form._trusted(n, a.degree + 1, out)


def interior_product(X: Sequence[Poly], a: Form) -> Form:
    """Contraction with a vector field given by 2n polynomial components."""
    n = a.n
    if a.degree < 1:
        raise DegreeError("interior product needs degree >= 1")
    if len(X) != 2 * n:
        raise DimensionMismatch("vector field needs 2n components")
    out: dict[Key, CoefficientFn] = {}
    for key, c in a.terms.items():
        for pos, v in enumerate(key):
            comp = X[v]
            if comp.is_zero():
                continue
            part = (c * comp).scale((-1) ** pos)
            newkey = key[:pos] + key[pos + 1:]
            out[newkey] = out[newkey] + part if newkey in out else part
    return Form(n, a.degree - 1, out)


def lie_derivative(X: Sequence[Poly], a: Form) -> Form:
    """L_X a for a polynomial field X, term by term (see the module
    docstring), with X(c) = sum_v X_v dc/dz_v and d(X_k) = sum_v dX_k/dz_v
    dz_v; equal to Cartan's d i_X a + i_X d a."""
    n = a.n
    if len(X) != 2 * n:
        raise DimensionMismatch("vector field needs 2n components")
    dX = [[comp.diff(v) for v in range(2 * n)] for comp in X]
    out: dict[Key, CoefficientFn] = {}

    def add(key, c):
        out[key] = out[key] + c if key in out else c

    for key, c in a.terms.items():
        for v in c.diff_variables():
            if not X[v].is_zero():
                dc = c.diff(v)
                if not dc.is_zero():
                    add(key, dc * X[v])
        for pos, k in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for v, dxk in enumerate(dX[k]):
                if dxk.is_zero():
                    continue
                # dz_v in place pos: (-1)^pos dz_v ^ dz_rest
                s, newkey = merge_sign((v,), rest)
                if s:
                    add(newkey, (c * dxk).scale(s * (-1) ** pos))
    return Form._trusted(n, a.degree, out)


class PolynomialMap:
    """Polynomial self-map of T*R^n, possibly carrying symbolic parameters.

    ``components[k]`` is the k-th target coordinate as a polynomial in the
    source variables; slots beyond 2n are parameters (never differentiated).
    A map is immutable and keeps the minors it has expanded.
    """

    __slots__ = ("n", "components", "_minors", "_gid")

    def __init__(self, n: int, components: Sequence[Poly]):
        if len(components) != 2 * n:
            raise DimensionMismatch("need 2n components")
        self.n = n
        m = max(p.nvars for p in components)
        self.components = [p.extend(m) for p in components]
        self._minors: dict[Key, list[tuple[Key, Poly]]] = {}
        self._gid: Optional[int] = None

    def x_matrix_id(self) -> int:
        """Interned id of the matrix G of the x-components, x -> G x,
        found once; ValueError if they are not linear in x."""
        if self._gid is None:
            self._gid = linear_x_matrix_id(self.components, self.n)
        return self._gid

    @classmethod
    def identity(cls, n: int) -> "PolynomialMap":
        return cls(n, [Poly.variable(2 * n, v) for v in range(2 * n)])

    def jacobian_entry(self, k: int, v: int) -> Poly:
        return self.components[k].diff(v)

    def minors(self, key: Key) -> list[tuple[Key, Poly]]:
        """The nonzero terms ``(monomial key, coefficient)`` of
        dF_k1 ^ .. ^ dF_kp for ``key`` = (k1..kp), in expansion order,
        computed once per key.  The coefficients live in the map's ring; a
        product with a coefficient in a larger ring takes the larger one."""
        out = self._minors.get(key)
        if out is None:
            partial = {(): Poly.const(self.components[0].nvars, 1)}
            for k in key:
                row = [(v, dv) for v in range(2 * self.n)
                       if (dv := self.jacobian_entry(k, v))]
                nxt: dict[Key, Poly] = {}
                for pkey, pval in partial.items():
                    for v, dv in row:
                        s, mkey = merge_sign(pkey, (v,))
                        if s == 0:
                            continue
                        add = (pval * dv).scale(s)
                        nxt[mkey] = nxt[mkey] + add if mkey in nxt else add
                partial = {k2: v2 for k2, v2 in nxt.items() if v2}
            out = self._minors[key] = list(partial.items())
        return out

    def compose(self, other: "PolynomialMap") -> "PolynomialMap":
        """self after other, i.e. w -> self(other(w))."""
        m = max(self.components[0].nvars, other.components[0].nvars)
        repl = [c.extend(m) for c in other.components]
        repl += [Poly.variable(m, v) for v in range(2 * self.n, m)]
        return PolynomialMap(self.n, [c.extend(m).subs(repl) for c in self.components])


def pullback(F: PolynomialMap, a: Form) -> Form:
    """Pullback along F; an algebra homomorphism commuting with d."""
    n = a.n
    if F.n != n:
        raise DimensionMismatch("map and form dimension differ")
    out: dict[Key, CoefficientFn] = {}
    for key, c in a.terms.items():
        comp = c.subs_linear(F)
        for mkey, pval in F.minors(key):
            term = comp * pval
            if term.is_zero():
                continue
            out[mkey] = out[mkey] + term if mkey in out else term
    return Form._trusted(n, a.degree, out)


# -- canonical symplectic objects ----------------------------------------------


def standard_symplectic_form(n: int) -> Form:
    """omega_s = sum_i dx_i ^ dy_i."""
    terms = {}
    for i in range(n):
        terms[(i, n + i)] = CoefficientFn.constant(n, 1)
    return Form(n, 2, terms)


# -- standard maps ----------------------------------------------------------------


def vertical_translation(n: int, lam: Optional[Sequence] = None) -> PolynomialMap:
    """(x, y) -> (x, y + lambda); symbolic lambda in slots 2n..3n-1 if omitted."""
    nv = 2 * n if lam is not None else 3 * n
    comps = [Poly.variable(nv, v) for v in range(2 * n)]
    for i in range(n):
        shift = (Poly.const(nv, _as_fraction(lam[i])) if lam is not None
                 else Poly.variable(nv, 2 * n + i))
        comps[n + i] = comps[n + i] + shift
    return PolynomialMap(n, comps)


def fiber_scaling(n: int, t=None) -> PolynomialMap:
    """(x, y) -> (x, t y); symbolic t in slot 2n if omitted."""
    nv = 2 * n if t is not None else 2 * n + 1
    comps = [Poly.variable(nv, v) for v in range(2 * n)]
    factor = Poly.const(nv, _as_fraction(t)) if t is not None else Poly.variable(nv, 2 * n)
    for i in range(n):
        comps[n + i] = comps[n + i] * factor
    return PolynomialMap(n, comps)


def linear_lift(n: int, g: Sequence[Sequence]) -> PolynomialMap:
    """Lift of x -> g x to T*R^n, (x, y) -> (g x, g^{-T} y); needs g invertible."""
    G = tuple(tuple(_as_fraction(g[i][j]) for j in range(n)) for i in range(n))
    Ginv = inverse(G)  # raises on singular g
    nv = 2 * n
    comps = []
    for i in range(n):
        comps.append(Poly(nv, {tuple(1 if v == j else 0 for v in range(nv)): G[i][j]
                               for j in range(n) if G[i][j]}))
    for i in range(n):
        # (g^{-T} y)_i = sum_j Ginv[j][i] y_j
        comps.append(Poly(nv, {tuple(1 if v == n + j else 0 for v in range(nv)): Ginv[j][i]
                               for j in range(n) if Ginv[j][i]}))
    return PolynomialMap(n, comps)


# -- Lefschetz operator ----------------------------------------------------------


def lefschetz_L(a: Form) -> Form:
    """L(a) = omega_s ^ a."""
    return wedge(standard_symplectic_form(a.n), a)


_LEF_CACHE: dict[int, tuple[list[Key], list[Key], list[list[Fraction]]]] = {}


def _subset_keys(n: int, degree: int) -> list:
    """Every key of degree ``degree`` on T*R^n, in lexicographic order."""
    out = [()]
    for _ in range(degree):
        out = [s + (v,) for s in out for v in range(2 * n) if not s or v > s[-1]]
    return out


def _lefschetz_inverse_matrix(n: int):
    """Inverse of the basis matrix of L: Lambda^{n-1} -> Lambda^{n+1}."""
    if n in _LEF_CACHE:
        return _LEF_CACHE[n]
    src = _subset_keys(n, n - 1)
    dst = _subset_keys(n, n + 1)
    dst_index = {k: i for i, k in enumerate(dst)}
    m = len(src)
    if len(dst) != m:
        raise AssertionError("Lefschetz basis sizes differ")
    # column j: L(e_{src[j]})
    mat = [[Q(0)] * m for _ in range(m)]
    for j, key in enumerate(src):
        for i in range(n):
            s, merged = merge_sign((i, n + i), key)
            if s == 0:
                continue
            mat[dst_index[merged]][j] += s
    _LEF_CACHE[n] = (src, dst, inverse(mat))
    return _LEF_CACHE[n]


def lefschetz_L_inverse(a: Form) -> Form:
    """Unique (n-1)-form xi with omega_s ^ xi = a; needs deg a = n + 1."""
    n = a.n
    if a.degree != n + 1:
        raise DegreeError("Lefschetz inverse needs degree n+1")
    src, dst, inv = _lefschetz_inverse_matrix(n)
    dst_index = {k: i for i, k in enumerate(dst)}
    cols: dict[int, CoefficientFn] = {}
    for key, c in a.terms.items():
        cols[dst_index[key]] = c
    out: dict[Key, CoefficientFn] = {}
    for j, key in enumerate(src):
        acc = None
        for i, c in cols.items():
            w = inv[j][i]
            if w == 0:
                continue
            piece = c.scale(w)
            acc = piece if acc is None else acc + piece
        if acc is not None:
            out[key] = acc
    return Form._trusted(n, n - 1, out)


# -- zero-section integration --------------------------------------------------------


def zero_section_coefficient(a: Form) -> CoefficientFn:
    """Restriction to the zero section: the (full x, empty y) coefficient at y = 0."""
    n = a.n
    if a.degree != n:
        raise DegreeError("zero-section integration needs an n-form")
    key = tuple(range(n))
    return a.terms.get(key, CoefficientFn.zero(n)).restrict_y_zero()


def integrate_zero_section(a: Form) -> EvalResult:
    """Integral over the zero section V -> T*V."""
    return integrate_coefficient(zero_section_coefficient(a))


def integrate_coefficient(c: CoefficientFn) -> EvalResult:
    """Integral of a y-independent coefficient over R^n in x.

    Exact (a Fraction) for polynomial atoms with a declared window;
    quadrature with a reported error estimate for bump atoms, each on the
    rule that ``cycles.graph_rule`` chooses on the zero section: at n = 2
    and 3 without a window its ellipse, of the atom's degree in x (a radial
    bump factor times a polynomial), else its box.  A free parameter, or a
    polynomial atom without a window, raises SupportError before any atom
    is integrated.
    """
    from .cycles import graph_rule  # cycles builds on this module
    from .quadrature import integrate, sum_parts

    if c.has_params():
        raise SupportError(FREE_PARAMETERS)
    if () in c.atoms and c.declared_box is None:
        raise SupportError(NO_SUPPORT)

    def parts():
        for sig, poly in c.atoms.items():
            if not sig:
                val = poly.integrate_box(c.declared_box, list(range(c.n)))
                yield val.eval_point([Q(0)] * val.nvars)
                continue
            part = CoefficientFn(c.n, {sig: poly}, declared_box=c.declared_box)
            if not part.integral_vanishes_by_parity():
                rule = graph_rule(None, part, part.support_domain())
                yield integrate(part.eval_x_array, [rule])

    return sum_parts(parts())


# -- random forms -----------------------------------------------------------------


def _rand_frac(rng, num=6, den=3) -> Fraction:
    return Q(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))


def random_bump_form(rng, n: int, degree: Optional[int] = None,
                     bidegree: Optional[tuple] = None,
                     radius=2, max_deg: int = 2, nterms: int = 2,
                     y_dependent: bool = True, coeff_num: int = 6,
                     coeff_den: int = 3) -> Form:
    """Random horizontally supported form with bump-modulated coefficients."""
    if bidegree is not None:
        p, q = bidegree
        degree = p + q
        keys = [k for k in _subset_keys(n, degree)
                if sum(1 for v in k if v < n) == p]
    else:
        assert degree is not None
        keys = _subset_keys(n, degree)
    bump = ball_bump(n, radius)
    terms: dict = {}
    for _ in range(nterms):
        key = keys[rng.integers(len(keys))]
        nv = 2 * n
        e = [0] * nv
        for _ in range(2):
            v = int(rng.integers(0, nv if y_dependent else n))
            e[v] = min(e[v] + int(rng.integers(0, max_deg)), max_deg)
        poly = Poly.monomial(nv, e, _rand_frac(rng, coeff_num, coeff_den))
        if poly.is_zero():
            poly = Poly.const(nv, 1)
        c = CoefficientFn.bump(n, bump, poly)
        terms[key] = terms[key] + c if key in terms else c
    return Form(n, degree, terms)
