"""Sparse multivariate polynomials with exact rational coefficients.

Every identity the workbench claims exactly (d*d = 0, Leibniz, Lefschetz
inversion, pullback functoriality, ...) reduces to equality of these
polynomials, so all arithmetic is exact.  Floating point enters only
through the ``eval_*`` methods; ``eval_array`` imports numpy when called,
so the exact algebra runs without it.

Variables are positional.  A polynomial on the cotangent space of R^n uses
the first 2n slots as (x_1..x_n, y_1..y_n); any further slots hold symbolic
parameters (scaling factors, translation components) that are carried
through pullbacks but never differentiated.

Layout.  A polynomial is one positive integer denominator ``den`` over a
dict ``num`` of integer numerators, reduced so that ``den`` and the
numerators have no common factor; this is the layout of FLINT's
``fmpq_mpoly`` (a rational content times an integer polynomial).  Each
monomial is one int: the exponent of variable v sits in bits
``[FIELD_BITS * v, FIELD_BITS * (v + 1))``.  Exponents stay at most
``MAX_EXPONENT``, so the top bits of every field are clear: the sum of two
exponents never carries into the next field, and a product whose
exponent outgrows its field raises instead.  So a monomial product is one
int addition, a derivative one shift, one mask and one subtraction, and
adding trailing (parameter) variables changes no key.  Two polynomials
are equal when their denominators and numerator dicts are, whatever their
numbers of variables.

:attr:`Poly.terms` is a read-only view ``{exponent tuple: Fraction}``,
built on first use and cached, for readers outside the exact core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from operator import index, or_
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

Q = Fraction
Exponents = tuple  # tuple[int, ...], length == nvars

FIELD_BITS = 16                 # bits of one variable's exponent field
MAX_EXPONENT = (1 << 12) - 1    # largest exponent of one variable
_MASK = (1 << FIELD_BITS) - 1
_GUARD = _MASK ^ MAX_EXPONENT   # the bits of a field above MAX_EXPONENT
_TOP = 1 << (FIELD_BITS - 1)    # the top bit of a field
# Field sums modulo 2^FIELD_BITS - 1 are exact up to this many fields.
_SUM_FIELDS = _MASK // MAX_EXPONENT


@cache
def _every_field(bits: int, nvars: int) -> int:
    """``bits`` in each of the first ``nvars`` fields."""
    return sum(bits << (FIELD_BITS * v) for v in range(nvars))


def _pack(exps: Sequence[int]) -> int:
    """The monomial key of an exponent vector; numpy integers are accepted."""
    key = 0
    for v, p in enumerate(exps):
        p = index(p)
        if not 0 <= p <= MAX_EXPONENT:
            raise ValueError(f"exponent {p} of variable {v} is outside 0..{MAX_EXPONENT}")
        key |= p << (FIELD_BITS * v)
    return key


def _unpack(key: int, nvars: int) -> Exponents:
    """The exponent vector of length ``nvars`` of a monomial key."""
    return tuple((key >> (FIELD_BITS * v)) & _MASK for v in range(nvars))


def field_sum(key: int, count: int) -> int:
    """Total degree of the monomial ``key`` in its first ``count`` variables."""
    key &= (1 << (FIELD_BITS * count)) - 1
    if count <= _SUM_FIELDS:
        # 2^FIELD_BITS = 1 modulo _MASK, and the sum is below _MASK
        return key % _MASK
    return sum(_unpack(key, count))


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(c).limit_denominator(10**12)
    raise TypeError(f"cannot coerce {type(c).__name__} to Fraction")


def _new(nvars: int, num: dict, den: int) -> "Poly":
    """Wrap ``num`` / ``den`` without checks: nonzero int values, keys with
    in-range fields below ``nvars``, ``den > 0`` and no common factor."""
    p = object.__new__(Poly)
    p.nvars = nvars
    p.num = num
    p.den = den
    p._terms = None
    p._eval_cache = None
    return p


def _reduced(nvars: int, num: dict, den: int) -> "Poly":
    """``_new`` after dividing out the common factor of ``den`` and ``num``."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return _new(nvars, num, den)


class Poly:
    """Immutable sparse polynomial ``sum_k num[k] / den * z^k``."""

    __slots__ = ("nvars", "num", "den", "_terms", "_eval_cache")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        coeffs: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent tuple length mismatch")
                c = _as_fraction(c)
                if c != 0:
                    coeffs[_pack(e)] = c
        # the least common denominator leaves no common factor
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.nvars = nvars
        self.num = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self.den = den
        self._terms = None
        self._eval_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _new(nvars, {}, 1)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        if type(c) is not int:
            c = _as_fraction(c)
            if c.denominator != 1:
                return _new(nvars, {0: c.numerator}, c.denominator)
            c = c.numerator
        return _new(nvars, {0: c} if c else {}, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable {i} outside 0..{nvars - 1}")
        return _new(nvars, {1 << (FIELD_BITS * i): 1}, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c=1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only ``{exponent tuple: Fraction}`` view, cached."""
        t = self._terms
        if t is None:
            nv, den = self.nvars, self.den
            t = self._terms = MappingProxyType(
                {_unpack(k, nv): Fraction(c, den) for k, c in self.num.items()})
        return t

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        # keys do not depend on the number of variables
        return self.den == other.den and self.num == other.num

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"z{v}^{p}" for v, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def total_degree(self) -> int:
        return max((field_sum(k, self.nvars) for k in self.num), default=0)

    def extend(self, nvars: int) -> "Poly":
        """Embed into a ring with more trailing variables."""
        if nvars == self.nvars:
            return self
        if nvars < self.nvars and any(k >> (FIELD_BITS * nvars) for k in self.num):
            raise ValueError("cannot shrink ring: trailing variable in use")
        return _new(nvars, self.num, self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        nv = max(self.nvars, other.nvars)
        da, db = self.den, other.den
        if da == db:
            out = dict(self.num)
            mb = 1
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            out = {k: c * ma for k, c in self.num.items()}
            da *= ma
        for k, c in other.num.items():
            old = out.get(k)
            if old is None:
                out[k] = c * mb
            else:
                s = old + c * mb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _reduced(nv, out, da)

    def __neg__(self) -> "Poly":
        return _new(self.nvars, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        nv = max(self.nvars, other.nvars)
        a, b = self.num, other.num
        # times one term, no two products share a key
        if len(b) == 1:
            (k2, c2), = b.items()
            out = {k1 + k2: c1 * c2 for k1, c1 in a.items()}
        elif len(a) == 1:
            (k1, c1), = a.items()
            out = {k1 + k2: c1 * c2 for k2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            for k1, c1 in a.items():
                for k2, c2 in b.items():
                    k = k1 + k2
                    old = get(k)
                    if old is None:
                        out[k] = c1 * c2
                    else:
                        s = old + c1 * c2
                        if s:
                            out[k] = s
                        else:
                            del out[k]
        if reduce(or_, out, 0) & _every_field(_GUARD, nv):
            raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
        return _reduced(nv, out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if type(c) is not int:
            c = _as_fraction(c)
            if c.denominator != 1:
                return _reduced(self.nvars, {k: v * c.numerator for k, v in self.num.items()},
                                self.den * c.denominator)
            c = c.numerator
        if c == 1:
            return self
        if c == 0:
            return Poly.zero(self.nvars)
        if c == -1:
            return -self
        g = math.gcd(self.den, c)
        c //= g
        return _new(self.nvars, {k: v * c for k, v in self.num.items()}, self.den // g)

    def __truediv__(self, c) -> "Poly":
        return self.scale(1 / _as_fraction(c))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, var: int) -> "Poly":
        shift = FIELD_BITS * var
        unit = 1 << shift
        out = {}
        for k, c in self.num.items():
            p = (k >> shift) & _MASK
            if p:
                out[k - unit] = c * p  # distinct keys give distinct keys
        return _reduced(self.nvars, out, self.den)

    def subs(self, repl: Sequence["Poly"]) -> "Poly":
        """Substitute ``z_v -> repl[v]``; all replacements share one ring.

        Each term's product of replacement powers is summed, times its
        numerator, into one integer dict over the least common denominator
        of the products, and the sum is reduced once.
        """
        if len(repl) != self.nvars:
            raise ValueError("need one replacement per variable")
        if not self.num:
            nv = repl[0].nvars if repl else self.nvars
            return Poly.zero(nv)
        nv = max(p.nvars for p in repl)
        one = Poly.const(nv, 1)
        # cache powers of each replacement
        powers: list[list[Poly]] = [[one] for _ in range(self.nvars)]
        products = []
        for key, c in self.num.items():
            term = None
            v = 0
            while key:
                p = key & _MASK
                if p:
                    cache = powers[v]
                    while len(cache) <= p:
                        cache.append(cache[-1] * repl[v])
                    term = cache[p] if term is None else term * cache[p]
                key >>= FIELD_BITS
                v += 1
            products.append((c, one if term is None else term))
        den = math.lcm(*(term.den for _, term in products))
        out: dict[int, int] = {}
        get = out.get
        for c, term in products:
            c *= den // term.den
            for k, t in term.num.items():
                old = get(k)
                if old is None:
                    out[k] = c * t
                else:
                    s = old + c * t
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return _reduced(nv, out, den * self.den)

    # -- numeric evaluation --------------------------------------------------

    def eval_array(self, pts: np.ndarray, powers: dict | None = None) -> np.ndarray:
        """Evaluate at ``pts`` of shape (N, nvars) (or (N, m) with m >= nvars).

        ``powers`` maps ``(v, p)`` to the column ``pts[:, v] ** p``; the atoms
        of one coefficient evaluated on the same ``pts`` share one dict (the
        ``EvalCache`` of ``CoefficientFn.eval_array``), so that each power
        column is computed once.  Batches of coefficients are evaluated by
        ``coefficients.CompiledBatch`` instead.
        """
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        if self._eval_cache is None:
            self._eval_cache = [
                (tuple((v, p) for v, p in enumerate(e) if p), float(c))
                for e, c in sorted(self.terms.items())
            ]
        out = np.zeros(pts.shape[0])
        if powers is None:
            powers = {}
        for factors, c in self._eval_cache:
            term = None
            for key in factors:
                col = powers.get(key)
                if col is None:
                    v, p = key
                    col = pts[:, v] if p == 1 else pts[:, v] ** p
                    powers[key] = col
                term = col if term is None else term * col
            if term is None:
                out += c
            else:
                out += c * term
        return out

    def eval_point(self, pt: Sequence) -> Fraction | float:
        """Exact evaluation when the point is rational, float otherwise."""
        exact = all(isinstance(v, (int, Fraction)) for v in pt)
        total: Fraction | float = Q(0) if exact else 0.0
        for e, c in self.terms.items():
            term = c if exact else float(c)
            for v, p in enumerate(e):
                if p:
                    term = term * (pt[v] ** p)
            total = total + term
        return total

    # -- exact division ------------------------------------------------------

    def divide_exact(self, q: "Poly") -> "Poly | None":
        """Return p/q if q divides self exactly, else None.

        Division on the integer numerators, leading monomial first in the
        order of the keys; the remainder is scaled only when a quotient
        coefficient would not be an integer.
        """
        if not q.num:
            raise ZeroDivisionError
        nv = max(self.nvars, q.nvars)
        top, guard = _every_field(_TOP, nv), _every_field(_GUARD, nv)
        qitems = list(q.num.items())
        qlead = max(q.num)
        qc = q.num[qlead]
        rem = dict(self.num)
        quo: dict[int, int] = {}
        scale = 1  # rem and quo are ``scale`` times their true values
        while rem:
            lead = max(rem)
            # lead - qlead field by field: with each field's top bit set,
            # a field of qlead above lead's only clears that bit, and the
            # xor leaves it set exactly there.  A quotient has no exponent
            # above self's, so a field above MAX_EXPONENT also means that q
            # does not divide self; this keeps the remainder's fields below
            # the top bit.
            shift = ((lead | top) - qlead) ^ top
            if shift & guard:
                return None
            c = rem[lead]
            if c % qc:
                s = abs(qc) // math.gcd(c, qc)
                rem = {k: v * s for k, v in rem.items()}
                quo = {k: v * s for k, v in quo.items()}
                scale *= s
                c *= s
            c //= qc
            quo[shift] = c
            for k2, c2 in qitems:
                k = shift + k2
                v = rem.get(k, 0) - c * c2
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        # self = q * quo / scale * self.den / q.den
        return _reduced(nv, {k: v * q.den for k, v in quo.items()}, scale * self.den)

    # -- integration ---------------------------------------------------------

    def integrate_box(self, box: Sequence[tuple], vars_: Sequence[int]) -> "Poly":
        """Integrate over ``prod [lo, hi]`` in the listed variables.

        Bounds must be rational; the result no longer depends on ``vars_``.
        With lo = A / q and hi = H / q, a term c z_v^p gives
        c (H^(p+1) - A^(p+1)) / ((p + 1) q^(p+1)): an integer over
        L q^(top+1), L the least common multiple of the p + 1 and top the
        largest p.  The numerators are summed as integers and reduced once.
        """
        num, den = self.num, self.den
        for v, (lo, hi) in zip(vars_, box):
            lo, hi = _as_fraction(lo), _as_fraction(hi)
            q = math.lcm(lo.denominator, hi.denominator)
            A, H = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
            shift = FIELD_BITS * v
            split = [(k & ~(_MASK << shift), (k >> shift) & _MASK, c) for k, c in num.items()]
            top = max((p for _, p, _ in split), default=0)
            lcm = math.lcm(*(p + 1 for _, p, _ in split))
            out: dict[int, int] = {}
            for k, p, c in split:
                t = c * (lcm // (p + 1)) * (H ** (p + 1) - A ** (p + 1)) * q ** (top - p)
                out[k] = out.get(k, 0) + t
            num = {k: c for k, c in out.items() if c}
            den *= lcm * q ** (top + 1)
        return _reduced(self.nvars, num, den)
