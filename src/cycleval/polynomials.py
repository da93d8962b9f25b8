"""Sparse multivariate polynomials with exact rational coefficients.

Every identity the workbench claims exactly (d*d = 0, Leibniz, Lefschetz
inversion, pullback functoriality, ...) reduces to equality of these
polynomials, so all arithmetic is over :class:`fractions.Fraction`.
Floating point enters only through the ``eval_*`` methods.

Variables are positional.  A polynomial on the cotangent space of R^n uses
the first 2n slots as (x_1..x_n, y_1..y_n); any further slots hold symbolic
parameters (scaling factors, translation components) that are carried
through pullbacks but never differentiated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

Q = Fraction
Exponents = tuple  # tuple[int, ...], length == nvars


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


class Poly:
    """Immutable sparse polynomial ``sum_e terms[e] * prod_v z_v**e[v]``."""

    __slots__ = ("nvars", "terms", "_eval_cache")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        self._eval_cache = None
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent tuple length mismatch")
                c = _as_fraction(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap ``terms`` without checks: the caller guarantees exponent
        tuples of length ``nvars`` and nonzero :class:`Fraction` values."""
        p = object.__new__(cls)
        p._eval_cache = None
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Q(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c=1) -> "Poly":
        return cls(nvars, {tuple(exps): _as_fraction(c)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self.nvars == other.nvars:
            return self.terms == other.terms
        m = max(self.nvars, other.nvars)
        return self.extend(m).terms == other.extend(m).terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"z{v}^{p}" for v, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def extend(self, nvars: int) -> "Poly":
        """Embed into a ring with more trailing variables."""
        if nvars == self.nvars:
            return self
        if nvars < self.nvars:
            for e in self.terms:
                if any(e[nvars:]):
                    raise ValueError("cannot shrink ring: trailing variable in use")
            return Poly._trusted(nvars, {e[:nvars]: c for e, c in self.terms.items()})
        pad = (0,) * (nvars - self.nvars)
        return Poly._trusted(nvars, {e + pad: c for e, c in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    def _align(self, other: "Poly") -> tuple["Poly", "Poly"]:
        m = max(self.nvars, other.nvars)
        return self.extend(m), other.extend(m)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._align(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            old = out.get(e)
            if old is None:
                out[e] = c
            else:
                s = old + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly._trusted(a.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._align(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                old = out.get(e)
                if old is None:
                    out[e] = c1 * c2
                else:
                    s = old + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return Poly._trusted(a.nvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 1:
            return self
        if c == 0:
            return Poly.zero(self.nvars)
        if c == -1:
            return -self
        return Poly._trusted(self.nvars, {e: c * v for e, v in self.terms.items()})

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
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            p = e[var]
            if p:
                e2 = list(e)
                e2[var] = p - 1
                out[tuple(e2)] = c * p  # distinct e give distinct e2
        return Poly._trusted(self.nvars, out)

    def subs(self, repl: Sequence["Poly"]) -> "Poly":
        """Substitute ``z_v -> repl[v]``; all replacements share one ring."""
        if len(repl) != self.nvars:
            raise ValueError("need one replacement per variable")
        if not self.terms:
            nv = repl[0].nvars if repl else self.nvars
            return Poly.zero(nv)
        nv = max(p.nvars for p in repl)
        repl = [p.extend(nv) for p in repl]
        # cache powers of each replacement
        powers: list[list[Poly]] = [[Poly.const(nv, 1)] for _ in range(self.nvars)]
        out = Poly.zero(nv)
        origin = (0,) * nv
        for e, c in self.terms.items():
            term = Poly._trusted(nv, {origin: c})
            for v, p in enumerate(e):
                if p == 0:
                    continue
                cache = powers[v]
                while len(cache) <= p:
                    cache.append(cache[-1] * repl[v])
                term = term * cache[p]
            out = out + term
        return out

    # -- numeric evaluation --------------------------------------------------

    def eval_array(self, pts: np.ndarray, powers: dict | None = None) -> np.ndarray:
        """Evaluate at ``pts`` of shape (N, nvars) (or (N, m) with m >= nvars).

        ``powers`` maps ``(v, p)`` to the column ``pts[:, v] ** p``; the atoms
        of one coefficient evaluated on the same ``pts`` share one dict (the
        ``EvalCache`` of ``CoefficientFn.eval_array``), so that each power
        column is computed once.  Batches of coefficients are evaluated by
        ``coefficients.CompiledBatch`` instead.
        """
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
        """Return p/q if q divides self exactly, else None (lex division)."""
        a, q = self._align(q)
        if q.is_zero():
            raise ZeroDivisionError
        qlead = max(q.terms)  # lex-largest exponent
        qc = q.terms[qlead]
        rem = dict(a.terms)
        quo: dict[Exponents, Fraction] = {}
        while rem:
            lead = max(rem)
            diff = tuple(i - j for i, j in zip(lead, qlead))
            if any(d < 0 for d in diff):
                return None
            c = rem[lead] / qc
            quo[diff] = quo.get(diff, Q(0)) + c
            for e2, c2 in q.terms.items():
                e = tuple(i + j for i, j in zip(diff, e2))
                s = rem.get(e, Q(0)) - c * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return Poly._trusted(a.nvars, quo)

    # -- integration ---------------------------------------------------------

    def integrate_box(self, box: Sequence[tuple], vars_: Sequence[int]) -> "Poly":
        """Integrate over ``prod [lo, hi]`` in the listed variables.

        Bounds must be rational; the result no longer depends on ``vars_``.
        """
        out = self
        for v, (lo, hi) in zip(vars_, box):
            lo = _as_fraction(lo)
            hi = _as_fraction(hi)
            acc: dict[Exponents, Fraction] = {}
            for e, c in out.terms.items():
                p = e[v]
                e2 = list(e)
                e2[v] = 0
                key = tuple(e2)
                val = c * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
                s = acc.get(key, Q(0)) + val
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
            out = Poly._trusted(out.nvars, acc)
        return out


def dirichlet_moment(g) -> Fraction:
    """Integral of ``prod t_i^{g_i}`` over the standard d-simplex, d = len(g):
    ``(prod g_i!) / (d + sum g_i)!``."""
    return Fraction(math.prod(map(math.factorial, g)), math.factorial(len(g) + sum(g)))
