"""Text grammar for forms, functions and bodies.

Form expressions are sums of terms like

    3/2 * x1^2 * y2 * dx1^dy2
    bump(R=2) * x1 * dx1^dx2
    box(-2,2) * y1 * dy1

Each term carries at most one wedge monomial (a 0-form term has none), any
number of coordinate powers, one optional bump factor and one optional box
window.  Serialization writes one term per polynomial monomial and atom, so
parse(serialize(form)) == form exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .coefficients import BumpFactor, CoefficientFn, ball_bump
from .exactla import det, inverse
from .forms import Form, merge_sign
from .polynomials import Poly, Q

# the function and body builders import convex themselves, so that parsing
# a form does not load it
if TYPE_CHECKING:
    from .convex import ConvexBody, ConvexFunction, PiecewiseLinear1D


class ParseError(ValueError):
    pass


# -- small rational-aware value parser ------------------------------------------


def _in_float_range(value: Fraction, literal: str) -> Fraction:
    """``value``, the exact value of the number ``literal``, if its float is
    finite: the evaluators compute in floats, so a larger number is a
    config error here rather than an overflow in some later suite."""
    try:
        float(value)
    except OverflowError:
        raise ParseError(f"number {literal} is outside the float range") from None
    return value


def _check_numbers(val) -> None:
    """Refuse a number of a dict spec, nested lists included, whose float is
    not finite: a float, an integer or a numeric string."""
    if isinstance(val, list):
        for item in val:
            _check_numbers(item)
    elif isinstance(val, float) and not math.isfinite(val):
        raise ParseError(f"number {val} is outside the float range")
    elif isinstance(val, (int, str)):
        try:
            number = Fraction(val)
        except (ValueError, ZeroDivisionError):
            return  # a name, refused or read by the spec's kind
        _in_float_range(number, str(val))


def _tokenize_value(text: str):
    return re.findall(r"\[|\]|,|[^\[\],\s]+", text)


def parse_value(text: str):
    """Parse a scalar or (nested) list literal with rational entries; a bare
    name such as ``sqrt1p`` stays a string."""
    tokens = _tokenize_value(text)
    pos = 0

    def value():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "[":
            items = []
            while tokens[pos] != "]":
                items.append(value())
                if tokens[pos] == ",":
                    pos += 1
            pos += 1
            return items
        try:
            number = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            if tok.isidentifier():
                return tok
            raise ParseError(f"bad number {tok!r} in {text!r}") from None
        return _in_float_range(number, tok)

    try:
        out = value()
    except IndexError:
        raise ParseError(f"unterminated value: {text!r}") from None
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in value: {text!r}")
    return out


def _split_top_level(text: str, sep: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_kwargs(body: str) -> dict:
    out = {}
    for part in _split_top_level(body, ","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = parse_value(v.strip())
    return out


# -- form expressions --------------------------------------------------------------

_GEN_RE = re.compile(r"^d([xy])(\d+)$")
_VAR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")
_CALL_RE = re.compile(r"^(bump|box)\((.*)\)$")


def _signed_terms(expr: str):
    """Split on top-level +/- keeping signs."""
    expr = expr.strip()
    depth = 0
    terms = []
    cur = []
    sign = 1
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        content = "".join(cur).strip()
        if depth == 0 and ch in "+-" and content and cur[-1] not in "*^/eE(":
            terms.append((sign, content))
            sign = 1 if ch == "+" else -1
            cur = []
        elif depth == 0 and ch in "+-" and not content:
            sign = sign if ch == "+" else -sign
            cur = []
        else:
            cur.append(ch)
        i += 1
    if "".join(cur).strip():
        terms.append((sign, "".join(cur).strip()))
    return terms


def parse_form(expr: str, n: int) -> Form:
    """Parse a form expression on T*R^n."""
    if not isinstance(expr, str):
        raise ParseError(f"a form is an expression string, got {expr!r}")
    terms = _signed_terms(expr)
    if not terms:
        raise ParseError("empty form expression")
    form: Optional[Form] = None
    for sign, term in terms:
        piece = _parse_term(term, n, sign)
        form = piece if form is None else form + piece
    return form


def _parse_term(term: str, n: int, sign: int) -> Form:
    coeff = Q(sign)
    exps = [0] * (2 * n)
    bump: Optional[BumpFactor] = None
    box = None
    key = None
    for raw in _split_top_level(term, "*"):
        tok = raw.strip()
        if not tok:
            continue
        m = _CALL_RE.match(tok)
        if m:
            kind, body = m.groups()
            if kind == "bump":
                if bump is not None:
                    raise ParseError("at most one bump factor per term")
                bump = _parse_bump(body, n)
            else:
                box = _parse_box(body, n)
            continue
        if _GEN_RE.match(tok) or tok.startswith("d"):
            if key is not None:
                raise ParseError("at most one wedge monomial per term")
            key, wsign = _parse_wedge(tok, n)
            coeff *= wsign
            continue
        m = _VAR_RE.match(tok)
        if m:
            xy, idx, power = m.groups()
            i = int(idx)
            if not 1 <= i <= n:
                raise ParseError(f"coordinate index out of range: {tok}")
            slot = (i - 1) if xy == "x" else (n + i - 1)
            exps[slot] += int(power or 1)
            continue
        try:
            number = Fraction(tok)
        except ValueError as exc:
            raise ParseError(f"cannot parse factor {tok!r}") from exc
        coeff *= _in_float_range(number, tok)
    poly = Poly.monomial(2 * n, exps, coeff)
    if bump is not None:
        c = CoefficientFn(n, {(bump,): poly})
    else:
        c = CoefficientFn.from_poly(n, poly, box=box)
    if key is None:
        key = ()
    return Form(n, len(key), {key: c})


def _parse_wedge(tok: str, n: int):
    key: list = []
    sign = 1
    for gen in tok.split("^"):
        m = _GEN_RE.match(gen.strip())
        if not m:
            raise ParseError(f"bad generator {gen!r}")
        xy, idx = m.groups()
        i = int(idx)
        if not 1 <= i <= n:
            raise ParseError(f"generator index out of range: {gen}")
        code = (i - 1) if xy == "x" else (n + i - 1)
        s, merged = merge_sign(tuple(key), (code,))
        if s == 0:
            return tuple(), 0
        sign *= s
        key = list(merged)
    return tuple(key), sign


def _parse_bump(body: str, n: int) -> BumpFactor:
    kw = _parse_kwargs(body)
    p = _bump_power(kw.pop("p", 1), "p")
    m = _bump_power(kw.pop("m", 0), "m")
    if "R" in kw:
        R = kw.pop("R")
        if not isinstance(R, Fraction) or R <= 0:
            raise ParseError(f"bump needs a radius R > 0, got R={R}")
        # the bump's matrix is I / R^2, its inverse R^2 I
        _in_float_range(1 / (R * R), "1/R^2")
        _in_float_range(R * R, "R^2")
        base = ball_bump(n, R)
    elif "M" in kw:
        M = kw.pop("M")
        if not (isinstance(M, list) and len(M) == n
                and all(isinstance(row, list) and len(row) == n for row in M)):
            raise ParseError(f"bump M= needs {n} rows of {n} entries")
        M = [[Q(v) for v in row] for row in M]
        if any(M[i][j] != M[j][i] for i in range(n) for j in range(i)) or any(
                det([row[:k] for row in M[:k]]) <= 0 for k in range(1, n + 1)):
            raise ParseError("bump M= must be symmetric positive definite")
        # the support box of the bump has the half-widths sqrt((M^-1)_ii)
        for i, row in enumerate(inverse(M)):
            _in_float_range(row[i], f"(M^-1)_{i + 1}{i + 1}")
        base = BumpFactor(M)
    else:
        raise ParseError("bump needs R= or M=")
    if kw:
        raise ParseError(f"unknown bump arguments {sorted(kw)}")
    return BumpFactor(base.M, p, m)


def _bump_power(val, key: str) -> int:
    if not isinstance(val, (int, Fraction)) or val != int(val) or val < 0:
        raise ParseError(f"bump {key}= must be a non-negative integer, got {key}={val}")
    return int(val)


def _parse_box(body: str, n: int):
    vals = [_in_float_range(Fraction(v), v)
            for v in map(str.strip, _split_top_level(body, ",")) if v]
    if len(vals) == 1:
        a = abs(vals[0])
        return tuple((-a, a) for _ in range(n))
    if len(vals) == 2 * n:
        box = tuple((vals[2 * k], vals[2 * k + 1]) for k in range(n))
        for k, (lo, hi) in enumerate(box, 1):
            if lo > hi:
                raise ParseError(f"box bounds of x{k} are reversed: {lo} > {hi}")
        return box
    raise ParseError("box needs one halfwidth or 2n bounds")


def serialize_form(form: Form) -> str:
    """Canonical expression; parse(serialize(f)) == f exactly."""
    n = form.n
    bits = []
    for key in sorted(form.terms):
        coeff = form.terms[key]
        wedge = "^".join(("dx%d" % (v + 1)) if v < n else ("dy%d" % (v - n + 1))
                         for v in key)
        for sig, poly in sorted(coeff.atoms.items(), key=lambda kv: repr(kv[0])):
            for e, c in sorted(poly.terms.items()):
                factors = [str(c)]
                for v, p in enumerate(e):
                    if p == 0:
                        continue
                    name = ("x%d" % (v + 1)) if v < n else ("y%d" % (v - n + 1))
                    factors.append(name if p == 1 else f"{name}^{p}")
                for f in sig:
                    factors.append(_serialize_bump(f))
                if not sig and coeff.declared_box is not None:
                    factors.append("box(%s)" % ",".join(
                        f"{lo},{hi}" for lo, hi in coeff.declared_box))
                if wedge:
                    factors.append(wedge)
                bits.append(" * ".join(factors))
    return " + ".join(bits) if bits else "0"


def _serialize_bump(f: BumpFactor) -> str:
    n = len(f.M)
    args = []
    R2 = None
    diag = all(f.M[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    if diag and len({f.M[i][i] for i in range(n)}) == 1 and f.M[0][0] > 0:
        inv = 1 / f.M[0][0]
        # R is rational iff inv is a perfect square of a rational
        num, den = inv.numerator, inv.denominator
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is not None and rd is not None:
            args.append(f"R={Fraction(rn, rd)}")
            R2 = True
    if R2 is None:
        args.append("M=[%s]" % ",".join(
            "[%s]" % ",".join(str(v) for v in row) for row in f.M))
    if f.beta_pow != 1:
        args.append(f"p={f.beta_pow}")
    if f.denom_pow != 0:
        args.append(f"m={f.denom_pow}")
    return "bump(%s)" % ",".join(args)


def _isqrt_exact(k: int) -> Optional[int]:
    r = math.isqrt(k)
    return r if r * r == k else None


# -- function and body specs ----------------------------------------------------------


class _SpecArgs(dict):
    """Keyword arguments of a spec; a missing required key is a ParseError."""

    def __missing__(self, key):
        raise ParseError(f"{self.kind} spec needs {key}=")


def _split_spec(spec, prefix: Optional[str] = None) -> tuple:
    """``(kind, kwargs)`` of a spec string ``[prefix] <kind> key=value ...``
    or of a dict with a ``kind`` key."""
    kw = spec
    if isinstance(spec, str):
        parts = [p for p in _split_top_level(spec.strip(), " ") if p.strip()]
        if parts[:1] == [prefix]:
            parts = parts[1:]
        kw = {**_parse_kwargs(",".join(parts[1:])), "kind": parts[0]} if parts else {}
    if not isinstance(kw, dict) or "kind" not in kw:
        raise ParseError(f"a spec is a string '<kind> key=value ...' or a dict "
                         f"with a 'kind' key, got {spec!r}")
    kw = _SpecArgs(kw)
    kw.kind = kw.pop("kind")
    for key, val in kw.items():
        _check_numbers(val)
        name = _bare_name(val)
        if name is not None and (kw.kind, key) != ("smooth", "name"):
            raise ParseError(f"{kw.kind} spec: {key}= needs numbers, "
                             f"not the name {name!r}")
    return kw.kind, kw


def _bare_name(val) -> Optional[str]:
    """The first bare name, such as ``foo``, in a parsed value, if any."""
    if isinstance(val, list):
        return next((name for name in map(_bare_name, val) if name), None)
    return val if isinstance(val, str) and val.isidentifier() else None


def parse_function(spec, n: int) -> ConvexFunction | PiecewiseLinear1D:
    """Build a catalog function from a spec string or dict.

    String form: ``<kind> key=value ...`` with the modifiers ``shift=``,
    ``shiftc=`` and ``scale=`` applied afterwards; e.g.
    ``quadratic A=[[2,0],[0,1]] b=[0,0] c=0 scale=2``.
    """
    from .convex import Scaled, Shifted

    kind, kw = _split_spec(spec)
    shift = kw.pop("shift", None)
    shiftc = kw.pop("shiftc", Q(0))
    scale = kw.pop("scale", None)
    f = _build_function(kind, kw, n)
    if scale is not None:
        f = Scaled(f, scale)
    if shift is not None:
        f = Shifted(f, shift, shiftc)
    return f


def _build_function(kind: str, kw: dict, n: int):
    from .convex import LogSumExp, MaxAffine, PiecewiseLinear1D, Quadratic, SmoothCatalog

    if kind == "quadratic":
        return Quadratic(kw["A"], kw.get("b"), kw.get("c", 0))
    if kind == "maxaffine":
        return MaxAffine(_pieces(kw))
    if kind == "lse":
        return LogSumExp(MaxAffine(_pieces(kw)), float(kw["beta"]))
    if kind == "smooth":
        name = kw["name"]
        if not isinstance(name, str):
            raise ParseError("smooth needs name=sqrt1p or name=quartic")
        return SmoothCatalog(name, n)
    if kind == "pwl":
        if n != 1:
            raise ParseError("piecewise-linear specs require n=1")
        return PiecewiseLinear1D(kw["breaks"], kw["slopes"], kw.get("v0", 0))
    if kind == "body":
        raise ParseError("use parse_body for body specs")
    raise ParseError(f"unknown function kind {kind!r}")


def _pieces(kw) -> list:
    """The ``pieces=`` of a max-affine spec: a list of [gradient, offset] pairs."""
    pieces = kw["pieces"]
    if not isinstance(pieces, list) or not all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], list)
            and not isinstance(p[1], list) for p in pieces):
        raise ParseError(f"{kw.kind} spec: pieces= must be a list of "
                         f"[gradient, offset] pairs, e.g. [[[1],0],[[-1],0]]")
    return [tuple(p) for p in pieces]


def parse_body(spec, n: int) -> ConvexBody:
    """Body specs: ``ellipsoid M=[[...]]``, ``point p=[...]``,
    ``smoothbox a=[...] eps=1/10`` (matrices live in R^{n+1})."""
    from .convex import EllipsoidBody, PointBody, SmoothedBoxBody

    kind, kw = _split_spec(spec, prefix="body")
    if kind == "ellipsoid":
        M = [[float(v) for v in row] for row in kw["M"]]
        return EllipsoidBody(M)
    if kind == "point":
        return PointBody([float(v) for v in kw["p"]])
    if kind == "smoothbox":
        return SmoothedBoxBody([float(v) for v in kw["a"]],
                               eps=float(kw.get("eps", Q(1, 10))))
    raise ParseError(f"unknown body kind {kind!r}")


CATALOG_TEXT = """\
Form expression grammar (forms on T*R^n, coordinates x1..xn, y1..yn):
  term     := [rational] factors... [wedge]
  factors  := x<i>[^p] | y<j>[^p] | bump(R=<rat>[,p=..][,m=..])
              | bump(M=[[..],..]) | box(<halfwidth>) | box(lo1,hi1,...)
  wedge    := dx<i>^...^dy<j>
  examples : 3/2 * x1^2 * y2 * dx1^dy2
             bump(R=2) * x1 * dx1^dx2
             box(-2,2) * y1 * dy1

Function specs (string or {"kind": ...} dict), modifiers shift=, shiftc=, scale=:
  quadratic A=[[2,0],[0,1]] b=[0,0] c=0
  maxaffine pieces=[[[1,0],0],[[-1,0],0]]
  lse pieces=[[[1],0],[[-1],0]] beta=50
  smooth name=sqrt1p            (also: quartic)
  pwl breaks=[0] slopes=[-1,1] v0=0     (n = 1 only)

Body specs (support functions on R^{n+1}):
  ellipsoid M=[[1,0,0],[0,1,0],[0,0,1]]
  point p=[0,0,1]
  smoothbox a=[1,1,1] eps=1/10
"""
