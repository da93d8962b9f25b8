import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.polynomials import MAX_EXPONENT, Poly
from dirichlet import dirichlet_moment


def test_ring_basics():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.total_degree() == 2


def test_rational_exactness():
    x = Poly.variable(1, 0)
    p = x.scale(Q(1, 3)) + x.scale(Q(2, 3))
    assert p == x


def test_diff_and_subs():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x ** 3 * y + y ** 2
    assert p.diff(0) == x ** 2 * y * 3
    assert p.diff(1) == x ** 3 + y * 2
    # compose with (x, y) -> (y, x + y)
    q = p.subs([y, x + y])
    expected = y ** 3 * (x + y) + (x + y) ** 2
    assert q == expected


def test_subs_into_extended_ring():
    x = Poly.variable(1, 0)
    t = Poly.variable(2, 1)  # parameter slot
    p = x ** 2
    q = p.subs([x.extend(2) * t])
    assert q == (Poly.variable(2, 0) * t) ** 2


def test_eval_matches_float():
    rng = np.random.default_rng(0)
    x = Poly.variable(3, 0)
    y = Poly.variable(3, 1)
    z = Poly.variable(3, 2)
    p = x ** 2 * y - z * y + x.scale(Q(1, 2))
    pts = rng.normal(size=(17, 3))
    vals = p.eval_array(pts)
    direct = pts[:, 0] ** 2 * pts[:, 1] - pts[:, 2] * pts[:, 1] + 0.5 * pts[:, 0]
    assert np.allclose(vals, direct, atol=1e-12)


def test_divide_exact():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    q = Poly.const(2, 1) - x ** 2 - y ** 2
    p = q * (x ** 3 - y + Poly.const(2, Q(5, 7)))
    quo = p.divide_exact(q)
    assert quo == x ** 3 - y + Poly.const(2, Q(5, 7))
    assert (p + Poly.const(2, 1)).divide_exact(q) is None


def test_integrate_box():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x ** 2 * y
    out = p.integrate_box([(Q(-1), Q(1)), (Q(0), Q(2))], [0, 1])
    # int x^2 over [-1,1] = 2/3 ; int y over [0,2] = 2
    assert out == Poly.const(2, Q(4, 3))


def _reference_integrate_box(p, box, vars_):
    # the routine on the {exponent tuple: Fraction} view: one Fraction per
    # term and variable, a new Poly per variable
    out = p
    for v, (lo, hi) in zip(vars_, box):
        lo, hi = Q(lo), Q(hi)
        acc = {}
        for e, c in out.terms.items():
            key = e[:v] + (0,) + e[v + 1:]
            acc[key] = acc.get(key, 0) + c * (hi ** (e[v] + 1) - lo ** (e[v] + 1)) / (e[v] + 1)
        out = Poly(out.nvars, acc)
    return out


def test_integrate_box_matches_fraction_routine():
    # random polynomials in 1..5 variables, some integrated over and the
    # rest left as parameters, on boxes with int, Fraction and empty sides
    rnd = random.Random(71)
    for _ in range(300):
        nvars = rnd.randint(1, 5)
        p = Poly(nvars, {tuple(rnd.randint(0, 4) for _ in range(nvars)):
                         Q(rnd.randint(-9, 9), rnd.randint(1, 12)) for _ in range(rnd.randint(0, 6))})
        vars_ = rnd.sample(range(nvars), rnd.randint(1, nvars))
        box = []
        for _ in vars_:
            lo = Q(rnd.randint(-20, 20), rnd.randint(1, 6))
            lo = int(lo) if rnd.random() < 0.2 else lo
            box.append((lo, lo + Q(rnd.randint(0, 9), rnd.randint(1, 7))))
        got = p.integrate_box(box, vars_)
        assert got == _reference_integrate_box(p, box, vars_) and got.nvars == nvars


def test_integrate_simplex():
    # over the standard triangle: int 1 = 1/2, int s = 1/6, int s t = 1/24
    assert dirichlet_moment([0, 0]) == Q(1, 2)
    assert dirichlet_moment([1, 0]) == Q(1, 6)
    assert dirichlet_moment([1, 1]) == Q(1, 24)


# -- the packed layout against a {exponent tuple: Fraction} reference ---------------

def _ref_clean(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref_clean(out)


def _ref_scale(a, c):
    return _ref_clean({e: c * v for e, v in a.items()})


def _ref_diff(a, var):
    out = {}
    for e, c in a.items():
        if e[var]:
            e2 = list(e)
            e2[var] -= 1
            out[tuple(e2)] = c * e[var]
    return out


def _ref_pow(a, k):
    nv = len(next(iter(a))) if a else 0
    out = {(0,) * nv: Q(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_subs(a, repl, nv):
    out = {}
    for e, c in a.items():
        term = {(0,) * nv: c}
        for v, p in enumerate(e):
            for _ in range(p):
                term = _ref_mul(term, repl[v])
        out = _ref_add(out, term)
    return out


def _ref_extend(a, nv):
    return {e + (0,) * (nv - len(e)): c for e, c in a.items()}


def _rand_ref(rng, nv, terms=None, top=6):
    out = {}
    for _ in range(rng.randint(0, 5) if terms is None else terms):
        e = tuple(rng.randint(0, top) for _ in range(nv))
        out[e] = out.get(e, 0) + Q(rng.randint(-9, 9), rng.randint(1, 12))
    return _ref_clean(out)


def _check(p, ref, nv):
    """``p`` holds exactly ``ref``, in ``nv`` variables, in reduced form."""
    assert p.nvars == nv
    assert dict(p.terms) == ref
    assert all(len(e) == nv and type(c) is Q for e, c in p.terms.items())
    assert p.den > 0 and math.gcd(p.den, *p.num.values()) == 1
    assert all(type(c) is int and c for c in p.num.values())


def _rings(rng):
    n = rng.randint(1, 3)
    nv = 2 * n + rng.randint(0, 2)  # (x, y) plus parameter slots
    return nv


def test_packed_arithmetic_matches_reference():
    rng = random.Random(20240611)
    for _ in range(300):
        nv = _rings(rng)
        ra, rb = _rand_ref(rng, nv), _rand_ref(rng, nv)
        a, b = Poly(nv, ra), Poly(nv, rb)
        _check(a, ra, nv)
        assert (a == b) == (ra == rb)
        assert (a.scale(Q(1, 2)) == a) == (not ra)
        _check(a + b, _ref_add(ra, rb), nv)
        _check(a - b, _ref_add(ra, _ref_scale(rb, -1)), nv)
        _check(-a, _ref_scale(ra, -1), nv)
        _check(a * b, _ref_mul(ra, rb), nv)
        _check(a - a, {}, nv)
        k = rng.randint(0, 3)
        _check(a ** k, _ref_pow(ra, k) if ra else ({} if k else {(0,) * nv: Q(1)}), nv)
        for c in (0, 1, -1, rng.randint(-30, 30), Q(rng.randint(-30, 30), rng.randint(1, 30)),
                  Q(7, 1), Q(-1, 1)):
            _check(a.scale(c), _ref_scale(ra, Q(c)), nv)
            _check(a * c, _ref_scale(ra, Q(c)), nv)
        var = rng.randrange(nv)
        _check(a.diff(var), _ref_diff(ra, var), nv)


def test_packed_subs_matches_reference():
    rng = random.Random(7)
    for _ in range(60):
        nv = _rings(rng)
        out_nv = nv + rng.randint(0, 2)
        ra = _rand_ref(rng, nv, top=3)
        rrepl = [_rand_ref(rng, out_nv, terms=rng.randint(0, 3), top=2) for _ in range(nv)]
        got = Poly(nv, ra).subs([Poly(out_nv, r) for r in rrepl])
        _check(got, _ref_subs(ra, rrepl, out_nv), out_nv)


def test_subs_one_pass_sum_matches_reference():
    # (z0, z1, z2) -> polynomials in the larger ring (x, y, t, s), where t
    # and s are parameter slots
    nv = 4
    x, y, t = ({tuple(int(v == i) for v in range(nv)): Q(1)} for i in range(3))
    half_x = _ref_scale(x, Q(1, 2))
    cases = [
        # a constant term alone, and beside others
        ({(0, 0, 0): Q(5, 7)}, [x, y, t]),
        ({(0, 0, 0): Q(-3), (2, 0, 1): Q(1, 6), (0, 1, 0): Q(4, 9)},
         [_ref_add(half_x, _ref_scale(y, Q(1, 3))), _ref_scale(y, Q(3, 4)),
          _ref_scale(t, Q(1, 5))]),
        # z0 - z1 with z0 -> y, z1 -> y: every term cancels
        ({(1, 0, 0): Q(1), (0, 1, 0): Q(-1)}, [y, y, t]),
        # z0^2 - z1^2 + z2 with z0 -> x + y, z1 -> x - y: the squares cancel
        # except 4xy, and the result lives in the larger ring with t and s
        ({(2, 0, 0): Q(1), (0, 2, 0): Q(-1), (0, 0, 1): Q(1)},
         [_ref_add(x, y), _ref_add(x, _ref_scale(y, -1)), t]),
        # 2/3 z0 + 4/3 z1 with z0 -> 3/2 x, z1 -> 3/4 y: over the common
        # denominator 12 the sum is (12x + 12y)/12, reduced only at the end
        ({(1, 0, 0): Q(2, 3), (0, 1, 0): Q(4, 3)},
         [_ref_scale(x, Q(3, 2)), _ref_scale(y, Q(3, 4)), t]),
    ]
    for ra, rrepl in cases:
        got = Poly(3, ra).subs([Poly(nv, r) for r in rrepl])
        _check(got, _ref_subs(ra, rrepl, nv), nv)
    assert Poly(3, cases[2][0]).subs([Poly(nv, r) for r in cases[2][1]]).is_zero()
    got = Poly(3, cases[4][0]).subs([Poly(nv, r) for r in cases[4][1]])
    assert got.den == 1 and got.num == {1: 1, 1 << 16: 1}
    # random sums with many denominators, also into larger rings
    rng = random.Random(17)
    for _ in range(60):
        nv = _rings(rng)
        out_nv = nv + rng.randint(1, 2)
        ra = _rand_ref(rng, nv, terms=rng.randint(1, 6), top=2)
        ra[(0,) * nv] = Q(rng.randint(1, 9), rng.randint(1, 9))
        rrepl = [_rand_ref(rng, out_nv, terms=rng.randint(1, 3), top=2) for _ in range(nv)]
        got = Poly(nv, ra).subs([Poly(out_nv, r) for r in rrepl])
        _check(got, _ref_subs(ra, rrepl, out_nv), out_nv)


def test_packed_divide_exact_matches_reference():
    rng = random.Random(11)
    for _ in range(150):
        nv = _rings(rng)
        rq = _rand_ref(rng, nv, terms=rng.randint(1, 4), top=4)
        rd = _rand_ref(rng, nv, terms=rng.randint(1, 3), top=3)
        if not rd:
            continue
        rp = _ref_mul(rq, rd)
        d = Poly(nv, rd)
        quo = Poly(nv, rp).divide_exact(d)
        assert quo is not None
        _check(quo, rq, nv)
        # a remainder of lower total degree than a nonconstant divisor
        deg = max(sum(e) for e in rd)
        if deg:
            rr = {e: c for e, c in _rand_ref(rng, nv, top=deg).items() if sum(e) < deg}
            rr[(0,) * nv] = rr.get((0,) * nv, 0) + 1 or Q(1, 2)
            assert Poly(nv, _ref_add(rp, rr)).divide_exact(d) is None
        # across rings: the quotient lives in the larger one
        _check(Poly(nv, rp).divide_exact(d.extend(nv + 1)), _ref_extend(rq, nv + 1), nv + 1)
    with pytest.raises(ZeroDivisionError):
        Poly.variable(2, 0).divide_exact(Poly.zero(2))


def test_packed_extend_and_equality_across_rings():
    rng = random.Random(3)
    for _ in range(100):
        nv = _rings(rng)
        ra = _rand_ref(rng, nv)
        a = Poly(nv, ra)
        wide = a.extend(nv + 2)
        _check(wide, _ref_extend(ra, nv + 2), nv + 2)
        assert wide == a and a == wide
        assert wide.extend(nv) == a and wide.extend(nv).nvars == nv
        # results of mixed rings live in the larger ring
        b = Poly(nv + 1, _rand_ref(rng, nv + 1))
        assert (a + b).nvars == (a * b).nvars == nv + 1
        assert a + b == wide + b
        assert a != a + Poly.const(nv, Q(1, 3))
    p = Poly.variable(3, 2)
    with pytest.raises(ValueError, match="shrink"):
        p.extend(2)
    assert (p - p).extend(1) == Poly.zero(1)


def test_terms_view_is_read_only_and_cached():
    p = Poly(2, {(1, 0): Q(1, 2), (0, 3): Q(-2, 3)})
    assert p.terms is p.terms
    assert p.terms == {(1, 0): Q(1, 2), (0, 3): Q(-2, 3)}
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = Q(1)
    assert p.den == 6 and p.num == {1: 3, 3 << 16: -4}


# -- guards of the packed fields ---------------------------------------------------

def test_exponent_outside_field_raises_at_construction():
    for e in [(MAX_EXPONENT + 1, 0), (0, MAX_EXPONENT + 1), (-1, 0), (0, -2)]:
        with pytest.raises(ValueError, match="exponent"):
            Poly(2, {e: 1})
        with pytest.raises(ValueError, match="exponent"):
            Poly.monomial(2, e)
    assert Poly.monomial(2, (MAX_EXPONENT, 1)).terms == {(MAX_EXPONENT, 1): 1}


def test_exponent_overflow_in_a_product_raises_and_never_carries():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    top = Poly.monomial(2, (MAX_EXPONENT, 0))
    for product in (lambda: top * x, lambda: x * top, lambda: top * (x + y),
                    lambda: (top + y) * (x + y), lambda: top ** 2, lambda: x ** (MAX_EXPONENT + 1)):
        with pytest.raises(ValueError, match="exponent"):
            product()
    # the highest field overflows too, instead of growing the key
    ytop = Poly.monomial(2, (0, MAX_EXPONENT))
    with pytest.raises(ValueError, match="exponent"):
        ytop * y
    assert (top * y).terms == {(MAX_EXPONENT, 1): 1}
    assert top.divide_exact(x * y) is None


def test_numpy_integer_exponents_are_accepted():
    # six variables: the last field starts at bit 80, beyond any int64
    e = np.array([2, 0, 0, 0, 0, 1], dtype=np.int64)
    p = Poly(6, {tuple(e): Q(3, 2)})
    assert p == Poly.monomial(6, [np.int32(2), 0, 0, 0, 0, np.uint8(1)], Q(3, 2))
    assert p == Poly.variable(6, 0) ** 2 * Poly.variable(6, 5) * Q(3, 2)
    assert all(type(v) is int for v in next(iter(p.terms)))
    assert p.diff(0).terms == {(1, 0, 0, 0, 0, 1): 3}


def test_divide_exact_refuses_before_a_field_overflows():
    # dividing by x y - x^MAX_EXPONENT, each step adds MAX_EXPONENT - 1 to
    # the x-exponents of the remainder
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    q = x * y - Poly.monomial(2, (MAX_EXPONENT, 0))
    for k in (2, 3, 9, 17, 40):
        assert (x ** 2 * y ** k).divide_exact(q) is None
    assert (q * y ** 3).divide_exact(q) == y ** 3


def test_total_degree_over_many_variables():
    rng = random.Random(5)
    for nv in (1, 3, 16, 17, 40):
        for _ in range(20):
            e = tuple(rng.randint(0, MAX_EXPONENT) for _ in range(nv))
            p = Poly(nv, {e: 1, (0,) * nv: 2})
            assert p.total_degree() == sum(e)
