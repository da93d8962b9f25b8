"""What the exact core keeps equals what it would compute afresh.

A ``PolynomialMap`` keeps the powers of its components, a ``Form`` its
exterior derivative, and a product with one monomial skips the division by
q_M.  Each result is compared with a cold one by value and by layout: the
order of atoms, of terms and of monomials, which equality ignores.
"""

import sys
import threading

import pytest

from cycleval.coefficients import CoefficientFn, _box_intersection, _merge_bumps, ball_bump
from cycleval.forms import (
    Form,
    exterior_derivative,
    fiber_scaling,
    linear_lift,
    merge_sign,
    pullback,
    random_bump_form,
    standard_symplectic_form,
    vertical_translation,
    wedge,
)
from cycleval.polynomials import Poly
from cycleval.suites import _Draws, _generic_linear, _random_poly_form


def _layout(obj):
    """Value and order of every part of a form, coefficient or polynomial."""
    if isinstance(obj, Poly):
        return obj.nvars, obj.den, list(obj.num.items())
    if isinstance(obj, CoefficientFn):
        return obj.n, obj.declared_box, [(sig, _layout(p)) for sig, p in obj.atoms.items()]
    return obj.n, obj.degree, [(k, _layout(c)) for k, c in obj.terms.items()]


def _forms(n, seed=3):
    """Random polynomial and bump forms of every degree, at radius 2 and 1;
    at n = 1 and radius 1, q = 1 - x^2 factors over Q."""
    rng = _Draws(seed + n)
    out = []
    for degree in range(2 * n + 1):
        out.append(_random_poly_form(rng, n, degree))
        for radius in (2, 1):
            out.append(random_bump_form(rng, n, degree=degree, nterms=2, radius=radius))
    return out


def _maps(n):
    """Constructors of the maps of the identities suite, plus a numeric scaling."""
    return [lambda: vertical_translation(n), lambda: linear_lift(n, _generic_linear(n)),
            lambda: fiber_scaling(n), lambda: fiber_scaling(n, 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pullback_through_a_warm_map_equals_a_fresh_map(n):
    forms = _forms(n)
    for make in _maps(n):
        warm = make()
        for a in forms + forms:
            got = pullback(warm, a)
            want = pullback(make(), a)
            assert got == want and _layout(got) == _layout(want)
        assert warm.powers


def _assert_kept_powers(F):
    n = F.n
    for (v, p), power in F.powers.items():
        base = F.components[v] if v < 2 * n else Poly.variable(power.nvars, v)
        assert power == base ** p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kept_powers_are_the_powers(n):
    F = fiber_scaling(n)
    for a in _forms(n):
        pullback(F, pullback(F, a))  # the second one substitutes t for t
    assert any(v >= 2 * n for v, _ in F.powers)
    _assert_kept_powers(F)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kept_derivative_equals_the_derivative_of_a_fresh_copy(n):
    for a in _forms(n):
        d = exterior_derivative(a)
        assert exterior_derivative(a) is d
        fresh = exterior_derivative(Form(a.n, a.degree, dict(a.terms)))
        assert d == fresh and _layout(d) == _layout(fresh)
        dd = exterior_derivative(d)
        assert dd.is_zero() and dd == exterior_derivative(Form(d.n, d.degree, dict(d.terms)))


def _canonicalising_product(c, other):
    """``CoefficientFn.__mul__`` with every product canonicalised."""
    if isinstance(other, Poly):
        return CoefficientFn._canonicalised(
            c.n, {s: p * other for s, p in c.atoms.items()}, c.declared_box)
    out = {}
    for s1, p1 in c.atoms.items():
        for s2, p2 in other.atoms.items():
            sig = _merge_bumps(s1, s2)
            out[sig] = out[sig] + p1 * p2 if sig in out else p1 * p2
    return CoefficientFn._canonicalised(
        c.n, out, _box_intersection(c.declared_box, other.declared_box))


def _canonicalising_wedge(a, b):
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            s, key = merge_sign(k1, k2)
            if s:
                c = _canonicalising_product(c1, c2).scale(s)
                out[key] = out[key] + c if key in out else c
    return Form._trusted(a.n, a.degree + b.degree, out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_product_equals_the_canonicalising_product(n):
    rng = _Draws(17 + n)
    nv = 2 * n
    forms = _forms(n)
    coefficients = [c for a in forms for b in (a, exterior_derivative(a))
                    for c in b.terms.values()]
    assert any(f.denom_pow for c in coefficients for sig in c.atoms for f in sig)
    for c in coefficients:
        e = [0] * nv
        e[rng.integers(nv)] = rng.integers(0, 3)
        mono = Poly.monomial(nv, e, rng.choice([1, -2, 3]))
        cmono = CoefficientFn.from_poly(n, mono)
        windowed = CoefficientFn.from_poly(n, mono, box=((-1, 1),) * n)
        for got, want in ((c * mono, _canonicalising_product(c, mono)),
                          (c * cmono, _canonicalising_product(c, cmono)),
                          (cmono * c, _canonicalising_product(cmono, c)),
                          (c * windowed, _canonicalising_product(c, windowed))):
            assert got == want and _layout(got) == _layout(want)
    # omega_s has constant coefficients: its wedges take the monomial path
    omega = standard_symplectic_form(n)
    for a in forms:
        if a.degree <= 2 * n - 2:
            for got, want in ((wedge(omega, a), _canonicalising_wedge(omega, a)),
                              (wedge(a, omega), _canonicalising_wedge(a, omega))):
                assert got == want and _layout(got) == _layout(want)


def test_bump_with_a_rational_root_keeps_its_factors():
    # q = 1 - x^2 = (1 - x)(1 + x) over Q: a monomial shares no factor with it
    x = Poly.variable(2, 0)
    one = Poly.const(2, 1)
    bump = ball_bump(1, 1)
    c = CoefficientFn.bump(1, bump, one - x).diff(0)
    assert any(f.denom_pow for sig in c.atoms for f in sig)
    for mono in (x, x * x * 3, Poly.variable(2, 1) * x):
        got, want = c * mono, _canonicalising_product(c, mono)
        assert got == want and _layout(got) == _layout(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_threads_sharing_a_map_get_the_one_thread_results(n):
    # more threads than cores, switching often: a power stored twice or
    # read half-built would change a pullback
    rng = _Draws(29 + n)
    forms = _forms(n) + [_random_poly_form(rng, n, degree, nterms=3, max_deg=9)
                         for degree in range(2 * n + 1) for _ in range(2)]
    order = list(range(len(forms)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in _maps(n):
            alone = [_layout(pullback(make(), a)) for a in forms]
            shared = make()
            start = threading.Barrier(4)
            got = [None] * 4

            def work(slot):
                start.wait()
                mine = order[::-1] if slot % 2 else order
                got[slot] = {i: _layout(pullback(shared, forms[i])) for i in mine}

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for result in got:
                assert [result[i] for i in order] == alone
            _assert_kept_powers(shared)
    finally:
        sys.setswitchinterval(interval)
