import pickle
import sys
import threading
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import BumpFactor, CoefficientFn, CompiledBatch, EvalCache, ball_bump
from cycleval.forms import exterior_derivative, linear_lift, random_bump_form
from cycleval.polynomials import Poly


def _x(nvars, i=0):
    return Poly.variable(nvars, i)


def _is_canonical(c: CoefficientFn) -> bool:
    """No q_M of a factor with a denominator divides its atom's polynomial."""
    for sig, poly in c.atoms.items():
        if poly.is_zero():
            return False
        for f in sig:
            if f.denom_pow > 0 and poly.divide_exact(f.q_poly(poly.nvars)) is not None:
                return False
    return True


def _bump_coefficients(n, rng, count=6):
    """Coefficients of random bump forms and of their derivatives, so that
    atoms with q_M denominators and two different matrices occur."""
    out = []
    for k in range(count):
        a = random_bump_form(rng, n, degree=int(rng.integers(0, n + 1)), nterms=3,
                             radius=1 + k % 2)
        if k % 3 == 2:
            b = random_bump_form(rng, n, degree=0, nterms=1, radius=3)
            a = a.map_coefficients(lambda c, b=b: c * b.terms[()]) if b.terms else a
        for form in (a, exterior_derivative(a)):
            out.extend(form.terms.values())
    return [c for c in out if c.has_bump()]


def test_bump_factors_hash_by_matrix_value():
    a = BumpFactor(((1, 0), (0, 2)), 1, 2)
    b = BumpFactor(((Q(1), Q(0)), (Q(0), Q(4, 2))), 1, 2)
    assert a == b and hash(a) == hash(b) and a.mid == b.mid
    assert a != BumpFactor(b.M, 1, 1)
    assert {a: 1}[b] == 1
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == ("BumpFactor(M=((Fraction(1, 1), Fraction(0, 1)), "
                       "(Fraction(0, 1), Fraction(2, 1))), beta_pow=1, denom_pow=2)")


def test_interning_is_thread_safe():
    # a matrix no other test interns, built by many threads at once from
    # equal entries of different types
    variants = [
        ((Q(1, 2), 0), (0, Q(7919, 3))),
        ((Q(2, 4), Q(0)), (Q(0), Q(15838, 6))),
        ((Q(1, 2), Q(0, 5)), (0, Q(7919, 3))),
    ]
    threads, built = 12, []
    barrier = threading.Barrier(threads)
    lock = threading.Lock()

    def work(k):
        barrier.wait(timeout=30)
        f = BumpFactor(variants[k % len(variants)], 1, k % 2)
        with lock:
            built.append(f)

    pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert len(built) == threads
    assert len({f.mid for f in built}) == 1
    for f in built:
        g = BumpFactor(variants[0], 1, f.denom_pow)
        assert f == g and hash(f) == hash(g)
        assert f.M == built[0].M


def test_transform_is_gt_m_g():
    M = ((Q(1), Q(1, 3)), (Q(1, 3), Q(2)))
    G = ((Q(1), Q(1, 2)), (Q(-1, 3), Q(1)))
    got = BumpFactor(M, 2, 1).transform(G)
    want = tuple(tuple(sum(G[a][i] * M[a][b] * G[b][j] for a in range(2) for b in range(2))
                       for j in range(2)) for i in range(2))
    assert got == BumpFactor(want, 2, 1)
    # cached result is the same factor
    assert BumpFactor(M, 2, 1).transform([list(r) for r in G]) == got


def test_sum_collapses_to_lower_denominator():
    # (1 + (-x^2)) beta / q = beta  for  q = 1 - x^2
    M = ((Q(1),),)
    nv = 2
    a = CoefficientFn(1, {(BumpFactor(M, 1, 1),): Poly.const(nv, 1)})
    b = CoefficientFn(1, {(BumpFactor(M, 1, 1),): -(_x(nv) ** 2)})
    total = a + b
    assert total.atoms == {(BumpFactor(M, 1, 0),): Poly.const(nv, 1)}
    assert total == CoefficientFn.bump(1, BumpFactor(M))
    # the collapsed atom merges with an atom already at the lower power
    c = CoefficientFn(1, {(BumpFactor(M, 1, 0),): _x(nv),
                          (BumpFactor(M, 1, 1),): Poly.const(nv, 1)})
    assert (c + b).atoms == {(BumpFactor(M, 1, 0),): _x(nv) + Poly.const(nv, 1)}
    # and cancels to zero when it is the negative of that atom
    d = CoefficientFn(1, {(BumpFactor(M, 1, 0),): Poly.const(nv, -1),
                          (BumpFactor(M, 1, 1),): Poly.const(nv, 1)})
    assert (d + b).is_zero()


def test_product_reduces_when_factors_multiply_to_q():
    # q = 1 - x^2 = (1 - x)(1 + x) is reducible for M = [[1]]
    M = ((Q(1),),)
    nv = 2
    one, x = Poly.const(nv, 1), _x(nv)
    a = CoefficientFn(1, {(BumpFactor(M, 1, 1),): one - x})
    want = {(BumpFactor(M, 1, 0),): one}
    assert (a * (one + x)).atoms == want
    assert (a * CoefficientFn.from_poly(1, one + x)).atoms == want
    b = CoefficientFn(1, {(BumpFactor(M, 2, 0),): one + x})
    assert (a * b).atoms == {(BumpFactor(M, 3, 0),): one}


def test_diff_reduces_a_derivative_divisible_by_q():
    # d/dx (x^3 - 3x) = -3 (1 - x^2) = -3 q  for M = [[1]]
    M = ((Q(1),),)
    nv = 2
    x = _x(nv)
    p = x ** 3 - x.scale(3)
    c = CoefficientFn(1, {(BumpFactor(M, 1, 1),): p})
    dc = c.diff(0)
    assert dc.atoms[(BumpFactor(M, 1, 0),)] == Poly.const(nv, -3)
    assert (BumpFactor(M, 1, 1),) not in dc.atoms
    assert _is_canonical(dc)
    # beta itself: d beta = -2x beta / q^2, and (1 - x^2) beta / q^2 = beta / q
    e = CoefficientFn(1, {(BumpFactor(M, 1, 0),): Poly.const(nv, 1) - x ** 2})
    de = e.diff(0)
    assert _is_canonical(de)
    assert de == CoefficientFn(1, list(de.atoms.items()))


def test_trusted_operations_match_full_canonicalisation():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        lift = linear_lift(n, [[Q(1) if i == j else Q(i + 1, 3 + j) * (j > i)
                                for j in range(n)] for i in range(n)])
        G = [[lift.components[i].terms.get(tuple(int(v == j) for v in range(2 * n)), Q(0))
              for j in range(n)] for i in range(n)]
        coeffs = _bump_coefficients(n, rng)
        assert coeffs
        for c in coeffs:
            assert _is_canonical(c)
            for got, raw in (
                (-c, [(s, -p) for s, p in c.atoms.items()]),
                (c.scale(Q(-3, 5)), [(s, p.scale(Q(-3, 5))) for s, p in c.atoms.items()]),
                (c.scale(2), [(s, p.scale(2)) for s, p in c.atoms.items()]),
            ):
                full = CoefficientFn(n, raw, declared_box=c.declared_box)
                assert list(got.atoms.items()) == list(full.atoms.items())
            subs = c.subs_linear(lift)
            m = max(c.nvars(), 2 * n)
            raw = [(tuple(f.transform(G) for f in s), p.extend(m).subs(lift.components))
                   for s, p in c.atoms.items()]
            full = CoefficientFn(n, raw)
            assert list(subs.atoms.items()) == list(full.atoms.items())
            # every result is already in canonical form
            for got in (-c, c.scale(7), subs, c.diff(0), c.diff(n - 1), c + subs,
                        c + c.scale(-1), c * coeffs[0]):
                assert _is_canonical(got)
                assert got.atoms == CoefficientFn(n, list(got.atoms.items())).atoms


def test_ball_bump_shares_interned_matrix():
    assert ball_bump(2, 2) == ball_bump(2, Q(2)) == BumpFactor(((Q(1, 4), 0), (0, Q(1, 4))))
    assert ball_bump(2, 2).q_poly(4) is ball_bump(2, 2).q_poly(4)


def _random_poly(rng, nvars, nterms=4, max_deg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(int(v) for v in rng.integers(0, max_deg, size=nvars))
        terms[e] = Q(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Poly(nvars, terms)


def test_multiple_of_q_reduces_to_quotient():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        nv = 2 * n
        M = tuple(tuple(Q(2 if i == j else 1, 3 + i + j) for j in range(n))
                  for i in range(n))
        q = BumpFactor(M).q_poly(nv)
        for k in range(8):
            r = _random_poly(rng, nv, nterms=1 + k % 4)
            if r.is_zero():
                continue
            c = CoefficientFn(n, {(BumpFactor(M, 1, 1),): q * r})
            assert c.atoms == {(BumpFactor(M, 1, 0),): r}
            # beta_pow 0: q r / q is the bare polynomial r
            c0 = CoefficientFn(n, {(BumpFactor(M, 0, 1),): q * r})
            assert c0.atoms == {(BumpFactor(M, 0, 0),): r}


def _reference_eval(c: CoefficientFn, pts: np.ndarray, absolute: bool = False):
    """Per-atom values, each polynomial times its own float bump factors;
    with ``absolute``, each polynomial's sum of |c z^e| over its terms."""
    n = c.n
    width = max(c.nvars(), pts.shape[1])
    full = np.zeros((pts.shape[0], width))
    full[:, :pts.shape[1]] = pts
    atoms = []
    for sig, poly in c.atoms.items():
        if absolute:
            mags = Poly(poly.nvars, {e: abs(v) for e, v in poly.terms.items()})
            vals = mags.eval_array(np.abs(full))
        else:
            vals = poly.eval_array(full)
        for f in sig:
            M = np.array([[float(v) for v in row] for row in f.M])
            q = 1.0 - np.einsum("ni,ij,nj->n", full[:, :n], M, full[:, :n])
            factor = np.zeros_like(q)
            inside = q > 1e-300
            with np.errstate(over="ignore", under="ignore"):
                beta = np.exp(1.0 - 1.0 / q[inside])
            factor[inside] = beta ** f.beta_pow / q[inside] ** f.denom_pow
            vals = vals * factor
        atoms.append(vals)
    return np.array(atoms)


def _eval_cases(n, rng):
    """Coefficients with atoms sharing a matrix, two matrices in one atom and
    across atoms, and factors with beta_pow 0 and denom_pow > 0."""
    nv = 2 * n
    A = ball_bump(n, 2).M
    B = tuple(tuple(Q(3 if i == j else -1, 4 + i + j) for j in range(n)) for i in range(n))
    polys = [_random_poly(rng, nv) for _ in range(6)]
    shared = CoefficientFn(n, {
        (BumpFactor(A, 1, 0),): polys[0],
        (BumpFactor(A, 2, 1),): polys[1],
        (BumpFactor(A, 0, 2),): polys[2],
    })
    two = CoefficientFn(n, {
        (BumpFactor(A, 1, 1), BumpFactor(B, 1, 0)): polys[3],
        (BumpFactor(B, 0, 1),): polys[4],
        (): polys[5],
    })
    # a ring with an unused parameter slot: wider than the 2n input columns
    wide = CoefficientFn(n, {(BumpFactor(B, 1, 2),): polys[0].extend(nv + 1)
                             + Poly.variable(nv + 1, 0)})
    return shared, two, wide


def _eval_nodes(n, rng):
    inside = rng.uniform(-1.5, 1.5, size=(40, 2 * n)) / np.sqrt(n)
    outside = rng.uniform(-4, 4, size=(40, 2 * n))
    on = np.zeros((2 * n, 2 * n))  # on the sphere of radius 2 of ball_bump(n, 2)
    for i in range(n):
        on[2 * i, i] = 2.0
        on[2 * i + 1, i] = -2.0
    return np.concatenate([inside, outside, on])


def test_eval_array_matches_per_atom_reference():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        pts = _eval_nodes(n, rng)
        cases = _eval_cases(n, rng)
        for c in cases:
            ref = _reference_eval(c, pts)
            scale = np.abs(ref).sum(axis=0) + 1e-300
            got = c.eval_array(pts)
            assert np.all(np.abs(got - ref.sum(axis=0)) <= 1e-13 * scale)
        # the last nodes lie on the ellipsoid of the shared matrix: value 0
        assert np.all(cases[0].eval_array(pts)[-2 * n:] == 0)
        # the x-only entry point pads the y columns with zeros
        c = cases[0]
        x = pts[:, :n]
        want = _reference_eval(c, np.concatenate([x, np.zeros_like(x)], axis=1)).sum(axis=0)
        assert np.allclose(c.eval_x_array(x), want, rtol=1e-13, atol=0)


def test_compiled_batch_equals_separate_calls():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        pts = _eval_nodes(n, rng)
        Z = np.ascontiguousarray(pts.T)
        coeffs = _eval_cases(n, rng) + _eval_cases(n, rng)[:1]
        batch = CompiledBatch(n, [(row, None, c, 1) for row, c in enumerate(coeffs)])
        together = np.zeros((len(coeffs), len(pts)))
        batch.add_to(together, Z, {None: 1.0})
        for c, got in zip(coeffs, together):
            scale = _reference_eval(c, pts, absolute=True).sum(axis=0) + 1e-300
            assert np.all(np.abs(got - c.eval_array(pts)) <= 1e-13 * scale)
        # a batch changes no row: each equals its coefficient compiled alone
        for row, c in enumerate(coeffs):
            alone = np.zeros((1, len(pts)))
            CompiledBatch(n, [(0, None, c, 1)]).add_to(alone, Z, {None: 1.0})
            assert np.array_equal(alone[0], together[row])


def _full_table_add_to(batch, out, Z, weights, rows=None):
    """``add_to`` on the whole monomial table, computed at once before the
    first group: the evaluation that the scheduled table replaced."""
    table = np.empty((len(batch._steps) + 1, Z.shape[1]))
    table[0] = 1.0
    for i, (parent, var) in enumerate(batch._steps, 1):
        np.multiply(table[parent], Z[var], out=table[i])
    slot = {r: r for r in range(len(out))} if rows is None else {r: k for k, r in enumerate(rows)}
    X = Z[:batch.n].T
    for key, sig, group_rows in batch._groups:
        w = weights[key]
        for f in sig:
            w = w * EvalCache().factor(f, X)
        for r, terms, _ in group_rows:
            if r in slot:
                (k, c), *rest = terms
                vals = table[k] * c
                for k, c in rest:
                    vals += table[k] * c
                out[slot[r]] += vals * w


def _largest_live_count(batch, rows=None) -> int:
    """The most table rows live at one group: a row lives from the first
    group that reads it or a row computed from it to the last group that
    reads it or first needs a row computed from it."""
    reads = [[k for r, terms, _ in group_rows if rows is None or r in rows for k, _ in terms]
             for _, _, group_rows in batch._groups]
    reads = [ks for ks in reads if ks]
    first, last = {}, {}
    for t, ks in enumerate(reads):
        for k in ks:
            last[k] = t
            chain = [k]
            while chain[-1]:
                chain.append(batch._steps[chain[-1] - 1][0])
            for a in chain:
                first.setdefault(a, t)
    for k, t in first.items():
        if k:
            parent = batch._steps[k - 1][0]
            last[parent] = max(last.get(parent, t), t)
    return max((sum(first[k] <= t <= last[k] for k in first) for t in range(len(reads))),
               default=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scheduled_table_equals_the_full_table_bitwise(n):
    # random batches over three weight keys, with polynomial rows in x alone
    # beside bump factors; every selection of rows shares one EvalCache, and
    # holds only the live table rows
    rng = np.random.default_rng(60 + n)
    pts = _eval_nodes(n, rng)
    Z = np.ascontiguousarray(pts.T)
    A = ball_bump(n, 2).M
    shrunk = False
    for trial in range(4):
        coeffs = list(_eval_cases(n, rng)) + [
            CoefficientFn(n, {(BumpFactor(A, 1, k % 2),): _random_poly(rng, n, 5).extend(2 * n)})
            for k in range(2)]
        pieces = [(int(rng.integers(0, 5)), int(rng.integers(0, 3)), c, int(rng.choice([-1, 1])))
                  for c in coeffs for _ in range(2)]
        batch = CompiledBatch(n, pieces)
        weights = {key: rng.normal(size=len(pts)) for key in batch.keys}
        cache = EvalCache()
        for rows in (None, (4, 1), (2,), (0, 3, 1, 4, 2)):
            got = np.zeros((5 if rows is None else len(rows), len(pts)))
            want = np.zeros_like(got)
            batch.add_to(got, Z, weights, cache, rows)
            _full_table_add_to(batch, want, Z, weights, rows)
            assert np.array_equal(got, want)
            width = batch._plan(rows)[0]
            assert width == _largest_live_count(batch, rows)
            shrunk = shrunk or width < len(batch._steps) + 1
    assert shrunk


# -- diff against the per-atom loop it replaced ---------------------------------------

def _reference_diff(c: CoefficientFn, var: int) -> CoefficientFn:
    """Every contribution of every atom through one accumulator, in atom
    order, then full canonicalisation by the public constructor."""
    out = {}

    def acc(sig, poly):
        if not poly.is_zero():
            out[sig] = out[sig] + poly if sig in out else poly

    for sig, poly in c.atoms.items():
        acc(sig, poly.diff(var))
        if var < c.n:
            for idx, f in enumerate(sig):
                dq = f.q_grad(var, poly.nvars)
                if dq.is_zero():
                    continue
                pdq = poly * dq
                rest = list(sig)
                rest[idx] = BumpFactor(f.M, f.beta_pow, f.denom_pow + 2)
                acc(tuple(rest), pdq.scale(f.beta_pow))
                if f.denom_pow:
                    rest = list(sig)
                    rest[idx] = BumpFactor(f.M, f.beta_pow, f.denom_pow + 1)
                    acc(tuple(rest), pdq.scale(-f.denom_pow))
    return CoefficientFn(c.n, list(out.items()), declared_box=c.declared_box)


def _check_diff(c: CoefficientFn, var: int) -> CoefficientFn:
    got = c.diff(var)
    want = _reference_diff(c, var)
    assert list(got.atoms.items()) == list(want.atoms.items())
    assert _is_canonical(got)
    return got


def test_diff_sums_a_plain_derivative_into_a_bump_term():
    # d/dx of x beta and then x beta / q^2 (M = [[1]]): the first atom's
    # bump term -2x^2 beta / q^2 and the second atom's plain derivative
    # beta / q^2 share the signature beta / q^2 and must be summed
    M = ((Q(1),),)
    nv = 2
    x = _x(nv)
    c = CoefficientFn(1, {(BumpFactor(M, 1, 0),): x, (BumpFactor(M, 1, 2),): x})
    assert list(c.atoms) == [(BumpFactor(M, 1, 0),), (BumpFactor(M, 1, 2),)]
    got = _check_diff(c, 0)
    # 1 - 2x^2 on beta / q^2, and from the second atom's bump -2x^2 beta / q^4
    # and +4x^2 beta / q^3 (dq = -2x)
    assert got.atoms[(BumpFactor(M, 1, 2),)] == Poly.const(nv, 1) - x * x * 2
    assert got.atoms[(BumpFactor(M, 1, 0),)] == Poly.const(nv, 1)
    assert got.atoms[(BumpFactor(M, 1, 4),)] == -(x * x * 2)
    assert got.atoms[(BumpFactor(M, 1, 3),)] == x * x * 4


def test_diff_matches_per_atom_loop():
    M1 = ((Q(1), Q(1, 3)), (Q(1, 3), Q(2)))
    M2 = ((Q(1, 4), Q(0)), (Q(0), Q(1, 9)))
    n, nv = 2, 5  # (x1, x2, y1, y2) and one parameter slot
    x1, x2, y1, t = (Poly.variable(nv, v) for v in (0, 1, 2, 4))
    two = tuple(sorted((BumpFactor(M1, 1, 1), BumpFactor(M2, 2, 0)), key=lambda f: f.order))
    # two matrices in one signature, and an atom whose only x is in its bump
    c = CoefficientFn(n, {two: x1 * y1 + t, (BumpFactor(M2, 1, 0),): y1 * y1 * t,
                          (): x2 * x2})
    assert two in c.atoms
    assert c.diff_variables() == [0, 1, 2]
    for var in range(nv):
        got = _check_diff(c, var)
        if var in (3, 4):
            # y2 occurs nowhere, so d/dy2 is zero; the parameter t occurs
            assert got.is_zero() == (var == 3)
    # the atom without x in its polynomial still has an x-derivative
    bump_only = CoefficientFn(n, {(BumpFactor(M2, 1, 0),): y1})
    assert bump_only.diff_variables() == [0, 1, 2]
    assert not _check_diff(bump_only, 1).is_zero()
    assert _check_diff(bump_only, 3).is_zero()
    # a polynomial without bumps counts only the variables it contains
    assert CoefficientFn.from_poly(n, x2 * y1 * t).diff_variables() == [1, 2]
    # random coefficients with q_M denominators and two matrices
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        for c in _bump_coefficients(n, rng, count=4):
            for var in range(2 * n):
                got = _check_diff(c, var)
                if var not in c.diff_variables():
                    assert got.is_zero()


def test_exterior_derivative_sums_every_partial():
    # d a = sum over all 2n variables of d/dz_v a wedged with dz_v, whatever
    # diff_variables skips
    from cycleval.forms import Form, wedge

    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for degree in range(2 * n):
            a = random_bump_form(rng, n, degree=degree, nterms=3)
            b = random_bump_form(rng, n, degree=degree, nterms=1, y_dependent=False)
            a = a + b if a.degree == b.degree or a.is_zero() or b.is_zero() else a
            total = Form.zero(n, degree + 1)
            for v in range(2 * n):
                dz = Form(n, 1, {(v,): CoefficientFn.constant(n, 1)})
                partial = Form(n, degree, {k: c.diff(v) for k, c in a.terms.items()})
                total = total + wedge(dz, partial)
            assert exterior_derivative(a) == total


def test_sum_on_different_windows_is_refused():
    # one window cannot hold a polynomial on each of two: box(-2,2) * dx1 +
    # box(0,1) * dx1 would integrate to 8, not 5
    def on(lo, hi):
        return CoefficientFn.from_poly(1, Poly.const(2, 1), box=((Q(lo), Q(hi)),))

    with pytest.raises(ValueError, match=r"windows \[-2, 2\] and \[0, 1\]"):
        on(-2, 2) + on(0, 1)
    # one window, or a window and none, still add
    assert (on(-2, 2) + on(-2, 2)).declared_box == on(-2, 2).declared_box
    assert (on(0, 1) + CoefficientFn.constant(1, 3)).declared_box == on(0, 1).declared_box
    assert (CoefficientFn.constant(1, 3) + on(0, 1)).declared_box == on(0, 1).declared_box
