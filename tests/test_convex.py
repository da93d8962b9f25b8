from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.convex import (
    BodyRestriction,
    CatalogError,
    EllipsoidBody,
    LogSumExp,
    MaxAffine,
    NonsmoothPointError,
    Perturbed,
    PiecewiseLinear1D,
    PointBody,
    Quadratic,
    Scaled,
    Shifted,
    SmoothCatalog,
    SmoothedBoxBody,
    SmoothField,
    as_max_affine,
    body_restriction,
    node_matmul,
    outer,
    quadratic_form,
    unbroadcast,
)
from cycleval.coefficients import CoefficientFn, ball_bump

RNG = np.random.default_rng(42)

def _rand_psd(rng, n, lam_min=0.3):
    G = rng.normal(size=(n, n))
    A = G @ G.T + lam_min * np.eye(n)
    return np.round(A, 3)

def _fd_gradient(f, x, h=1e-4):
    n = len(x)
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (f.eval(x + e) - f.eval(x - e)) / (2 * h)
    return g

def _fd_hessian(f, x, h=1e-4):
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[i] = (f.gradient(x + e) - f.gradient(x - e)) / (2 * h)
    return 0.5 * (H + H.T)

SMOOTH_SAMPLES = []
for n in (1, 2, 3):
    SMOOTH_SAMPLES.append(Quadratic(_rand_psd(RNG, n), RNG.normal(size=n).round(2), 0.5))
    SMOOTH_SAMPLES.append(SmoothCatalog("sqrt1p", n))
    SMOOTH_SAMPLES.append(SmoothCatalog("quartic", n))
    ma = MaxAffine([(RNG.integers(-2, 3, size=n).tolist(), round(float(RNG.normal()), 2))
                    for _ in range(4)])
    SMOOTH_SAMPLES.append(LogSumExp(ma, 8.0))
SMOOTH_SAMPLES.append(BodyRestriction(EllipsoidBody(_rand_psd(RNG, 3, 0.5))))
SMOOTH_SAMPLES.append(BodyRestriction(PointBody([0.7, -0.3, 1.1])))
SMOOTH_SAMPLES.append(BodyRestriction(SmoothedBoxBody([1.0, 1.5, 0.7], eps=0.2)))

@pytest.mark.parametrize("f", SMOOTH_SAMPLES, ids=lambda f: f.describe())
def test_gradients_match_finite_differences(f):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=f.n)
        g = f.gradient(x)
        g_fd = _fd_gradient(f, x)
        scale = max(1.0, np.abs(g).max())
        assert np.abs(g - g_fd).max() < 1e-5 * scale
        H = f.hessian(x)
        H_fd = _fd_hessian(f, x)
        hscale = max(1.0, np.abs(H).max())
        assert np.abs(H - H_fd).max() < 1e-3 * hscale
        # convexity spot-check
        assert np.linalg.eigvalsh(H).min() >= -1e-10

@pytest.mark.parametrize("f", SMOOTH_SAMPLES, ids=lambda f: f.describe())
def test_sup_bound_dominates_samples(f):
    rng = np.random.default_rng(11)
    rho = 2.0
    X = rng.uniform(-1, 1, size=(64, f.n))
    X = X / np.maximum(1.0, np.linalg.norm(X, axis=1) / rho)[:, None]
    bound = f.sup_abs_bound(rho)
    assert (np.abs(f.eval_array(X)) <= bound + 1e-9).all()

def test_quadratic_basic():
    f = Quadratic(np.eye(2))
    x = np.array([1.0, 2.0])
    assert f.eval(x) == pytest.approx(2.5)
    assert np.allclose(f.gradient(x), x)
    assert np.allclose(f.hessian(x), np.eye(2))
    with pytest.raises(CatalogError):
        Quadratic([[-1.0]])


@pytest.mark.parametrize("A,b", [
    ([[1, 2]], None), ([[1, 0], [0]], None), ([[[1]]], None),
    ([[1]], [0, 0]), ([[1, 0], [0, 1]], [0]),
])
def test_quadratic_rejects_shape_mismatch(A, b):
    with pytest.raises(CatalogError):
        Quadratic(A, b)

def test_shifted_and_scaled():
    f = Quadratic(np.eye(2))
    g = Shifted(f, [1, -1], 3)
    x = np.array([0.5, 0.5])
    assert g.eval(x) == pytest.approx(f.eval(x) + 0.5 - 0.5 + 3)
    h = Scaled(f, Q(3, 2))
    assert h.eval(x) == pytest.approx(1.5 * f.eval(x))
    z = Scaled(f, 0)
    assert z.eval(x) == 0.0 and z.smooth

def test_lipschitz_bound_examples():
    # the mass suite's Lipschitz bound on B_R is 2 sup_{|x| <= R+1} |f|
    def lipschitz_bound(f, R):
        return 2.0 * f.sup_abs_bound(R + 1.0)

    # f = |x|^2/2, R = 1: 2 sup_{|x|<=2} |f| = 4
    f = Quadratic([[1]])
    assert lipschitz_bound(f, 1.0) == pytest.approx(4.0, abs=1e-9)
    # bound dominates sampled difference quotients
    rng = np.random.default_rng(8)
    for g in (f, MaxAffine([([1], 0), ([-1], 0)]), SmoothCatalog("quartic", 2)):
        R = 1.5
        L = lipschitz_bound(g, R)
        U = rng.uniform(-R, R, size=(40, g.n))
        V = rng.uniform(-R, R, size=(40, g.n))
        keep = (np.linalg.norm(U, axis=1) <= R) & (np.linalg.norm(V, axis=1) <= R)
        num = np.abs(g.eval_array(U[keep]) - g.eval_array(V[keep]))
        den = np.linalg.norm(U[keep] - V[keep], axis=1)
        assert (num <= L * den + 1e-9).all()

def test_max_affine_dedup_prune():
    f = MaxAffine([([1], 0), ([1], -1), ([-1], 0), ([0], -5)])
    # duplicate gradient keeps the larger offset; dominated flat piece pruned
    assert f.m == 2
    with pytest.raises(NonsmoothPointError):
        f.gradient(np.zeros(1))
    g = MaxAffine([([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0), ([0, 0], -1)])
    assert g.m == 4  # the constant piece is dominated

def test_lse_sandwich():
    rng = np.random.default_rng(4)
    base = MaxAffine([([1, 0], 0), ([-1, 1], 0.5), ([0, -1], -0.5)])
    for beta in (10.0, 100.0):
        lse = LogSumExp(base, beta)
        X = rng.uniform(-3, 3, size=(128, 2))
        gap = lse.eval_array(X) - base.eval_array(X)
        assert (gap >= -1e-12).all()
        assert (gap <= np.log(base.m) / beta + 1e-12).all()
    # single piece: smoothing is exact
    single = MaxAffine([([2, -1], 1)])
    lse1 = LogSumExp(single, 5.0)
    X = rng.uniform(-2, 2, size=(16, 2))
    assert np.allclose(lse1.eval_array(X), single.eval_array(X))

def test_lse_gradient_is_softmax_combination():
    base = MaxAffine([([1, 0], 0), ([0, 1], 0), ([-1, -1], 0.2)])
    lse = LogSumExp(base, 6.0)
    x = np.array([0.3, -0.2])
    g = lse.gradient(x)
    hull = base._af
    # gradient lies in the convex hull of the piece gradients

    assert g[0] >= hull[:, 0].min() - 1e-12 and g[0] <= hull[:, 0].max() + 1e-12
    assert g[1] >= hull[:, 1].min() - 1e-12 and g[1] <= hull[:, 1].max() + 1e-12

def test_perturbed_window_checked():
    f = Quadratic(np.eye(1))
    psi = SmoothField(CoefficientFn.bump(1, ball_bump(1, 2)))
    p = Perturbed(f, psi, 0.05, window=0.05, box=[(-3, 3)])
    x = np.array([0.3])
    assert p.eval(x) == pytest.approx(f.eval(x) + 0.05 * psi.eval_array(x[None, :])[0])
    with pytest.raises(CatalogError):
        Perturbed(f, psi, 5.0, window=5.0, box=[(-3, 3)])  # destroys convexity


def test_perturbed_gradient_degree():
    # f + t psi has a polynomial gradient of degree max(g, deg psi - 1) when
    # psi is a polynomial (on its window) and f's gradient one of degree g
    from cycleval.polynomials import Poly

    box = ((Q(-3), Q(3)),) * 2
    x1, x2 = Poly.variable(4, 0), Poly.variable(4, 1)
    cubic = SmoothField(CoefficientFn.from_poly(2, x1 * x1 * x2 + x2, box=box))
    linear = SmoothField(CoefficientFn.from_poly(2, x1.scale(Q(1, 2)), box=box))
    bump = SmoothField(CoefficientFn.bump(2, ball_bump(2, 2), x1))
    quadratic, quartic = Quadratic(np.eye(2)), SmoothCatalog("quartic", 2)
    cases = [(quadratic, cubic, 2), (quartic, cubic, 3), (quadratic, linear, 1),
             (quadratic, bump, None), (SmoothCatalog("sqrt1p", 2), cubic, None)]
    for f, psi, degree in cases:
        for t in (0.01, -0.01):
            p = Perturbed(f, psi, t, window=0.01, box=[(-1, 1)] * 2, check=False)
            assert p.gradient_degree == degree, (f.describe(), degree)

def test_body_restrictions():
    # unit ball: f_K = sqrt(1 + |x|^2)
    ball = EllipsoidBody(np.eye(3))
    f = body_restriction(ball)
    x = np.array([0.5, -1.0])
    assert f.eval(x) == pytest.approx(np.sqrt(1 + 1.25))
    ref = SmoothCatalog("sqrt1p", 2)
    assert np.allclose(f.gradient(x), ref.gradient(x))
    assert np.allclose(f.hessian(x), ref.hessian(x), atol=1e-10)
    # point body: affine restriction
    p = PointBody([2.0, -1.0, 0.5])
    fp = body_restriction(p)
    assert fp.eval(x) == pytest.approx(2.0 * 0.5 + 1.0 - 0.5)
    assert np.allclose(fp.hessian(x), 0.0)
    # ellipsoid: f_K(x) = sqrt((x,-1)^T M (x,-1))
    M = _rand_psd(np.random.default_rng(2), 3, 0.5)
    fe = body_restriction(EllipsoidBody(M))
    u = np.array([0.3, 0.7, -1.0])
    assert fe.eval(u[:2]) == pytest.approx(np.sqrt(u @ M @ u))

def test_pwl_from_max_affine_and_lattice():
    f = PiecewiseLinear1D.from_max_affine(MaxAffine([([1], 0), ([-1], 0)]))
    assert f.breaks == [0] and f.slopes == [-1, 1]
    assert f.eval_exact(Q(3, 2)) == Q(3, 2)
    assert f.eval_exact(-2) == 2
    g = PiecewiseLinear1D([Q(1, 2)], [Q(0), Q(2)], Q(1))
    mx = f.maximum(g)
    mn = f.minimum(g)
    for x in (Q(-3), Q(-1, 2), Q(0), Q(1, 2), Q(3, 4), Q(2), Q(7)):
        vf, vg = f.eval_exact(x), g.eval_exact(x)
        assert mx.eval_exact(x) == max(vf, vg)
        assert mn.eval_exact(x) == min(vf, vg)
    # valuation identity of values
    for x in (Q(-1), Q(1, 3), Q(5, 2)):
        assert (mx.eval_exact(x) + mn.eval_exact(x)
                == f.eval_exact(x) + g.eval_exact(x))

def test_as_max_affine_unwraps():
    f = MaxAffine([([1, 1], 0), ([-1, 0], Q(1, 2))])
    g = Shifted(Scaled(f, Q(2)), [1, -1], Q(3))
    ma = as_max_affine(g)
    assert ma is not None
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(32, 2))
    assert np.allclose(ma.eval_array(X), g.eval_array(X))
    assert as_max_affine(Quadratic(np.eye(2))) is None


def test_lse_hessian_matches_einsum_formula():
    rng = np.random.default_rng(6)
    for base in (MaxAffine([([1], 0), ([-2], 1), ([3], -1)]),
                 MaxAffine([([1, 0], 0), ([-1, 1], 0.5), ([0, -1], -0.5), ([2, 1], 0)])):
        lse = LogSumExp(base, 9.0)
        X = rng.uniform(-2, 2, size=(64, base.n))
        w = lse._weights(X)
        a = base._af
        mean = w @ a
        want = lse.beta * (np.einsum("nm,mi,mj->nij", w, a, a)
                           - np.einsum("ni,nj->nij", mean, mean))
        scale = lse.beta * float((a * a).max())
        assert np.abs(lse.hessian_array(X) - want).max() <= 1e-13 * scale


def test_lse_node_major_oracles_match_row_major_formulas():
    # the softmax and its moments laid out (m, N) agree with the (N, m)
    # formulas for every piece count up to numpy's 8-way unrolled reduce
    rng = np.random.default_rng(12)
    for n in (1, 2):
        for m in range(2, 10):
            # tangent planes of |x|^2 / 2 at m distinct points: all active
            points = [[Q(k - 4, 2), Q((k * k) % 5 - 2, 2)][:n] for k in range(m)]
            base = MaxAffine([(p, -sum(v * v for v in p) / 2) for p in points])
            assert base.m == m
            lse = LogSumExp(base, 40.0)
            X = rng.uniform(-3, 3, size=(500, n))
            a = base._af
            z = lse.beta * (X @ a.T + base._bf)
            z -= z.max(axis=1, keepdims=True)
            w = np.exp(z)
            w = w / w.sum(axis=1, keepdims=True)
            mean = w @ a
            aa = (a[:, :, None] * a[:, None, :]).reshape(m, n * n)
            hess = lse.beta * ((w @ aa).reshape(-1, n, n)
                               - mean[:, :, None] * mean[:, None, :])
            got_w = lse._weights(X)
            assert got_w.shape == (500, m)
            assert np.abs(got_w - w).max() <= 1e-14
            scale = float(np.abs(a).max())
            assert lse.gradient_array(X).shape == (500, n)
            assert np.abs(lse.gradient_array(X) - mean).max() <= 1e-14 * scale
            assert lse.hessian_array(X).shape == (500, n, n)
            assert np.abs(lse.hessian_array(X) - hess).max() <= \
                1e-14 * lse.beta * scale * scale


def _jet_cases():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        quad = Quadratic(_rand_psd(rng, n), rng.normal(size=n).round(2), 0.5)
        yield n, quad
        yield n, Shifted(quad, [Q(1, 3)] * n, 2)
        yield n, Scaled(quad, Q(3, 2))
        yield n, Scaled(SmoothCatalog("sqrt1p", n), Q(1, 2))
        yield n, SmoothCatalog("sqrt1p", n)
        yield n, SmoothCatalog("quartic", n)
        for body in (EllipsoidBody(_rand_psd(rng, n + 1, 0.5)),
                     PointBody(rng.normal(size=n + 1)),
                     SmoothedBoxBody(1.0 + rng.random(n + 1), eps=0.2)):
            yield n, BodyRestriction(body)


def test_jet_equals_separate_oracles_bitwise():
    rng = np.random.default_rng(14)
    for n in (1, 2):
        for m in range(2, 10):
            points = [[Q(k - 4, 2), Q((k * k) % 5 - 2, 2)][:n] for k in range(m)]
            lse = LogSumExp(MaxAffine([(p, -sum(v * v for v in p) / 2) for p in points]),
                            40.0)
            X = rng.uniform(-3, 3, size=(300, n))
            for f in (lse, Shifted(lse, [Q(1, 3)] * n, 2), Scaled(lse, Q(5, 2)),
                      Scaled(lse, 0), Shifted(Scaled(lse, 3), [-1] * n, 0),
                      Quadratic(np.eye(n))):
                Y, H = f.jet(X)
                assert np.array_equal(Y, f.gradient_array(X)), f.describe()
                assert np.array_equal(H, f.hessian_array(X)), f.describe()
    # every catalog class and wrapper at n = 1..3; a body restriction's
    # blocks are also those of the body's full oracles
    for n, f in _jet_cases():
        X = rng.normal(size=(300, n))
        Y, H = f.jet(X)
        assert np.array_equal(Y, f.gradient_array(X)), f.describe()
        assert np.array_equal(H, f.hessian_array(X)), f.describe()
        assert Y.shape == (300, n) and H.shape == (300, n, n)
        if isinstance(f, BodyRestriction):
            U = np.concatenate([X, -np.ones((300, 1))], axis=1)
            assert np.array_equal(Y, f.body.grad_h_array(U)[:, :n])
            assert np.array_equal(H, f.body.hess_h_array(U)[:, :n, :n])


def _midpoint_pointwise(f, g, take_max):
    # reference: the former construction of max/min, which compares the two
    # functions at the midpoint of every piece between breaks and crossings
    def mid(lo, hi):
        if lo is None and hi is None:
            return Q(0)
        if lo is None:
            return hi - 1
        return lo + 1 if hi is None else (lo + hi) / 2

    def pieces(cuts):
        return list(zip([None] + cuts, cuts + [None]))

    def line(h, x):
        s = h.slopes[sum(1 for b in h.breaks if x >= b)]
        return s, h.eval_exact(x) - s * x

    cuts = sorted(set(f.breaks) | set(g.breaks))
    cross = set()
    for lo, hi in pieces(cuts):
        (sf, of_), (sg, og) = line(f, mid(lo, hi)), line(g, mid(lo, hi))
        if sf != sg:
            x = (og - of_) / (sf - sg)
            if (lo is None or x > lo) and (hi is None or x < hi):
                cross.add(x)
    allcuts = sorted(set(cuts) | cross)
    slopes = []
    for lo, hi in pieces(allcuts):
        m = mid(lo, hi)
        vf, vg = f.eval_exact(m), g.eval_exact(m)
        sf, sg = line(f, m)[0], line(g, m)[0]
        if vf == vg:
            use_f = sf >= sg if take_max else sf <= sg
        else:
            use_f = vf > vg if take_max else vf < vg
        slopes.append(sf if use_f else sg)
    pick = max if take_max else min
    return PiecewiseLinear1D(allcuts, slopes, pick(f.eval_exact(0), g.eval_exact(0)))


def test_pointwise_merge_matches_midpoint_reference():
    rng = np.random.default_rng(19)

    def rand_pwl(k_max):
        k = int(rng.integers(0, k_max + 1))
        breaks = sorted(set(Q(int(rng.integers(-6, 7)), 2) for _ in range(k)))
        slopes = [Q(int(rng.integers(-3, 4))) for _ in range(len(breaks) + 1)]
        return PiecewiseLinear1D(breaks, slopes, Q(int(rng.integers(-3, 4)), 2))

    # coincident lines, equal slopes, a crossing exactly on a break (x = 1),
    # and functions without breaks
    f = PiecewiseLinear1D([Q(1)], [Q(0), Q(2)], Q(0))
    pairs = [(f, f), (f, PiecewiseLinear1D([], [Q(2)], Q(1))),
             (f, PiecewiseLinear1D([], [Q(1)], Q(-1))),
             (f, PiecewiseLinear1D([Q(1)], [Q(-1), Q(3)], Q(1))),
             (PiecewiseLinear1D([], [Q(1)], Q(0)), PiecewiseLinear1D([], [Q(1)], Q(2))),
             (PiecewiseLinear1D([], [Q(1)], Q(0)), PiecewiseLinear1D([], [Q(-1)], Q(2)))]
    pairs += [(rand_pwl(4), rand_pwl(4)) for _ in range(500)]
    pairs += [(rand_pwl(0), rand_pwl(3)) for _ in range(50)]
    X = np.linspace(-5, 5, 41)
    for f, g in pairs:
        for take_max in (True, False):
            got = f.pointwise(g, take_max)
            want = _midpoint_pointwise(f, g, take_max)
            assert (got.breaks, got.slopes, got.value0) == \
                (want.breaks, want.slopes, want.value0)
            assert np.array_equal(got.eval_array(X), want.eval_array(X))
            pick = max if take_max else min
            assert all(got.eval_exact(x) == pick(f.eval_exact(x), g.eval_exact(x))
                       for x in [Q(k, 2) for k in range(-12, 13)])


def test_quadratic_hessian_is_a_read_only_view():
    f = Quadratic([[2, 1], [1, 3]])
    H = f.hessian_array(np.zeros((5, 2)))
    assert H.shape == (5, 2, 2) and np.array_equal(H[3], [[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        H[0, 0, 0] = 1.0


def test_quadratic_keeps_floats_of_exact_entries():
    f = Quadratic([[Q(1, 3), "1/7"], [Q(1, 7), 0.1]], [Q(2, 3), 1], "5/4")
    assert np.array_equal(f._Af, [[1 / 3, 1 / 7], [1 / 7, 0.1]])
    assert np.array_equal(f._bf, [2 / 3, 1.0]) and f._cf == 1.25
    assert not any(hasattr(f, name) for name in ("A", "b", "c"))
    with pytest.raises(CatalogError):
        Quadratic([[1, None], [None, 1]])
    # a scalar, a flat [a] and a 0-d array are the 1 x 1 matrix [[a]]
    for A in (2, [2], np.array(2.0), [[2]]):
        g = Quadratic(A)
        assert g.n == 1 and np.array_equal(g._Af, [[2.0]])
    for A in ([[1, 0], [0]], [[1, 0]], [1, 0]):
        with pytest.raises(CatalogError):
            Quadratic(A)


def test_max_affine_prunes_on_first_read_as_eagerly(monkeypatch):
    from cycleval import polyhedral

    rng = np.random.default_rng(31)
    calls = []
    prune = polyhedral.prune_dominated_pieces

    def counting(pieces):
        calls.append(len(pieces))
        return prune(pieces)

    monkeypatch.setattr(polyhedral, "prune_dominated_pieces", counting)
    for k in range(200):
        n = 1 + k % 2
        pieces = [([Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                    for _ in range(n)], Q(int(rng.integers(-3, 4)), 2))
                  for _ in range(int(rng.integers(1, 7)))]
        f = MaxAffine(pieces)
        assert calls == []
        dedup = {}
        for a, b in pieces:
            a = tuple(a)
            dedup[a] = max(dedup.get(a, b), b)
        eager = sorted(dedup.items())
        if len(eager) > 1:
            eager = prune(eager)
        assert f.pieces == eager and f.m == len(eager)
        assert np.array_equal(f._af, [[float(v) for v in a] for a, _ in eager])
        assert np.array_equal(f._bf, [float(b) for _, b in eager])
        # pruned once, on the first read
        assert calls == ([len(dedup)] if len(dedup) > 1 else [])
        calls.clear()


# -- node kernels: the einsum expressions they replace, bit for bit --------------


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_node_kernels_match_einsum_bitwise(m):
    rng = np.random.default_rng(100 + m)
    N = 4096
    U, V = rng.normal(size=(2, N, m))
    M = rng.normal(size=(m, m))
    H = rng.normal(size=(N, m, m))
    assert _bitwise_equal(quadratic_form(U, M), np.einsum("ni,ij,nj->n", U, M, U))
    assert _bitwise_equal(outer(U, V), np.einsum("ni,nj->nij", U, V))
    # H^T H (a transposed view) and the leading rows of a product with an
    # (N, m, m - 1) factor, as mass_smooth and conormal_eval use them
    Ht = H.transpose(0, 2, 1)
    assert _bitwise_equal(node_matmul(Ht, H), np.einsum("nij,njk->nik", Ht, H))
    if m > 1:
        D = rng.normal(size=(N, m, m - 1))
        assert _bitwise_equal(node_matmul(H[:, :m - 1, :], D),
                              np.einsum("nab,nbj->naj", H, D)[:, :m - 1, :])
    # a constant matrix read once equals the product over all its nodes
    C = np.broadcast_to(M, (N, m, m))
    assert unbroadcast(C).shape == (1, m, m) and unbroadcast(H) is H
    once = node_matmul(unbroadcast(C).transpose(0, 2, 1), unbroadcast(C))
    assert _bitwise_equal(np.broadcast_to(once, (N, m, m)),
                          np.einsum("nij,njk->nik", C.transpose(0, 2, 1), C))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_body_oracles_match_einsum_bitwise(m):
    rng = np.random.default_rng(200 + m)
    N = 4096
    U = rng.normal(size=(N, m))
    K = EllipsoidBody(_rand_psd(rng, m, 0.5))
    h = np.sqrt(np.einsum("ni,ij,nj->n", U, K.M, U))
    MU = U @ K.M.T
    hess = K.M[None] / h[:, None, None] \
        - np.einsum("ni,nj->nij", MU, MU) / (h ** 3)[:, None, None]
    assert _bitwise_equal(K.h_array(U), h)
    assert _bitwise_equal(K.hess_h_array(U), hess)
    for k in range(1, m + 1):
        g, H = K.leading_jet(U, k)
        assert _bitwise_equal(H, K.M[None, :k, :k] / h[:, None, None]
                              - np.einsum("ni,nj->nij", MU[:, :k], MU[:, :k])
                              / (h ** 3)[:, None, None])
    box = SmoothedBoxBody(1.0 + rng.random(m), eps=0.2)
    c = box.a ** 4
    g = (((box.a * U) ** 4).sum(axis=1)) ** 0.25
    r = np.linalg.norm(U, axis=1)
    grad4 = (c * U ** 3) / (g ** 3)[:, None]
    want = np.zeros((N, m, m))
    for i in range(m):
        want[:, i, i] += 3.0 * c[i] * U[:, i] ** 2 / g ** 3
    want -= 3.0 * np.einsum("ni,nj->nij", grad4, grad4) / g[:, None, None]
    uhat = U / r[:, None]
    want += box.eps * (np.eye(m) - np.einsum("ni,nj->nij", uhat, uhat)) / r[:, None, None]
    assert _bitwise_equal(box.hess_h_array(U), want)
    for name in SmoothCatalog.NAMES:
        X = U
        r2 = (X * X).sum(axis=1)
        xx = np.einsum("ni,nj->nij", X, X)
        eye = np.eye(m)[None]
        if name == "sqrt1p":
            f = np.sqrt(1.0 + r2)
            want = eye / f[:, None, None] - xx / (f ** 3)[:, None, None]
        else:
            want = eye * r2[:, None, None] + 2.0 * xx
        assert _bitwise_equal(SmoothCatalog(name, m).hessian_array(X), want)
    q = Quadratic(_rand_psd(rng, m), rng.normal(size=m).round(2), 0.5)
    assert _bitwise_equal(q.eval_array(U), 0.5 * np.einsum("ni,ij,nj->n", U, q._Af, U)
                          + U @ q._bf + q._cf)


def test_in_place_oracles_equal_the_expressions_they_replace():
    # the ellipsoid's and the log-sum-exp's Hessians build one (N, k, k)
    # array in place, with the bits of the broadcast expressions below
    rng = np.random.default_rng(31)
    for m in (2, 3, 4):
        K = EllipsoidBody(_rand_psd(rng, m, 0.5))
        U = rng.normal(size=(500, m))
        h = K.h_array(U)
        MU = U @ K.M.T
        want = K.M[None, :, :] / h[:, None, None] - outer(MU, MU) / (h ** 3)[:, None, None]
        assert np.array_equal(K.hess_h_array(U), want)
        for k in range(1, m + 1):
            MUk = MU[:, :k]
            Y, H = K.leading_jet(U, k)
            assert np.array_equal(Y, MUk / h[:, None])
            assert np.array_equal(H, K.M[None, :k, :k] / h[:, None, None]
                                  - outer(MUk, MUk) / (h ** 3)[:, None, None])
    for n in (1, 2, 3):
        pieces = [(rng.normal(size=n).round(3), float(rng.normal())) for _ in range(5)]
        lse = LogSumExp(MaxAffine(pieces), 7.0)
        X = rng.uniform(-2, 2, size=(500, n))
        w = lse._weights(X).T
        a = lse.base._af
        mean = a.T @ w
        aa = (a[:, :, None] * a[:, None, :]).reshape(len(a), n * n)
        second = (aa.T @ w).reshape(n, n, -1)
        products = mean[:, None, :] * mean[None, :, :]
        want = (lse.beta * (second - products)).transpose(2, 0, 1)
        assert np.array_equal(lse.hessian_array(X), want)
        assert np.array_equal(lse.jet(X)[1], want)


def test_scaled_constant_hessian_stays_broadcast():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(64, 2))
    q = Quadratic(_rand_psd(rng, 2))
    full = np.array(q.hessian_array(X))
    for f, t in ((Scaled(q, Q(3, 2)), 1.5), (Shifted(Scaled(q, 2), [1, 0], 0), 2.0)):
        for H in (f.hessian_array(X), f.jet(X)[1]):
            assert H.strides[0] == 0 and _bitwise_equal(np.array(H), t * full)
