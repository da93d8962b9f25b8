from fractions import Fraction as Q
import math
from itertools import combinations, permutations

import numpy as np
import pytest

from cycleval.exactla import det, inverse, polarized_det, solve
from cycleval.polyhedral import _convex_combo
from cycleval.polynomials import Poly


def _perm_det(rows):
    """Leibniz expansion: sum over permutations of sign * product."""
    k = len(rows)
    total = None
    for perm in permutations(range(k)):
        term = 1
        for i in range(k):
            term = rows[i][perm[i]] * term
        if sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k)) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _rand_frac(rng):
    return Q(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))


def _rand_poly(rng):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    return (Poly.const(2, _rand_frac(rng)) + x.scale(_rand_frac(rng))
            + (x * y).scale(_rand_frac(rng)) + (y * y).scale(_rand_frac(rng)))


@pytest.mark.parametrize("k", range(5))
def test_det_matches_permutation_expansion_on_fractions(k):
    rng = np.random.default_rng(k)
    for _ in range(10):
        rows = [[_rand_frac(rng) for _ in range(k)] for _ in range(k)]
        assert det(rows) == _perm_det(rows)


@pytest.mark.parametrize("k", range(5))
def test_det_matches_permutation_expansion_on_polys(k):
    rng = np.random.default_rng(10 + k)
    for _ in range(3):
        rows = [[_rand_poly(rng) for _ in range(k)] for _ in range(k)]
        got, ref = det(rows), _perm_det(rows)
        if k == 0:
            assert got == ref == 1
        else:
            assert isinstance(got, Poly) and got == ref


def _closed_form(sub):
    """The closed-form batched determinants of sizes 1..3 (N, k, k)."""
    k = sub.shape[1]
    if k == 1:
        return sub[:, 0, 0]
    if k == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    return (sub[:, 0, 0] * (sub[:, 1, 1] * sub[:, 2, 2] - sub[:, 1, 2] * sub[:, 2, 1])
            - sub[:, 0, 1] * (sub[:, 1, 0] * sub[:, 2, 2] - sub[:, 1, 2] * sub[:, 2, 0])
            + sub[:, 0, 2] * (sub[:, 1, 0] * sub[:, 2, 1] - sub[:, 1, 1] * sub[:, 2, 0]))


def _batched_rows(H):
    k = H.shape[1]
    return [[H[:, i, j] for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_det_is_bit_identical_to_closed_form(k):
    H = np.random.default_rng(k).normal(size=(1000, k, k))
    assert np.array_equal(det(_batched_rows(H)), _closed_form(H))


def test_batched_det_matches_numpy_for_k4():
    H = np.random.default_rng(4).normal(size=(1000, 4, 4))
    np.testing.assert_allclose(det(_batched_rows(H)), np.linalg.det(H), rtol=1e-12, atol=1e-12)


def test_polarized_det_of_equal_matrices_is_det():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        A = [[_rand_frac(rng) for _ in range(n)] for _ in range(n)]
        assert polarized_det([A] * n) == det(A)
    A, B = [[Q(1), Q(2)], [Q(2), Q(-1)]], [[Q(3), Q(0)], [Q(0), Q(1, 2)]]
    assert polarized_det([A, B]) == (det([[a + b for a, b in zip(r, s)] for r, s in zip(A, B)])
                                     - det(A) - det(B)) / 2


def test_inverse_is_exact():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        M = [[_rand_frac(rng) + (4 if i == j else 0) for j in range(n)] for i in range(n)]
        inv = inverse(M)
        for i in range(n):
            for j in range(n):
                assert sum(inv[i][k] * M[k][j] for k in range(n)) == (1 if i == j else 0)
    # a zero leading entry needs a row swap
    assert inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ValueError):
        inverse([[Q(1), Q(2)], [Q(2), Q(4)]])
    with pytest.raises(ValueError):
        inverse([[0, 0], [0, 1]])


def test_solve_inconsistent_free_variables_and_rank():
    # x + y = 1 and 2x + 2y = 3 are inconsistent
    sol, rank = solve([[1, 1], [2, 2]], [1, 3])
    assert sol is None and rank == 1
    # x + z = 2, y = 3, with z free: z is set to 0
    sol, rank = solve([[1, 0, 1], [0, 1, 0], [1, 1, 1]], [2, 3, 5])
    assert sol == [2, 3, 0] and rank == 2
    # overdetermined and consistent, full rank
    sol, rank = solve([[1, 1], [1, -1], [2, 0]], [Q(3), Q(1), Q(4)])
    assert sol == [2, 1] and rank == 2
    assert solve([], []) == ([], 0)


def test_convex_combo_rejects_underdetermined_systems():
    e1 = (Q(1), Q(0))
    e2 = (Q(0), Q(1))
    assert _convex_combo((Q(1, 3), Q(2, 3)), [e1, e2]) == [Q(1, 3), Q(2, 3)]
    # a repeated gradient leaves the weights underdetermined (rank 1 < 2)
    assert _convex_combo(e1, [e1, e1]) is None
    assert _convex_combo(e1, [e1]) == [1]
    # outside the hull: inconsistent, or a negative weight
    assert _convex_combo((Q(1), Q(1)), [e1, e2]) is None
    assert _convex_combo((Q(2), Q(-1)), [e1, e2]) is None


# -- the integer elimination against the elimination over Fractions -------------


def _gauss_jordan(a, ncols):
    # reference: Gauss-Jordan over Fractions, the first nonzero entry of each
    # column as pivot; reduces a in place and returns the pivot columns
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def _reference_solve(A, b):
    ncols = len(A[0])
    a = [[Q(v) for v in row] + [Q(bi)] for row, bi in zip(A, b)]
    pivots = _gauss_jordan(a, ncols)
    if any(row[ncols] != 0 for row in a[len(pivots):]):
        return None, len(pivots)
    x = [Q(0)] * ncols
    for row, col in zip(a, pivots):
        x[col] = row[ncols]
    return x, len(pivots)


def _reference_inverse(M):
    n = len(M)
    a = [[Q(v) for v in row] + [Q(int(k == i)) for k in range(n)] for i, row in enumerate(M)]
    if len(_gauss_jordan(a, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in a]


def _rand_system(rng, big):
    # up to 4 x 5, a third of the entries 0; some with a zero row or a row
    # that is a multiple of another; b either A x0 or drawn on its own
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 6))

    def q():
        if rng.random() < 0.3:
            return Q(0)
        den = int(rng.integers(10 ** 9, 10 ** 10)) if big else int(rng.integers(1, 7))
        return Q(int(rng.integers(-3 * den, 3 * den + 1)), den)

    A = [[q() for _ in range(cols)] for _ in range(rows)]
    kind = int(rng.integers(0, 3))
    if rows > 1 and kind:
        i, j = rng.choice(rows, size=2, replace=False)
        A[i] = [Q(0)] * cols if kind == 1 else [v * Q(int(rng.integers(1, 5)), 3) for v in A[j]]
    if rng.random() < 0.5:
        x0 = [q() for _ in range(cols)]
        b = [sum((a * x for a, x in zip(row, x0)), Q(0)) for row in A]
    else:
        b = [q() for _ in range(rows)]
    return A, b


@pytest.mark.parametrize("big", [False, True])
def test_solve_and_inverse_match_fraction_gauss_jordan(big):
    rng = np.random.default_rng(31 + big)
    seen = set()
    for _ in range(600):
        A, b = _rand_system(rng, big)
        x, rank = solve(A, b)
        assert (x, rank) == _reference_solve(A, b)
        assert x is None or all(type(v) is Q for v in x)
        seen.add(("inconsistent" if x is None else "solved",
                  "full rank" if rank == len(A[0]) else "free variables"))
        if len(A) == len(A[0]):
            try:
                want = _reference_inverse(A)
            except ValueError:
                with pytest.raises(ValueError):
                    inverse(A)
                seen.add("singular")
            else:
                got = inverse(A)
                assert got == want and all(type(v) is Q for row in got for v in row)
                seen.add("inverse")
        if max(v.denominator for row in A for v in row) > 10 ** 9:
            seen.add("denominators above 10^9")
    assert seen - {"denominators above 10^9"} == {("inconsistent", "full rank"), ("inconsistent", "free variables"),
                    ("solved", "full rank"), ("solved", "free variables"),
                    "singular", "inverse"}
    assert big == ("denominators above 10^9" in seen)


def _reference_det(rows):
    # the first-row Laplace expansion on the entries as given
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = None
    for j in range(k):
        term = rows[0][j] * _reference_det([row[:j] + row[j + 1:] for row in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _reference_polarized_det(mats):
    n = len(mats)
    total = None
    for r in range(1, n + 1):
        for S in combinations(range(n), r):
            M = [list(row) for row in mats[S[0]]]
            for i in S[1:]:
                M = [[u + v for u, v in zip(mr, ar)] for mr, ar in zip(M, mats[i])]
            d = _reference_det(M)
            total = (-d if (n - r) % 2 else d) if total is None else \
                total + (-d if (n - r) % 2 else d)
    return total / math.factorial(n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_det_and_polarized_det_match_the_expansion_on_every_entry_type(k):
    rng = np.random.default_rng(40 + k)
    # float arrays, Python floats beside them, and Polys: bit for bit
    H = _batched_rows(rng.normal(size=(200, k, k)))
    A = [[float(v) for v in row] for row in rng.normal(size=(k, k))]
    for mats in ([H] * k, [H] * (k - 1) + [A], [A] * k):
        assert np.array_equal(polarized_det(mats), _reference_polarized_det(mats))
        assert np.array_equal(det(mats[-1]), _reference_det(mats[-1]))
    P = [[[_rand_poly(rng) for _ in range(k)] for _ in range(k)] for _ in range(k)]
    assert polarized_det(P) == _reference_polarized_det(P) and det(P[0]) == _reference_det(P[0])
    # Fractions, up to ten-digit denominators: the same values, as Fractions
    for big in (False, True):
        F = [[[Q(int(rng.integers(-10 ** 10, 10 ** 10)),
                 int(rng.integers(10 ** 9, 10 ** 10))) if big else _rand_frac(rng)
               for _ in range(k)] for _ in range(k)] for _ in range(k)]
        got = polarized_det(F)
        assert got == _reference_polarized_det(F) and type(got) is Q
        assert det(F[0]) == _reference_det(F[0])
