from fractions import Fraction as Q
from itertools import permutations

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
