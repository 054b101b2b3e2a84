import itertools

import numpy as np
import pytest

from specmatch.matutil import (
    PermutationMatrix,
    birkhoff_decompose,
    frobenius_norm,
    hungarian,
    is_doubly_stochastic,
)


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((4, 4))) == 0.0


def test_frobenius_identity():
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3))


def test_frobenius_unitary_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        U = random_orthogonal(rng, 5)
        V = random_orthogonal(rng, 5)
        assert frobenius_norm(U @ A @ V) == pytest.approx(
            frobenius_norm(A), rel=1e-10
        )


def test_frobenius_submultiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.standard_normal((4, 6))
        B = rng.standard_normal((6, 3))
        assert frobenius_norm(A @ B) <= frobenius_norm(A) * frobenius_norm(B) + 1e-12


def test_hungarian_identity_max():
    perm = hungarian(np.eye(3))
    np.testing.assert_array_equal(perm.mapping, [0, 1, 2])


def test_hungarian_min_zero_diagonal():
    # a minimum-cost assignment is the largest assignment of the negated cost
    perm = hungarian(-np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(perm.mapping, [0, 1])


def test_hungarian_against_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cost = rng.random((6, 6))
        perm = hungarian(-cost)
        achieved = cost[np.arange(6), perm.mapping].sum()
        best = min(
            sum(cost[i, p[i]] for i in range(6))
            for p in itertools.permutations(range(6))
        )
        assert achieved == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("cost, message", [
    (np.zeros((2, 3)), "cost must be square"),
    (np.array([[0.0, np.nan], [1.0, 0.0]]), "cost must be finite"),
], ids=["non-square", "non-finite"])
def test_hungarian_rejects_bad_arguments(cost, message):
    with pytest.raises(ValueError, match=message):
        hungarian(cost)


def test_permutation_matrix_properties():
    perm = PermutationMatrix(np.array([2, 0, 1]))
    P = perm.to_matrix()
    np.testing.assert_allclose(P.T @ P, np.eye(3))
    with pytest.raises(ValueError):
        PermutationMatrix(np.array([0, 0, 1]))


def test_predicates_identity():
    assert is_doubly_stochastic(np.eye(2))


def test_predicates_uniform():
    A = np.full((2, 2), 0.5)
    assert is_doubly_stochastic(A)


def test_predicates_bad_columns():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert not is_doubly_stochastic(A)


def test_permutations_are_orthogonal_doubly_stochastic():
    # a 0/1 matrix is a permutation iff it is orthogonal and doubly stochastic
    rng = np.random.default_rng(5)
    for _ in range(200):
        A = (rng.random((4, 4)) < 0.35).astype(float)
        # one 1 in every row and every column
        lhs = bool(np.all(A.sum(axis=0) == 1) and np.all(A.sum(axis=1) == 1))
        rhs = (
            np.allclose(A.T @ A, np.eye(4), atol=1e-10)
            and is_doubly_stochastic(A)
        )
        assert lhs == rhs


def test_birkhoff_identity():
    terms = birkhoff_decompose(np.eye(4))
    assert len(terms) == 1
    w, perm = terms[0]
    assert w == pytest.approx(1.0)
    np.testing.assert_array_equal(perm.mapping, np.arange(4))


def test_birkhoff_two_permutations():
    p1 = PermutationMatrix(np.array([1, 2, 0]))
    p2 = PermutationMatrix(np.array([2, 0, 1]))
    X = 0.5 * p1.to_matrix() + 0.5 * p2.to_matrix()
    terms = birkhoff_decompose(X)
    assert len(terms) == 2
    assert sorted(w for w, _ in terms) == pytest.approx([0.5, 0.5])
    recon = sum(w * p.to_matrix() for w, p in terms)
    np.testing.assert_allclose(recon, X, atol=1e-12)


def test_birkhoff_uniform_third():
    X = np.full((3, 3), 1.0 / 3.0)
    terms = birkhoff_decompose(X)
    assert len(terms) == 3
    recon = sum(w * p.to_matrix() for w, p in terms)
    np.testing.assert_allclose(recon, X, atol=1e-9)


def test_birkhoff_stops_on_the_residual_matrix():
    # doubly stochastic within tol = 1e-9, but the first term has weight
    # 1 - 7e-10, which already brings a running sum of weights within tol
    # while the 1.5e-9 cycle entries are still in the residual
    cycle = PermutationMatrix(np.array([1, 2, 3, 0])).to_matrix()
    X = (1.0 - 7e-10) * np.eye(4) + 1.5e-9 * cycle
    terms = birkhoff_decompose(X)
    assert len(terms) == 2
    recon = sum(w * p.to_matrix() for w, p in terms)
    np.testing.assert_allclose(recon, X, rtol=0.0, atol=1e-9)


def _reconstruction(terms, n):
    total = np.zeros((n, n))
    for w, perm in terms:
        total[np.arange(n), perm.mapping] += w
    return total


def test_birkhoff_peels_a_permutation_mix_in_few_terms():
    # a convex mix of 30 permutations, as in the benchmark's isolab; a pick
    # of any permutation inside the support takes about 2,400 terms here
    rng = np.random.default_rng(1)
    n = 100
    X = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(30)):
        X[np.arange(n), rng.permutation(n)] += w
    terms = birkhoff_decompose(X)
    assert len(terms) <= 600
    assert abs(sum(w for w, _ in terms) - 1.0) <= 1e-9
    assert np.abs(_reconstruction(terms, n) - X).max() <= 1e-9


def test_birkhoff_dense_sinkhorn_balanced_matrix():
    # every entry positive, so the support is full and the term bound is
    # the only limit on the count
    rng = np.random.default_rng(11)
    n = 30
    X = rng.random((n, n)) + 0.1
    for _ in range(100):
        X /= X.sum(axis=1, keepdims=True)
        X /= X.sum(axis=0, keepdims=True)
    assert is_doubly_stochastic(X)
    terms = birkhoff_decompose(X)
    assert len(terms) <= (n - 1) ** 2 + 1
    assert np.abs(_reconstruction(terms, n) - X).max() <= 1e-9


def test_birkhoff_rejects_non_doubly_stochastic():
    with pytest.raises(ValueError):
        birkhoff_decompose(np.array([[0.9, 0.0], [0.0, 0.9]]))
