import numpy as np
import pytest

from specmatch.errors import InputError, NumericalError
from specmatch.isomorphism import (
    exact_spectral_isomorphism,
    hoffman_wielandt_gap,
    umeyama_match,
)
from specmatch.matutil import PermutationMatrix, frobenius_norm


def random_weighted_adjacency(rng, n):
    # distinct random weights keep the spectrum simple with probability 1
    A = np.triu(rng.random((n, n)), 1)
    A = A + A.T
    return A


def scramble(A, rng):
    n = A.shape[0]
    perm = PermutationMatrix(rng.permutation(n))
    Pm = perm.to_matrix()
    return Pm.T @ A @ Pm, perm


def test_exact_identity():
    rng = np.random.default_rng(0)
    A = random_weighted_adjacency(rng, 5)
    res = exact_spectral_isomorphism(A, A)
    assert res is not None
    assert res.exact
    np.testing.assert_array_equal(res.permutation.mapping, np.arange(5))


def test_exact_recovery():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = random_weighted_adjacency(rng, 6)
        B, _ = scramble(A, rng)
        res = exact_spectral_isomorphism(A, B)
        assert res is not None
        P = res.permutation.to_matrix()
        np.testing.assert_allclose(A, P @ B @ P.T, atol=1e-9)
        assert res.residual <= 1e-8 * frobenius_norm(A)


def test_exact_different_spectra():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert exact_spectral_isomorphism(A, B) is None


def test_exact_degenerate_rejected():
    # complete graph K4: eigenvalue -1 with multiplicity 3
    A = np.ones((4, 4)) - np.eye(4)
    with pytest.raises(NumericalError, match="adjacent eigenvalue gap .* below"):
        exact_spectral_isomorphism(A, A)


def test_exact_size_limit():
    A = np.zeros((13, 13))
    with pytest.raises(ValueError):
        exact_spectral_isomorphism(A, A)


def test_umeyama_recovery():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = random_weighted_adjacency(rng, 8)
        B, _ = scramble(A, rng)
        res = umeyama_match(A, B)
        assert res.exact
        P = res.permutation.to_matrix()
        np.testing.assert_allclose(A, P @ B @ P.T, atol=1e-8)


def test_umeyama_perturbed_pair():
    rng = np.random.default_rng(3)
    A = random_weighted_adjacency(rng, 8)
    B, perm = scramble(A, rng)
    noise = np.triu(rng.standard_normal((8, 8)), 1) * 1e-4
    B_noisy = B + noise + noise.T
    res = umeyama_match(A, B_noisy)
    np.testing.assert_array_equal(res.permutation.mapping, perm.mapping)
    assert res.residual <= 3e-3


def test_residual_matches_dense_conjugation_on_non_isomorphic_pair():
    # the residual reads A_B by index; on two unrelated graphs it is
    # non-zero and equals the dense ||A_A - P A_B P^T||_F
    rng = np.random.default_rng(9)
    A = random_weighted_adjacency(rng, 30)
    B = random_weighted_adjacency(rng, 30)
    res = umeyama_match(A, B)
    P = res.permutation.to_matrix()
    assert res.residual > 1.0
    assert not res.exact
    assert res.residual == frobenius_norm(A - P @ B @ P.T)


def test_umeyama_degenerate_warns():
    A = np.ones((4, 4)) - np.eye(4)
    with pytest.warns(RuntimeWarning):
        res = umeyama_match(A, A)
    assert res.degenerate


def test_umeyama_signs_are_unit():
    rng = np.random.default_rng(4)
    A = random_weighted_adjacency(rng, 6)
    B, _ = scramble(A, rng)
    res = umeyama_match(A, B)
    assert set(np.unique(res.signs)).issubset({-1.0, 1.0})


def test_hw_equal_matrices():
    rng = np.random.default_rng(5)
    A = random_weighted_adjacency(rng, 7)
    lower, dist = hoffman_wielandt_gap(A, A)
    assert lower == pytest.approx(0.0, abs=1e-18)
    assert dist == pytest.approx(0.0, abs=1e-18)


def test_hw_diagonal_equality_case():
    # commuting diagonal matrices meet the bound with equality
    lower, dist = hoffman_wielandt_gap(np.diag([0.0, 1.0]), np.diag([0.0, 2.0]))
    assert lower == pytest.approx(1.0)
    assert dist == pytest.approx(1.0)


def test_hw_lower_bound_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = random_weighted_adjacency(rng, n)
        B = random_weighted_adjacency(rng, n)
        lower, dist = hoffman_wielandt_gap(A, B)
        assert lower <= dist + 1e-10


def test_hw_orthogonal_conjugation_equality():
    # A and Q A Q^T share a spectrum; the distance can exceed the zero
    # lower bound but conjugating back closes the gap
    rng = np.random.default_rng(7)
    A = random_weighted_adjacency(rng, 6)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    B = Q @ A @ Q.T
    lower, dist = hoffman_wielandt_gap(A, B)
    assert lower <= 1e-12
    lower2, dist2 = hoffman_wielandt_gap(A, Q.T @ B @ Q)
    assert dist2 <= 1e-18


def test_umeyama_trace_bound():
    # the absolute-eigenvector score matrix is doubly substochastic in
    # the sense that the best assignment trace never exceeds n
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = random_weighted_adjacency(rng, n)
        B = random_weighted_adjacency(rng, n)
        _, U_A = np.linalg.eigh(A)
        _, U_B = np.linalg.eigh(B)
        score = np.abs(U_A) @ np.abs(U_B).T
        from specmatch.matutil import hungarian

        perm = hungarian(score, "max")
        assert score[np.arange(n), perm.mapping].sum() <= n + 1e-10


@pytest.mark.parametrize("fn", [exact_spectral_isomorphism, umeyama_match,
                                hoffman_wielandt_gap])
def test_non_symmetric_matrix_rejected(fn):
    # a directed path: the eigensolver would read only its lower triangle
    A = np.diag([1.0, 1.0], 1)
    with pytest.raises(InputError, match="first matrix is not symmetric"):
        fn(A, A.T)
    with pytest.raises(InputError, match="second matrix is not symmetric"):
        fn(A + A.T, A)
