import os
import threading

import numpy as np
import pytest

from specmatch import isomorphism
from specmatch.errors import InputError, NumericalError
from specmatch.isomorphism import (
    GAP_TOL,
    exact_spectral_isomorphism,
    hoffman_wielandt_gap,
    umeyama_match,
)
from specmatch.matutil import PermutationMatrix, frobenius_norm


def use_second_thread(monkeypatch, second: bool) -> None:
    """Decompose the second matrix of each pair on a thread of its own, at
    every size (the size cut lowered to 0), or in the caller's thread."""
    monkeypatch.setattr(isomorphism, "SECOND_THREAD", second)
    monkeypatch.setattr(isomorphism, "SECOND_THREAD_MIN_N", 0)


@pytest.fixture(params=[False, True], ids=["one-thread", "two-threads"])
def second_thread(request, monkeypatch):
    """Run a test with the second matrix of each pair decomposed in the
    caller's thread and on a thread of its own."""
    use_second_thread(monkeypatch, request.param)


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
    # there is no size cap: 13 rows, one past the old enumeration's, are
    # refused only because the zero matrix has one eigenvalue 13 times
    A = np.zeros((13, 13))
    with pytest.raises(NumericalError, match="adjacent eigenvalue gap"):
        exact_spectral_isomorphism(A, A)


def path_adjacency(n):
    # a path has a simple spectrum and one non-trivial automorphism, its reversal
    A = np.diag(np.ones(n - 1), 1)
    return A + A.T


def assert_isomorphism(res, A, B):
    assert res is not None and res.exact
    p = res.permutation.mapping
    np.testing.assert_allclose(A, B[np.ix_(p, p)], atol=1e-12)
    assert res.residual <= 1e-8 * max(frobenius_norm(A), 1.0)
    assert set(np.unique(res.signs)) <= {-1.0, 1.0}


def test_exact_beyond_twelve_rows(monkeypatch):
    # generic weights give every vertex one candidate at the first node
    monkeypatch.setattr(isomorphism, "SEARCH_NODES", 1)
    rng = np.random.default_rng(10)
    A = random_weighted_adjacency(rng, 100)
    B, perm = scramble(A, rng)
    res = exact_spectral_isomorphism(A, B)
    assert_isomorphism(res, A, B)
    # generic weights leave no automorphism, so the planted map is the only one
    np.testing.assert_array_equal(res.permutation.mapping, perm.mapping)
    # the heuristic finds the same map, and both verify it the same way
    heuristic = umeyama_match(A, B)
    np.testing.assert_array_equal(heuristic.permutation.mapping, res.permutation.mapping)
    np.testing.assert_array_equal(heuristic.signs, res.signs)
    assert (heuristic.residual, heuristic.exact) == (res.residual, res.exact)


@pytest.mark.parametrize("n", [12, 200])
def test_exact_relabelled_path(n):
    # on an even path each vertex has two candidates, its image and the
    # image's mirror, so the search must branch
    rng = np.random.default_rng(n)
    A = path_adjacency(n)
    B, _ = scramble(A, rng)
    assert_isomorphism(exact_spectral_isomorphism(A, B), A, B)


def test_exact_unweighted_random_graphs():
    # 0/1 adjacency gives repeated entries in the eigenvectors, unlike
    # generic weights; graphs whose spectrum is degenerate are skipped
    rng = np.random.default_rng(11)
    solved = 0
    while solved < 50:
        n = int(rng.integers(8, 40))
        A = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.6), 1).astype(float)
        A = A + A.T
        if np.diff(np.linalg.eigvalsh(A)).min() <= GAP_TOL:
            continue
        B, _ = scramble(A, rng)
        assert_isomorphism(exact_spectral_isomorphism(A, B), A, B)
        solved += 1


def test_exact_cospectral_non_isomorphic_pair():
    # a Godsil-McKay switch: the first four vertices span a 4-cycle, and each
    # other vertex, adjacent to exactly two of them, swaps those two for the
    # other two. The switch keeps the spectrum; the degree sequences differ,
    # so the graphs are not isomorphic
    A = np.zeros((9, 9))
    for i, j in [(0, 1), (0, 3), (0, 5), (0, 8), (1, 2), (1, 6), (2, 3), (2, 4),
                 (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 7), (4, 5), (4, 7),
                 (4, 8), (5, 6), (5, 8), (6, 7), (7, 8)]:
        A[i, j] = A[j, i] = 1.0
    B = A.copy()
    B[4:, :4] = 1.0 - A[4:, :4]
    B[:4, 4:] = B[4:, :4].T
    np.testing.assert_allclose(np.linalg.eigvalsh(A), np.linalg.eigvalsh(B), atol=1e-12)
    assert sorted(A.sum(axis=0)) != sorted(B.sum(axis=0))
    assert np.diff(np.linalg.eigvalsh(A)).min() > GAP_TOL
    assert exact_spectral_isomorphism(A, B) is None


def test_exact_rejects_a_sign_switched_copy():
    # D A D with D = diag(1, ..., 1, -1) negates the last vertex's edges: it
    # has A's spectrum and A's eigenvector rows up to sign, so the first
    # node's candidates already form the identity, which the conjugation
    # check refuses
    A = random_weighted_adjacency(np.random.default_rng(13), 8)
    d = np.ones(8)
    d[-1] = -1.0
    assert exact_spectral_isomorphism(A, d[:, None] * A * d) is None


def test_exact_backtracks_out_of_a_dead_end(monkeypatch):
    # a spider with legs of 1, 2 and 5 edges at vertex 0: vertex 2, first on
    # the 2-leg, and vertex 5, second on the 5-leg, have equal eigenvector
    # rows up to sign, but no automorphism swaps them
    A = np.zeros((9, 9))
    for i, j in [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]:
        A[i, j] = A[j, i] = 1.0
    # relabel 2 and 5 as each other: the search tries 2 -> 2 first, which
    # fixes signs that leave some vertex no candidate
    p = np.array([0, 1, 5, 3, 4, 2, 6, 7, 8])
    B = A[np.ix_(p, p)]
    res = exact_spectral_isomorphism(A, B)
    assert_isomorphism(res, A, B)
    np.testing.assert_array_equal(res.permutation.mapping, p)
    monkeypatch.setattr(isomorphism, "SEARCH_NODES", 2)
    with pytest.raises(NumericalError, match="search exceeded 2 nodes"):
        exact_spectral_isomorphism(A, B)


def test_exact_search_budget(monkeypatch):
    # a relabelled path needs a second node, beyond a budget of one
    monkeypatch.setattr(isomorphism, "SEARCH_NODES", 1)
    A = path_adjacency(12)
    B, _ = scramble(A, np.random.default_rng(12))
    with pytest.raises(NumericalError, match="search exceeded 1 nodes"):
        exact_spectral_isomorphism(A, B)


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
    # the flag is the only report: no warning is raised, which the suite's
    # filterwarnings = error would turn into a failure
    A = np.ones((4, 4)) - np.eye(4)
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

        perm = hungarian(score)
        assert score[np.arange(n), perm.mapping].sum() <= n + 1e-10


ALL_METHODS = [exact_spectral_isomorphism, umeyama_match, hoffman_wielandt_gap]


@pytest.mark.parametrize("fn", ALL_METHODS)
def test_non_symmetric_matrix_rejected(fn):
    # a directed path: the eigensolver would read only its lower triangle
    A = np.diag([1.0, 1.0], 1)
    with pytest.raises(InputError, match="first matrix is not symmetric"):
        fn(A, A.T)
    with pytest.raises(InputError, match="second matrix is not symmetric"):
        fn(A + A.T, A)


@pytest.mark.parametrize("fn", ALL_METHODS)
def test_first_matrix_error_wins_on_two_threads(fn, monkeypatch):
    # with the second matrix checked on the worker thread, a pair of two
    # non-symmetric matrices still raises the first matrix's error
    use_second_thread(monkeypatch, True)
    test_non_symmetric_matrix_rejected(fn)


@pytest.mark.parametrize("fn", ALL_METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(fn, bad, second_thread):
    # a NaN made the exact search report no isomorphism, the heuristic fail
    # inside the assignment solver and the bound return (nan, nan)
    A = np.array([[0.0, bad], [bad, 0.0]])
    ok = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputError, match="first matrix has a non-finite entry"):
        fn(A, np.diag([1.0], 1))  # the first matrix's checks come first
    with pytest.raises(InputError, match="second matrix has a non-finite entry"):
        fn(ok, A)


@pytest.mark.parametrize("fn", ALL_METHODS)
def test_empty_matrices_rejected(fn, second_thread):
    with pytest.raises(InputError, match="first matrix is empty"):
        fn(np.zeros((0, 0)), np.zeros((0, 0)))


def _one_and_two_threads(monkeypatch, fn, *args):
    """fn(*args) with the second matrix decomposed in the caller's thread,
    then on a thread of its own."""
    results = []
    for second in (False, True):
        use_second_thread(monkeypatch, second)
        results.append(fn(*args))
    return results


def assert_same_result(one, two):
    # bitwise: the two threads run the same LAPACK calls on the same arrays
    if one is None or two is None:
        assert one is None and two is None
        return
    np.testing.assert_array_equal(one.permutation.mapping, two.permutation.mapping)
    np.testing.assert_array_equal(one.signs, two.signs)
    assert one.residual == two.residual
    assert (one.exact, one.degenerate) == (two.exact, two.degenerate)


@pytest.mark.parametrize("fn", [exact_spectral_isomorphism, umeyama_match])
def test_second_thread_gives_equal_results(fn, monkeypatch):
    rng = np.random.default_rng(14)
    for _ in range(10):
        A = random_weighted_adjacency(rng, 12)
        B, _ = scramble(A, rng)
        assert_same_result(*_one_and_two_threads(monkeypatch, fn, A, B))
    # a non-isomorphic pair: None from the exact search, a residual > 0 from
    # the heuristic
    A, B = random_weighted_adjacency(rng, 12), random_weighted_adjacency(rng, 12)
    assert_same_result(*_one_and_two_threads(monkeypatch, fn, A, B))


def test_second_thread_gives_equal_results_at_n500(monkeypatch):
    rng = np.random.default_rng(15)
    A = random_weighted_adjacency(rng, 500)
    B, _ = scramble(A, rng)
    assert_same_result(*_one_and_two_threads(monkeypatch, umeyama_match, A, B))


def test_second_thread_on_a_degenerate_spectrum(monkeypatch):
    # the 4-cycle has the double eigenvalue 0: flagged by the heuristic,
    # refused by the exact search with one message on either path
    A = np.roll(np.eye(4), 1, axis=1)
    A = A + A.T
    one, two = _one_and_two_threads(monkeypatch, umeyama_match, A, A[::-1, ::-1])
    assert one.degenerate
    assert_same_result(one, two)
    messages = []
    for second in (False, True):
        use_second_thread(monkeypatch, second)
        with pytest.raises(NumericalError) as err:
            exact_spectral_isomorphism(A, A)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_second_thread_gives_equal_bounds(monkeypatch):
    # the pairs of the A2 acceptance suite: random symmetric pairs and
    # orthogonal conjugates
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(2, 11))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        if trial % 2 == 0:
            B = rng.standard_normal((n, n))
            B = (B + B.T) / 2.0
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            B = Q @ A @ Q.T
        one, two = _one_and_two_threads(monkeypatch, hoffman_wielandt_gap, A, B)
        assert one == two


@pytest.mark.parametrize("fn", ALL_METHODS)
def test_worker_error_reaches_the_caller(fn, monkeypatch):
    # an error on the worker thread is raised again in the caller, with its
    # own type and message
    use_second_thread(monkeypatch, True)
    spectrum = isomorphism._spectrum

    def failing(A, name, vectors):
        if name == "second":
            raise ZeroDivisionError("raised for the second matrix")
        return spectrum(A, name, vectors)

    monkeypatch.setattr(isomorphism, "_spectrum", failing)
    A = random_weighted_adjacency(np.random.default_rng(16), 6)
    with pytest.raises(ZeroDivisionError, match="raised for the second matrix"):
        fn(A, A)


def test_no_thread_outlives_a_call(monkeypatch):
    use_second_thread(monkeypatch, True)
    rng = np.random.default_rng(17)
    A = random_weighted_adjacency(rng, 12)
    B, _ = scramble(A, rng)
    before = threading.active_count()
    for fn in [exact_spectral_isomorphism, umeyama_match] * 10:
        fn(A, B)
    with pytest.raises(InputError):
        umeyama_match(A, np.diag(np.ones(11), 1))
    assert threading.active_count() == before


def test_no_thread_without_the_rule(monkeypatch):
    # when BLAS may run threads of its own, the decompositions stay sequential
    monkeypatch.setattr(isomorphism, "SECOND_THREAD", False)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    A = random_weighted_adjacency(np.random.default_rng(18), 6)
    for fn in ALL_METHODS:
        fn(A, A)
    assert started == []


def test_no_thread_below_the_size_cut(monkeypatch):
    # a pair smaller than SECOND_THREAD_MIN_N stays in the caller's thread,
    # where the thread's start-up cost more than the overlap saved; a pair
    # at the cut starts one thread per call. isolab's 500-vertex pairs are
    # above the cut
    assert isomorphism.SECOND_THREAD_MIN_N <= 500
    monkeypatch.setattr(isomorphism, "SECOND_THREAD", True)
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    rng = np.random.default_rng(19)
    cut = isomorphism.SECOND_THREAD_MIN_N
    for n in (2, 12, cut - 1):
        A = random_weighted_adjacency(rng, n)
        for fn in ALL_METHODS:
            fn(A, A)
    assert started == []
    A = random_weighted_adjacency(rng, cut)
    for fn in ALL_METHODS:
        fn(A, A)
    assert len(started) == len(ALL_METHODS)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 2, False),                                   # BLAS picks its own count
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, 4, True),
    (dict.fromkeys(BLAS_VARIABLES, "1"), 2, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, False),
    ({"MKL_NUM_THREADS": "4"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),        # no CPU to spare
])
def test_second_thread_rule(env, cpus, expected, monkeypatch):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert isomorphism._blas_pinned_with_spare_cpu() is expected
