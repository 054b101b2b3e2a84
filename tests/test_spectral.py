import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse import linalg as splinalg

from specmatch import spectral
from specmatch.errors import DisconnectedGraphError, NonConvergenceError, NumericalError
from specmatch.evaluation import synth_transform
from specmatch.laplacian import assemble
from specmatch.mesh_graph import Graph, build_graph
from specmatch.shapes import bent_cylinder
from specmatch.spectral import (
    check_spectral_properties,
    dense_eig,
    eigs_smallest,
)

from conftest import path3_graph, random_connected_graph


def k2_graph() -> Graph:
    return Graph.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_p3_eigenvalues(p3):
    lap = assemble(p3)
    spectrum = eigs_smallest(lap, 2)
    np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)


def test_k2_eigenvalues():
    lap = assemble(k2_graph())
    spectrum = eigs_smallest(lap, 1)
    np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 2.0], atol=1e-10)


def test_null_vector_is_constant():
    rng = np.random.default_rng(0)
    graph = random_connected_graph(rng, 40)
    lap = assemble(graph)
    spectrum = eigs_smallest(lap, 5)
    u1 = spectrum.eigenvectors[:, 0]
    assert np.abs(u1 - u1[0]).max() < 1e-6


def test_dense_eig_diagonal():
    spectrum = dense_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0])


def test_dense_eig_p3_eigenvectors():
    L = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    spectrum = dense_eig(L)
    np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
    u2 = spectrum.eigenvectors[:, 1]
    u3 = spectrum.eigenvectors[:, 2]
    np.testing.assert_allclose(u2 / u2[0], [1.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(u3 / u3[0], [1.0, -2.0, 1.0], atol=1e-12)


def test_dense_eig_reconstruction():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 30))
    A = (A + A.T) / 2.0
    spectrum = dense_eig(A)
    recon = spectrum.eigenvectors @ np.diag(spectrum.eigenvalues) @ spectrum.eigenvectors.T
    assert np.linalg.norm(recon - A) <= 1e-8 * np.linalg.norm(A)


def test_solver_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for n in (30, 120, 500):
        graph = random_connected_graph(rng, n)
        lap = assemble(graph)
        K = min(8, n - 2)
        iterative = eigs_smallest(lap, K)
        oracle = dense_eig(lap)
        np.testing.assert_allclose(
            iterative.eigenvalues[1:], oracle.eigenvalues[1:K + 1],
            rtol=1e-6, atol=1e-9,
        )
        # subspace agreement where the eigengap resolves the pairs
        gaps = np.diff(oracle.eigenvalues[:K + 2])
        for k in range(1, K + 1):
            if min(gaps[k - 1], gaps[k]) <= 1e-6:
                continue
            u = iterative.eigenvectors[:, k]
            v = oracle.eigenvectors[:, k]
            angle = np.arccos(np.clip(np.abs(u @ v), 0.0, 1.0))
            assert angle <= 1e-4


def test_spectrum_does_not_depend_on_vertex_order():
    # relabelled copies of one mesh: the start vector is fixed, so each
    # vertex order meets it from a different direction (seed 133 stalled
    # the block-iteration solver this one replaced)
    spectra = []
    for seed in (133, 134, 135):
        mesh, _ = synth_transform(bent_cylinder(16, 40), "isometry_relabel", seed=seed)
        lap = assemble(build_graph(mesh))
        oracle = scipy.linalg.eigvalsh(lap.toarray(), subset_by_index=[0, 50])
        vals = eigs_smallest(lap, 50).eigenvalues
        np.testing.assert_allclose(vals, oracle, rtol=1e-10, atol=1e-12)
        spectra.append(vals)
    for vals in spectra[1:]:
        np.testing.assert_allclose(vals, spectra[0], rtol=1e-10, atol=1e-12)


def test_fewer_pairs_are_the_leading_pairs_of_more():
    # a fixed-K match solves K+1 pairs; they must be the ones the 50-pair
    # solve would have given
    mesh, _ = synth_transform(bent_cylinder(12, 23), "isometry_relabel", seed=5)
    lap = assemble(build_graph(mesh))
    few, many = eigs_smallest(lap, 10), eigs_smallest(lap, 50)
    assert few.n_pairs == 11
    np.testing.assert_allclose(few.eigenvalues, many.eigenvalues[:11], rtol=1e-12)
    np.testing.assert_allclose(few.eigenvectors, many.eigenvectors[:, :11], atol=1e-10)


def test_method_reports_solver_path():
    rng = np.random.default_rng(7)
    small = assemble(random_connected_graph(rng, 30))
    assert eigs_smallest(small, 8).method == "dense"
    mesh = assemble(build_graph(bent_cylinder(16, 40)))
    assert eigs_smallest(mesh, 50).method == "shift_invert"


@pytest.mark.parametrize("K", [3, 4])
def test_more_pairs_than_rows_rejected(p3, K):
    with pytest.raises(ValueError, match=rf"K\+1={K + 1} exceeds matrix size n=3"):
        eigs_smallest(assemble(p3), K)


def test_arpack_failure_is_nonconvergence(monkeypatch):
    lap = assemble(random_connected_graph(np.random.default_rng(8), 200))

    def no_convergence(A, k, **kwargs):
        raise splinalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(0), np.zeros((A.shape[0], 0)))

    monkeypatch.setattr(splinalg, "eigsh", no_convergence)
    with pytest.raises(NonConvergenceError):
        eigs_smallest(lap, 8)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("n", [40, 200])   # the dense and shift-invert paths
def test_nan_laplacian_is_nonconvergence(n, value, capfd):
    # a non-finite entry fails as NonConvergenceError on both paths, before
    # LAPACK or ARPACK can print to stderr or raise an error of their own
    lap = assemble(random_connected_graph(np.random.default_rng(5), n))
    lap.data[3] = value
    with pytest.raises(NonConvergenceError):
        eigs_smallest(lap, 6)
    assert capfd.readouterr() == ("", "")


def test_residual_check_rejects_an_inaccurate_spectrum(monkeypatch):
    # the last check that every returned spectrum passes. Shrunk to 1e-30 of
    # ||L||_1, the tolerance is below what shift-invert Lanczos reaches; on
    # the dense path the negative-eigenvalue test, which reads the same
    # tolerance, would fail first
    monkeypatch.setattr(spectral, "RESIDUAL_SHARE", 1e-30)
    lap = assemble(random_connected_graph(np.random.default_rng(10), 200))
    with pytest.raises(NonConvergenceError) as exc:
        eigs_smallest(lap, 8)
    assert exc.value.tol == 1e-30 * splinalg.norm(lap, 1)
    assert len(exc.value.residuals) == 9 and max(exc.value.residuals) > exc.value.tol


def test_orthonormal_columns():
    rng = np.random.default_rng(3)
    graph = random_connected_graph(rng, 80)
    spectrum = eigs_smallest(assemble(graph), 6)
    U = spectrum.eigenvectors
    np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-8)


def test_residuals_within_tolerance():
    rng = np.random.default_rng(4)
    graph = random_connected_graph(rng, 100)
    lap = assemble(graph)
    spectrum = eigs_smallest(lap, 6)
    for lam, res in zip(spectrum.eigenvalues, spectrum.residuals):
        assert res >= 0.0
    recomputed = np.linalg.norm(
        lap @ spectrum.eigenvectors - spectrum.eigenvectors * spectrum.eigenvalues,
        axis=0,
    )
    np.testing.assert_allclose(recomputed, spectrum.residuals, atol=1e-12)


def test_deterministic_repeat(torus):
    from specmatch.laplacian import assemble as asm
    from specmatch.mesh_graph import build_graph

    graph = build_graph(torus)
    lap = asm(graph)
    s1 = eigs_smallest(lap, 10)
    s2 = eigs_smallest(lap, 10)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)


def test_disconnected_graph_detected():
    adj = np.zeros((6, 6))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[1, 2] = adj[2, 1] = 1.0
    adj[3, 4] = adj[4, 3] = 1.0
    adj[4, 5] = adj[5, 4] = 1.0
    # assemble itself refuses disconnected graphs; build the Laplacian by
    # hand to exercise the solver-level second-zero-eigenvalue detection
    lap = sparse.csr_matrix(np.diag(adj.sum(axis=1)) - adj)
    with pytest.raises(DisconnectedGraphError):
        eigs_smallest(lap, 2)


@pytest.mark.parametrize("K", [1, 4, 10, 20])
def test_disconnected_graph_counts_components(K):
    # three disjoint 30-vertex paths: K = 1, 4 and 10 take the shift-invert
    # path, K = 20 the dense one. K = 1 computes only one non-null pair, so
    # its eigenvalues show two components; the matrix shows all three
    adj = np.zeros((90, 90))
    for start in (0, 30, 60):
        i = np.arange(start, start + 29)
        adj[i, i + 1] = adj[i + 1, i] = 1.0

    lap = sparse.csr_matrix(np.diag(adj.sum(axis=1)) - adj)
    with pytest.raises(DisconnectedGraphError) as exc:
        eigs_smallest(lap, K)
    assert exc.value.n_components == 3


@pytest.mark.parametrize("K, match", [
    pytest.param(4, r"not positive definite: its Cholesky factor fails at row \d+",
                 id="shift_invert"),
    pytest.param(30, r"negative eigenvalue -5\.000e-01", id="dense"),
])
def test_indefinite_matrix_is_a_numerical_error(K, match):
    # a Laplacian minus 0.5 I has the eigenvalue -0.5, so it is no graph
    # Laplacian: K = 4 takes the shift-invert path, whose shifted matrix
    # has no Cholesky factor, and K = 30 the dense one
    lap = assemble(random_connected_graph(np.random.default_rng(9), 120))
    with pytest.raises(NumericalError, match=match) as exc:
        eigs_smallest(lap - 0.5 * sparse.identity(120, format="csr"), K)
    assert not isinstance(exc.value, NonConvergenceError)


def test_check_properties_p3(p3):
    lap = assemble(p3)
    spectrum = dense_eig(lap)
    report = check_spectral_properties(spectrum, p3)
    assert report.passed
    assert spectrum.eigenvalues.max() <= 2.0 * p3.degrees.max()


def test_check_properties_random_graph():
    rng = np.random.default_rng(5)
    graph = random_connected_graph(rng, 50)
    lap = assemble(graph)
    spectrum = dense_eig(lap)
    report = check_spectral_properties(spectrum, graph)
    assert report.passed


def test_eigenvector_statistics():
    rng = np.random.default_rng(6)
    graph = random_connected_graph(rng, 60)
    spectrum = eigs_smallest(assemble(graph), 8)
    U = spectrum.eigenvectors[:, 1:]
    n = graph.n
    assert np.abs(U.sum(axis=0)).max() <= 1e-8
    assert np.abs(np.mean(U * U, axis=0) - 1.0 / n).max() <= 1e-10
