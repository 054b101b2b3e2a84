import numpy as np
import pytest

from specmatch.embedding import (
    Embedding,
    commute_time_distance,
    commute_time_embedding,
    dump_embedding,
    embedding_stats,
    normalize_hypersphere,
    select_dimension,
    theta_min,
    theta_scree,
)
from specmatch.errors import InputError
from specmatch.laplacian import assemble
from specmatch.mesh_graph import Mesh, build_graph
from specmatch.spectral import dense_eig, eigs_smallest

from conftest import path3_graph, random_connected_graph


def p3_spectrum():
    return dense_eig(assemble(path3_graph()))


def laplacian_pinv(graph):
    return np.linalg.pinv(assemble(graph).toarray())


def test_p3_commute_time_columns():
    emb = commute_time_embedding(p3_spectrum(), 2)
    expected = np.array([
        [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)],
        [1 / np.sqrt(18), -2 / np.sqrt(18), 1 / np.sqrt(18)],
    ])
    # sign of each eigenvector is canonical but fix orientation for safety
    for row, exp_row in zip(emb.coords, expected):
        assert np.allclose(row, exp_row, atol=1e-12) or np.allclose(
            row, -exp_row, atol=1e-12
        )


def test_k1_is_scaled_fiedler():
    spectrum = p3_spectrum()
    emb = commute_time_embedding(spectrum, 1)
    expected = spectrum.eigenvectors[:, 1] / np.sqrt(spectrum.eigenvalues[1])
    np.testing.assert_allclose(emb.coords[0], expected)


def test_rows_zero_mean():
    rng = np.random.default_rng(0)
    graph = random_connected_graph(rng, 50)
    spectrum = dense_eig(assemble(graph))
    emb = commute_time_embedding(spectrum, 6)
    assert np.abs(emb.coords.sum(axis=1)).max() <= 1e-8


def test_coordinate_bounds():
    rng = np.random.default_rng(1)
    graph = random_connected_graph(rng, 40)
    spectrum = dense_eig(assemble(graph))
    emb = commute_time_embedding(spectrum, 5)
    bounds = 1.0 / np.sqrt(spectrum.eigenvalues[1:emb.K + 1])
    assert np.all(np.abs(emb.coords) < bounds[:, None])


def test_insufficient_spectrum():
    with pytest.raises(InputError, match="requested K=3 but spectrum has 2 non-null pairs"):
        commute_time_embedding(p3_spectrum(), 3)


@pytest.mark.parametrize("K", [0, -1])
def test_dimension_below_one_rejected(K):
    # a negative K would otherwise slice rows from the end of the spectrum
    with pytest.raises(ValueError):
        commute_time_embedding(p3_spectrum(), K)


def test_p3_ctd_anchors(p3):
    spectrum = p3_spectrum()
    d12 = commute_time_distance(spectrum, 0, 1, p3.volume)
    d13 = commute_time_distance(spectrum, 0, 2, p3.volume)
    # effective resistances along the unit path are 1 and 2
    assert d12 ** 2 == pytest.approx(4.0, rel=1e-12)
    assert d13 ** 2 == pytest.approx(8.0, rel=1e-12)


def test_ctd_self_distance(p3):
    assert commute_time_distance(p3_spectrum(), 1, 1, p3.volume) == 0.0


def test_ctd_matches_pseudoinverse():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        graph = random_connected_graph(rng, n)
        spectrum = dense_eig(assemble(graph))
        Lp = laplacian_pinv(graph)
        i, j = rng.choice(n, 2, replace=False)
        d = commute_time_distance(spectrum, int(i), int(j), graph.volume)
        closed = graph.volume * (Lp[i, i] + Lp[j, j] - 2 * Lp[i, j])
        assert d ** 2 == pytest.approx(closed, rel=1e-8)


def test_ctd_is_a_metric():
    rng = np.random.default_rng(3)
    graph = random_connected_graph(rng, 20)
    spectrum = dense_eig(assemble(graph))
    vol = graph.volume
    D = np.zeros((20, 20))
    for i in range(20):
        for j in range(20):
            D[i, j] = commute_time_distance(spectrum, i, j, vol)
    np.testing.assert_allclose(D, D.T, atol=1e-12)
    for _ in range(200):
        a, b, c = rng.integers(20, size=3)
        assert D[a, c] <= D[a, b] + D[b, c] + 1e-10


def test_theta_min_p3_anchor():
    lam = np.array([1.0, 3.0])
    assert theta_min(lam, 3)[0] == pytest.approx(0.5)
    assert theta_scree(lam)[0] == pytest.approx(0.75)
    assert theta_min(lam, 3)[0] <= theta_scree(lam)[0] <= 1.0


def test_theta_bounds_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        graph = random_connected_graph(rng, n)
        lam = dense_eig(assemble(graph)).eigenvalues[1:]
        lower = theta_min(lam, n)
        exact = theta_scree(lam)
        assert lower.shape == exact.shape == lam.shape
        assert (lower <= exact + 1e-12).all()
        assert (exact <= 1.0 + 1e-12).all()


def test_select_dimension_quadratic_decay():
    n = 200
    lam = np.arange(1, n) ** 2.0
    target = 0.95
    sel = select_dimension(theta_min(lam, n), target)
    lower = theta_min(lam, n)
    assert sel.reached
    assert sel.theta_min == lower[sel.K - 1] >= target
    assert (lower[:sel.K - 1] < target).all()
    # the true scree ratio must clear the target as well
    assert theta_scree(lam)[sel.K - 1] >= target


def test_select_dimension_unreachable():
    lam = np.array([1.0, 1.0, 1.0])
    sel = select_dimension(theta_min(lam, 100), 0.99)
    assert not sel.reached
    assert sel.K == 3
    assert sel.theta_min == theta_min(lam, 100)[-1]


def test_normalize_column():
    emb = Embedding(coords=np.array([[3.0], [4.0]]))
    out = normalize_hypersphere(emb)
    np.testing.assert_allclose(out.coords[:, 0], [0.6, 0.8])


def test_normalize_idempotent():
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((3, 10))
    emb = Embedding(coords=coords)
    once = normalize_hypersphere(emb)
    twice = normalize_hypersphere(once)
    np.testing.assert_allclose(once.coords, twice.coords, atol=1e-15)


def test_normalize_p3():
    emb = normalize_hypersphere(commute_time_embedding(p3_spectrum(), 2))
    norms = np.linalg.norm(emb.coords, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(emb.coords[:, 1]), [0.0, 1.0], atol=1e-12)


def test_normalize_zero_column_rejected():
    emb = Embedding(coords=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="vertex 1 has zero-norm"):
        normalize_hypersphere(emb)


def test_normalize_rounding_level_column_rejected():
    # the centre of a mirror-symmetric bowtie has first spectral coordinate
    # 0 analytically and about 1e-15 in floating point
    mesh = Mesh(
        vertices=np.array([[-2.0, -1, 0], [-2, 1, 0], [0, 0, 0], [2, -1, 0], [2, 1, 0]]),
        faces=np.array([[0, 1, 2], [2, 3, 4]]),
    )
    emb = commute_time_embedding(eigs_smallest(assemble(build_graph(mesh)), 1), 1)
    assert 0.0 < abs(emb.coords[0, 2]) <= 1e-12
    with pytest.raises(InputError, match="vertex 2 has zero-norm"):
        normalize_hypersphere(emb)


def test_embedding_stats_p3():
    mean, cov = embedding_stats(commute_time_embedding(p3_spectrum(), 2))
    np.testing.assert_allclose(mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(cov, np.diag([1 / 3, 1 / 9]), atol=1e-12)


def test_embedding_stats_diagonal():
    rng = np.random.default_rng(6)
    graph = random_connected_graph(rng, 30)
    spectrum = dense_eig(assemble(graph))
    _, cov = embedding_stats(commute_time_embedding(spectrum, 5))
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 1e-8


def test_dump_matches_per_value_formatting(tmp_path):
    # one format call per row writes the bytes that formatting each value
    # on its own writes, signed zeros, subnormals and round-trip digits
    # included
    rng = np.random.default_rng(10)
    coords = rng.standard_normal((3, 7)) * np.logspace(-300, 300, 7)
    coords[0, :3] = [-0.0, 5e-324, 0.1]
    path = tmp_path / "emb.txt"
    dump_embedding(Embedding(coords=coords), path)
    expected = "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in coords)
    assert path.read_text() == expected
    np.testing.assert_array_equal(np.loadtxt(path), coords)
