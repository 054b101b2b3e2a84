import numpy as np
import pytest

from specmatch import evaluation, laplacian, mesh_graph
from specmatch.errors import DisconnectedGraphError, InputError
from specmatch.laplacian import assemble, load_triplets
from specmatch.mesh_graph import Graph, build_graph

from conftest import dump_triplets, random_connected_graph

P3_COMBINATORIAL = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)


def test_p3_combinatorial(p3):
    lap = assemble(p3)
    np.testing.assert_allclose(lap.toarray(), P3_COMBINATORIAL)


def test_row_sums():
    rng = np.random.default_rng(3)
    graph = random_connected_graph(rng, 30)
    lap = assemble(graph)
    np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0, atol=1e-10)


def test_null_spaces():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(5, 200))
        graph = random_connected_graph(rng, n)
        assert np.abs(assemble(graph) @ np.ones(n)).max() < 1e-10


def test_positive_semidefinite():
    rng = np.random.default_rng(5)
    graph = random_connected_graph(rng, 40)
    lap = assemble(graph)
    scale = np.abs(lap.toarray()).max()
    for _ in range(20):
        x = rng.standard_normal(40)
        assert x @ (lap @ x) >= -1e-10 * scale


def test_quadratic_form_identity():
    rng = np.random.default_rng(6)
    graph = random_connected_graph(rng, 25)
    lap = assemble(graph)
    A = graph.adjacency.toarray()
    for _ in range(10):
        x = rng.standard_normal(25)
        direct = x @ (lap @ x)
        by_edges = 0.5 * np.sum(A * (x[:, None] - x[None, :]) ** 2)
        assert direct == pytest.approx(by_edges, rel=1e-10)


def test_zero_degree_rejected():
    # the isolated vertex 2 is a second component
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0
    with pytest.raises(DisconnectedGraphError) as exc:
        assemble(Graph.from_adjacency(adj))
    assert exc.value.n_components == 2


def test_assemble_reads_the_graph_connectivity(monkeypatch, tetra):
    # the component search runs once, when the graph is built
    graph = build_graph(tetra)

    def no_search(*args, **kwargs):
        raise AssertionError("connected components searched again")

    for module in (mesh_graph, laplacian, evaluation):
        monkeypatch.setattr(module, "_csgraph_components", no_search, raising=False)
    assert assemble(graph).shape == (4, 4)


def test_triplet_dump_round_trip(tmp_path, p3):
    lap = assemble(p3)
    path = tmp_path / "lap.txt"
    dump_triplets(lap, str(path))
    loaded = load_triplets(str(path))
    np.testing.assert_allclose(loaded.toarray(), lap.toarray())


def test_triplet_file_without_triplets_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n  \n")
    with pytest.raises(InputError, match="empty.txt"):
        load_triplets(str(path))
