import numpy as np
import pytest

from specmatch import evaluation, laplacian, mesh_graph
from specmatch.errors import DisconnectedGraphError, ZeroDegreeError
from specmatch.laplacian import assemble, convert, dump_triplets, load_triplets
from specmatch.mesh_graph import Graph, build_graph

from conftest import path3_graph, random_connected_graph

P3_COMBINATORIAL = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)


def k2_graph() -> Graph:
    return Graph.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_p3_combinatorial(p3):
    lap = assemble(p3, "combinatorial")
    np.testing.assert_allclose(lap.matrix.toarray(), P3_COMBINATORIAL)


def test_k2_normalized():
    lap = assemble(k2_graph(), "normalized")
    np.testing.assert_allclose(lap.matrix.toarray(), [[1, -1], [-1, 1]])


def test_p3_random_walk(p3):
    lap = assemble(p3, "random_walk")
    np.testing.assert_allclose(
        lap.matrix.toarray(), [[1, -1, 0], [-0.5, 1, -0.5], [0, -1, 1]]
    )


def test_row_sums():
    rng = np.random.default_rng(3)
    graph = random_connected_graph(rng, 30)
    for kind in ("combinatorial", "random_walk"):
        lap = assemble(graph, kind)
        np.testing.assert_allclose(
            np.asarray(lap.matrix.sum(axis=1)).ravel(), 0.0, atol=1e-10
        )


def test_null_spaces():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(5, 200))
        graph = random_connected_graph(rng, n)
        ones = np.ones(n)
        comb = assemble(graph, "combinatorial")
        norm = assemble(graph, "normalized")
        walk = assemble(graph, "random_walk")
        assert np.abs(comb.matrix @ ones).max() < 1e-10
        assert np.abs(norm.matrix @ np.sqrt(graph.degrees)).max() < 1e-10
        assert np.abs(walk.matrix @ ones).max() < 1e-10


def test_positive_semidefinite():
    rng = np.random.default_rng(5)
    graph = random_connected_graph(rng, 40)
    lap = assemble(graph, "combinatorial")
    scale = np.abs(lap.matrix.toarray()).max()
    for _ in range(20):
        x = rng.standard_normal(40)
        assert x @ (lap.matrix @ x) >= -1e-10 * scale


def test_quadratic_form_identity():
    rng = np.random.default_rng(6)
    graph = random_connected_graph(rng, 25)
    lap = assemble(graph, "combinatorial")
    A = graph.adjacency.toarray()
    for _ in range(10):
        x = rng.standard_normal(25)
        direct = x @ (lap.matrix @ x)
        by_edges = 0.5 * np.sum(A * (x[:, None] - x[None, :]) ** 2)
        assert direct == pytest.approx(by_edges, rel=1e-10)


def test_convert_matches_direct_assembly():
    rng = np.random.default_rng(7)
    graph = random_connected_graph(rng, 30)
    comb = assemble(graph, "combinatorial")
    # the closed forms, built densely from the adjacency
    W = graph.adjacency.toarray()
    d = W.sum(axis=1)
    L = np.diag(d) - W
    closed = {
        "normalized": L / np.sqrt(np.outer(d, d)),
        "random_walk": L / d[:, None],
    }
    for target, expected in closed.items():
        converted = convert(comb, target)
        np.testing.assert_allclose(
            converted.matrix.toarray(), expected, rtol=1e-12, atol=1e-14,
        )


def test_convert_normalized_to_random_walk():
    rng = np.random.default_rng(8)
    graph = random_connected_graph(rng, 20)
    norm = assemble(graph, "normalized")
    converted = convert(norm, "random_walk")
    direct = assemble(graph, "random_walk")
    np.testing.assert_allclose(
        converted.matrix.toarray(), direct.matrix.toarray(), rtol=1e-10,
        atol=1e-13,
    )


def test_convert_round_trip(p3):
    comb = assemble(p3, "combinatorial")
    back = convert(convert(comb, "normalized"), "combinatorial")
    np.testing.assert_allclose(
        back.matrix.toarray(), comb.matrix.toarray(), rtol=1e-10, atol=1e-13
    )


def test_zero_degree_rejected():
    # the isolated vertex 2 is a second component, which every kind rejects
    # before the degree-normalized kinds would reject its zero degree
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0
    graph = Graph.from_adjacency(adj)
    for kind in ("combinatorial", "normalized", "random_walk"):
        with pytest.raises(DisconnectedGraphError) as exc:
            assemble(graph, kind)
        assert exc.value.n_components == 2


def test_assemble_reads_the_graph_connectivity(monkeypatch, tetra):
    # the component search runs once, when the graph is built
    graph = build_graph(tetra, "gaussian")

    def no_search(*args, **kwargs):
        raise AssertionError("connected components searched again")

    for module in (mesh_graph, laplacian, evaluation):
        monkeypatch.setattr(module, "_csgraph_components", no_search, raising=False)
    for kind in laplacian.KINDS:
        assert assemble(graph, kind).n == 4


def test_zero_degree_error_type():
    lap = assemble(path3_graph(), "combinatorial")
    object.__setattr__(lap, "degrees", np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ZeroDegreeError):
        convert(lap, "normalized")


def test_triplet_dump_round_trip(tmp_path, p3):
    lap = assemble(p3, "combinatorial")
    path = tmp_path / "lap.txt"
    dump_triplets(lap.matrix, str(path))
    loaded = load_triplets(str(path))
    np.testing.assert_allclose(loaded.toarray(), lap.matrix.toarray())
