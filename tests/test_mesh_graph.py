import numpy as np
import pytest

from specmatch.errors import DegenerateFaceError, DisconnectedGraphError, MeshParseError
from specmatch.mesh_graph import (
    Graph,
    Mesh,
    build_graph,
    connected_components,
    load_mesh,
    save_mesh,
)
from specmatch.shapes import bumpy_torus

from conftest import tetrahedron_mesh

TETRA_OFF = """OFF
4 4 0
0 0 0
1 0 0
0.5 1 0
0.5 0.5 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""

# the tetrahedron as ASCII PLY: header on lines 1-9, vertices on 10-13,
# faces on 14-17
TETRA_PLY = """ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
element face 4
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0.5 1 0
0.5 0.5 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""


def test_load_off_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_mesh(str(path))
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 4
    # the same tetrahedron as PLY, with an element between vertex and face
    # that the reader skips, loads to the same arrays
    ply = tmp_path / "tetra.ply"
    ply.write_text(TETRA_PLY.replace(
        "element face 4", "element edge 2\nproperty int vertex1\n"
        "property int vertex2\nelement face 4").replace("3 0 1 2", "0 1\n2 3\n3 0 1 2"))
    from_ply = load_mesh(str(ply))
    np.testing.assert_array_equal(from_ply.vertices, mesh.vertices)
    np.testing.assert_array_equal(from_ply.faces, mesh.faces)


def test_load_off_truncated_vertices(tmp_path):
    bad = TETRA_OFF.replace("4 4 0", "5 4 0")
    path = tmp_path / "bad.off"
    path.write_text(bad)
    with pytest.raises(MeshParseError):
        load_mesh(str(path))


def _lines(text, stop):
    """The first ``stop`` lines of ``text``."""
    return "".join(text.splitlines(keepends=True)[:stop])


@pytest.mark.parametrize("ext, text, line", [
    pytest.param("off", "", 1, id="off-empty"),
    pytest.param("off", "# only a comment\n", 1, id="off-comment-only"),
    pytest.param("off", "OFF\n", 1, id="off-missing-counts"),
    pytest.param("off", "OFF\n4\n", 2, id="off-short-counts"),
    pytest.param("off", TETRA_OFF.replace("4 4 0", "4 x 0"), 2, id="off-bad-count"),
    pytest.param("off", TETRA_OFF.replace("4 4 0", "-4 4 0"), 2, id="off-negative-count"),
    pytest.param("off", _lines(TETRA_OFF, 4), 4, id="off-truncated-vertices"),
    pytest.param("off", _lines(TETRA_OFF, 9), 9, id="off-truncated-faces"),
    pytest.param("off", TETRA_OFF.replace("0.5 1 0", "0.5 x 0"), 5, id="off-bad-float"),
    pytest.param("off", TETRA_OFF.replace("0.5 1 0", "0.5 1"), 5, id="off-short-vertex"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "3 0 b 3"), 9, id="off-bad-face"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "4 0 2 3 1"), 9, id="off-quad"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "3 0 2 4"), 9, id="off-index-range"),
    pytest.param("ply", "", 1, id="ply-empty"),
    pytest.param("ply", TETRA_OFF, 1, id="ply-missing-magic"),
    pytest.param("ply", TETRA_PLY.replace("ascii", "binary_little_endian"), 2,
                 id="ply-binary"),
    pytest.param("ply", TETRA_PLY.replace("format ascii 1.0", "format"), 2,
                 id="ply-format-without-value"),
    pytest.param("ply", TETRA_PLY.replace("vertex 4", "vertex four"), 3,
                 id="ply-bad-element"),
    pytest.param("ply", TETRA_PLY.replace("vertex 4", "vertex -4"), 3,
                 id="ply-negative-count"),
    pytest.param("ply", TETRA_PLY.replace("property float y", "colour red"), 5,
                 id="ply-unexpected-header-line"),
    pytest.param("ply", _lines(TETRA_PLY, 8), 8, id="ply-missing-end-header"),
    pytest.param("ply", TETRA_PLY.replace("element face 4\n", "").replace(
        "property list uchar int vertex_indices\n", ""), 7, id="ply-no-face-element"),
    pytest.param("ply", _lines(TETRA_PLY, 11), 11, id="ply-truncated-vertices"),
    pytest.param("ply", _lines(TETRA_PLY, 16), 16, id="ply-truncated-faces"),
    pytest.param("ply", TETRA_PLY.replace("0.5 1 0", "0.5 x 0"), 12, id="ply-bad-float"),
    pytest.param("ply", TETRA_PLY.replace("3 0 2 3", "4 0 2 3 1"), 16, id="ply-quad"),
    pytest.param("ply", TETRA_PLY.replace("3 0 2 3", "3 0 2 4"), 16, id="ply-index-range"),
])
def test_malformed_mesh_names_the_line(tmp_path, ext, text, line):
    path = tmp_path / f"bad.{ext}"
    path.write_text(text)
    with pytest.raises(MeshParseError) as exc:
        load_mesh(str(path))
    assert exc.value.line == line


def test_ply_cube_round_trip(tmp_path):
    # axis-aligned unit cube split into 12 triangles
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                 dtype=float)
    faces = np.array([
        [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5],
        [0, 4, 5], [0, 5, 1], [2, 3, 7], [2, 7, 6],
        [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
    ])
    mesh = Mesh(vertices=v, faces=faces)
    path = tmp_path / "cube.ply"
    save_mesh(mesh, str(path))
    loaded = load_mesh(str(path))
    assert loaded.n_vertices == 8
    assert loaded.n_faces == 12
    np.testing.assert_allclose(loaded.vertices, mesh.vertices)
    np.testing.assert_array_equal(loaded.faces, mesh.faces)


def test_off_round_trip(tmp_path, tetra):
    path = tmp_path / "t.off"
    save_mesh(tetra, str(path))
    loaded = load_mesh(str(path))
    np.testing.assert_allclose(loaded.vertices, tetra.vertices)
    np.testing.assert_array_equal(loaded.faces, tetra.faces)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    torus = bumpy_torus(16, 16)
    v = torus.vertices.copy()
    v[5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Mesh(vertices=v, faces=torus.faces)
    with pytest.raises(ValueError, match="finite"):
        build_graph(torus, "gaussian", sigma=bad)


def test_degenerate_face_rejected():
    with pytest.raises(DegenerateFaceError):
        Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 1]]))


def test_face_index_out_of_range():
    with pytest.raises(ValueError):
        Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))


def test_p3_degrees_and_volume(p3):
    np.testing.assert_allclose(p3.degrees, [1, 2, 1])
    assert p3.volume == pytest.approx(4.0)


def test_tetrahedron_uniform_is_k4(tetra):
    graph = build_graph(tetra, "uniform")
    assert graph.n == 4
    np.testing.assert_allclose(graph.degrees, [3, 3, 3, 3])
    assert graph.volume == pytest.approx(12.0)


def test_gaussian_weights_closed_form():
    # a single triangle with edge lengths 1, 2, sqrt(5)
    mesh = Mesh(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 2, 0]]),
        faces=np.array([[0, 1, 2]]),
    )
    graph = build_graph(mesh, "gaussian", sigma=1.0)
    A = graph.adjacency.toarray()
    assert A[0, 1] == pytest.approx(np.exp(-1.0))
    assert A[0, 2] == pytest.approx(np.exp(-4.0))
    assert A[1, 2] == pytest.approx(np.exp(-5.0))


def test_gaussian_weights_in_unit_interval(tetra):
    graph = build_graph(tetra, "gaussian")
    w = graph.adjacency.data
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0)


def test_graph_invariants(tetra):
    graph = build_graph(tetra, "gaussian")
    A = graph.adjacency
    assert (A != A.T).nnz == 0
    assert not A.diagonal().any()
    np.testing.assert_allclose(
        graph.degrees, np.asarray(A.sum(axis=1)).ravel(), rtol=1e-12
    )
    assert graph.volume == pytest.approx(float(graph.degrees.sum()), rel=1e-12)


def test_build_graph_deterministic(tetra):
    g1 = build_graph(tetra, "gaussian")
    g2 = build_graph(tetra, "gaussian")
    assert np.array_equal(g1.adjacency.toarray(), g2.adjacency.toarray())


def test_disconnected_mesh_rejected():
    # two separate triangles
    v = np.vstack([np.eye(3), np.eye(3) + 10.0])
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(DisconnectedGraphError) as exc:
        build_graph(Mesh(vertices=v, faces=faces), "uniform")
    assert exc.value.n_components == 2


def test_connected_components_k4(tetra):
    graph = build_graph(tetra, "uniform")
    comps = connected_components(graph)
    assert comps == [{0, 1, 2, 3}]


def test_connected_components_two_edges():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    comps = connected_components(Graph.from_adjacency(adj))
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]


def test_connected_components_empty_adjacency():
    comps = connected_components(Graph.from_adjacency(np.zeros((3, 3))))
    assert comps == [{0}, {1}, {2}]


def test_mean_edge_length():
    mesh = tetrahedron_mesh()
    lengths = mesh.edge_lengths()
    assert mesh.mean_edge_length() == pytest.approx(float(lengths.mean()))
    assert lengths.shape == (6,)
