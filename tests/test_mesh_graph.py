import re

import numpy as np
import pytest

from specmatch.errors import DisconnectedGraphError, InputError, MeshParseError
from specmatch.mesh_graph import (
    Graph,
    Mesh,
    build_graph,
    load_mesh,
    save_mesh,
)
from specmatch.shapes import bent_cylinder, bumpy_torus

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


def test_load_off_counts_on_magic_line(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF.replace("OFF\n4 4 0", "OFF 4 4 0"))
    mesh = load_mesh(str(path))
    np.testing.assert_array_equal(mesh.vertices, tetrahedron_mesh().vertices)
    np.testing.assert_array_equal(mesh.faces, tetrahedron_mesh().faces)


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
    # a count that no list can hold
    pytest.param("off", "OFF\n99999999999999999999 1 0\n0 0 0\n", 2, id="off-oversized-count"),
    pytest.param("off", _lines(TETRA_OFF, 4), 4, id="off-truncated-vertices"),
    pytest.param("off", _lines(TETRA_OFF, 9), 9, id="off-truncated-faces"),
    pytest.param("off", TETRA_OFF.replace("0.5 1 0", "0.5 x 0"), 5, id="off-bad-float"),
    pytest.param("off", TETRA_OFF.replace("0.5 1 0", "0.5 1"), 5, id="off-short-vertex"),
    pytest.param("off", "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n", 3, id="off-short-vertices"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "3 0 b 3"), 9, id="off-bad-face"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "4 0 2 3 1"), 9, id="off-quad"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "3 0 2 4"), 9, id="off-index-range"),
    pytest.param("off", TETRA_OFF.replace("3 0 2 3", "3 1.0 2 0"), 9, id="off-float-index"),
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
    pytest.param("ply", TETRA_PLY.replace("vertex 4", "vertex 99999999999999999999"), 3,
                 id="ply-oversized-count"),
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


def test_byte_that_is_not_utf8(tmp_path):
    # whatever the locale: in a comment the byte is skipped with the comment,
    # in a coordinate it fails that line
    path = tmp_path / "cafe.off"
    path.write_bytes(b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n# caf\xe9\n")
    mesh = load_mesh(str(path))
    np.testing.assert_array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
    path.write_bytes(b"OFF\n3 1 0\n0 0 0\n1\xe9 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshParseError) as exc:
        load_mesh(str(path))
    assert exc.value.line == 4


def _reference_load(path):
    """(vertices, faces) of a well-formed mesh file, read one line at a time
    with the grammar of ``load_mesh`` and none of its checks."""
    with open(path) as fh:
        lines = [tok for line in fh if (tok := line.split("#", 1)[0].split())]
    if lines[0] == ["ply"]:
        start = lines.index(["end_header"]) + 1
        elements = [(tok[1], int(tok[2])) for tok in lines[:start] if tok[0] == "element"]
    else:  # the counts follow "OFF" on its line or on the next, or stand alone
        if lines[0][0] == "OFF":
            lines[0] = lines[0][1:] or lines.pop(1)
        start = 1
        elements = [("vertex", int(lines[0][0])), ("face", int(lines[0][1]))]
    rows = {}
    for name, count in elements:
        rows[name], start = lines[start:start + count], start + count
    return (np.array([[float(x) for x in tok[:3]] for tok in rows["vertex"]]),
            np.array([[int(x) for x in tok[1:4]] for tok in rows["face"]]))


def _perturbed(mesh, ext) -> bytes:
    """``mesh`` as a file that uses the freedoms of the grammar: comments at
    line ends and on lines of their own, blank lines, CRLF endings, normals
    after some vertices, colours after some faces, and "\x0c" and "\x1c"
    between the tokens of a vertex line. The OFF file gives its counts on
    the magic line; the PLY file has an element the reader skips and
    declares its faces before its vertices."""
    vertices = ["%.17g %.17g %.17g" % tuple(v) + " 0 0 1" * (i % 3 == 0)
                for i, v in enumerate(mesh.vertices.tolist())]
    vertices[5] = vertices[5].replace(" ", "\x0c", 1)
    vertices[6] = vertices[6].replace(" ", " \x1c ", 1)
    faces = ["3 %d %d %d" % tuple(f) + " 255 0 0" * (i % 4 == 0)
             for i, f in enumerate(mesh.faces.tolist())]
    nv, nf = mesh.n_vertices, mesh.n_faces
    if ext == "off":
        head, body = [f"OFF {nv} {nf} 0"], vertices + faces
    else:
        head = ["ply", "format ascii 1.0", "comment hand made", "element edge 2",
                "property int vertex1", "property int vertex2", f"element face {nf}",
                "property list uchar int vertex_indices", f"element vertex {nv}",
                "property float x", "property float y", "property float z",
                "end_header"]
        body = ["0 1", "1 2"] + faces + vertices
    lines = head[:1] + ["# a comment", ""] + head[1:]
    for i, line in enumerate(body):
        lines += [line + "  # note" * (i % 7 == 0)] + ["", "  # comment"] * (i % 50 == 0)
    return "\r\n".join(lines + [""]).encode()


@pytest.mark.parametrize("ext", ["off", "ply"])
def test_load_matches_a_per_line_reader(tmp_path, ext):
    # the 3,202-vertex mesh of the embed benchmark, as save_mesh writes it
    # and with comments, blank lines, CRLF, extra values, reordered and
    # skipped PLY elements and form feeds
    mesh = bent_cylinder(32, 100)
    plain = tmp_path / f"plain.{ext}"
    save_mesh(mesh, str(plain))
    perturbed = tmp_path / f"perturbed.{ext}"
    perturbed.write_bytes(_perturbed(mesh, ext))
    for path in (plain, perturbed):
        loaded = load_mesh(str(path))
        vertices, faces = _reference_load(path)
        np.testing.assert_array_equal(loaded.vertices, vertices)
        np.testing.assert_array_equal(loaded.faces, faces)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.faces, mesh.faces)
        assert loaded.faces.dtype == mesh.faces.dtype


@pytest.mark.parametrize("block, bad, message", [
    ("vertex", "x", "bad vertex line: x "),
    ("face", "3202", r"face index out of range: \[.*, 3202\]"),
])
def test_error_on_a_last_line_names_it(tmp_path, block, bad, message):
    # a bad value on the last line of a block fails the whole block, and the
    # error names that line: 3204 is the last vertex line (after 2 header
    # lines), 9604 the last face line
    path = tmp_path / "big.off"
    save_mesh(bent_cylinder(32, 100), str(path))
    lines = path.read_text().splitlines(keepends=True)
    line = {"vertex": 3204, "face": 9604}[block]
    tok = lines[line - 1].split()
    tok[0 if block == "vertex" else -1] = bad
    lines[line - 1] = " ".join(tok) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshParseError, match=message) as exc:
        load_mesh(str(path))
    assert exc.value.line == line


def test_numbers_are_read_as_float_and_int_read_them(tmp_path):
    # underscores and non-ASCII decimal digits are accepted, as float() and
    # int() accept them ("off-float-index" above pins a rejected token)
    path = tmp_path / "t.off"
    path.write_text(TETRA_OFF.replace("0.5 1 0", "0.5 1_0 \u0660")
                    .replace("3 0 2 3", "3 0 \u0662 0_3"))
    mesh = load_mesh(str(path))
    assert mesh.vertices[2].tolist() == [0.5, 10.0, 0.0]
    assert mesh.faces[2].tolist() == [0, 2, 3]


@pytest.mark.parametrize("ext", ["off", "ply"])
def test_save_mesh_matches_per_row_formatting(tmp_path, ext):
    # one format call per block writes the bytes that formatting each row
    # on its own writes, signed zeros, subnormals and round-trip digits
    # included
    v = np.array([[-0.0, 5e-324, 0.1], [1e300, -1 / 3, 2.0], [0.0, 1.0, 7e-17]])
    mesh = Mesh(vertices=v, faces=np.array([[0, 1, 2], [2, 1, 0]]))
    path = tmp_path / f"m.{ext}"
    save_mesh(mesh, str(path))
    text = path.read_text()
    body = "".join(f"{a:.17g} {b:.17g} {c:.17g}\n" for a, b, c in v)
    body += "".join(f"3 {i} {j} {k}\n" for i, j, k in mesh.faces)
    assert text.endswith(body)
    assert text.count("\n") == {"off": 2, "ply": 9}[ext] + len(v) + len(mesh.faces)
    np.testing.assert_array_equal(load_mesh(str(path)).vertices, v)


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
    # checked before symmetry, which a NaN weight would fail
    adj = np.array([[0.0, 1.0, bad], [1.0, 0.0, 1.0], [bad, 1.0, 0.0]])
    with pytest.raises(ValueError, match="weights must be finite"):
        Graph.from_adjacency(adj)


def test_degenerate_face_rejected():
    with pytest.raises(InputError, match=r"^face 0 is degenerate: \(0, 1, 1\)$"):
        Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 1]]))


@pytest.mark.parametrize("build, message", [
    (lambda: Mesh(vertices=np.zeros((2, 3)), faces=np.zeros((0, 3))),
     "mesh needs at least 3 vertices, got 2"),
    (lambda: Graph.from_adjacency(np.zeros((2, 3))), "adjacency must be square"),
    (lambda: Graph.from_adjacency(np.array([[0.0, 1.0], [2.0, 0.0]])),
     "adjacency must be symmetric"),
    (lambda: Graph.from_adjacency(np.eye(2)), "adjacency must have zero diagonal"),
    (lambda: Graph.from_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]])),
     "weights must be non-negative"),
], ids=["two-vertices", "non-square", "asymmetric", "diagonal", "negative"])
def test_bad_mesh_or_adjacency_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("vertices, faces, message", [
    (np.arange(12.0).reshape(6, 2), np.array([[0, 1, 2]]),
     "mesh vertices must be an (n, 3) array, got shape (6, 2)"),
    (np.eye(4, 3), np.tile([0, 1, 2, 3], (3, 1)),
     "mesh faces must be an (n, 3) array, got shape (3, 4)"),
], ids=["2d-vertices", "quad-faces"])
def test_mesh_arrays_must_have_three_columns(vertices, faces, message):
    # neither is reshaped into (n, 3): not into 4 vertices, nor into 4 triangles
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Mesh(vertices=vertices, faces=faces)


def test_mesh_without_faces_is_legal():
    for faces in (np.zeros(0, dtype=int), np.zeros((0, 3), dtype=int)):
        assert Mesh(vertices=np.eye(3), faces=faces).faces.shape == (0, 3)


def test_face_index_out_of_range():
    with pytest.raises(ValueError):
        Mesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))


def test_p3_degrees_and_volume(p3):
    np.testing.assert_allclose(p3.degrees, [1, 2, 1])
    assert p3.volume == pytest.approx(4.0)


def test_tetrahedron_is_k4(tetra):
    graph = build_graph(tetra)
    assert graph.n == 4
    np.testing.assert_array_equal(np.diff(graph.adjacency.indptr), [3, 3, 3, 3])


def test_gaussian_weights_closed_form():
    # a single triangle with edge lengths 1, 2, sqrt(5)
    mesh = Mesh(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 2, 0]]),
        faces=np.array([[0, 1, 2]]),
    )
    graph = build_graph(mesh)
    sigma2 = np.mean([1.0, 2.0, np.sqrt(5.0)]) ** 2   # sigma is the mean edge length
    A = graph.adjacency.toarray()
    assert A[0, 1] == pytest.approx(np.exp(-1.0 / sigma2))
    assert A[0, 2] == pytest.approx(np.exp(-4.0 / sigma2))
    assert A[1, 2] == pytest.approx(np.exp(-5.0 / sigma2))


def test_gaussian_weights_in_unit_interval(tetra):
    graph = build_graph(tetra)
    w = graph.adjacency.data
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0)


def test_graph_invariants(tetra):
    graph = build_graph(tetra)
    A = graph.adjacency
    assert (A != A.T).nnz == 0
    assert not A.diagonal().any()
    np.testing.assert_allclose(
        graph.degrees, np.asarray(A.sum(axis=1)).ravel(), rtol=1e-12
    )
    assert graph.volume == pytest.approx(float(graph.degrees.sum()), rel=1e-12)


def test_build_graph_deterministic(tetra):
    g1 = build_graph(tetra)
    g2 = build_graph(tetra)
    assert np.array_equal(g1.adjacency.toarray(), g2.adjacency.toarray())


def test_disconnected_mesh_rejected():
    # two separate triangles
    v = np.vstack([np.eye(3), np.eye(3) + 10.0])
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(DisconnectedGraphError) as exc:
        build_graph(Mesh(vertices=v, faces=faces))
    assert exc.value.n_components == 2


def test_underflowed_weights_rejected():
    # a vertex 100 units away joins the cylinder by one face; the weights of
    # its two edges underflow to 0, and a zero weight is no edge
    cyl = bent_cylinder(12, 21)
    a, b = cyl.faces[0, :2]
    far = cyl.vertices[a] + [100.0, 0.0, 0.0]
    mesh = Mesh(vertices=np.vstack([cyl.vertices, far]),
                faces=np.vstack([cyl.faces, [a, b, cyl.n_vertices]]))
    with pytest.raises(DisconnectedGraphError) as exc:
        build_graph(mesh)
    assert exc.value.n_components == 2


def test_overflowing_edge_lengths_rejected():
    # finite coordinates whose squared edge lengths overflow to inf
    mesh = Mesh(vertices=np.array([[0.0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]]),
                faces=np.array([[0, 1, 2]]))
    with pytest.raises(InputError, match="edge lengths of the mesh overflow"):
        build_graph(mesh)


def test_faceless_mesh_rejected():
    # no edges to weight: rejected before any weighting, without a warning
    mesh = Mesh(vertices=np.eye(3), faces=np.empty((0, 3), dtype=int))
    with pytest.raises(DisconnectedGraphError) as exc:
        build_graph(mesh)
    assert exc.value.n_components == 3


def test_connected_components_k4(tetra):
    graph = build_graph(tetra)
    assert graph.n_components == 1


def test_connected_components_two_edges():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    graph = Graph.from_adjacency(adj)
    assert graph.n_components == 2


def test_connected_components_empty_adjacency():
    graph = Graph.from_adjacency(np.zeros((3, 3)))
    assert graph.n_components == 3


def test_mean_edge_length():
    mesh = tetrahedron_mesh()
    lengths = mesh.edge_lengths()
    assert mesh.mean_edge_length() == pytest.approx(float(lengths.mean()))
    assert lengths.shape == (6,)
