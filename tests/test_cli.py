import json

import numpy as np
import pytest

from specmatch.cli import main
from specmatch.mesh_graph import load_mesh, save_mesh


@pytest.fixture(scope="module")
def torus_off(tmp_path_factory):
    from specmatch.shapes import bumpy_torus

    path = tmp_path_factory.mktemp("cli") / "torus.off"
    save_mesh(bumpy_torus(24, 16), str(path))
    return str(path)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_synth_match_eval_round_trip(tmp_path, torus_off, capsys):
    # the same torus as OFF and as PLY, so the CLI reads and writes both
    torus_ply = str(tmp_path / "torus.ply")
    save_mesh(load_mesh(torus_off), torus_ply)
    for ref in (torus_off, torus_ply):
        ext = ref.rsplit(".", 1)[1]
        mesh_b = tmp_path / f"relabel.{ext}"
        gt_path = tmp_path / f"gt_{ext}.tsv"
        rc = main([
            "synth", ref, "--kind", "isometry_relabel", "--seed", "3",
            "--out-mesh", str(mesh_b), "--out-gt", str(gt_path),
        ])
        assert rc == 0

        corr_path = tmp_path / f"corr_{ext}.tsv"
        report_path = tmp_path / f"report_{ext}.json"
        rc = main([
            "match", ref, str(mesh_b), "--k", "8",
            "--out-corr", str(corr_path), "--out-report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["em"]["n_unmatched"] == 0

        eval_path = tmp_path / f"eval_{ext}.json"
        rc = main(["eval", ref, str(corr_path), str(gt_path),
                   "--out", str(eval_path)])
        assert rc == 0
        scores = json.loads(eval_path.read_text())
        assert scores["mean"] == 0.0
        assert scores["n_matched"] == 384


def test_eval_ground_truth_correspondence_is_perfect(tmp_path, torus_off):
    # scoring the ground truth against itself must give zero error
    gt_path = tmp_path / "gt.tsv"
    with open(gt_path, "w") as fh:
        for j in range(384):
            fh.write(f"{j}\t{j}\n")
    corr_path = tmp_path / "corr.tsv"
    with open(corr_path, "w") as fh:
        for j in range(384):
            fh.write(f"{j}\t{j}\t1.0\n")
    out = tmp_path / "eval.json"
    per_vertex = tmp_path / "per_vertex.csv"
    rc = main(["eval", torus_off, str(corr_path), str(gt_path),
               "--out", str(out), "--per-vertex-csv", str(per_vertex)])
    assert rc == 0
    scores = json.loads(out.read_text())
    assert scores["mean"] == 0.0
    assert scores["max"] == 0.0
    lines = per_vertex.read_text().splitlines()
    assert lines[0] == "vertex,error_percent"
    assert len(lines) == 385


def test_match_outputs_deterministic(tmp_path, torus_off):
    outs = []
    for tag in ("a", "b"):
        corr = tmp_path / f"corr_{tag}.tsv"
        rep = tmp_path / f"rep_{tag}.json"
        assert main(["match", torus_off, torus_off, "--k", "6",
                     "--out-corr", str(corr), "--out-report", str(rep)]) == 0
        outs.append((corr.read_text(), rep.read_text()))
    assert outs[0] == outs[1]


def test_embed_writes_embedding(tmp_path, torus_off, capsys):
    out = tmp_path / "emb.txt"
    rc = main(["embed", torus_off, "--k", "5", "--out", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert table.startswith("K\ttheta_min")
    data = np.loadtxt(str(out))
    assert data.shape == (5, 384)  # one row per embedding dimension
    # hypersphere normalization is the default
    np.testing.assert_allclose(np.linalg.norm(data, axis=0), 1.0, atol=1e-10)


@pytest.mark.parametrize("argv", [
    ["embed", "{mesh}", "--em-tol", "1e-3"],   # EM flags belong to match only
    ["match", "{mesh}", "{mesh}", "--seed", "1"],   # only synth takes a seed
])
def test_flags_a_command_does_not_read_are_rejected(torus_off, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(mesh=torus_off) for arg in argv])
    assert exc.value.code == 2


def test_isolab_exact(tmp_path, capsys):
    from specmatch.laplacian import dump_triplets
    from scipy import sparse

    rng = np.random.default_rng(0)
    A = np.triu(rng.random((5, 5)), 1)
    A = A + A.T
    perm = rng.permutation(5)
    P = np.eye(5)[perm]
    B = P.T @ A @ P
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    dump_triplets(sparse.csr_matrix(A), str(pa))
    dump_triplets(sparse.csr_matrix(B), str(pb))
    rc = main(["isolab", str(pa), str(pb), "--method", "exact"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact\tTrue" in out


def test_isolab_no_isomorphism(tmp_path, capsys):
    from specmatch.laplacian import dump_triplets
    from scipy import sparse

    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[0.0, 2.0], [2.0, 0.0]])
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    dump_triplets(sparse.csr_matrix(A), str(pa))
    dump_triplets(sparse.csr_matrix(B), str(pb))
    assert main(["isolab", str(pa), str(pb), "--method", "exact"]) == 1
