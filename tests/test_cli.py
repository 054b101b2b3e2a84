import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from specmatch.cli import EXIT_INPUT, EXIT_IO, EXIT_NUMERICAL, main
from specmatch.embedding import theta_min
from specmatch.mesh_graph import load_mesh, save_mesh
from specmatch.pipeline import PipelineConfig, mesh_spectra

from conftest import dump_triplets


@pytest.fixture(scope="module")
def torus_off(tmp_path_factory):
    from specmatch.shapes import bumpy_torus

    path = tmp_path_factory.mktemp("cli") / "torus.off"
    save_mesh(bumpy_torus(24, 16), str(path))
    return str(path)


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


def test_match_report_goes_to_stdout_by_default(tmp_path, torus_off, capsys):
    assert main(["match", torus_off, torus_off, "--k", "8",
                 "--out-corr", str(tmp_path / "corr.tsv")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["em"]["n_unmatched"] == 0


def test_synth_level_is_its_ramp_parameter(tmp_path, torus_off):
    # noise level 2 is the ramp's 0.05
    outs = []
    for tag, strength in (("level", ["--level", "2"]), ("param", ["--param", "0.05"])):
        mesh, gt = tmp_path / f"{tag}.off", tmp_path / f"{tag}.tsv"
        assert main(["synth", torus_off, "--kind", "noise", *strength, "--seed", "4",
                     "--out-mesh", str(mesh), "--out-gt", str(gt)]) == 0
        outs.append((mesh.read_bytes(), gt.read_bytes()))
    assert outs[0] == outs[1]
    assert outs[0][0] != Path(torus_off).read_bytes()


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
    # the graph weights and the EM options are fixed
    ["match", "{mesh}", "{mesh}", "--weighting", "uniform"],
    ["match", "{mesh}", "{mesh}", "--em-max-iter", "5"],
    ["embed", "{mesh}", "--sigma", "1"],
])
def test_flags_a_command_does_not_read_are_rejected(torus_off, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(mesh=torus_off) for arg in argv])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["embed", "{mesh}", "--k", "0", "--out", "{out}"],
    ["embed", "{mesh}", "--k", "-3", "--out", "{out}"],
    ["embed", "{mesh}", "--theta", "1.5", "--out", "{out}"],
    ["match", "{mesh}", "{mesh}", "--k", "0", "--out-corr", "{out}"],
])
def test_invalid_config_values_are_usage_errors(tmp_path, torus_off, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(mesh=torus_off, out=tmp_path / "out") for arg in argv])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_isolab_exact(tmp_path, capsys):
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


def test_isolab_umeyama_reports_a_degenerate_spectrum(tmp_path, capsys):
    # the 4-cycle's adjacency has the double eigenvalue 0
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("".join(f"{i} {(i + d) % 4} 1\n" for i in range(4) for d in (1, 3)))
    assert main(["isolab", str(cycle), str(cycle), "--method", "umeyama"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "degenerate\tTrue" in captured.out.splitlines()


def test_isolab_no_isomorphism(tmp_path, capsys):
    from scipy import sparse

    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[0.0, 2.0], [2.0, 0.0]])
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    dump_triplets(sparse.csr_matrix(A), str(pa))
    dump_triplets(sparse.csr_matrix(B), str(pb))
    assert main(["isolab", str(pa), str(pb), "--method", "exact"]) == 1


# run in a fresh interpreter, since this suite's own imports load every
# scipy subpackage; the three commands never make an assignment
IMPORT_SET_SCRIPT = """
import os, sys
import numpy as np
import specmatch, specmatch.cli

LAZY = ("scipy.optimize", "scipy.special", "scipy.spatial", "scipy.fft")
os.chdir(sys.argv[1])
specmatch.save_mesh(specmatch.bumpy_torus(24, 16), "torus.off")
with open("a.txt", "w") as fh:
    fh.write("0 1 1\\n1 0 1\\n1 2 2\\n2 1 2\\n")
for argv in (["embed", "torus.off", "--k", "8", "--out", "emb.txt"],
             ["synth", "torus.off", "--kind", "noise", "--param", "0.01",
              "--out-mesh", "noisy.off", "--out-gt", "gt.tsv"],
             ["isolab", "a.txt", "a.txt", "--method", "exact"]):
    assert specmatch.cli.main(argv) == 0, argv
print("before", *[m for m in LAZY if m in sys.modules])
specmatch.hungarian(np.eye(3))
print("after", *[m for m in LAZY if m in sys.modules])
"""


def test_commands_without_an_assignment_leave_scipy_optimize_unloaded(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_SET_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] == "before"
    assert lines[-1].split()[:2] == ["after", "scipy.optimize"]
    assert elapsed < 3.0


def test_embed_solves_every_theta_row(tmp_path, torus_off, capsys, solve_sizes):
    # a fixed --k still prints the theta table of all k_cap = 50 pairs
    rc = main(["embed", torus_off, "--k", "10", "--out", str(tmp_path / "emb.txt")])
    assert rc == 0
    assert solve_sizes == [50]
    table = capsys.readouterr().out.splitlines()
    assert table[0] == "K\ttheta_min"
    assert [row.split("\t")[0] for row in table[1:]] == [str(k) for k in range(1, 51)]
    # each row's value is the bound of theta_min over the same 50 eigenvalues
    (spectrum,), _ = mesh_spectra((load_mesh(torus_off),), PipelineConfig(k=10),
                                  all_pairs=True)
    theta = theta_min(spectrum.eigenvalues[1:], spectrum.n)
    assert [row.split("\t")[1] for row in table[1:]] == [f"{t:.12f}" for t in theta]


def _assert_one_line_failure(capsys, argv, status):
    assert main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith(f"specmatch {argv[0]}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    return err


def test_disconnected_mesh_is_an_input_failure(tmp_path, capsys):
    off = tmp_path / "two_triangles.off"
    off.write_text("OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n5 0 0\n6 0 0\n5 1 0\n"
                   "3 0 1 2\n3 3 4 5\n")
    err = _assert_one_line_failure(
        capsys, ["embed", str(off), "--out", str(tmp_path / "emb.txt")], EXIT_INPUT)
    assert "stage 'mesh_graph'" in err and "2 components" in err


def test_zero_length_mesh_is_an_input_failure(tmp_path, capsys):
    # three coincident vertices: the mean edge length, the Gaussian scale, is
    # 0; at finite coordinates of 1e200 the squared edge lengths overflow
    for name, coords, message in (
            ("zero", "0 0 0\n0 0 0\n0 0 0", "every edge of the mesh has length 0"),
            ("huge", "0 0 0\n1e200 0 0\n0 1e200 0",
             "the edge lengths of the mesh overflow (overflow encountered in multiply)")):
        off = tmp_path / f"{name}.off"
        off.write_text(f"OFF\n3 1 0\n{coords}\n3 0 1 2\n")
        err = _assert_one_line_failure(
            capsys, ["embed", str(off), "--out", str(tmp_path / "emb.txt")], EXIT_INPUT)
        assert err == f"specmatch embed: stage 'mesh_graph': {message}\n"


def test_rounding_level_embedding_is_an_input_failure(tmp_path, capsys):
    # the centre of a mirror-symmetric bowtie sits at 0 on the first
    # eigenvector up to rounding, so sm2 has no direction to project it onto
    off = tmp_path / "bowtie.off"
    off.write_text("OFF\n5 2 0\n-2 -1 0\n-2 1 0\n0 0 0\n2 -1 0\n2 1 0\n"
                   "3 0 1 2\n3 2 3 4\n")
    err = _assert_one_line_failure(
        capsys, ["embed", str(off), "--k", "1", "--out", str(tmp_path / "emb.txt")],
        EXIT_INPUT)
    assert err == ("specmatch embed: stage 'embedding': "
                   "vertex 2 has zero-norm embedding coordinates\n")


def test_empty_alignment_is_an_input_failure(tmp_path, torus_off, capsys):
    # a noisy copy scores below 1 on every eigenvector pair
    noisy = str(tmp_path / "noisy.off")
    assert main(["synth", torus_off, "--kind", "noise", "--param", "0.05", "--seed", "1",
                 "--out-mesh", noisy, "--out-gt", str(tmp_path / "gt.tsv")]) == 0
    err = _assert_one_line_failure(
        capsys, ["match", torus_off, noisy, "--k", "8", "--sig-threshold", "1.0",
                 "--out-corr", str(tmp_path / "corr.tsv")], EXIT_INPUT)
    assert "stage 'alignment'" in err
    assert "no eigenvector pair reached the similarity threshold 1.0" in err


def test_missing_file_is_an_io_failure(tmp_path, capsys):
    missing = str(tmp_path / "missing.off")
    err = _assert_one_line_failure(
        capsys, ["match", missing, missing, "--out-corr", str(tmp_path / "c.tsv")],
        EXIT_IO)
    assert "missing.off" in err


def test_unwritable_output_is_an_io_failure(tmp_path, torus_off, capsys):
    out = str(tmp_path / "missing_dir" / "x.txt")
    err = _assert_one_line_failure(capsys, ["embed", torus_off, "--out", out], EXIT_IO)
    assert out in err


# each command's arguments and output files; {d} is the output directory.
# match reads the relabelled copy and eval the match of it
REWRITE_COMMANDS = {
    "synth": (["synth", "{mesh}", "--kind", "isometry_relabel", "--seed", "3",
               "--out-mesh", "{d}/relabel.off", "--out-gt", "{d}/gt.tsv"],
              ["relabel.off", "gt.tsv"]),
    "match": (["match", "{mesh}", "{inputs}/relabel.off", "--k", "8",
               "--out-corr", "{d}/corr.tsv", "--out-report", "{d}/report.json"],
              ["corr.tsv", "report.json"]),
    "eval": (["eval", "{mesh}", "{inputs}/corr.tsv", "{inputs}/gt.tsv",
              "--out", "{d}/eval.json", "--per-vertex-csv", "{d}/per_vertex.csv"],
             ["eval.json", "per_vertex.csv"]),
    "embed": (["embed", "{mesh}", "--k", "8", "--out", "{d}/emb.txt"], ["emb.txt"]),
}


@pytest.fixture(scope="module")
def rewrite_inputs(tmp_path_factory, torus_off):
    inputs = tmp_path_factory.mktemp("rewrite_inputs")
    for command in ("synth", "match"):
        argv, _ = REWRITE_COMMANDS[command]
        assert main([a.format(mesh=torus_off, inputs=inputs, d=inputs) for a in argv]) == 0
    return inputs


@pytest.mark.parametrize("command", list(REWRITE_COMMANDS))
def test_outputs_rewritten_over_old_files_are_byte_identical(
        tmp_path, torus_off, rewrite_inputs, command):
    # the outputs written over a longer and a shorter file equal those
    # written to new paths, byte for byte
    argv, outputs = REWRITE_COMMANDS[command]
    written = {}
    for case in ("new", "longer", "shorter"):
        d = tmp_path / case
        d.mkdir()
        for name in outputs:
            if case == "longer":
                (d / name).write_bytes(written["new"][name] + b"old tail\n" * 5000)
            elif case == "shorter":
                (d / name).write_bytes(written["new"][name][:10])
        assert main([a.format(mesh=torus_off, inputs=rewrite_inputs, d=d) for a in argv]) == 0
        written[case] = {name: (d / name).read_bytes() for name in outputs}
    assert written["longer"] == written["new"]
    assert written["shorter"] == written["new"]


def test_ground_truth_without_overlap_is_an_input_failure(tmp_path, torus_off, capsys):
    corr = tmp_path / "corr.tsv"
    corr.write_text("0\t0\t1.0\n1\t1\t1.0\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text("5\t5\n")
    err = _assert_one_line_failure(
        capsys, ["eval", torus_off, str(corr), str(gt)], EXIT_INPUT)
    assert "no matched vertex has a ground-truth target" in err


def test_degenerate_spectrum_is_a_numerical_failure(tmp_path, capsys):
    from scipy import sparse

    # the complete graph K4 has the eigenvalue -1 three times
    A = sparse.csr_matrix(np.ones((4, 4)) - np.eye(4))
    pa = tmp_path / "k4.txt"
    dump_triplets(A, str(pa))
    err = _assert_one_line_failure(
        capsys, ["isolab", str(pa), str(pa), "--method", "exact"], EXIT_NUMERICAL)
    assert "eigenvalue gap" in err


def test_thirteen_rows_fail_the_exact_method_on_their_spectrum(tmp_path, capsys):
    # one edge on 13 vertices, past the old enumeration's 12: the eigenvalue 0
    # eleven times, not the size, fails the exact method
    pa = tmp_path / "a.txt"
    pa.write_text("0 12 1.0\n12 0 1.0\n")
    err = _assert_one_line_failure(
        capsys, ["isolab", str(pa), str(pa), "--method", "exact"], EXIT_NUMERICAL)
    assert "eigenvalue gap" in err


def test_byte_that_is_not_utf8_is_an_input_failure(tmp_path, capsys):
    # the message quotes the line, and capsys's stream, like a log file,
    # cannot encode a lone surrogate
    off = tmp_path / "cafe.off"
    off.write_bytes(b"OFF\n3 1 0\n0 0 0\n1\xe9 0 0\n0 1 0\n3 0 1 2\n")
    err = _assert_one_line_failure(
        capsys, ["embed", str(off), "--out", str(tmp_path / "emb.txt")], EXIT_INPUT)
    assert "cafe.off:4: bad vertex line" in err


def test_non_finite_vertex_is_an_input_failure(tmp_path, capsys):
    off = tmp_path / "nan.off"
    off.write_text("OFF\n3 1 0\n0 0 0\nnan 0 0\n0 1 0\n3 0 1 2\n")
    err = _assert_one_line_failure(
        capsys, ["embed", str(off), "--out", str(tmp_path / "emb.txt")], EXIT_INPUT)
    assert "vertex coordinates must be finite" in err


def test_unknown_mesh_extension_is_an_input_failure(tmp_path, capsys):
    err = _assert_one_line_failure(
        capsys, ["embed", str(tmp_path / "x.obj"), "--out", str(tmp_path / "emb.txt")],
        EXIT_INPUT)
    assert "x.obj" in err


def test_malformed_correspondence_is_an_input_failure(tmp_path, torus_off, capsys):
    corr = tmp_path / "corr.tsv"
    corr.write_text("0\t0\t1.0\n1\tone\t1.0\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text("0\t0\n1\t1\n")
    err = _assert_one_line_failure(
        capsys, ["eval", torus_off, str(corr), str(gt)], EXIT_INPUT)
    assert f"{corr}:2:" in err


@pytest.mark.parametrize("corr_line, gt_line", [("0\t999\t1.0", "0\t0"),
                                                 ("0\t0\t1.0", "0\t999")])
def test_out_of_range_target_is_an_input_failure(tmp_path, torus_off, capsys,
                                                 corr_line, gt_line):
    corr = tmp_path / "corr.tsv"
    corr.write_text(f"{corr_line}\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text(f"{gt_line}\n")
    err = _assert_one_line_failure(
        capsys, ["eval", torus_off, str(corr), str(gt)], EXIT_INPUT)
    assert "vertex 0:" in err and "999" in err


@pytest.mark.parametrize("bad_line", ["1 0 x", "-1 0 1.0", "1 0 nan", "1 0 inf"])
def test_malformed_triplets_are_an_input_failure(tmp_path, capsys, bad_line):
    pa = tmp_path / "a.txt"
    pa.write_text(f"0 1 1.0\n{bad_line}\n")
    err = _assert_one_line_failure(capsys, ["isolab", str(pa), str(pa)], EXIT_INPUT)
    assert f"{pa}:2:" in err


def test_repeated_triplet_is_an_input_failure(tmp_path, capsys):
    # summed, the repeated lines would give the edge weight 2.0
    pa = tmp_path / "dup.txt"
    pa.write_text("0 1 1.0\n1 0 1.0\n0 1 1.0\n1 0 1.0\n")
    err = _assert_one_line_failure(capsys, ["isolab", str(pa), str(pa)], EXIT_INPUT)
    assert f"{pa}:3: repeated entry (0, 1)" in err


def test_triplet_byte_that_is_not_utf8_is_an_input_failure(tmp_path, capsys):
    bad, ok = tmp_path / "bad.txt", tmp_path / "ok.txt"
    bad.write_bytes(b"0 1 1\n1 0 1\xe9\n")
    ok.write_text("0 1 1\n1 0 1\n")
    err = _assert_one_line_failure(capsys, ["isolab", str(bad), str(ok)], EXIT_INPUT)
    assert f"{bad}:2: expected 'row col value'" in err


@pytest.mark.parametrize("bad", ["corr", "gt"])
def test_pair_byte_that_is_not_utf8_is_an_input_failure(tmp_path, torus_off, capsys, bad):
    paths = {"corr": tmp_path / "corr.tsv", "gt": tmp_path / "gt.tsv"}
    paths["corr"].write_text("0\t0\t1.0\n1\t1\t1.0\n")
    paths["gt"].write_text("0\t0\n1\t1\n")
    paths[bad].write_bytes(paths[bad].read_bytes().replace(b"1\t1", b"1\t1\xe9"))
    err = _assert_one_line_failure(
        capsys, ["eval", torus_off, str(paths["corr"]), str(paths["gt"])], EXIT_INPUT)
    assert f"{paths[bad]}:2: expected 'j i'" in err


@pytest.mark.parametrize("index", [
    10**15,      # a 7.1 PiB row-pointer array: more than memory holds
    2**62,       # more bytes than numpy can address
    2**63 - 1,   # the row count overflows int64
])
def test_huge_triplet_index_is_an_input_failure(tmp_path, capsys, index):
    big, ok = tmp_path / "big.txt", tmp_path / "ok.txt"
    big.write_text(f"0 {index} 1\n{index} 0 1\n")
    ok.write_text("0 1 1\n1 0 1\n")
    err = _assert_one_line_failure(capsys, ["isolab", str(big), str(ok)], EXIT_INPUT)
    assert f"{big}: index {index} " in err


@pytest.mark.parametrize("kind, param, message", [
    ("noise", "-1", "noise strength"),
    ("noise", "nan", "noise strength"),
    ("noise", "inf", "noise strength"),
    ("holes", "1.5", "hole fraction"),
    ("sampling", "0", "sampling ratio"),
    ("local_scale", "0", "scale factor"),
    ("local_scale", "nan", "scale factor"),
    ("local_scale", "inf", "scale factor"),
    ("isometry_relabel", "7", "takes no parameter"),
])
def test_out_of_range_synth_parameter_is_an_input_failure(tmp_path, torus_off, capsys,
                                                          kind, param, message):
    err = _assert_one_line_failure(
        capsys, ["synth", torus_off, "--kind", kind, "--param", param,
                 "--out-mesh", str(tmp_path / "out.off"),
                 "--out-gt", str(tmp_path / "gt.tsv")], EXIT_INPUT)
    assert message in err


def test_negative_synth_seed_is_an_input_failure(tmp_path, torus_off, capsys):
    err = _assert_one_line_failure(
        capsys, ["synth", torus_off, "--kind", "noise", "--param", "0.01", "--seed", "-1",
                 "--out-mesh", str(tmp_path / "out.off"),
                 "--out-gt", str(tmp_path / "gt.tsv")], EXIT_INPUT)
    assert "seed must be non-negative, got -1" in err


def test_synth_param_and_level_together_are_a_usage_error(tmp_path, torus_off, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", torus_off, "--kind", "noise", "--param", "0.3", "--level", "1",
              "--out-mesh", str(tmp_path / "out.off"), "--out-gt", str(tmp_path / "gt.tsv")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out.off").exists()


@pytest.mark.parametrize("corr_text, gt_text, bad, message", [
    ("0\t0\t1.0\n0\t5\t1.0\n", "0\t0\n", "corr", "repeated source vertex 0"),
    ("0\t0\t1.0\n", "0\t0\n0\t1\n", "gt", "repeated source vertex 0"),
    ("0\t0\t1.0\n-1\t1\t1.0\n", "0\t0\n", "corr", "negative source vertex -1"),
], ids=["repeated-corr", "repeated-gt", "negative-corr"])
def test_bad_source_vertex_is_an_input_failure(tmp_path, torus_off, capsys, corr_text,
                                               gt_text, bad, message):
    paths = {"corr": tmp_path / "corr.tsv", "gt": tmp_path / "gt.tsv"}
    paths["corr"].write_text(corr_text)
    paths["gt"].write_text(gt_text)
    err = _assert_one_line_failure(
        capsys, ["eval", torus_off, str(paths["corr"]), str(paths["gt"])], EXIT_INPUT)
    assert f"{paths[bad]}:2: {message}" in err


def test_target_below_minus_one_is_an_input_failure(tmp_path, torus_off, capsys):
    # -1 is the only negative target that means unmatched
    corr = tmp_path / "corr.tsv"
    corr.write_text("0\t-5\t1.0\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text("0\t0\n1\t1\n")
    err = _assert_one_line_failure(capsys, ["eval", torus_off, str(corr), str(gt)],
                                   EXIT_INPUT)
    assert f"{corr}:1: target -5 is below -1" in err


def test_unmatched_target_is_legal(tmp_path, torus_off):
    corr = tmp_path / "corr.tsv"
    corr.write_text("0\t0\t1.0\n1\t-1\t0.9\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text("0\t0\n1\t1\n")
    out = tmp_path / "eval.json"
    assert main(["eval", torus_off, str(corr), str(gt), "--out", str(out)]) == 0
    scores = json.loads(out.read_text())
    assert (scores["n_matched"], scores["n_unmatched"]) == (1, 1)


@pytest.mark.parametrize("text_a, text_b, method, message", [
    ("0 1 1.0\n1 0 1.0\n", "0 2 1.0\n2 0 1.0\n", "umeyama", "equal size"),
    ("0 1 1.0\n1 0 1.0\n", "0 2 1.0\n2 0 1.0\n", "exact", "equal size"),
    ("\n", "\n", "umeyama", "a.txt: no"),
    # a directed path: the eigensolver would read only its lower triangle
    ("0 1 1.0\n1 2 1.0\n", "0 1 1.0\n1 2 1.0\n", "umeyama", "not symmetric"),
    ("0 1 1.0\n1 2 1.0\n", "0 1 1.0\n1 2 1.0\n", "exact", "not symmetric"),
], ids=["sizes-umeyama", "sizes-exact", "no-triplets",
        "asymmetric-umeyama", "asymmetric-exact"])
def test_unmatchable_triplet_matrices_are_an_input_failure(tmp_path, capsys, text_a,
                                                           text_b, method, message):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text(text_a)
    pb.write_text(text_b)
    err = _assert_one_line_failure(
        capsys, ["isolab", str(pa), str(pb), "--method", method], EXIT_INPUT)
    assert message in err
