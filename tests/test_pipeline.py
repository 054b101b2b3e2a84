import numpy as np
import pytest

from specmatch.errors import PipelineError
from specmatch.evaluation import GroundTruth, registration_error, synth_transform
from specmatch.pipeline import PipelineConfig, mesh_spectra, run_match
from specmatch.shapes import bent_cylinder, bumpy_sphere, bumpy_torus


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(theta=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(embedding="sm3")
    PipelineConfig()  # defaults are valid


@pytest.mark.parametrize("threshold", [1.5, -1.5])
def test_config_rejects_out_of_range_sig_threshold(threshold):
    with pytest.raises(ValueError, match=r"sig-threshold must be in \[-1,1\]"):
        PipelineConfig(sig_threshold=threshold)


def test_self_match_is_identity(torus_small):
    result = run_match(torus_small, torus_small, PipelineConfig(k=8))
    corr = result.correspondence
    n = torus_small.n_vertices
    assert corr.map_matches == [(j, j) for j in range(n)]
    assert result.report["n_a"] == n
    assert result.report["k_selection"]["mode"] == "fixed"


def test_relabel_match_exact(torus_small):
    mesh_b, gt = synth_transform(torus_small, "isometry_relabel", seed=1)
    result = run_match(torus_small, mesh_b, PipelineConfig(k=8))
    report = registration_error(result.correspondence, gt, torus_small)
    assert report.mean == 0.0
    assert report.n_matched == torus_small.n_vertices


def test_both_embeddings_agree_on_relabel(torus_small):
    mesh_b, gt = synth_transform(torus_small, "isometry_relabel", seed=2)
    for emb in ("sm1", "sm2"):
        result = run_match(torus_small, mesh_b,
                           PipelineConfig(k=8, embedding=emb))
        report = registration_error(result.correspondence, gt, torus_small)
        assert report.mean == 0.0


@pytest.mark.parametrize("make, config, method", [
    pytest.param(lambda: bumpy_torus(16, 16), PipelineConfig(), "dense", id="dense"),
    pytest.param(lambda: bumpy_sphere(3), PipelineConfig(k=10), "shift_invert",
                 id="shift_invert"),
])
def test_match_does_not_depend_on_vertex_order(make, config, method):
    # a noisy pair, and the same pair with its second mesh relabelled: the
    # solvers meet the vertices in another order, and the shift-invert
    # path's reverse Cuthill-McKee order changes with it, but the spectrum
    # and the match, mapped back, must not. Every noise seed from 1 to 8
    # passes; seed 3 is among the quickest to register
    mesh_a = make()
    mesh_b, _ = synth_transform(mesh_a, "noise", 0.02, seed=3)
    mesh_c, gt = synth_transform(mesh_b, "isometry_relabel", seed=103)
    (spec_b, spec_c), _ = mesh_spectra((mesh_b, mesh_c), config)
    assert spec_b.method == spec_c.method == method
    np.testing.assert_allclose(spec_c.eigenvalues[1:], spec_b.eigenvalues[1:], rtol=1e-12)
    direct = run_match(mesh_a, mesh_b, config).correspondence.map_matches
    relabelled = run_match(mesh_a, mesh_c, config).correspondence.map_matches
    assert sorted((gt.pairs[j], i) for j, i in relabelled) == sorted(direct)


def test_deterministic_repeat(torus_small):
    r1 = run_match(torus_small, torus_small, PipelineConfig(k=6))
    r2 = run_match(torus_small, torus_small, PipelineConfig(k=6))
    assert np.array_equal(r1.correspondence.posterior,
                          r2.correspondence.posterior)
    assert r1.report["alignment"] == r2.report["alignment"]


def test_theta_mode_reports_selection(torus_small):
    result = run_match(torus_small, torus_small,
                       PipelineConfig(theta=0.5))
    sel = result.report["k_selection"]
    assert sel["mode"] == "theta"
    assert sel["K"] >= 1


def test_stage_error_wrapped():
    from specmatch.mesh_graph import Mesh

    v = np.vstack([np.eye(3), np.eye(3) + 5.0])
    disconnected = Mesh(vertices=v, faces=np.array([[0, 1, 2], [3, 4, 5]]))
    with pytest.raises(PipelineError) as exc:
        run_match(disconnected, disconnected)
    assert exc.value.stage == "mesh_graph"


def test_report_names_solver_path(solve_sizes):
    # 280 vertices: above the dense path's 5 x 13 limit for 11 pairs
    mesh_a = bent_cylinder(14, 20)
    mesh_b, _ = synth_transform(mesh_a, "isometry_relabel", seed=3)
    report = run_match(mesh_a, mesh_b, PipelineConfig(k=10)).report
    spectral = report["spectral"]
    assert solve_sizes == [10, 10]
    assert spectral["method_a"] == spectral["method_b"] == "shift_invert"
    assert spectral["pairs_computed"] == 11
    assert spectral["pairs_used"] == 11
    assert report["em"]["converged"] is True
    assert 0.0 <= spectral["worst_residual_a"] < 1e-8
    assert 0.0 <= spectral["worst_residual_b"] < 1e-8


def test_theta_mode_solves_the_cap(solve_sizes):
    # theta selection reads every eigenvalue up to the 50-pair cap
    mesh_a = bent_cylinder(14, 20)
    mesh_b, _ = synth_transform(mesh_a, "isometry_relabel", seed=3)
    report = run_match(mesh_a, mesh_b, PipelineConfig()).report
    assert solve_sizes == [50, 50]
    assert report["spectral"]["pairs_computed"] == 51
    assert report["k_selection"]["mode"] == "theta"
