import numpy as np
import pytest

from specmatch.errors import PipelineError
from specmatch.evaluation import GroundTruth, registration_error, synth_transform
from specmatch.pipeline import PipelineConfig, run_match
from specmatch.shapes import bent_cylinder


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(weighting="cubic")
    with pytest.raises(ValueError):
        PipelineConfig(theta=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(embedding="sm3")
    with pytest.raises(ValueError):
        PipelineConfig(pi_out=1.0)
    with pytest.raises(ValueError):
        PipelineConfig(sigma=float("nan"))
    PipelineConfig()  # defaults are valid


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


def test_report_names_solver_path():
    # 280 vertices: above the dense path's 5 x 53 limit for 51 pairs
    mesh_a = bent_cylinder(14, 20)
    mesh_b, _ = synth_transform(mesh_a, "isometry_relabel", seed=3)
    report = run_match(mesh_a, mesh_b, PipelineConfig(k=10)).report
    spectral = report["spectral"]
    assert spectral["method_a"] == spectral["method_b"] == "shift_invert"
    assert spectral["pairs_computed"] == 51
    assert spectral["pairs_used"] == 11
    assert report["em"]["converged"] is True
    assert 0.0 <= spectral["worst_residual_a"] < 1e-8
    assert 0.0 <= spectral["worst_residual_b"] < 1e-8
