"""The benchmark's output checks accept correct outputs and reject corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from specmatch import (  # noqa: E402
    PipelineConfig, birkhoff_decompose, bumpy_sphere, exact_spectral_isomorphism,
    run_match, synth_transform, umeyama_match,
)
from specmatch.em_registration import em_register  # noqa: E402


@pytest.fixture(scope="module")
def relabel_match():
    mesh_a = bumpy_sphere(2)
    mesh_b, gt = synth_transform(mesh_a, "isometry_relabel", seed=5)
    result = run_match(mesh_a, mesh_b, PipelineConfig(k=10, embedding="sm1"))
    return result.correspondence, gt, mesh_b.n_vertices


def test_relabel_accepts_exact_map(relabel_match):
    corr, gt, m = relabel_match
    checks.check_relabel_match(corr.map_matches, corr.unmatched, gt.pairs, m)


def test_relabel_rejects_two_swapped_entries(relabel_match):
    corr, gt, m = relabel_match
    matches = list(corr.map_matches)
    (j0, i0), (j1, i1) = matches[3], matches[7]
    matches[3], matches[7] = (j0, i1), (j1, i0)
    with pytest.raises(checks.CheckFailed, match="ground truth"):
        checks.check_relabel_match(matches, corr.unmatched, gt.pairs, m)


@pytest.fixture(scope="module")
def em_result():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 60))
    X /= np.linalg.norm(X, axis=0)
    X_data = X + 0.05 * rng.standard_normal(X.shape)
    return em_register(X, X_data, np.eye(5)), 60


def test_em_accepts_register_output(em_result):
    corr, n = em_result
    checks.check_em(corr.posterior, corr.map_matches, corr.unmatched,
                    corr.log_likelihood_trace, n, n)


def test_em_rejects_decreasing_likelihood(em_result):
    corr, n = em_result
    trace = corr.log_likelihood_trace.copy()
    trace[-1] = trace[-2] - 1e-6 * abs(trace[-2])
    with pytest.raises(checks.CheckFailed, match="decreased"):
        checks.check_em(corr.posterior, corr.map_matches, corr.unmatched, trace, n, n)


def test_em_rejects_unnormalized_posterior(em_result):
    corr, n = em_result
    post = corr.posterior.copy()
    post[0, 0] += 0.1
    with pytest.raises(checks.CheckFailed, match="sum to 1"):
        checks.check_em(post, corr.map_matches, corr.unmatched,
                        corr.log_likelihood_trace, n, n)


def test_em_rejects_lost_point(em_result):
    corr, n = em_result
    with pytest.raises(checks.CheckFailed, match="matched plus unmatched"):
        checks.check_em(corr.posterior, corr.map_matches[1:], corr.unmatched,
                        corr.log_likelihood_trace, n, n)


@pytest.fixture(scope="module")
def embed_output(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("embed"))
    mesh, _ = synth_transform(bumpy_sphere(3), "isometry_relabel", seed=1)
    off = os.path.join(workdir, "m.off")
    out = os.path.join(workdir, "m.txt")
    from specmatch.mesh_graph import save_mesh

    save_mesh(mesh, off)
    output = workloads._run_embed(off, out)
    L, ref = workloads._embed_reference(off)
    return output, off, mesh.n_vertices, np.loadtxt(out), L, ref


def test_embedding_accepts_cli_output(embed_output):
    output, off, n, rows, L, ref = embed_output
    workloads._check_embed(output, off_path=off, n=n)
    checks.check_embedding(rows, L, ref)


def test_embedding_rejects_perturbed_row(embed_output):
    _, _, n, rows, L, ref = embed_output
    bad = rows.copy()
    bad[4] += 1e-4 * np.abs(bad[4]).max() * np.random.default_rng(0).standard_normal(n)
    with pytest.raises(checks.CheckFailed):
        checks.check_embedding(bad, L, ref)


def test_embedding_rejects_swapped_rows(embed_output):
    _, _, _, rows, L, ref = embed_output
    bad = rows[[1, 0] + list(range(2, rows.shape[0]))]
    with pytest.raises(checks.CheckFailed, match="ascending"):
        checks.check_embedding(bad, L, ref)


def test_reference_solvers_agree(monkeypatch):
    mesh = bumpy_sphere(3)
    L = reference.gaussian_laplacian(mesh.vertices, mesh.faces)
    dense = reference.smallest_eigenvalues(L, 12)
    monkeypatch.setattr(reference, "DENSE_MAX", 0)
    shift_invert = reference.smallest_eigenvalues(L, 12)
    np.testing.assert_allclose(shift_invert[1:], dense[1:], rtol=1e-10)
    assert abs(dense[0]) < 1e-10


def test_isomorphism_accepts_planted_and_rejects_wrong_permutation():
    rng = np.random.default_rng(3)
    A = workloads.random_weighted_graph(rng, 10)
    B, p = workloads.plant(rng, A)
    result = exact_spectral_isomorphism(A, B)
    checks.check_isomorphism(result.permutation.mapping, A, B, p)
    wrong = p.copy()
    wrong[[0, 1]] = wrong[[1, 0]]
    with pytest.raises(checks.CheckFailed):
        checks.check_isomorphism(wrong, A, B, p)
    with pytest.raises(checks.CheckFailed, match="planted"):
        checks.check_isomorphism(result.permutation.mapping, A, B, wrong)


def test_umeyama_recovers_planted_permutation():
    rng = np.random.default_rng(4)
    A = workloads.random_weighted_graph(rng, 80, density=0.1)
    B, p = workloads.plant(rng, A)
    checks.check_isomorphism(umeyama_match(A, B).permutation.mapping, A, B, p)


def test_birkhoff_accepts_and_rejects_dropped_term():
    rng = np.random.default_rng(2)
    X = workloads.random_doubly_stochastic(rng, 12, 5)
    terms = birkhoff_decompose(X)
    checks.check_birkhoff(terms, X)
    with pytest.raises(checks.CheckFailed):
        checks.check_birkhoff(terms[:-1], X)
