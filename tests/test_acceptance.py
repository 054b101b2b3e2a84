"""End-to-end acceptance checks. Each test prints a single PASS/FAIL line."""

import time

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from specmatch import em_registration
from specmatch.alignment import align_embeddings, eigensignature, histogram_similarity
from specmatch.em_registration import em_register
from specmatch.embedding import (
    commute_time_distance,
    commute_time_embedding,
    embedding_stats,
    theta_min,
    theta_scree,
)
from specmatch.evaluation import GroundTruth, registration_error, synth_transform
from specmatch.isomorphism import (
    exact_spectral_isomorphism,
    hoffman_wielandt_gap,
    umeyama_match,
)
from specmatch.laplacian import assemble
from specmatch.matutil import PermutationMatrix, birkhoff_decompose, frobenius_norm
from specmatch.pipeline import PipelineConfig, run_match
from specmatch.shapes import bent_cylinder, bumpy_sphere, bumpy_torus
from specmatch.spectral import dense_eig

from conftest import random_connected_graph


def announce(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def random_weighted_adjacency(rng, n):
    A = np.triu(rng.random((n, n)), 1)
    return A + A.T


def test_a1_exact_isomorphism_recovery(capsys):
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    hits = 0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        A = random_weighted_adjacency(rng, n)
        perm = PermutationMatrix(rng.permutation(n))
        Pm = perm.to_matrix()
        B = Pm.T @ A @ Pm
        scale = max(frobenius_norm(A), 1.0)
        res_exact = exact_spectral_isomorphism(A, B)
        res_heur = umeyama_match(A, B)
        if (
            res_exact is not None
            and res_exact.residual <= 1e-8 * scale
            and res_heur.residual <= 1e-8 * scale
        ):
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits == 100 and elapsed < 10.0
    announce(capsys, "A1", ok, f"exact+heuristic recovery {hits}/100 in {elapsed:.2f}s")


def test_a2_hoffman_wielandt_suite(capsys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    violations = 0
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        if trial % 2 == 0:
            B = rng.standard_normal((n, n))
            B = (B + B.T) / 2.0
        else:
            # orthogonal-conjugation variant: same spectrum, zero lower bound
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            B = Q @ A @ Q.T
        lower, dist = hoffman_wielandt_gap(A, B)
        if lower > dist + 1e-9 * max(dist, 1.0):
            violations += 1
        if trial % 2 == 1 and lower > 1e-9 * max(dist, 1.0):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    announce(capsys, "A2", ok, f"{violations} violations in 1000 pairs, {elapsed:.2f}s")


SHAPES = {
    "sphere": lambda: bumpy_sphere(4),       # 2562 vertices
    "torus": lambda: bumpy_torus(),          # 1536 vertices
    "cylinder": lambda: bent_cylinder(),     # 1442 vertices
}


def _score_pair(mesh_a, mesh_b, gt, config):
    result = run_match(mesh_a, mesh_b, config)
    corr = result.correspondence
    if not corr.map_matches:
        return 100.0, 0.0
    report = registration_error(corr, gt, mesh_a)
    exact = sum(1 for e in report.per_vertex.values() if e == 0.0)
    rate = exact / mesh_b.n_vertices
    return report.mean, rate


def test_a3_isometry_zero_error(capsys):
    worst_mean = 0.0
    worst_rate = 1.0
    worst_time = 0.0
    for name, factory in SHAPES.items():
        mesh = factory()
        mesh_b, gt = synth_transform(mesh, "isometry_relabel", seed=5)
        for emb in ("sm1", "sm2"):
            start = time.perf_counter()
            mean, rate = _score_pair(mesh, mesh_b, gt,
                                     PipelineConfig(k=10, embedding=emb))
            elapsed = time.perf_counter() - start
            worst_mean = max(worst_mean, mean)
            worst_rate = min(worst_rate, rate)
            worst_time = max(worst_time, elapsed)
    ok = worst_mean == 0.0 and worst_rate >= 0.99 and worst_time < 60.0
    announce(
        capsys, "A3",
        ok,
        f"worst mean error {worst_mean:.2f}, worst exact rate "
        f"{worst_rate:.3f}, worst pair time {worst_time:.1f}s",
    )


def test_a4_noise_robustness_ordering(capsys):
    mesh = bumpy_torus()
    means = []
    rate_low = None
    for eps in (0.05, 0.10, 0.20):
        mesh_b, gt = synth_transform(mesh, "noise", param=eps, seed=2)
        # the full theta-selected spectrum is needed here: small fixed k
        # leaves the registration under-determined once noise mixes the
        # near-degenerate eigenvector pairs
        mean, rate = _score_pair(mesh, mesh_b, gt, PipelineConfig())
        means.append(mean)
        if eps == 0.05:
            rate_low = rate
    ok = means[0] <= means[1] <= means[2] and rate_low >= 0.95
    announce(
        capsys, "A4",
        ok,
        f"mean errors {means[0]:.3f} <= {means[1]:.3f} <= {means[2]:.3f}, "
        f"exact rate at 0.05 = {rate_low:.3f}",
    )


def test_a5_sm2_beats_sm1_under_resampling(capsys):
    mesh = bumpy_torus(24, 16)
    wins = 0
    for seed in range(10):
        mesh_b, gt = synth_transform(mesh, "sampling", param=0.5, seed=seed)
        scores = {}
        for emb in ("sm1", "sm2"):
            config = PipelineConfig(k=6, sig_threshold=0.5, embedding=emb)
            try:
                mean, _ = _score_pair(mesh, mesh_b, gt, config)
            except Exception:
                mean = 100.0  # failed registration scores worst-case error
            scores[emb] = mean
        if scores["sm2"] <= scores["sm1"]:
            wins += 1
    ok = wins >= 8
    announce(capsys, "A5", ok, f"sm2 <= sm1 mean error in {wins}/10 trials")


def test_a6_commute_time_identity(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 201))
        graph = random_connected_graph(rng, n)
        spectrum = dense_eig(assemble(graph))
        Lp = np.linalg.pinv(assemble(graph).toarray())
        for _ in range(5):
            i, j = rng.choice(n, 2, replace=False)
            d2 = commute_time_distance(spectrum, int(i), int(j), graph.volume) ** 2
            closed = graph.volume * (Lp[i, i] + Lp[j, j] - 2 * Lp[i, j])
            worst = max(worst, abs(d2 - closed) / max(abs(closed), 1e-300))

    # unit path graph anchors: effective resistances 1 and 2, volume 4
    p3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    spectrum = dense_eig(p3)
    a12 = commute_time_distance(spectrum, 0, 1, 4.0) ** 2
    a13 = commute_time_distance(spectrum, 0, 2, 4.0) ** 2
    anchors = abs(a12 - 4.0) < 1e-9 and abs(a13 - 8.0) < 1e-9
    ok = worst <= 1e-8 and anchors
    announce(capsys, "A6", ok,
             f"worst relative deviation {worst:.2e}, anchors {anchors}")


def test_a7_embedding_moments(capsys):
    rng = np.random.default_rng(4)
    worst_mean = 0.0
    worst_off = 0.0
    worst_diag = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 80))
        graph = random_connected_graph(rng, n)
        spectrum = dense_eig(assemble(graph))
        emb = commute_time_embedding(spectrum, n - 1)
        mean, cov = embedding_stats(emb)
        worst_mean = max(worst_mean, float(np.linalg.norm(mean)))
        off = cov - np.diag(np.diag(cov))
        worst_off = max(worst_off, float(np.abs(off).max()))
        expected = 1.0 / (n * spectrum.eigenvalues[1:])
        worst_diag = max(worst_diag, float(np.abs(np.diag(cov) - expected).max()))
    ok = worst_mean <= 1e-8 and worst_off <= 1e-8 and worst_diag <= 1e-8
    announce(
        capsys, "A7", ok,
        f"worst mean norm {worst_mean:.2e}, off-diag {worst_off:.2e}, "
        f"diag deviation {worst_diag:.2e}",
    )


def test_a8_theta_bounds(capsys):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(30):
        n = int(rng.integers(4, 60))
        graph = random_connected_graph(rng, n)
        lam = dense_eig(assemble(graph)).eigenvalues[1:]
        for K in range(1, lam.size + 1):
            lower = theta_min(lam, K, n)
            exact = theta_scree(lam, K)
            if not (lower <= exact + 1e-12 and exact <= 1.0 + 1e-12):
                ok = False
    anchor_low = theta_min(np.array([1.0, 3.0]), 1, 3)
    anchor_exact = theta_scree(np.array([1.0, 3.0]), 1)
    anchors = abs(anchor_low - 0.5) < 1e-12 and abs(anchor_exact - 0.75) < 1e-12
    ok = ok and anchors
    announce(capsys, "A8", ok,
             f"bounds hold on all spectra, anchors 0.5 <= 0.75: {anchors}")


def test_a9_alignment_recovery(capsys, torus_spectrum):
    U = torus_spectrum.eigenvectors[:, 1:11]
    gaps = np.diff(torus_spectrum.eigenvalues[1:12])
    assert gaps.min() > 1e-6
    K = 10
    rng = np.random.default_rng(42)

    recovered = 0
    for _ in range(100):
        perm = rng.permutation(K)
        signs = rng.choice([-1.0, 1.0], size=K)
        Up = np.empty_like(U)
        for k in range(K):
            Up[:, perm[k]] = signs[k] * U[:, k]
        res = align_embeddings(U, Up, threshold=0.7)
        if (
            np.array_equal(res.permutation, perm)
            and np.array_equal(res.signs, signs)
            and res.kept.size == K
        ):
            recovered += 1

    # spurious injection: a random unit vector replaces one scrambled
    # column and must fall below the similarity threshold. The bin count
    # follows the n-dependent width rule rather than the coarse default,
    # which cannot separate these near-gaussian component distributions.
    n = U.shape[0]
    dropped = 0
    for t in range(100):
        u = U[:, t % K]
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        a = max(np.abs(u).max(), np.abs(v).max())
        h_u = eigensignature(u, B=800, limit=a)
        c = max(
            histogram_similarity(h_u, eigensignature(v, B=800, limit=a)),
            histogram_similarity(h_u, eigensignature(-v, B=800, limit=a)),
        )
        if c < 0.7:
            dropped += 1

    ok = recovered >= 95 and dropped >= 90
    announce(capsys, "A9", ok,
             f"scramble recovery {recovered}/100, spurious dropped {dropped}/100")


def test_a10_em_behavior(capsys, monkeypatch):
    rng = np.random.default_rng(6)
    K, n, n_out = 10, 400, 40
    X = rng.standard_normal((K, n))
    X /= np.linalg.norm(X, axis=0)
    Q = special_ortho_group.rvs(K, random_state=7)
    radii = rng.random(n_out) ** (1.0 / K)
    dirs = rng.standard_normal((K, n_out))
    dirs /= np.linalg.norm(dirs, axis=0)
    data = np.hstack([Q @ X, dirs * radii])

    monkeypatch.setattr(em_registration, "PI_OUT", 0.1)
    monkeypatch.setattr(em_registration, "MAX_ITER", 100)
    corr = em_register(X, data, Q)
    trace = corr.log_likelihood_trace
    monotone = bool(np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1])))
    out_mass = corr.posterior[n:, -1]
    out_rate = float((out_mass > 0.5).mean())
    inliers_ok = all(dict(corr.map_matches).get(j) == j for j in range(n))

    # a second, unrelated run must also keep the objective monotone
    monkeypatch.setattr(em_registration, "PI_OUT", 0.05)
    monkeypatch.setattr(em_registration, "MAX_ITER", 60)
    corr2 = em_register(X, rng.standard_normal((K, 50)), np.eye(K))
    t2 = corr2.log_likelihood_trace
    monotone2 = bool(np.all(np.diff(t2) >= -1e-9 * np.abs(t2[:-1])))

    ok = monotone and monotone2 and out_rate >= 0.9 and inliers_ok
    announce(
        capsys, "A10", ok,
        f"monotone likelihood {monotone and monotone2}, outliers flagged "
        f"{out_rate:.0%}, inliers matched {inliers_ok}",
    )


def test_a11_birkhoff(capsys):
    rng = np.random.default_rng(8)
    worst_err = 0.0
    worst_terms_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        n_mix = int(rng.integers(1, 2 * n))
        weights = rng.random(n_mix)
        weights /= weights.sum()
        X = np.zeros((n, n))
        for w in weights:
            X += w * PermutationMatrix(rng.permutation(n)).to_matrix()
        terms = birkhoff_decompose(X)
        recon = sum(w * p.to_matrix() for w, p in terms)
        worst_err = max(worst_err, float(np.abs(recon - X).max()))
        if len(terms) > (n - 1) ** 2 + 1:
            worst_terms_ok = False
    ok = worst_err <= 1e-8 and worst_terms_ok
    announce(capsys, "A11", ok,
             f"worst reconstruction error {worst_err:.2e}, "
             f"term bound respected {worst_terms_ok}")
