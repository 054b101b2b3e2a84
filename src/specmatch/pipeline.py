"""End-to-end matching pipeline: graphs -> spectra -> alignment -> EM."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import alignment as _alignment
from . import embedding as _embedding
from . import em_registration as _em
from . import laplacian as _laplacian
from . import mesh_graph as _mesh_graph
from . import spectral as _spectral
from .errors import PipelineError
from .mesh_graph import Mesh

K_MAX_DEFAULT = 50


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of a matching run; numeric ranges validated on construction."""

    weighting: str = "gaussian"
    sigma: float | None = None
    k: int | None = None
    theta: float = 0.95
    embedding: str = "sm2"          # sm1 = commute-time, sm2 = hypersphere
    sig_threshold: float = 0.7
    pi_out: float = 0.01
    em_tol: float = 1e-6
    em_max_iter: int = 100

    def __post_init__(self):
        if self.weighting not in ("uniform", "gaussian"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0,1)")
        if self.embedding not in ("sm1", "sm2"):
            raise ValueError(f"embedding must be 'sm1' or 'sm2', got {self.embedding!r}")
        if not -1.0 <= self.sig_threshold <= 1.0:
            raise ValueError("sig-threshold must be in [-1,1]")
        if not 0.0 <= self.pi_out < 1.0:
            raise ValueError("pi-out must be in [0,1)")
        if self.em_tol <= 0 or self.em_max_iter < 1:
            raise ValueError("invalid EM options")


@dataclass(frozen=True)
class MatchResult:
    correspondence: _em.Correspondence
    report: dict = field(default_factory=dict)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def mesh_spectra(meshes, weighting="gaussian", sigma=None):
    """The shared front end of ``match`` and ``embed``: each mesh's graph
    and the smallest eigenpairs of its combinatorial Laplacian.

    Every spectrum holds the same k_cap+1 pairs, with k_cap the
    ``K_MAX_DEFAULT`` cap or one less than the smallest vertex count.
    Returns (graphs, spectra, k_cap).
    """
    graphs = [_stage("mesh_graph", _mesh_graph.build_graph, mesh, weighting, sigma)
              for mesh in meshes]
    laps = [_stage("laplacian", _laplacian.assemble, graph, "combinatorial")
            for graph in graphs]
    k_cap = min(K_MAX_DEFAULT, *(graph.n - 1 for graph in graphs))
    spectra = [_stage("spectral", _spectral.eigs_smallest, lap, k_cap)
               for lap in laps]
    return graphs, spectra, k_cap


def run_match(mesh_a: Mesh, mesh_b: Mesh, config: PipelineConfig = PipelineConfig()) -> MatchResult:
    """Register mesh_b onto mesh_a, returning dense correspondences and a
    per-stage report."""
    report: dict = {"config": asdict(config)}

    (graph_a, graph_b), (spec_a, spec_b), k_cap = mesh_spectra(
        (mesh_a, mesh_b), config.weighting, config.sigma)
    report["n_a"], report["n_b"] = graph_a.n, graph_b.n
    report["spectral"] = {
        "method_a": spec_a.method, "method_b": spec_b.method,
        "pairs_computed": k_cap + 1,
        "worst_residual_a": float(spec_a.residuals.max()),
        "worst_residual_b": float(spec_b.residuals.max()),
    }

    if config.k:
        K = min(config.k, k_cap)
        report["k_selection"] = {"mode": "fixed", "K": K}
    else:
        sel_a = _embedding.select_dimension(spec_a.eigenvalues[1:], graph_a.n,
                                            config.theta)
        sel_b = _embedding.select_dimension(spec_b.eigenvalues[1:], graph_b.n,
                                            config.theta)
        K = min(max(sel_a.K, sel_b.K), k_cap)
        report["k_selection"] = {
            "mode": "theta", "K": K,
            "theta_min_a": sel_a.theta_min, "theta_min_b": sel_b.theta_min,
            "reached_a": sel_a.reached, "reached_b": sel_b.reached,
        }

    report["spectral"]["pairs_used"] = K + 1  # the null pair and K non-null pairs
    U_a = spec_a.eigenvectors[:, 1:K + 1]
    U_b = spec_b.eigenvectors[:, 1:K + 1]
    align = _stage("alignment", _alignment.align_embeddings, U_a, U_b,
                   config.sig_threshold)
    report["alignment"] = {
        "K": K,
        "kept": align.kept.tolist(),
        "matched_to": align.permutation[align.kept].tolist(),
        "signs": align.signs[align.kept].tolist(),
        "scores": [round(float(s), 12) for s in align.scores[align.kept]],
        "dropped": sorted(set(range(K)) - set(align.kept.tolist())),
    }

    emb_a = _stage("embedding", _embedding.commute_time_embedding, spec_a, K)
    emb_b = _stage("embedding", _embedding.commute_time_embedding, spec_b, K)

    # restrict both embeddings to the aligned eigenvector pairs, then (for
    # the normalized setting) project onto the sphere of the reduced space
    kept = align.kept
    emb_a = _embedding.Embedding(
        coords=emb_a.coords[kept], kind=emb_a.kind,
        eigenvalues=emb_a.eigenvalues[kept],
    )
    emb_b = _embedding.Embedding(
        coords=emb_b.coords[align.permutation[kept]], kind=emb_b.kind,
        eigenvalues=emb_b.eigenvalues[align.permutation[kept]],
    )
    if config.embedding == "sm2":
        emb_a = _stage("embedding", _embedding.normalize_hypersphere, emb_a)
        emb_b = _stage("embedding", _embedding.normalize_hypersphere, emb_b)
    X_a = emb_a.coords
    X_b = emb_b.coords
    R0 = np.diag(align.signs[kept])

    opts = _em.EmOptions(tol=config.em_tol, max_iter=config.em_max_iter,
                         pi_out=config.pi_out)
    corr = _stage("em_registration", _em.em_register, X_a, X_b, R0, opts)
    report["em"] = {
        "iterations": corr.iterations,
        "converged": corr.converged,
        "final_sigma": corr.params.sigma,
        "log_likelihood": corr.log_likelihood,
        "n_matched": len(corr.map_matches),
        "n_unmatched": len(corr.unmatched),
        "degenerate_m_step": corr.degenerate,
    }
    return MatchResult(correspondence=corr, report=report)
