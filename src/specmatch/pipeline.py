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
    """All knobs of a run and the only copy of their defaults; ranges checked
    on construction. The graph weights (Gaussian, with sigma the mean edge
    length) and the EM constants of ``em_registration`` are fixed."""

    k: int | None = None
    theta: float = 0.95
    embedding: str = "sm2"          # sm1 = commute-time, sm2 = hypersphere
    sig_threshold: float = _alignment.DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in (0,1)")
        if self.embedding not in ("sm1", "sm2"):
            raise ValueError(f"embedding must be 'sm1' or 'sm2', got {self.embedding!r}")
        if not -1.0 <= self.sig_threshold <= 1.0:
            raise ValueError("sig-threshold must be in [-1,1]")


@dataclass(frozen=True)
class MatchResult:
    correspondence: _em.Correspondence
    report: dict = field(default_factory=dict)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def mesh_spectra(meshes, config: PipelineConfig, *, all_pairs: bool = False):
    """The shared front end of ``match`` and ``embed``: each mesh's
    Gaussian-weighted graph, the smallest eigenpairs of its combinatorial Laplacian, and the
    embedding dimension K.

    k_cap is the ``K_MAX_DEFAULT`` cap or one less than the smallest vertex
    count. K is ``config.k`` capped at k_cap, or else the largest
    theta-selected K of the meshes. A fixed K solves only the K+1 pairs the
    embedding reads; theta selection reads all k_cap+1, and so does a caller
    that passes ``all_pairs``. Every spectrum holds the same number of
    pairs. Returns (spectra, selection), the last being the report block
    that holds K.
    """
    graphs = [_stage("mesh_graph", _mesh_graph.build_graph, mesh) for mesh in meshes]
    laps = [_stage("laplacian", _laplacian.assemble, graph) for graph in graphs]
    k_cap = min(K_MAX_DEFAULT, *(graph.n - 1 for graph in graphs))
    fixed_k = None if config.k is None else min(config.k, k_cap)
    k_solve = k_cap if fixed_k is None or all_pairs else fixed_k
    spectra = [_stage("spectral", _spectral.eigs_smallest, lap, k_solve)
               for lap in laps]
    if fixed_k is not None:
        return spectra, {"mode": "fixed", "K": fixed_k}
    # each spectrum's k_cap non-null pairs bound its selected K by k_cap
    sels = [_embedding.select_dimension(spec.eigenvalues[1:], spec.n, config.theta)
            for spec in spectra]
    selection = {"mode": "theta", "K": max(sel.K for sel in sels)}
    selection.update((f"theta_min_{tag}", sel.theta_min) for tag, sel in zip("ab", sels))
    selection.update((f"reached_{tag}", sel.reached) for tag, sel in zip("ab", sels))
    return spectra, selection


def spectral_embedding(spectrum: _spectral.Spectrum, K: int, kind: str,
                       rows=slice(None)) -> _embedding.Embedding:
    """The ``rows`` of the spectrum's K-dimensional commute-time embedding,
    projected onto the sphere of the reduced space for ``kind`` sm2."""
    emb = _stage("embedding", _embedding.commute_time_embedding, spectrum, K)
    emb = _embedding.Embedding(coords=emb.coords[rows])
    if kind == "sm2":
        emb = _stage("embedding", _embedding.normalize_hypersphere, emb)
    return emb


def run_match(mesh_a: Mesh, mesh_b: Mesh, config: PipelineConfig = PipelineConfig()) -> MatchResult:
    """Register mesh_b onto mesh_a, returning dense correspondences and a
    per-stage report."""
    report: dict = {"config": asdict(config)}

    (spec_a, spec_b), selection = mesh_spectra((mesh_a, mesh_b), config)
    report["n_a"], report["n_b"] = spec_a.n, spec_b.n
    report["spectral"] = {
        "method_a": spec_a.method, "method_b": spec_b.method,
        "pairs_computed": spec_a.n_pairs,  # both spectra hold as many
        "worst_residual_a": float(spec_a.residuals.max()),
        "worst_residual_b": float(spec_b.residuals.max()),
    }
    report["k_selection"] = selection
    K = selection["K"]

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

    # both embeddings restricted to the aligned eigenvector pairs
    kept = align.kept
    X_a = spectral_embedding(spec_a, K, config.embedding, kept).coords
    X_b = spectral_embedding(spec_b, K, config.embedding, align.permutation[kept]).coords
    R0 = np.diag(align.signs[kept])

    corr = _stage("em_registration", _em.em_register, X_a, X_b, R0)
    report["em"] = {
        "iterations": corr.iterations,
        "converged": corr.converged,
        "final_sigma": corr.sigma,
        "log_likelihood": corr.log_likelihood,
        "n_matched": len(corr.map_matches),
        "n_unmatched": len(corr.unmatched),
        "degenerate_m_step": corr.degenerate,
    }
    return MatchResult(correspondence=corr, report=report)
