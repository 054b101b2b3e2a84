"""Eigenvector histogram signatures and cross-shape eigenbasis alignment.

Eigenvector order and sign are arbitrary across two shapes. The value
distribution of an eigenvector's components is invariant under vertex
relabeling but mirrors under a sign flip, so matching histograms pins
down both the pairing and the signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecmatchError
from .matutil import hungarian

DEFAULT_BINS = 100
DEFAULT_THRESHOLD = 0.7


class BinMismatchError(SpecmatchError):
    """Two signatures were built over different bins and cannot be compared."""


class EmptyAlignmentError(SpecmatchError):
    """No eigenvector pair survived the similarity threshold."""


@dataclass(frozen=True)
class EigenSignature:
    """Normalized histogram of an eigenvector's components."""

    bin_edges: np.ndarray     # B+1 ascending edges, symmetric about 0
    mass: np.ndarray          # B frequencies summing to 1


def scott_bin_width(n: int) -> float:
    """Histogram bin width for an eigenvector of a connected graph.

    Follows from plugging the fixed per-eigenvector spread 1/n into the
    classic bin-width rule: 3.5 / n^{4/3}.
    """
    return 3.5 / n ** (4.0 / 3.0)


def scott_bin_count(n: int) -> float:
    """Approximate bin count the width rule implies over the (-1, 1) range."""
    return n ** (4.0 / 3.0) / 2.0


def eigensignature(u, B: int = DEFAULT_BINS, limit: float | None = None) -> EigenSignature:
    """Histogram of the components of ``u`` over a symmetric range.

    ``limit`` sets the half-range; by default the largest absolute
    component. Cross-shape comparisons must pass a shared limit so both
    signatures use identical bins.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size < 2:
        raise ValueError("eigenvector must have at least 2 components")
    a = float(np.abs(u).max()) if limit is None else float(limit)
    if a <= 0:
        a = 1.0
    edges = np.linspace(-a, a, B + 1)
    counts, _ = np.histogram(u, bins=edges)
    mass = counts / u.size
    return EigenSignature(bin_edges=edges, mass=mass)


def histogram_similarity(H1: EigenSignature, H2: EigenSignature) -> float:
    """Pearson correlation of the two mass vectors, in [-1, 1]."""
    if H1.bin_edges.shape != H2.bin_edges.shape or not np.allclose(
        H1.bin_edges, H2.bin_edges, rtol=0.0, atol=1e-12
    ):
        raise BinMismatchError("signatures use different bins")
    a = H1.mass - H1.mass.mean()
    b = H2.mass - H2.mass.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0 if np.array_equal(H1.mass, H2.mass) else 0.0
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class EigenAlignment:
    """Matched eigenvector indices with signs and similarity scores.

    ``permutation[k]`` is the index in the second shape matched to
    eigenvector k of the first; ``kept`` lists the first-shape indices
    whose match score reached the threshold.
    """

    permutation: np.ndarray   # length K, bijective
    signs: np.ndarray         # length K, +-1
    kept: np.ndarray          # sorted indices into [0, K)
    scores: np.ndarray        # length K similarity of each matched pair

    @property
    def K(self) -> int:
        return self.permutation.size

    def rotation(self) -> np.ndarray:
        """The K x K signed permutation mapping first-shape coordinates
        onto second-shape coordinates (orthogonal by construction)."""
        R = np.zeros((self.K, self.K))
        R[self.permutation, np.arange(self.K)] = self.signs
        return R


def align_embeddings(
    U: np.ndarray,
    U_other: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    bins: int = DEFAULT_BINS,
) -> EigenAlignment:
    """Match the eigenvector columns of two shapes by histogram similarity.

    For every pair (k, l) both orientations of the second shape's
    eigenvector are scored over shared symmetric bins; the assignment
    solver extracts the best pairing and matched pairs scoring below the
    threshold are dropped.
    """
    U = np.asarray(U, dtype=float)
    U_other = np.asarray(U_other, dtype=float)
    if U.ndim != 2 or U_other.ndim != 2 or U.shape[1] != U_other.shape[1]:
        raise ValueError("eigenvector blocks must share the same column count K")
    K = U.shape[1]

    scores = np.empty((K, K))
    sign_table = np.empty((K, K))
    for k in range(K):
        u = U[:, k]
        for l in range(K):
            v = U_other[:, l]
            a = max(np.abs(u).max(), np.abs(v).max())
            h_u = eigensignature(u, B=bins, limit=a)
            c_pos = histogram_similarity(h_u, eigensignature(v, B=bins, limit=a))
            c_neg = histogram_similarity(h_u, eigensignature(-v, B=bins, limit=a))
            scores[k, l] = max(c_pos, c_neg)
            sign_table[k, l] = 1.0 if c_pos >= c_neg else -1.0

    perm = hungarian(scores, sense="max")
    matched_scores = scores[np.arange(K), perm.mapping]
    signs = sign_table[np.arange(K), perm.mapping]
    kept = np.flatnonzero(matched_scores >= threshold)
    if kept.size == 0:
        raise EmptyAlignmentError(
            "no eigenvector pair reached the similarity threshold "
            f"{threshold}; shapes may be too dissimilar or K too large"
        )
    return EigenAlignment(
        permutation=perm.mapping.copy(),
        signs=signs,
        kept=kept,
        scores=matched_scores,
    )


def alignment_report(alignment: EigenAlignment) -> str:
    """Human-readable listing of matched pairs, signs, and dropped indices."""
    lines = ["idx\tmatch\tsign\tscore\tkept"]
    kept = set(alignment.kept.tolist())
    for k in range(alignment.K):
        lines.append(
            f"{k}\t{alignment.permutation[k]}\t{int(alignment.signs[k]):+d}"
            f"\t{alignment.scores[k]:.6f}\t{'yes' if k in kept else 'no'}"
        )
    return "\n".join(lines) + "\n"
