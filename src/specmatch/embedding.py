"""Commute-time and hypersphere embeddings, dimension selection, distances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .spectral import RESIDUAL_SHARE, Spectrum
from .textfile import write_text


@dataclass(frozen=True)
class Embedding:
    """K x n coordinates of the graph vertices in spectral space."""

    coords: np.ndarray            # K x n, columns are vertices

    @property
    def K(self) -> int:
        return self.coords.shape[0]

    @property
    def n(self) -> int:
        return self.coords.shape[1]


def commute_time_embedding(spectrum: Spectrum, K: int) -> Embedding:
    """Coordinates scaled by inverse square-root eigenvalues.

    Row k of the result is lambda_{k+1}^{-1/2} u_{k+1}^T, skipping the
    null pair. Euclidean distances in this space are commute-time
    distances up to the graph-volume factor.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    avail = spectrum.n_pairs - 1
    if K > avail:
        raise InputError(
            f"requested K={K} but spectrum has {avail} non-null pairs"
        )
    lam = spectrum.eigenvalues[1:K + 1]
    U = spectrum.eigenvectors[:, 1:K + 1]
    coords = (U / np.sqrt(lam)).T
    return Embedding(coords=coords)


def commute_time_distance(spectrum: Spectrum, i: int, j: int, volume: float) -> float:
    """Commute-time distance between vertices i and j.

    Uses every non-null pair of the spectrum, so it is exact when the
    spectrum is full.
    """
    if i == j:
        return 0.0
    emb = commute_time_embedding(spectrum, spectrum.n_pairs - 1)
    diff = emb.coords[:, i] - emb.coords[:, j]
    return float(np.sqrt(volume * float(diff @ diff)))


class DimensionSelection(NamedTuple):
    K: int
    theta_min: float
    reached: bool


def theta_min(eigenvalues, n: int) -> np.ndarray:
    """Lower bounds on the captured-variance ratio from the K leading pairs,
    for K = 1..len(eigenvalues).

    ``eigenvalues`` are the ascending non-null values; the bound for K uses
    only the K smallest of them plus the vertex count n.
    """
    inv = 1.0 / np.asarray(eigenvalues, dtype=float)
    head = np.cumsum(inv)
    K = np.arange(1, inv.size + 1)
    return head / (head - inv + (n - K) * inv)


def theta_scree(eigenvalues) -> np.ndarray:
    """Exact captured-variance ratios for K = 1..len(eigenvalues); they are
    exact only when ``eigenvalues`` is the full non-null spectrum."""
    inv = 1.0 / np.asarray(eigenvalues, dtype=float)
    return np.cumsum(inv) / inv.sum()


def select_dimension(theta, theta_target: float) -> DimensionSelection:
    """Smallest K whose captured-variance lower bound reaches the target,
    from ``theta_min``'s vector ``theta`` of the bounds for K = 1, 2, ...

    Returns the number of available pairs with ``reached=False`` when no
    K attains the target.
    """
    if not 0.0 < theta_target < 1.0:
        raise ValueError(f"theta_target must be in (0,1), got {theta_target}")
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        raise ValueError("need at least one non-null eigenvalue")
    hits = np.flatnonzero(theta >= theta_target)
    K = int(hits[0]) + 1 if hits.size else theta.size
    return DimensionSelection(K=K, theta_min=float(theta[K - 1]), reached=bool(hits.size))


def normalize_hypersphere(emb: Embedding) -> Embedding:
    """Scale every column to unit norm, placing vertices on the K-sphere.

    A column whose norm is within the eigensolver's accuracy of 0, relative
    to the largest column norm, has no direction to project onto: it is
    rejected as if it were exactly 0.
    """
    norms = np.linalg.norm(emb.coords, axis=0)
    zero = np.flatnonzero(norms <= RESIDUAL_SHARE * norms.max())
    if zero.size:
        raise InputError(f"vertex {zero[0]} has zero-norm embedding coordinates")
    return Embedding(coords=emb.coords / norms)


def embedding_stats(emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean vector and (1/n) X X^T covariance of the columns."""
    mean = emb.coords.mean(axis=1)
    cov = (emb.coords @ emb.coords.T) / emb.n
    return mean, cov


def dump_embedding(emb: Embedding, path) -> None:
    """Text dump: K rows of n coordinates, 17 significant digits."""
    fmt = " ".join(["%.17g"] * emb.n) + "\n"
    write_text(path, (fmt % tuple(row) for row in emb.coords.tolist()))
