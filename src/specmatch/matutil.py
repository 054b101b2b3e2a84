"""Matrix-analysis utilities: norms, assignment, doubly-stochastic tools."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SpecmatchError


class BirkhoffError(SpecmatchError):
    """No permutation fits inside the positive support: input is not doubly stochastic."""


@dataclass(frozen=True)
class PermutationMatrix:
    """A permutation stored as its mapping: row i has its 1 in column mapping[i]."""

    mapping: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mapping, dtype=int)
        object.__setattr__(self, "mapping", m)
        n = m.size
        if not np.array_equal(np.sort(m), np.arange(n)):
            raise ValueError(f"mapping is not a bijection on [0, {n})")

    @property
    def n(self) -> int:
        return self.mapping.size

    def to_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n))
        mat[np.arange(self.n), self.mapping] = 1.0
        return mat

    def inverse(self) -> "PermutationMatrix":
        inv = np.empty(self.n, dtype=int)
        inv[self.mapping] = np.arange(self.n)
        return PermutationMatrix(inv)

    def apply_to_rows(self, A: np.ndarray) -> np.ndarray:
        """Return P @ A, i.e. row i of the result is row mapping[i] of A."""
        return np.asarray(A)[self.mapping]


@dataclass(frozen=True)
class DoublyStochasticMatrix:
    """Non-negative square matrix whose row and column sums are all 1."""

    entries: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        A = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", A)
        if not is_doubly_stochastic(A, self.tol):
            raise ValueError("matrix is not doubly stochastic within tolerance")


def frobenius_norm(A) -> float:
    """sqrt of the sum of squared entries."""
    A = np.asarray(A, dtype=float)
    return float(np.sqrt(np.sum(A * A)))


def hungarian(cost, sense: str = "min") -> PermutationMatrix:
    """Optimal linear assignment on a square cost matrix.

    Backed by scipy's modified Jonker-Volgenant solver, which is
    deterministic for identical inputs.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost must be square")
    if not np.isfinite(cost).all():
        raise ValueError("cost must be finite")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    _, cols = linear_sum_assignment(cost, maximize=(sense == "max"))
    return PermutationMatrix(cols)


def is_permutation(A, tol: float = 1e-9) -> bool:
    """True iff A is (within tol) a 0/1 matrix with one 1 per row and column."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    near_one = np.abs(A - 1.0) <= tol
    near_zero = np.abs(A) <= tol
    if not np.all(near_one | near_zero):
        return False
    return bool(
        np.all(near_one.sum(axis=0) == 1) and np.all(near_one.sum(axis=1) == 1)
    )


def is_doubly_stochastic(A, tol: float = 1e-9) -> bool:
    """True iff A is non-negative with all row and column sums equal to 1."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    if (A < -tol).any():
        return False
    return bool(
        np.all(np.abs(A.sum(axis=0) - 1.0) <= tol)
        and np.all(np.abs(A.sum(axis=1) - 1.0) <= tol)
    )


def birkhoff_decompose(X, tol: float = 1e-9) -> list[tuple[float, PermutationMatrix]]:
    """Decompose a doubly stochastic matrix into a convex sum of permutations.

    Greedy peeling: repeatedly pick a permutation inside the strictly
    positive support (via assignment on a 0/1 support cost), subtract the
    smallest matched entry, until no entry of the residual exceeds ``tol``.
    Each step zeroes at least one entry, so the number of terms is at most
    (n-1)^2 + 1.
    """
    if isinstance(X, DoublyStochasticMatrix):
        R = X.entries.copy()
    else:
        R = np.asarray(X, dtype=float).copy()
        if not is_doubly_stochastic(R, tol):
            raise ValueError("input is not doubly stochastic within tolerance")
    n = R.shape[0]
    terms: list[tuple[float, PermutationMatrix]] = []
    while (R > tol).any():
        support = R > tol
        perm = hungarian(np.where(support, 0.0, 1.0), sense="min")
        matched = R[np.arange(n), perm.mapping]
        if (matched <= tol).any():
            raise BirkhoffError(
                "no permutation inside the positive support; "
                "input is not doubly stochastic"
            )
        w = float(matched.min())
        terms.append((w, perm))
        R[np.arange(n), perm.mapping] -= w
    return terms
