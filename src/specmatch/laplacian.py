"""The three graph Laplacian variants and conversions between them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DisconnectedGraphError, InputError, ZeroDegreeError
from .mesh_graph import Graph

KINDS = ("combinatorial", "normalized", "random_walk")


@dataclass(frozen=True)
class LaplacianMatrix:
    """A sparse Laplacian together with the degrees needed for conversions."""

    kind: str
    matrix: sparse.csr_matrix
    degrees: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown Laplacian kind {self.kind!r}")
        object.__setattr__(self, "matrix", sparse.csr_matrix(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble(graph: Graph, kind: str = "combinatorial") -> LaplacianMatrix:
    """Assemble a Laplacian of the requested kind from a connected graph.

    combinatorial: D - W; the other kinds are its :func:`convert` scalings.
    """
    if graph.n_components != 1:
        raise DisconnectedGraphError(graph.n_components)
    d = graph.degrees
    comb = LaplacianMatrix("combinatorial", sparse.diags(d) - graph.adjacency, d.copy())
    return comb if kind == "combinatorial" else convert(comb, kind)


def convert(lap: LaplacianMatrix, target_kind: str) -> LaplacianMatrix:
    """Convert between Laplacian kinds using the degree rescalings.

    normalized: D^{-1/2} L D^{-1/2};  random_walk: D^{-1} L, with L the
    combinatorial D - W. Every degree must be positive.
    """
    if target_kind not in KINDS:
        raise ValueError(f"unknown Laplacian kind {target_kind!r}")
    d = lap.degrees
    if (d <= 0).any():
        raise ZeroDegreeError(int(np.flatnonzero(d <= 0)[0]))
    sq = sparse.diags(np.sqrt(d))
    inv_sq = sparse.diags(1.0 / np.sqrt(d))
    dd = sparse.diags(d)
    inv_d = sparse.diags(1.0 / d)

    # first to combinatorial, then to the target
    if lap.kind == "combinatorial":
        comb = lap.matrix
    elif lap.kind == "normalized":
        comb = sq @ lap.matrix @ sq
    else:  # random_walk
        comb = dd @ lap.matrix

    if target_kind == "combinatorial":
        mat = comb
    elif target_kind == "normalized":
        mat = inv_sq @ comb @ inv_sq
    else:
        mat = inv_d @ comb
    return LaplacianMatrix(kind=target_kind, matrix=mat, degrees=d.copy())


def dump_triplets(matrix, path) -> None:
    """Write a sparse matrix as `row col value` lines, 17 significant digits."""
    coo = sparse.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for k in order:
            fh.write(f"{coo.row[k]} {coo.col[k]} {coo.data[k]:.17g}\n")


def load_triplets(path) -> sparse.csr_matrix:
    """Read a `row col value` triplet file back into a square sparse matrix
    just large enough for its largest index."""
    rows, cols, vals = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            try:
                row, col, val = int(tok[0]), int(tok[1]), float(tok[2])
            except (ValueError, IndexError):
                raise InputError(f"{path}:{lineno}: expected 'row col value', got {line.strip()!r}")
            if row < 0 or col < 0:
                raise InputError(f"{path}:{lineno}: negative index in {line.strip()!r}")
            rows.append(row)
            cols.append(col)
            vals.append(val)
    size = max(max(rows, default=-1), max(cols, default=-1)) + 1
    return sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
