"""The combinatorial graph Laplacian D - W, and sparse matrices read from text triplets."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import DisconnectedGraphError, InputError
from .mesh_graph import Graph


def assemble(graph: Graph) -> sparse.csr_matrix:
    """The combinatorial Laplacian D - W of a connected graph."""
    if graph.n_components != 1:
        raise DisconnectedGraphError(graph.n_components)
    return sparse.csr_matrix(sparse.diags(graph.degrees) - graph.adjacency)


def load_triplets(path) -> sparse.csr_matrix:
    """Read a `row col value` triplet file back into a square sparse matrix
    just large enough for its largest index. Each (row, col) is given once."""
    rows, cols, vals, seen = [], [], [], set()
    with open(path, encoding="utf-8", errors="replace") as fh:
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
            if not np.isfinite(val):
                raise InputError(f"{path}:{lineno}: non-finite value in {line.strip()!r}")
            if (row, col) in seen:
                raise InputError(f"{path}:{lineno}: repeated entry ({row}, {col})")
            seen.add((row, col))
            rows.append(row)
            cols.append(col)
            vals.append(val)
    if not rows:
        raise InputError(f"{path}: no 'row col value' triplets")
    size = max(max(rows), max(cols)) + 1
    # CSR keeps an 8-byte pointer per row: past an address space's bytes
    # numpy raises a ValueError or an OverflowError, short of it a MemoryError
    too_large = InputError(f"{path}: index {size - 1} asks for a matrix too large to hold")
    if 8 * (size + 1) > np.iinfo(np.intp).max:
        raise too_large
    try:
        return sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
    except MemoryError:
        raise too_large from None
