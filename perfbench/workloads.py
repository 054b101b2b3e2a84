"""The benchmark's workloads: inputs made from a seed, and one round of
operations over them.

Every input is generated here from ``--seed``; the package receives only the
finished meshes, OFF files and matrices. Operations call the package through
module attributes (``pipeline.run_match``, ``cli.main``, ...) looked up at
call time, so the tracer's wrappers see them.

An operation returns the package's output; its check raises
``checks.CheckFailed`` on a wrong output and otherwise returns a dict of
reference-only notes (match accuracy and the like) that are printed but not
judged.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import reference
from specmatch import cli, isomorphism, matutil, pipeline, shapes
from specmatch.evaluation import synth_transform
from specmatch.mesh_graph import save_mesh
from specmatch.pipeline import PipelineConfig


@dataclass(frozen=True)
class Operation:
    label: str                         # input family / variant, for reports
    rows: int                          # vertices or matrix rows fed in
    run: Callable[[], object]
    check: Callable[[object], dict]


def _subseeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31, count)]


def _run_match(mesh_a, mesh_b, config):
    return pipeline.run_match(mesh_a, mesh_b, config)


# --- match-relabel -------------------------------------------------------
# Relabelled copies with fixed k=10: both solves compute 50 pairs, EM
# converges in two iterations on an exact copy, and the ground truth is an
# exact permutation. Each relabelling gives LOBPCG a fresh random start
# relative to the mesh, and for some starts the iteration stagnates and runs
# toward its cap (56 s instead of 0.5 s for one solve at 642 vertices; see
# the README). Just above the 265-vertex dense limit no solve on 300
# relabellings of each of these meshes took over 360 iterations, and the
# solves still take most of an operation. Every relabelling is a distinct draw and the embedding
# alternates between sm1 and sm2, so no spectral work repeats within a round.
RELABEL_MESHES = (
    ("bent_cylinder_14x20", lambda: shapes.bent_cylinder(14, 20)),
    ("bent_cylinder_12x23", lambda: shapes.bent_cylinder(12, 23)),
)
RELABELS = 6


def _check_relabel(result, gt, m):
    corr = result.correspondence
    checks.check_relabel_match(corr.map_matches, corr.unmatched, gt.pairs, m)
    return {"exact_share": 1.0, "em_iterations": corr.iterations}


def match_relabel(seed: int, workdir: str) -> list[Operation]:
    ops = []
    subs = iter(_subseeds(seed, len(RELABEL_MESHES) * RELABELS))
    for name, make in RELABEL_MESHES:
        mesh_a = make()
        for copy in range(RELABELS):
            mesh_b, gt = synth_transform(mesh_a, "isometry_relabel", seed=next(subs))
            emb = ("sm1", "sm2")[copy % 2]
            ops.append(Operation(
                f"{name}/{emb}", mesh_a.n_vertices + mesh_b.n_vertices,
                functools.partial(_run_match, mesh_a, mesh_b,
                                  PipelineConfig(k=10, embedding=emb)),
                functools.partial(_check_relabel, gt=gt, m=mesh_b.n_vertices),
            ))
    return ops


# --- match-noisy ---------------------------------------------------------
# Jittered copies (5 % of the mean edge length) with the default theta=0.95
# dimension selection, which never reaches the target and pins K at the
# 50-pair cap; alignment scores 2,500 eigenvector pairs and EM runs tens to
# 100 iterations in 50 dimensions. The meshes have at most 5(K+3) = 265
# vertices, so the spectra come from the dense fallback: LOBPCG on jittered
# copies of 300-400-vertex meshes stagnated in about 1 of 100 draws (30 s
# for one solve), which made the run's throughput a matter of luck. EM hits
# its 100-iteration cap in about 40 % of draws and converges well before it
# in the rest, so the median depends on that share; a round holds 24
# distinct draws to keep it steady.
NOISY_MESHES = (
    ("bumpy_torus_16x16", lambda: shapes.bumpy_torus(16, 16)),
    ("bent_cylinder_12x21", lambda: shapes.bent_cylinder(12, 21)),
)
NOISY_COPIES = 12
NOISE = 0.05


def _check_noisy(result, n, m):
    corr = result.correspondence
    checks.check_em(corr.posterior, corr.map_matches, corr.unmatched,
                    corr.log_likelihood_trace, m, n)
    exact = sum(1 for j, i in corr.map_matches if i == j)   # jitter keeps labels
    return {"exact_share": exact / m, "em_iterations": corr.iterations,
            "K": result.report["k_selection"]["K"]}


def match_noisy(seed: int, workdir: str) -> list[Operation]:
    ops = []
    subs = iter(_subseeds(seed, len(NOISY_MESHES) * NOISY_COPIES))
    for name, make in NOISY_MESHES:
        mesh_a = make()
        for _ in range(NOISY_COPIES):
            mesh_b, _ = synth_transform(mesh_a, "noise", NOISE, seed=next(subs))
            ops.append(Operation(
                name, mesh_a.n_vertices + mesh_b.n_vertices,
                functools.partial(_run_match, mesh_a, mesh_b, PipelineConfig()),
                functools.partial(_check_noisy, n=mesh_a.n_vertices, m=mesh_b.n_vertices),
            ))
    return ops


# --- embed-large ---------------------------------------------------------
# The CLI embed path on OFF files: parsing, per-face validation, the
# 50-pair solve, and the text dump of K=10 commute-time rows. The files hold
# jittered copies (1 % of the mean edge length) in the generator's vertex
# order: a relabelled copy of a 2-3k-vertex mesh stagnates in LOBPCG for a
# few percent of relabellings at over 2 minutes per solve, which no run can
# absorb, while jittered copies converged in 125-145 iterations in every one
# of 40 draws.
EMBED_MESHES = (
    ("bent_cylinder_24x80", lambda: shapes.bent_cylinder(24, 80)),
    ("bent_cylinder_32x100", lambda: shapes.bent_cylinder(32, 100)),
)
EMBED_JITTER = 0.01
EMBED_K = 10


def _run_embed(off_path, out_path):
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        status = cli.main(["embed", off_path, "--k", str(EMBED_K),
                           "--embedding", "sm1", "--out", out_path])
    return status, table.getvalue(), out_path


@functools.lru_cache(maxsize=None)
def _embed_reference(off_path):
    """(L, eigenvalues 1..K) of the mesh written at ``off_path``.

    Read back with a plain parser, not the package's loader, so a loader
    fault cannot hide in the reference.
    """
    with open(off_path) as fh:
        lines = fh.read().splitlines()
    nv, nf = (int(x) for x in lines[1].split()[:2])
    vertices = np.array(" ".join(lines[2:2 + nv]).split(), dtype=float).reshape(nv, 3)
    faces = np.array(" ".join(lines[2 + nv:2 + nv + nf]).split(), dtype=np.int64)
    faces = faces.reshape(nf, 4)[:, 1:]
    L = reference.gaussian_laplacian(vertices, faces)
    return L, reference.smallest_eigenvalues(L, EMBED_K + 1)[1:]


def _check_embed(output, off_path, n):
    status, table, out_path = output
    if status != 0:
        raise checks.CheckFailed(f"embed exited with status {status}")
    lines = table.splitlines()
    if lines[0] != "K\ttheta_min" or len(lines) != 1 + min(50, n - 1):
        raise checks.CheckFailed("theta table is malformed")
    rows = np.loadtxt(out_path, ndmin=2)
    L, ref = _embed_reference(off_path)
    checks.check_embedding(rows, L, ref)
    return {}


def embed_large(seed: int, workdir: str) -> list[Operation]:
    ops = []
    for (name, make), sub in zip(EMBED_MESHES, _subseeds(seed, len(EMBED_MESHES))):
        mesh, _ = synth_transform(make(), "noise", EMBED_JITTER, seed=sub)
        off_path = os.path.join(workdir, f"{name}.off")
        save_mesh(mesh, off_path)
        out_path = os.path.join(workdir, f"{name}.embedding.txt")
        ops.append(Operation(
            name, mesh.n_vertices,
            functools.partial(_run_embed, off_path, out_path),
            functools.partial(_check_embed, off_path=off_path, n=mesh.n_vertices),
        ))
    return ops


# --- isolab ---------------------------------------------------------------
# The isomorphism module and n x n assignment: exact sign enumeration on
# small weighted graphs, the absolute-eigenvector heuristic on larger ones,
# and Birkhoff peeling, which calls the assignment solver once per term
# (about 2,400 times for n=100). The exact search stops at the first valid
# sign vector, so its time varies with the planted permutation; the round
# holds more heuristic and Birkhoff operations than exact ones, so the median
# falls among operations of steady cost.
EXACT_N = 12
EXACT_GRAPHS = 4
UMEYAMA_N = 500
UMEYAMA_GRAPHS = 4
BIRKHOFF_N = 100
BIRKHOFF_MATRICES = 2
BIRKHOFF_COMPONENTS = 30


def random_weighted_graph(rng, n: int, density: float = 0.5) -> np.ndarray:
    """Symmetric adjacency, zero diagonal, uniform(0.5, 1.5) edge weights.

    Generic real weights make the spectrum simple and the automorphism
    group trivial, so the planted permutation is the only isomorphism.
    """
    upper = np.triu(rng.random((n, n)) < density, 1) * rng.uniform(0.5, 1.5, (n, n))
    return upper + upper.T


def plant(rng, A):
    """(A_B, p) with A_B[p[i], p[j]] = A[i, j] for a random permutation p."""
    p = rng.permutation(A.shape[0])
    B = np.empty_like(A)
    B[np.ix_(p, p)] = A
    return B, p


def random_doubly_stochastic(rng, n: int, components: int) -> np.ndarray:
    """A random convex combination of ``components`` permutation matrices."""
    X = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(components)):
        X[np.arange(n), rng.permutation(n)] += w
    return X


def _exact(A, B):
    return isomorphism.exact_spectral_isomorphism(A, B)


def _umeyama(A, B):
    return isomorphism.umeyama_match(A, B)


def _birkhoff(X):
    return matutil.birkhoff_decompose(X)


def _check_iso(result, A, B, planted):
    if result is None:
        raise checks.CheckFailed("no isomorphism found")
    checks.check_isomorphism(result.permutation.mapping, A, B, planted)
    return {}


def _check_birkhoff(terms, X):
    checks.check_birkhoff(terms, X)
    return {"birkhoff_terms": len(terms)}


def isolab(seed: int, workdir: str) -> list[Operation]:
    rng = np.random.default_rng(seed)
    ops = []
    for kind, n, count, density, fn in (("exact", EXACT_N, EXACT_GRAPHS, 0.5, _exact),
                                        ("umeyama", UMEYAMA_N, UMEYAMA_GRAPHS, 0.1, _umeyama)):
        for i in range(count):
            A = random_weighted_graph(rng, n, density)
            B, p = plant(rng, A)
            ops.append(Operation(
                f"{kind}/n{n}/{i}", 2 * n, functools.partial(fn, A, B),
                functools.partial(_check_iso, A=A, B=B, planted=p),
            ))
    for i in range(BIRKHOFF_MATRICES):
        X = random_doubly_stochastic(rng, BIRKHOFF_N, BIRKHOFF_COMPONENTS)
        ops.append(Operation(
            f"birkhoff/n{BIRKHOFF_N}/{i}", BIRKHOFF_N, functools.partial(_birkhoff, X),
            functools.partial(_check_birkhoff, X=X),
        ))
    return ops


WORKLOADS = {
    "match-relabel": match_relabel,
    "match-noisy": match_noisy,
    "embed-large": embed_large,
    "isolab": isolab,
}
