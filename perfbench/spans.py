"""In-memory span tracing of specmatch, installed from outside the package.

The package calls its layers through module attributes (``pipeline`` calls
``_spectral.eigs_smallest``, ``em_register`` calls the module-global
``e_step``, ``alignment`` calls its imported ``hungarian``, and so on), so
replacing those attributes with timing wrappers records a span at every
layer boundary without editing the package. The wrappers are installed only
for the duration of a ``Tracer.installed()`` block.

A span is (name, start, end, parent). A layer's busy time is the duration of
its outermost spans (a span whose parent belongs to the same layer is not
counted twice); self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). The span name's prefix up to the first dot
# is the layer. One function reached through several modules' attributes
# (``hungarian``) is wrapped at each of them under one name.
TRACED = [
    ("specmatch.pipeline", "run_match", "pipeline.run_match"),
    ("specmatch.cli", "main", "cli.main"),
    ("specmatch.mesh_graph", "load_mesh", "mesh_graph.load_mesh"),
    ("specmatch.mesh_graph", "build_graph", "mesh_graph.build_graph"),
    ("specmatch.laplacian", "assemble", "laplacian.assemble"),
    ("specmatch.spectral", "eigs_smallest", "spectral.eigs_smallest"),
    ("scipy.sparse.linalg", "lobpcg", "spectral.lobpcg"),
    ("specmatch.embedding", "select_dimension", "embedding.select_dimension"),
    ("specmatch.embedding", "theta_min", "embedding.theta_min"),
    ("specmatch.embedding", "commute_time_embedding", "embedding.commute_time_embedding"),
    ("specmatch.embedding", "normalize_hypersphere", "embedding.normalize_hypersphere"),
    ("specmatch.embedding", "dump_embedding", "embedding.dump_embedding"),
    ("specmatch.alignment", "align_embeddings", "alignment.align_embeddings"),
    ("specmatch.alignment", "hungarian", "matutil.hungarian"),
    ("specmatch.em_registration", "em_register", "em_registration.em_register"),
    ("specmatch.em_registration", "e_step", "em_registration.e_step"),
    ("specmatch.em_registration", "m_step", "em_registration.m_step"),
    ("specmatch.em_registration", "log_likelihood", "em_registration.log_likelihood"),
    ("specmatch.em_registration", "_sq_distances", "em_registration._sq_distances"),
    ("specmatch.isomorphism", "exact_spectral_isomorphism", "isomorphism.exact_spectral_isomorphism"),
    ("specmatch.isomorphism", "umeyama_match", "isomorphism.umeyama_match"),
    ("specmatch.isomorphism", "hungarian", "matutil.hungarian"),
    ("specmatch.matutil", "birkhoff_decompose", "matutil.birkhoff_decompose"),
    ("specmatch.matutil", "hungarian", "matutil.hungarian"),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and per-call counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.child_time: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        on_return = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self.child_time.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
                if parent >= 0:
                    self.child_time[parent] += end - start
            self.counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(self.counts, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def busy(self, layer: str) -> float:
        """Wall time covered by the layer's outermost spans."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if layer_of(name) == layer and (
                parent < 0 or layer_of(self.spans[parent][0]) != layer
            ):
                total += end - start
        return total

    def span_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        return sum(
            end - start - self.child_time[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n == name
        )


def _count_spectrum(counts, spectrum):
    counts["spectral.pairs_computed"] += spectrum.n_pairs


def _count_embedding(counts, emb):
    # the K non-null pairs an embedding consumes plus the null pair
    counts["spectral.pairs_used"] += emb.K + 1


def _count_alignment(counts, alignment):
    counts["alignment.signature_pairs"] += alignment.K * alignment.K
    counts["alignment.kept_pairs"] += alignment.kept.size


def _count_em(counts, corr):
    counts["em_registration.iterations"] += corr.iterations


_COUNTERS = {
    "spectral.eigs_smallest": _count_spectrum,
    "embedding.commute_time_embedding": _count_embedding,
    "alignment.align_embeddings": _count_alignment,
    "em_registration.em_register": _count_em,
}


def per_layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer figures: (value, unit) by metric name."""
    c = tracer.counts
    per_op = 1.0 / max(n_ops, 1)
    seconds = {
        "spectral.busy_s": tracer.busy("spectral"),
        "em_registration.busy_s": tracer.busy("em_registration"),
        "em_registration.e_step_s": tracer.span_time("em_registration.e_step"),
        "em_registration.m_step_s": tracer.span_time("em_registration.m_step"),
        "em_registration.log_likelihood_s": tracer.span_time("em_registration.log_likelihood"),
        "alignment.busy_s": tracer.busy("alignment"),
        "matutil.busy_s": tracer.busy("matutil"),
        "isomorphism.busy_s": tracer.busy("isomorphism"),
        "mesh_graph.busy_s": tracer.busy("mesh_graph"),
        "laplacian.busy_s": tracer.busy("laplacian"),
        "embedding.busy_s": tracer.busy("embedding"),
        "cli.self_s": tracer.self_time("cli.main"),
        "pipeline.self_s": tracer.self_time("pipeline.run_match"),
    }
    counts = {
        "spectral.calls": c["spectral.eigs_smallest.calls"],
        "spectral.lobpcg_calls": c["spectral.lobpcg.calls"],
        "spectral.pairs_computed": c["spectral.pairs_computed"],
        "spectral.pairs_used": c["spectral.pairs_used"],
        "em_registration.iterations": c["em_registration.iterations"],
        "em_registration.distance_matrices": c["em_registration._sq_distances.calls"],
        "alignment.signature_pairs": c["alignment.signature_pairs"],
        "alignment.kept_pairs": c["alignment.kept_pairs"],
        "matutil.hungarian_calls": c["matutil.hungarian.calls"],
    }
    out = {k: (v * per_op, "s") for k, v in seconds.items()}
    out.update({k: (v * per_op, "count") for k, v in counts.items()})
    # shares of useful work, where a layer can waste it
    computed, iterations = counts["spectral.pairs_computed"], counts["em_registration.iterations"]
    out["spectral.useful_share"] = (
        counts["spectral.pairs_used"] / computed if computed else 0.0, "ratio")
    out["em_registration.distance_matrices_per_iteration"] = (
        counts["em_registration.distance_matrices"] / iterations if iterations else 0.0,
        "count")
    return out
