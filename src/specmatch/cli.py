"""Command-line entry point: match, embed, eval, synth, isolab.

A command that fails writes one line, ``specmatch <command>: <message>``,
to stderr and exits with the status of its kind of failure: ``EXIT_INPUT``,
``EXIT_NUMERICAL`` or ``EXIT_IO``. Usage errors exit with argparse's 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import types

import numpy as np

from . import embedding as _embedding
from . import em_registration as _em
from . import evaluation as _evaluation
from . import isomorphism as _isomorphism
from . import laplacian as _laplacian
from . import mesh_graph as _mesh_graph
from .errors import InputError, NumericalError, PipelineError, SpecmatchError
from .pipeline import PipelineConfig, mesh_spectra, run_match, spectral_embedding


EXIT_INPUT = 3       # the input was rejected: a malformed mesh, matrix or table
EXIT_NUMERICAL = 4   # a computation failed on input that passed every check
EXIT_IO = 5          # a file could not be opened, read or written


def _add_front_end_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the mesh -> spectrum -> embedding front end that ``match``
    and ``embed`` share. Their defaults are ``PipelineConfig``'s."""
    p.add_argument("--k", type=int,
                   help="fixed embedding dimension (default: pick via --theta)")
    p.add_argument("--theta", type=float,
                   help="captured-variance target for dimension selection")
    p.add_argument("--embedding", choices=["sm1", "sm2"],
                   help="sm1: commute-time, sm2: hypersphere-normalized")


def _config_from(args) -> PipelineConfig:
    """The config of the ``PipelineConfig`` flags given on the command line;
    a value out of range is a usage error."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)
             if getattr(args, f.name, None) is not None}
    try:
        return PipelineConfig(**given)
    except ValueError as exc:
        args.parser.error(str(exc))


def _write_json(data, path) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_match(args) -> int:
    config = _config_from(args)
    mesh_a = _mesh_graph.load_mesh(args.mesh_a)
    mesh_b = _mesh_graph.load_mesh(args.mesh_b)
    result = run_match(mesh_a, mesh_b, config)
    _em.write_correspondence_tsv(result.correspondence, args.out_corr)
    _write_json(result.report, args.out_report)
    return 0


def cmd_embed(args) -> int:
    config = _config_from(args)
    mesh = _mesh_graph.load_mesh(args.mesh)
    # the theta table below has a row for each of the k_cap non-null pairs
    (spectrum,), selection = mesh_spectra((mesh,), config, all_pairs=True)
    emb = spectral_embedding(spectrum, selection["K"], config.embedding)
    _embedding.dump_embedding(emb, args.out)
    theta = _embedding.theta_min(spectrum.eigenvalues[1:], spectrum.n)
    np.savetxt(sys.stdout, np.column_stack([np.arange(1, theta.size + 1), theta]),
               fmt=("%d", "%.12f"), delimiter="\t", header="K\ttheta_min", comments="")
    return 0


def _read_pairs_tsv(path) -> dict:
    """{j: i} from the integer pair that opens each non-blank line of a TSV.
    Each source vertex j is non-negative and given once; a target i is a
    vertex or -1, which means unmatched."""
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            try:
                j, i = int(tok[0]), int(tok[1])
            except (ValueError, IndexError):
                raise InputError(f"{path}:{lineno}: expected 'j i', got {line.strip()!r}")
            if j < 0 or j in pairs:
                what = "negative" if j < 0 else "repeated"
                raise InputError(f"{path}:{lineno}: {what} source vertex {j}")
            if i < -1:
                raise InputError(f"{path}:{lineno}: target {i} is below -1")
            pairs[j] = i
    return pairs


def cmd_eval(args) -> int:
    mesh_a = _mesh_graph.load_mesh(args.mesh_a)
    pairs = _read_pairs_tsv(args.corr)
    corr = types.SimpleNamespace(
        map_matches=[(j, i) for j, i in pairs.items() if i >= 0],
        unmatched=[j for j, i in pairs.items() if i < 0],
    )
    gt = _evaluation.GroundTruth(_read_pairs_tsv(args.gt))
    report = _evaluation.registration_error(corr, gt, mesh_a)
    _write_json(
        {
            "mean": report.mean, "median": report.median, "max": report.max,
            "normalization": report.normalization,
            "n_matched": report.n_matched, "n_unmatched": report.n_unmatched,
        },
        args.out,
    )
    if args.per_vertex_csv:
        with open(args.per_vertex_csv, "w") as fh:
            fh.write("vertex,error_percent\n")
            for j in sorted(report.per_vertex):
                fh.write(f"{j},{report.per_vertex[j]:.17g}\n")
    return 0


def cmd_synth(args) -> int:
    mesh = _mesh_graph.load_mesh(args.mesh)
    param = args.param
    if param is None and args.level is not None:
        param = _evaluation.strength_param(args.kind, args.level)
    out_mesh, gt = _evaluation.synth_transform(mesh, args.kind, param, args.seed)
    _mesh_graph.save_mesh(out_mesh, args.out_mesh)
    with open(args.out_gt, "w") as fh:
        for j in sorted(gt.pairs):
            fh.write(f"{j}\t{gt.pairs[j]}\n")
    return 0


def cmd_isolab(args) -> int:
    A = _laplacian.load_triplets(args.matrix_a).toarray()
    B = _laplacian.load_triplets(args.matrix_b).toarray()
    if args.method == "exact":
        result = _isomorphism.exact_spectral_isomorphism(A, B)
        if result is None:
            sys.stdout.write("no isomorphism found\n")
            return 1
    else:
        result = _isomorphism.umeyama_match(A, B)
    sys.stdout.write(f"permutation\t{result.permutation.mapping.tolist()}\n")
    sys.stdout.write(f"signs\t{result.signs.astype(int).tolist()}\n")
    sys.stdout.write(f"residual\t{result.residual:.17g}\n")
    sys.stdout.write(f"exact\t{result.exact}\n")
    sys.stdout.write(f"degenerate\t{result.degenerate}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmatch",
        description="Register two non-rigid 3D shapes via spectral embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="dense correspondence between two meshes")
    p.add_argument("mesh_a")
    p.add_argument("mesh_b")
    _add_front_end_flags(p)
    # the alignment stage, which only match runs
    p.add_argument("--sig-threshold", type=float,
                   help="histogram similarity threshold for keeping eigenvectors")
    p.add_argument("--out-corr", default="correspondence.tsv")
    p.add_argument("--out-report", default="-")
    p.set_defaults(fn=cmd_match, parser=p)

    p = sub.add_parser("embed", help="dump a mesh's spectral embedding")
    p.add_argument("mesh")
    _add_front_end_flags(p)
    p.add_argument("--out", default="embedding.txt")
    p.set_defaults(fn=cmd_embed, parser=p)

    p = sub.add_parser("eval", help="score a correspondence against ground truth")
    p.add_argument("mesh_a")
    p.add_argument("corr", help="correspondence TSV (j, i, posterior)")
    p.add_argument("gt", help="ground truth TSV (j, i)")
    p.add_argument("--out", default="-")
    p.add_argument("--per-vertex-csv", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth", help="generate a transformed mesh + ground truth")
    p.add_argument("mesh")
    p.add_argument("--kind", choices=list(_evaluation.STRENGTH_RAMPS),
                   required=True)
    strength = p.add_mutually_exclusive_group()
    strength.add_argument("--param", type=float, default=None)
    strength.add_argument("--level", type=int, choices=range(1, 6), default=None,
                          help="strength level 1-5 (alternative to --param)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-mesh", default="transformed.off")
    p.add_argument("--out-gt", default="ground_truth.tsv")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("isolab", help="spectral isomorphism on triplet matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--method", choices=["exact", "umeyama"], default="umeyama")
    p.set_defaults(fn=cmd_isolab)

    return parser


def _exit_status(exc: Exception) -> int:
    if isinstance(exc, OSError):
        return EXIT_IO
    cause = exc.__cause__ if isinstance(exc, PipelineError) else exc
    return EXIT_NUMERICAL if isinstance(cause, NumericalError) else EXIT_INPUT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecmatchError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"specmatch {args.command}: {message}\n")
        return _exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
