"""Batch command-line front end with stable JSON output.

Every subcommand prints exactly one JSON document on stdout (keys sorted,
floats in shortest round-trip form, no timestamps) and a short human
summary on stderr.  Exit codes: 0 success, 1 validation failure,
2 numerical failure, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .barycentric import barycentre, barycentric_complex, induced_map, require_same_polytope
from .errors import (
    DegenerateSimplex,
    DegenerateSpan,
    DuplicateVertex,
    InconsistentLattice,
    InfeasibleApex,
    MalformedInput,
    NotContraction,
    NotPSD,
    NotSimple,
    NotTree,
    PointOutside,
    PolycompError,
    PolytopeMismatch,
    SingularSimplex,
)
from .lifting import (
    isometry_residual,
    lift_simplex,
    orthogonal_completion,
    pleat_validity,
    pleated_embedding,
    projection_chain,
)
from .metric import delta_polytope, per_chain_deltas, sequence_report
from .polytopes import Shape, fan_triangulation, is_tree, validate_shape
from .spectral import (
    PointOnShape,
    classify,
    compare_order,
    distance_derivative,
    edge_contraction_check,
    perturbation_classify,
    scale_critical,
)

VALIDATION_ERRORS = (NotSimple, InconsistentLattice, DegenerateSpan,
                     DuplicateVertex, PolytopeMismatch, NotTree, PointOutside)
NUMERICAL_ERRORS = (SingularSimplex, DegenerateSimplex, NotContraction,
                    NotPSD, InfeasibleApex)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_MALFORMED = 3

FILE_FORMATS = """\
file formats (JSON, UTF-8):
  shape          {"dimension": d, "vertex_count": N,
                  "facets": [[int, ...], ...],
                  "vertices": [[float, ...], ...],
                  "mode": "strict"|"weak", "name": optional string}
  triangulation  {"simplices": [[int, ...], ...]}   (polytope vertex indices)
  matrix         {"rows": r, "cols": c, "data": [row-major floats]}
  embedding      {"ambient_dimension": D, "vertices": [[float, ...], ...],
                  "simplices": [[int, ...], ...], "stages": optional}
  sequence       JSON array of shape objects
exit codes: 0 success, 1 validation failure, 2 numerical failure
(singular simplex, not a contraction, infeasible apex), 3 malformed input.
"""


class ValidationFailure(PolycompError):
    """A shape failed the validation its command requires."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


def _checked_shape(path, label) -> Shape:
    shape = io.load_shape(path)
    report = validate_shape(shape.polytope, shape.coords, shape.mode)
    ok = report.is_strict if shape.mode == "strict" else report.is_weak
    if not ok:
        raise ValidationFailure(
            f"{label} ({path}) fails {shape.mode} validation: {report.verdict}",
            payload=report.to_dict())
    return shape


def _witness_dict(w) -> dict:
    return {
        "x": w.x.tolist(),
        "y": w.y.tolist(),
        "ratio": w.ratio,
        "simplex_index": w.simplex_index,
        "anchor_vertex": w.anchor_vertex,
    }


def cmd_validate(args):
    shape = io.load_shape(args.shape)
    mode = "weak" if args.weak else shape.mode
    report = validate_shape(shape.polytope, shape.coords, mode)
    payload = {"command": "validate", "mode": mode, **report.to_dict()}
    ok = report.is_strict if mode == "strict" else report.is_weak
    summary = f"{args.shape}: {report.verdict} (mode={mode})"
    return payload, summary, EXIT_OK if ok else EXIT_VALIDATION


def cmd_subdivide(args):
    shape = _checked_shape(args.shape, "shape")
    complex_ = barycentric_complex(shape.polytope)
    faces = shape.polytope.faces
    vertices = [barycentre(f, shape).tolist() for f in faces]
    t = complex_.simplex_count
    payload = {
        "command": "subdivide",
        "dimension": shape.polytope.dimension,
        "chain_count": t,
        "faces": [list(f) for f in faces],
        "vertices": vertices,
        "simplices": [list(c) for c in complex_.chains],
        "adjacency": [list(e) for e in complex_.adjacency],
        "face_pairing_is_tree": is_tree(t, complex_.adjacency),
    }
    summary = f"{t} chain simplices over {len(faces)} faces"
    return payload, summary, EXIT_OK


def cmd_classify(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    result = classify(induced_map(p, q), tol=args.tol)
    payload = {
        "command": "classify",
        "verdict": result.verdict,
        "edge_contracting": result.edge_contracting,
        "alpha_min": result.summary.alpha_min,
        "alpha_max": result.summary.alpha_max,
        "simplex_count": len(result.summary.per_simplex),
        "tol": args.tol,
        "witness": _witness_dict(result.witness),
    }
    summary = (f"{result.verdict} (alpha_max={result.summary.alpha_max:.6g}, "
               f"edge_contracting={result.edge_contracting})")
    return payload, summary, EXIT_OK


def cmd_edges(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    report = edge_contraction_check(p, q)
    payload = {
        "command": "edges",
        "edges": [
            {"edge": list(e), "source_length": float(sl),
             "target_length": float(tl), "ratio": float(r)}
            for e, sl, tl, r in zip(report.edges, report.source_lengths,
                                    report.target_lengths, report.ratios)
        ],
        "all_contracting": report.all_contracting,
    }
    summary = f"{len(report.edges)} edges, all_contracting={report.all_contracting}"
    return payload, summary, EXIT_OK


def cmd_distance(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    delta = delta_polytope(p, q)
    payload = {"command": "distance", "delta": delta}
    if p.polytope.is_simplex:
        payload["method"] = "simplex"
    else:
        payload["method"] = "barycentric"
        payload["per_chain"] = per_chain_deltas(p, q).tolist()
    summary = f"delta = {delta:.12g}"
    return payload, summary, EXIT_OK


def cmd_order(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    result = compare_order(p, q, tol=args.tol)
    payload = {
        "command": "order",
        "relation": result.relation,
        "forward_verdict": result.forward.verdict,
        "backward_verdict": result.backward.verdict,
        "forward_alpha_max": result.forward.summary.alpha_max,
        "backward_alpha_max": result.backward.summary.alpha_max,
    }
    return payload, result.relation, EXIT_OK


def cmd_scale(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    result = scale_critical(p, q)
    payload = {
        "command": "scale",
        "lambda": result.lam,
        "verdict_after": result.classification.verdict,
        "alpha_max_after": result.classification.summary.alpha_max,
        "witness": _witness_dict(result.classification.witness),
    }
    summary = f"lambda = {result.lam:.12g} -> {result.classification.verdict}"
    return payload, summary, EXIT_OK


def _parse_point(text, label) -> PointOnShape:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"--pair {label}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "face" not in doc:
        raise MalformedInput(f"--pair {label}: expected an object with 'face'")
    face = doc["face"]
    if not isinstance(face, list) or any(not isinstance(v, int) for v in face):
        raise MalformedInput(f"--pair {label}: 'face' must list vertex indices")
    weights = doc.get("weights")
    if weights is not None:
        if (not isinstance(weights, list) or len(weights) != len(face)
                or any(not isinstance(x, (int, float)) for x in weights)):
            raise MalformedInput(f"--pair {label}: 'weights' must match 'face'")
        weights = tuple(float(x) for x in weights)
    return PointOnShape(face=tuple(face), weights=weights)


def cmd_perturb(args):
    p = _checked_shape(args.shape, "P")
    v = io.load_matrix(args.direction)
    if v.shape != p.coords.shape:
        raise MalformedInput(
            f"{args.direction}: matrix must be {p.coords.shape[0]} x "
            f"{p.coords.shape[1]} (one velocity row per vertex)")
    payload = {"command": "perturb"}
    summary_parts = []
    if p.polytope.is_simplex:
        result = perturbation_classify(p, v)
        payload.update({
            "eigenvalues": result.eigenvalues.tolist(),
            "max_eigenvalue": float(result.eigenvalues[-1]),
            "infinitesimal_weak_compression": result.infinitesimal_weak_compression,
        })
        summary_parts.append(
            f"infinitesimal weak compression: {result.infinitesimal_weak_compression}")
    if args.pair:
        x = _parse_point(args.pair[0], "first point")
        y = _parse_point(args.pair[1], "second point")
        deriv = distance_derivative(p, v, x, y)
        payload["pair_derivative"] = deriv
        summary_parts.append(f"d/dt distance = {deriv:.9g}")
    if len(payload) == 1:
        raise MalformedInput("perturb on a non-simplex shape needs --pair")
    return payload, "; ".join(summary_parts), EXIT_OK


def cmd_complete(args):
    m = io.load_matrix(args.matrix)
    if m.shape[0] != m.shape[1]:
        raise MalformedInput(f"{args.matrix}: matrix must be square")
    comp = orthogonal_completion(m)
    residual = float(np.abs(comp.U.T @ comp.U - np.eye(2 * m.shape[0])).max())
    payload = {
        "command": "complete",
        "dimension": m.shape[0],
        "M": comp.M.tolist(),
        "A": comp.A.tolist(),
        "B": comp.B.tolist(),
        "C": comp.C.tolist(),
        "U": comp.U.tolist(),
        "orthogonality_residual": residual,
    }
    return payload, f"orthogonality residual {residual:.3g}", EXIT_OK


def cmd_lift(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    if not p.polytope.is_simplex:
        raise MalformedInput("lift applies to simplex shapes; use pleat for polytopes")
    require_same_polytope(p, q)
    lifted = lift_simplex(p, q)
    d = p.polytope.dimension
    iso = isometry_residual(lifted, p.coords)
    proj = float(np.abs(lifted[:, :d] - q.coords).max())
    payload = {
        "command": "lift",
        **io.embedding_to_dict(2 * d, lifted, [list(range(d + 1))]),
        "isometry_residual": iso,
        "projection_residual": proj,
    }
    summary = f"lifted to R^{2 * d}; isometry residual {iso:.3g}"
    return payload, summary, EXIT_OK


def cmd_pleat(args):
    p = _checked_shape(args.source, "P")
    q = _checked_shape(args.target, "Q")
    spec = args.triangulation
    if spec.startswith("fan:"):
        try:
            apex = int(spec[4:])
        except ValueError as exc:
            raise MalformedInput(f"--triangulation: bad fan apex in '{spec}'") from exc
        tri = fan_triangulation(p.polytope, apex)
    else:
        tri = io.load_triangulation(spec, p.polytope)
    pe = pleated_embedding(p, q, tri)
    report = pleat_validity(pe)
    payload = {
        "command": "pleat",
        **io.embedding_to_dict(pe.ambient_dimension, pe.coords, tri.simplices),
        "isometry_residual": report.max_isometry_residual,
        "projection_residual": report.projection_residual,
        "facet_folds": [
            {"simplices": list(f.simplices), "shared": list(f.shared_vertices),
             "dihedral": f.dihedral}
            for f in report.facet_folds
        ],
        "ridge_angle_sums": [
            {"vertices": list(r.vertices), "angle_sum": r.angle_sum,
             "strictly_below_pi": r.strictly_below_pi}
            for r in report.ridge_angle_sums
        ],
    }
    summary = (f"pleated into R^{pe.ambient_dimension}; isometry residual "
               f"{report.max_isometry_residual:.3g}")
    return payload, summary, EXIT_OK


def cmd_chain(args):
    big_d, coords, simplices = io.load_embedding(args.embedding)
    d = args.base_dim
    if not 1 <= d <= big_d:
        raise MalformedInput("--base-dim must be between 1 and the ambient dimension")
    chain = projection_chain(coords, d, simplices)
    alphas = [s.alpha_max_vs_prev for s in chain.stages if s.alpha_max_vs_prev is not None]
    payload = {
        "command": "chain",
        "base_dimension": d,
        "stages": [
            {"ambient_dimension": s.ambient_dimension,
             "vertices": s.coords.tolist(),
             "alpha_max_vs_prev": s.alpha_max_vs_prev}
            for s in chain.stages
        ],
        "max_alpha_vs_prev": max(alphas) if alphas else None,
    }
    summary = f"{len(chain.stages)} stages down to R^{d}"
    return payload, summary, EXIT_OK


def cmd_sequence(args):
    paths = args.shapes
    if len(paths) == 1:
        try:
            shapes = io.load_sequence(paths[0])
        except MalformedInput:
            shapes = [io.load_shape(paths[0])]
    else:
        shapes = [io.load_shape(pth) for pth in paths]
    if len(shapes) < 2:
        raise MalformedInput("sequence needs at least two shapes")
    for i, s in enumerate(shapes):
        report = validate_shape(s.polytope, s.coords, s.mode)
        ok = report.is_strict if s.mode == "strict" else report.is_weak
        if not ok:
            raise ValidationFailure(
                f"shape {i} fails {s.mode} validation: {report.verdict}",
                payload=report.to_dict())
    window = len(shapes) // 2
    limit = _checked_shape(args.limit, "limit") if args.limit else None
    report = sequence_report(shapes, window=window, eps=args.eps, limit=limit)
    payload = {
        "command": "sequence",
        "count": len(shapes),
        "window": window,
        "eps": args.eps,
        "delta_matrix": report.delta_matrix.tolist(),
        "cauchy": report.cauchy,
        "first_violation": list(report.first_violation) if report.first_violation else None,
    }
    if limit is not None:
        payload["limit_deltas"] = report.limit_deltas.tolist()
        payload["converges"] = report.converges
    summary = f"cauchy={report.cauchy}"
    if report.converges is not None:
        summary += f", converges={report.converges}"
    return payload, summary, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycomp",
        description="Compression analysis for convex realizations of polytopes.",
        epilog=FILE_FORMATS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a shape file")
    sp.add_argument("shape")
    sp.add_argument("--weak", action="store_true",
                    help="validate in weak mode regardless of the file's mode")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("subdivide", help="barycentric subdivision of a shape")
    sp.add_argument("shape")
    sp.set_defaults(func=cmd_subdivide)

    for name, func, extra_tol in (("classify", cmd_classify, True),
                                  ("edges", cmd_edges, False),
                                  ("distance", cmd_distance, False),
                                  ("order", cmd_order, True),
                                  ("scale", cmd_scale, False),
                                  ("lift", cmd_lift, False)):
        sp = sub.add_parser(name, help=f"{name} for a pair of shapes P, Q")
        sp.add_argument("source")
        sp.add_argument("target")
        if extra_tol:
            sp.add_argument("--tol", type=float, default=1e-9,
                            help="strictness band around 1 (default 1e-9)")
        sp.set_defaults(func=func)

    sp = sub.add_parser("perturb", help="first-order analysis of a vertex velocity field")
    sp.add_argument("shape")
    sp.add_argument("direction", help="matrix file with one velocity row per vertex")
    sp.add_argument("--pair", nargs=2, metavar=("FX", "FY"),
                    help="two points as JSON {\"face\": [...], \"weights\": [...]}"
                         " for a distance derivative")
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("complete", help="orthogonal completion of a contraction")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_complete)

    sp = sub.add_parser("pleat", help="pleated embedding over a tree triangulation")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("--triangulation", required=True,
                    help="triangulation file or fan:APEX for n-gons")
    sp.set_defaults(func=cmd_pleat)

    sp = sub.add_parser("chain", help="coordinate-dropping projection chain")
    sp.add_argument("embedding")
    sp.add_argument("--base-dim", type=int, required=True)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("sequence", help="Cauchy/convergence report for a shape sequence")
    sp.add_argument("shapes", nargs="+",
                    help="shape files, or a single JSON array of shapes")
    sp.add_argument("--limit", help="candidate limit shape file")
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.set_defaults(func=cmd_sequence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, summary, code = args.func(args)
    except ValidationFailure as exc:
        payload = {"error": "ValidationFailure", "message": str(exc)}
        if exc.payload:
            payload["report"] = exc.payload
        summary, code = str(exc), EXIT_VALIDATION
    except VALIDATION_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        summary, code = str(exc), EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        summary, code = str(exc), EXIT_NUMERICAL
    except MalformedInput as exc:
        payload = {"error": "MalformedInput", "message": str(exc)}
        summary, code = str(exc), EXIT_MALFORMED
    print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
