"""Batch command-line front end with stable JSON output.

Every subcommand prints exactly one JSON document on stdout (keys sorted,
floats in shortest round-trip form, no timestamps) and a short human
summary on stderr.  Exit codes: 0 success, otherwise the ``exit_code`` of
the error raised: 1 validation failure, 2 numerical failure, 3 malformed
input or usage error, or a result that cannot be written to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import io
from .errors import MalformedInput, NonFiniteResult, PolycompError
from .polytopes import DEFAULT_TOL, Shape, fan_triangulation, is_tree, triangulation, validate_shape

# Each subcommand imports the modules it runs in its ``cmd_*`` function, so a call
# loads only those.

EXIT_CODES = """\
exit codes: 0 success, 1 validation failure, 2 numerical failure (singular
simplex, not a contraction, infeasible apex, non-finite result), 3 malformed input,
or stdout cannot be written (a closed pipe, a full disk).
"""


class ValidationFailure(PolycompError):
    """A shape failed the validation its command requires; ``payload`` is the report."""

    def __init__(self, message, payload):
        super().__init__(message)
        self.payload = payload


def _require_valid(shape: Shape, label) -> Shape:
    report = validate_shape(shape.polytope, shape.coords, shape.mode)
    if not report.passes(shape.mode):
        raise ValidationFailure(
            f"{label} fails {shape.mode} validation: {report.verdict}",
            payload=report.to_dict())
    return shape


def _checked_shape(path, label) -> Shape:
    return _require_valid(io.load_shape(path), f"{label} ({path})")


def _json_value(obj):
    """``json.dumps`` hook: a numpy array or scalar as the JSON value of its ``tolist``.
    A float64 is a ``float`` and never reaches it, so floats print as Python's."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def cmd_validate(args):
    shape = io.load_shape(args.shape)
    mode = "weak" if args.weak else shape.mode
    report = validate_shape(shape.polytope, shape.coords, mode)
    payload = {"mode": mode, **report.to_dict()}
    summary = f"{args.shape}: {report.verdict} (mode={mode})"
    return payload, summary, 0 if report.passes(mode) else 1


def cmd_subdivide(args):
    from .barycentric import barycentre, barycentric_complex
    shape = _checked_shape(args.shape, "shape")
    complex_ = barycentric_complex(shape.polytope)
    faces = shape.polytope.faces
    t = complex_.simplex_count
    payload = {
        "dimension": shape.polytope.dimension,
        "chain_count": t,
        "faces": faces,
        "vertices": [barycentre(f, shape) for f in faces],
        "simplices": complex_.chain_faces,
        "adjacency": complex_.adjacency,
        "face_pairing_is_tree": is_tree(t, complex_.adjacency),
    }
    summary = f"{t} chain simplices over {len(faces)} faces"
    return payload, summary, 0


def cmd_classify(p, q, args):
    from .barycentric import induced_map
    from .spectral import classify
    result = classify(induced_map(p, q), tol=args.tol)
    payload = {
        "verdict": result.verdict,
        "edge_contracting": result.edge_contracting,
        "alpha_min": result.summary.alpha_min,
        "alpha_max": result.summary.alpha_max,
        "simplex_count": len(result.summary.per_simplex),
        "tol": args.tol,
        "witness": asdict(result.witness),
    }
    summary = (f"{result.verdict} (alpha_max={result.summary.alpha_max:.6g}, "
               f"edge_contracting={result.edge_contracting})")
    return payload, summary, 0


def cmd_edges(p, q, args):
    from .spectral import edge_contraction_check
    report = edge_contraction_check(p, q)
    payload = {
        "edges": [
            {"edge": e, "source_length": sl, "target_length": tl, "ratio": r}
            for e, sl, tl, r in zip(report.edges, report.source_lengths,
                                    report.target_lengths, report.ratios)
        ],
        "all_contracting": report.all_contracting,
    }
    summary = f"{len(report.edges)} edges, all_contracting={report.all_contracting}"
    return payload, summary, 0


def cmd_distance(p, q, args):
    from .metric import per_chain_deltas
    per_chain = per_chain_deltas(p, q)
    payload = {"delta": per_chain.max(), "method": "simplex"}
    if not p.polytope.is_simplex:
        payload.update(method="barycentric", per_chain=per_chain)
    summary = f"delta = {payload['delta']:.12g}"
    return payload, summary, 0


def cmd_order(p, q, args):
    from .spectral import compare_order
    result = compare_order(p, q, tol=args.tol)
    payload = {
        "relation": result.relation,
        "forward_verdict": result.forward.verdict,
        "backward_verdict": result.backward.verdict,
        "forward_alpha_max": result.forward.summary.alpha_max,
        "backward_alpha_max": result.backward.summary.alpha_max,
    }
    return payload, result.relation, 0


def cmd_scale(p, q, args):
    from .spectral import scale_critical
    result = scale_critical(p, q)
    payload = {
        "lambda": result.lam,
        "verdict_after": result.classification.verdict,
        "alpha_max_after": result.classification.summary.alpha_max,
        "witness": asdict(result.classification.witness),
    }
    summary = f"lambda = {result.lam:.12g} -> {result.classification.verdict}"
    return payload, summary, 0


def _parse_point(text, label, n: int):
    from .barycentric import BARY_TOL
    from .spectral import PointOnShape
    doc = io.parse_json(text, f"--pair {label}")
    if not isinstance(doc, dict) or "face" not in doc:
        raise MalformedInput(f"--pair {label}: expected an object with 'face'")
    face = doc["face"]
    if not isinstance(face, list) or any(type(v) is not int for v in face):
        raise MalformedInput(f"--pair {label}: 'face' must list vertex indices")
    if not face or any(not 0 <= v < n for v in face):
        raise MalformedInput(f"--pair {label}: 'face' must list vertex indices in [0, {n})")
    weights = doc.get("weights")
    if weights is not None:
        if not io._finite_numbers(weights, len(face)):
            raise MalformedInput(f"--pair {label}: 'weights' must be finite numbers "
                                 "matching 'face'")
        weights = tuple(float(x) for x in weights)
        if min(weights) < -BARY_TOL or abs(sum(weights) - 1.0) > BARY_TOL:
            raise MalformedInput(f"--pair {label}: 'weights' must be nonnegative and sum "
                                 f"to 1 (within {BARY_TOL:g})")
    return PointOnShape(face=tuple(face), weights=weights)


def cmd_perturb(args):
    from .spectral import distance_derivative, perturbation_classify
    p = _checked_shape(args.shape, "P")
    v = io.load_matrix(args.direction)
    if v.shape != p.coords.shape:
        raise MalformedInput(
            f"{args.direction}: matrix must be {p.coords.shape[0]} x "
            f"{p.coords.shape[1]} (one velocity row per vertex)")
    payload = {}
    summary_parts = []
    if p.polytope.is_simplex:
        result = perturbation_classify(p, v)
        payload.update({
            "eigenvalues": result.eigenvalues,
            "max_eigenvalue": result.eigenvalues[-1],
            "infinitesimal_weak_compression": result.infinitesimal_weak_compression,
        })
        summary_parts.append(
            f"infinitesimal weak compression: {result.infinitesimal_weak_compression}")
    if args.pair:
        x = _parse_point(args.pair[0], "first point", p.polytope.vertex_count)
        y = _parse_point(args.pair[1], "second point", p.polytope.vertex_count)
        deriv = distance_derivative(p, v, x, y)
        payload["pair_derivative"] = deriv
        summary_parts.append(f"d/dt distance = {deriv:.9g}")
    if not payload:
        raise MalformedInput("perturb on a non-simplex shape needs --pair")
    return payload, "; ".join(summary_parts), 0


def cmd_complete(args):
    from .lifting import orthogonal_completion
    m = io.load_matrix(args.matrix)
    if m.shape[0] != m.shape[1]:
        raise MalformedInput(f"{args.matrix}: matrix must be square")
    comp = orthogonal_completion(m)
    residual = np.abs(comp.U.T @ comp.U - np.eye(2 * m.shape[0])).max()
    payload = {"dimension": m.shape[0], **asdict(comp), "orthogonality_residual": residual}
    return payload, f"orthogonality residual {residual:.3g}", 0


def _pleat_payload(p, q, tri):
    """The pleated embedding's payload, with its ``pleat_validity`` report."""
    from .lifting import pleat_validity, pleated_embedding
    pe = pleated_embedding(p, q, tri)
    report = pleat_validity(pe)
    payload = {
        "ambient_dimension": pe.ambient_dimension,
        "vertices": pe.coords,
        "simplices": tri.simplices,
        "isometry_residual": report.max_isometry_residual,
        "projection_residual": report.projection_residual,
    }
    return payload, report


def cmd_lift(p, q, args):
    if not p.polytope.is_simplex:
        raise MalformedInput("lift applies to simplex shapes; use pleat for polytopes")
    d = p.polytope.dimension
    payload, report = _pleat_payload(p, q, triangulation(p.polytope, [range(d + 1)]))
    summary = f"lifted to R^{2 * d}; isometry residual {report.max_isometry_residual:.3g}"
    return payload, summary, 0


def cmd_pleat(p, q, args):
    spec = args.triangulation
    if spec.startswith("fan:"):
        try:
            apex = int(spec[4:])
        except ValueError as exc:
            raise MalformedInput(f"--triangulation: bad fan apex in '{spec}'") from exc
        n = p.polytope.vertex_count
        if p.polytope.dimension != 2 or not 0 <= apex < n:
            raise MalformedInput(f"--triangulation: '{spec}' needs an n-gon apex in [0, {n})")
        tri = fan_triangulation(p.polytope, apex)
    else:
        tri = io.load_triangulation(spec, p.polytope)
    payload, report = _pleat_payload(p, q, tri)
    payload["facet_folds"] = [
        {"simplices": f.simplices, "shared": f.shared_vertices, "dihedral": f.dihedral}
        for f in report.facet_folds
    ]
    payload["ridge_angle_sums"] = [
        {"vertices": r.vertices, "angle_sum": r.angle_sum,
         "strictly_below_pi": r.strictly_below_pi}
        for r in report.ridge_angle_sums
    ]
    summary = (f"pleated into R^{payload['ambient_dimension']}; isometry residual "
               f"{report.max_isometry_residual:.3g}")
    return payload, summary, 0


def cmd_chain(args):
    from .lifting import projection_chain
    big_d, coords, simplices = io.load_embedding(args.embedding)
    d = args.base_dim
    if not 1 <= d <= big_d:
        raise MalformedInput("--base-dim must be between 1 and the ambient dimension")
    if any(len(s) != d + 1 for s in simplices):
        raise MalformedInput(f"{args.embedding}: every simplex must list base-dim + 1 "
                             f"= {d + 1} vertex indices")
    chain = projection_chain(coords, d, simplices)
    alphas = [s.alpha_max_vs_prev for s in chain.stages if s.alpha_max_vs_prev is not None]
    payload = {
        "base_dimension": d,
        "stages": [
            {"ambient_dimension": s.ambient_dimension,
             "vertices": s.coords,
             "alpha_max_vs_prev": s.alpha_max_vs_prev}
            for s in chain.stages
        ],
        "max_alpha_vs_prev": max(alphas) if alphas else None,
    }
    summary = f"{len(chain.stages)} stages down to R^{d}"
    return payload, summary, 0


def cmd_sequence(args):
    from .metric import sequence_report
    paths = args.shapes
    if len(paths) == 1:
        shapes = io.load_shapes(paths[0])
    else:
        shapes = [io.load_shape(pth) for pth in paths]
    if len(shapes) < 2:
        raise MalformedInput("sequence needs at least two shapes")
    for i, s in enumerate(shapes):
        _require_valid(s, f"shape {i}")
    window = len(shapes) // 2
    limit = _checked_shape(args.limit, "limit") if args.limit else None
    report = sequence_report(shapes, window=window, eps=args.eps, limit=limit)
    payload = {
        "count": len(shapes),
        "window": window,
        "eps": args.eps,
        "delta_matrix": report.delta_matrix,
        "cauchy": report.cauchy,
        "first_violation": report.first_violation,
    }
    if limit is not None:
        payload["limit_deltas"] = report.limit_deltas
        payload["converges"] = report.converges
    summary = f"cauchy={report.cauchy}"
    if report.converges is not None:
        summary += f", converges={report.converges}"
    return payload, summary, 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``MalformedInput``, so they exit 3 with one JSON document."""

    def error(self, message):
        raise MalformedInput(f"{self.prog}: {message}")


def _float_type(accept, requirement: str):
    """argparse ``type``: a float that ``accept`` admits (NaN fails every comparison)."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polycomp",
        description="Compression analysis for convex realizations of polytopes.",
        epilog=(io.__doc__ or "") + EXIT_CODES,  # io's docstring lists the file formats
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

    for name, func, extra_tol, text in (
            ("classify", cmd_classify, True, None), ("edges", cmd_edges, False, None),
            ("distance", cmd_distance, False, None), ("order", cmd_order, True, None),
            ("scale", cmd_scale, False, None), ("lift", cmd_lift, False, None),
            ("pleat", cmd_pleat, False, "pleated embedding over a tree triangulation")):
        sp = sub.add_parser(name, help=text or f"{name} for a pair of shapes P, Q")
        sp.add_argument("source")
        sp.add_argument("target")
        if extra_tol:
            sp.add_argument("--tol", default=DEFAULT_TOL,
                            help="strictness band around 1 (default %(default)s)",
                            type=_float_type(lambda t: 0 <= t < np.inf, "a finite number >= 0"))
        sp.set_defaults(func=func)
    sp.add_argument("--triangulation", required=True,  # pleat's, the last of the loop
                    help="triangulation file or fan:APEX for n-gons")

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

    sp = sub.add_parser("chain", help="coordinate-dropping projection chain")
    sp.add_argument("embedding")
    sp.add_argument("--base-dim", type=int, required=True)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("sequence", help="Cauchy/convergence report for a shape sequence")
    sp.add_argument("shapes", nargs="+",
                    help="shape files, or a single JSON array of shapes")
    sp.add_argument("--limit", help="candidate limit shape file")
    sp.add_argument("--eps", default=1e-3,
                    type=_float_type(lambda e: 0 < e < np.inf, "a finite number > 0"))
    sp.set_defaults(func=cmd_sequence)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # A pair subcommand's P, then Q, is loaded and validated here, for all of them.
        pair = ((_checked_shape(args.source, "P"), _checked_shape(args.target, "Q"))
                if "target" in args else ())
        payload, summary, code = args.func(*pair, args)
        payload["command"] = args.command
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False, default=_json_value)
        except ValueError as exc:  # NaN and Infinity are not JSON
            raise NonFiniteResult(f"{args.command}: a result is not a finite number") from exc
    except PolycompError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationFailure):
            payload["report"] = exc.payload
        summary, code = str(exc), exc.exit_code
        text = json.dumps(payload, sort_keys=True, default=_json_value)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:  # stdout becomes the null device, so the exit's flush prints nothing
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        summary, code = f"cannot write the result to stdout: {exc}", 3
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
