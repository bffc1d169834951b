"""The four workloads: one job each, the checks of its outputs, its work counts.

A job calls the public API through ``call(fn, *args)``, which the worker
either forwards directly or wraps in a span, so traced and untraced runs make
exactly the same calls.  ``pc`` is a namespace of the imported polycomp
modules, so this file can be imported without importing polycomp.
"""

from __future__ import annotations

import numpy as np

import oracle

STRICT = "strictly-convex"
WEAK = "weakly-convex"


def _load_and_validate(call, pc, doc):
    shape = call(pc.io.shape_from_dict, doc)
    report = call(pc.polytopes.validate_shape, shape.polytope, shape.coords, shape.mode)
    return shape, report


def _passes(shape, report) -> bool:
    return report.is_strict if shape.mode == "strict" else report.is_weak


def _coords(doc) -> np.ndarray:
    return np.array(doc["vertices"], float)


def _report_errors(label, report, verdict, nonextreme=None) -> list[str]:
    errs = []
    if report.verdict != verdict:
        errs.append(f"{label}: verdict {report.verdict}, built as {verdict}")
    want = [i != nonextreme for i in range(len(report.vertex_extreme))]
    if list(report.vertex_extreme) != want:
        got = [i for i, e in enumerate(report.vertex_extreme) if not e]
        errs.append(f"{label}: non-extreme vertices {got}, built with "
                    f"{[] if nonextreme is None else [nonextreme]}")
    return errs


def _close(label, got, want, rtol=1e-8, atol=1e-12) -> list[str]:
    if oracle.close(got, want, rtol, atol):
        return []
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, oracle {want.shape}"]
    worst = float(np.max(np.abs(got - want)))
    return [f"{label}: differs from the oracle by up to {worst:.3g}"]


def _classification_errors(label, cl, spec, edges, p, q) -> list[str]:
    per = np.asarray(cl.summary.per_simplex)
    amax = spec["alpha_max"]
    errs = _close(f"{label} per-chain alpha_max", per[:, -1], amax)
    errs += _close(f"{label} per-chain alpha_min", per[:, 0], spec["alpha_min"],
                   atol=1e-12 * amax.max())
    if cl.verdict != oracle.verdict(amax):
        errs.append(f"{label}: verdict {cl.verdict}, oracle {oracle.verdict(amax)}")
    ratios = oracle.edge_ratios(p, q, edges)
    if cl.edge_contracting != bool((ratios < 1.0 - oracle.TOL).all()):
        errs.append(f"{label}: edge_contracting {cl.edge_contracting} disagrees with edge ratios")
    errs += _close(f"{label} witness ratio^2", cl.witness.ratio**2, amax.max(), rtol=1e-7)
    return errs


# pairs-cube4 ---------------------------------------------------------------

def job_pairs(call, pc, inp):
    p, rp = _load_and_validate(call, pc, inp["P"])
    q, rq = _load_and_validate(call, pc, inp["Q"])
    out = {"reports": (rp, rq)}
    if _passes(p, rp) and _passes(q, rq):
        out["classify"] = call(pc.spectral.classify, call(pc.barycentric.induced_map, p, q))
        out["order"] = call(pc.spectral.compare_order, p, q)
        out["scale"] = call(pc.spectral.scale_critical, p, q)
        out["delta"] = call(pc.metric.delta_polytope, p, q)
        out["per_chain"] = call(pc.metric.per_chain_deltas, p, q)
    return out


def _relation(forward_weak: bool, backward_weak: bool) -> str:
    if forward_weak and backward_weak:
        return "both"
    if forward_weak:
        return "P<=Q"
    return "Q<=P" if backward_weak else "incomparable"


def _pair_expectations(p, q):
    spec = oracle.chain_spectrum(oracle.complex_for("cube", 4), p, q)
    backward = 1.0 / spec["alpha_min"]
    relation = _relation(oracle.verdict(spec["alpha_max"]) != oracle.NOT_WEAK_COMPRESSION,
                         oracle.verdict(backward) != oracle.NOT_WEAK_COMPRESSION)
    return spec, backward, relation


def check_pairs(inp, out) -> list[str]:
    p, q = _coords(inp["P"]), _coords(inp["Q"])
    errs = (_report_errors("P", out["reports"][0], STRICT)
            + _report_errors("Q", out["reports"][1], STRICT))
    if errs:
        return errs
    spec, backward, relation = _pair_expectations(p, q)
    cl = out["classify"]
    errs += _classification_errors("classify", cl, spec, oracle.cube_edges(4), p, q)
    if cl.verdict != inp["verdict"]:
        errs.append(f"classify: verdict {cl.verdict}, built as {inp['verdict']}")
    order = out["order"]
    if order.relation != relation:
        errs.append(f"compare_order: relation {order.relation}, spectra give {relation}")
    errs += _close("compare_order forward alpha_max", order.forward.summary.alpha_max,
                   spec["alpha_max"].max())
    errs += _close("compare_order backward alpha_max", order.backward.summary.alpha_max,
                   backward.max())
    sc = out["scale"]
    errs += _close("scale_critical alpha_max_after", sc.classification.summary.alpha_max, 1.0,
                   rtol=0.0, atol=1e-9)
    errs += _close("scale_critical lambda", sc.lam, 1.0 / np.sqrt(spec["alpha_max"].max()))
    if sc.classification.verdict != oracle.WEAK_COMPRESSION:
        errs.append(f"scale_critical: verdict after {sc.classification.verdict}")
    errs += _close("delta_polytope", out["delta"], spec["delta"].max(), rtol=1e-7)
    errs += _close("per_chain_deltas", out["per_chain"], spec["delta"], rtol=1e-7, atol=1e-10)
    return errs


def work_pairs(inp):
    return {"chains": inp["chains"], "vertices_validated": 2 * inp["n"],
            "delta_pairs": 0, "restricted_svds": 0}


def cli_pairs(inp, sub):
    p, q = _coords(inp["P"]), _coords(inp["Q"])
    spec, backward, relation = _pair_expectations(p, q)
    amax = float(spec["alpha_max"].max())
    checks = {
        "classify": [("eq", ["verdict"], inp["verdict"]),
                     ("close", ["alpha_max"], amax),
                     ("close", ["alpha_min"], float(spec["alpha_min"].min())),
                     ("eq", ["simplex_count"], inp["chains"])],
        "order": [("eq", ["relation"], relation),
                  ("close", ["forward_alpha_max"], amax),
                  ("close", ["backward_alpha_max"], float(backward.max()))],
        "scale": [("eq", ["verdict_after"], oracle.WEAK_COMPRESSION),
                  ("close", ["alpha_max_after"], 1.0),
                  ("close", ["lambda"], float(1.0 / np.sqrt(amax)))],
        "distance": [("close", ["delta"], float(spec["delta"].max())),
                     ("close", ["per_chain"], spec["delta"].tolist())],
    }[sub]
    return {"code": 0, "checks": checks}


# validate-ngon -------------------------------------------------------------

def job_validate(call, pc, inp):
    p, rp = _load_and_validate(call, pc, inp["P"])
    q, rq = _load_and_validate(call, pc, inp["Q"])
    out = {"reports": (rp, rq), "passed": (_passes(p, rp), _passes(q, rq))}
    if all(out["passed"]):
        out["classify"] = call(pc.spectral.classify, call(pc.barycentric.induced_map, p, q))
        out["edges"] = call(pc.spectral.edge_contraction_check, p, q)
    return out


def check_validate(inp, out) -> list[str]:
    errs = _report_errors("P", out["reports"][0], inp["p_class"], inp["p_nonextreme"])
    errs += _report_errors("Q", out["reports"][1], STRICT)
    if out["passed"] != (inp["p_class"] != "invalid", True):
        errs.append(f"validation pass/fail {out['passed']} disagrees with class {inp['p_class']}")
    if errs or "classify" not in out:
        return errs
    p, q = _coords(inp["P"]), _coords(inp["Q"])
    edges = sorted(tuple(sorted(e)) for e in oracle.ngon_facets(inp["n"]))
    spec = oracle.chain_spectrum(oracle.complex_for("ngon", inp["n"]), p, q)
    errs += _classification_errors("classify", out["classify"], spec, edges, p, q)
    report = out["edges"]
    if [tuple(e) for e in report.edges] != edges:
        errs.append("edge_contraction_check: edge list differs from the polygon's edges")
    else:
        errs += _close("edge ratios", report.ratios, oracle.edge_ratios(p, q, edges))
    return errs


def work_validate(inp):
    return {"chains": inp["chains"], "vertices_validated": 2 * inp["n"],
            "delta_pairs": 0, "restricted_svds": 0}


def cli_validate(inp, sub):
    if inp["p_class"] == "invalid":
        extreme = [i != inp["p_nonextreme"] for i in range(inp["n"])]
        return {"code": 1, "checks": [("eq", ["error"], "ValidationFailure"),
                                      ("eq", ["report", "verdict"], "invalid"),
                                      ("eq", ["report", "vertex_extreme"], extreme)]}
    p, q = _coords(inp["P"]), _coords(inp["Q"])
    spec = oracle.chain_spectrum(oracle.complex_for("ngon", inp["n"]), p, q)
    return {"code": 0, "checks": [("eq", ["verdict"], oracle.verdict(spec["alpha_max"])),
                                  ("close", ["alpha_max"], float(spec["alpha_max"].max())),
                                  ("eq", ["simplex_count"], inp["chains"])]}


# sequence-octagon ----------------------------------------------------------

def job_sequence(call, pc, inp):
    loaded = [_load_and_validate(call, pc, doc) for doc in inp["members"] + [inp["limit"]]]
    out = {"reports": [r for _, r in loaded]}
    if all(_passes(s, r) for s, r in loaded):
        shapes = [s for s, _ in loaded]
        out["report"] = call(pc.metric.sequence_report, shapes[:-1], window=inp["window"],
                             eps=inp["eps"], limit=shapes[-1])
    return out


def _sequence_expectations(inp):
    matrix, limit_deltas = oracle.family_deltas(
        oracle.complex_for("ngon", 8), [_coords(d) for d in inp["members"]], _coords(inp["limit"]))
    ii, jj = np.triu_indices(len(matrix), k=1)
    first = next(([int(a), int(b)] for a, b in zip(ii, jj)
                  if a >= inp["window"] and matrix[a, b] >= inp["eps"]), None)
    return matrix, limit_deltas, first


def check_sequence(inp, out) -> list[str]:
    errs = []
    for i, report in enumerate(out["reports"][:-1]):
        errs += _report_errors(f"member {i}", report, STRICT)
    errs += _report_errors("limit", out["reports"][-1], WEAK, inp["limit_nonextreme"])
    if errs:
        return errs
    rep = out["report"]
    if rep.cauchy != inp["cauchy"] or rep.converges != inp["converges"]:
        errs.append(f"sequence_report: cauchy={rep.cauchy} converges={rep.converges}, built as "
                    f"cauchy={inp['cauchy']} converges={inp['converges']}")
    matrix, limit_deltas, first = _sequence_expectations(inp)
    errs += _close("delta_matrix", rep.delta_matrix, matrix, rtol=1e-7, atol=1e-10)
    errs += _close("limit_deltas", rep.limit_deltas, limit_deltas, rtol=1e-7, atol=1e-10)
    got_first = None if rep.first_violation is None else list(rep.first_violation)
    if got_first != first:
        errs.append(f"sequence_report: first violation {got_first}, oracle {first}")
    return errs


def work_sequence(inp):
    k = inp["K"]
    return {"chains": 0, "vertices_validated": 8 * (k + 1),
            "delta_pairs": k * (k - 1) // 2 + k, "restricted_svds": 0}


def cli_sequence(inp, sub):
    _, limit_deltas, first = _sequence_expectations(inp)
    return {"code": 0, "checks": [("eq", ["cauchy"], inp["cauchy"]),
                                  ("eq", ["converges"], inp["converges"]),
                                  ("eq", ["first_violation"], first),
                                  ("close", ["limit_deltas"], limit_deltas.tolist())]}


# pleat-ngon ----------------------------------------------------------------

RESIDUAL_TOL = 1e-9


def job_pleat(call, pc, inp):
    p, rp = _load_and_validate(call, pc, inp["P"])
    q, rq = _load_and_validate(call, pc, inp["Q"])
    out = {"reports": (rp, rq)}
    if _passes(p, rp) and _passes(q, rq):
        tri = call(pc.polytopes.fan_triangulation, p.polytope, 0)
        pe = call(pc.lifting.pleated_embedding, p, q, tri)
        out.update(tri=tri, pleat=call(pc.lifting.pleat_validity, pe),
                   chain=call(pc.lifting.pleated_projection_chain, pe))
    return out


def check_pleat(inp, out) -> list[str]:
    errs = (_report_errors("P", out["reports"][0], STRICT)
            + _report_errors("Q", out["reports"][1], STRICT))
    if errs:
        return errs
    n = inp["n"]
    if list(out["tri"].simplices) != oracle.fan_simplices(n):
        errs.append("fan_triangulation: simplices differ from the fan from vertex 0")
        return errs
    pleat, chain = out["pleat"], out["chain"]
    for label, value in (("isometry residual", pleat.max_isometry_residual),
                         ("projection residual", pleat.projection_residual),
                         ("final residual", chain.final_residual)):
        if not value <= RESIDUAL_TOL:
            errs.append(f"pleat: {label} {value:.3g} exceeds {RESIDUAL_TOL}")
    if len(chain.stages) != 2 * (n - 2) + 1:
        errs.append(f"projection chain: {len(chain.stages)} stages, expected {2 * (n - 2) + 1}")
    worst = max(s.alpha_max_vs_prev for s in chain.stages[1:])
    if not worst <= 1.0 + oracle.TOL:
        errs.append(f"projection chain: a stage has alpha_vs_prev {worst!r} > 1")
    fan = oracle.fan_spectrum(_coords(inp["P"]), _coords(inp["Q"]))
    errs += _close("final stage alpha vs source", chain.stages[-1].per_simplex_alpha_vs_source,
                   fan["alpha_max"], rtol=1e-7)
    return errs


def work_pleat(inp):
    t = inp["triangles"]
    # The d(t+1)-dimensional embedding (d = 2) has 2t + 1 stages down to R^2;
    # each measures every simplex against the source, and all but the first
    # also against the previous stage.
    return {"chains": 0, "vertices_validated": 2 * inp["n"],
            "delta_pairs": 0, "restricted_svds": t * (2 * (2 * t) + 1)}


def cli_pleat(inp, sub):
    return {"code": 0, "checks": [("le", ["isometry_residual"], RESIDUAL_TOL),
                                  ("le", ["projection_residual"], RESIDUAL_TOL),
                                  ("eq", ["ambient_dimension"], 2 * (inp["triangles"] + 1))]}


WORKLOADS = {
    "pairs-cube4": (job_pairs, check_pairs, work_pairs, cli_pairs),
    "validate-ngon": (job_validate, check_validate, work_validate, cli_validate),
    "sequence-octagon": (job_sequence, check_sequence, work_sequence, cli_sequence),
    "pleat-ngon": (job_pleat, check_pleat, work_pleat, cli_pleat),
}
