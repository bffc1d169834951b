"""End-to-end CLI checks: JSON payloads, exit codes, golden outputs."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_runs import GOLDEN_RUNS, SUBCOMMANDS, golden_args

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    """``polycomp *args`` run in this process, with its exit code, stdout and stderr."""
    from polycomp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # --help
            code = exc.code
    return subprocess.CompletedProcess(["polycomp", *args], code, out.getvalue(), err.getvalue())


def test_python_m_polycomp_runs_the_cli():
    """The module entry point in a process of its own: a golden, byte for byte, and a
    usage error, exit 3 with one JSON document."""
    def run(*args):
        return subprocess.run([sys.executable, "-m", "polycomp", *args],
                              capture_output=True, text=True)

    proc = run("classify", str(DATA / "P.json"), str(DATA / "Q.json"))
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "golden_classify.json").read_text(encoding="utf-8")
    proc = run("bogus")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "MalformedInput"


def subdivide_to(stdout):
    """``python -m polycomp subdivide`` in a process of its own, writing to ``stdout``,
    which cannot be written: exit 3 with one line on stderr and no traceback, also none
    from the interpreter's final flush."""
    proc = subprocess.run([sys.executable, "-m", "polycomp", "subdivide",
                           str(DATA / "square.json")], stdout=stdout, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("cannot write the result to stdout: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_closed_stdout_pipe_exits_3_without_a_traceback():
    read, write = os.pipe()
    os.close(read)  # before the child starts
    try:
        subdivide_to(write)
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_stdout_exits_3_without_a_traceback():
    with open("/dev/full", "w") as full:
        subdivide_to(full)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def square_doc(scale=1.0, mode="strict"):
    return {
        "dimension": 2, "vertex_count": 4,
        "facets": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "vertices": (scale * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                       [0.0, 1.0]])).tolist(),
        "mode": mode,
    }


def test_validate_ok():
    proc = run_cli("validate", str(DATA / "P.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "strictly-convex"


def test_validate_failure_exit_code(tmp_path):
    doc = square_doc()
    doc["vertices"][2] = [0.2, 0.2]  # reflex corner
    path = write_json(tmp_path / "bad.json", doc)
    proc = run_cli("validate", path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "invalid"


def test_validate_weak_flag(tmp_path):
    # strict-mode file that is only weakly convex: fails strict, passes --weak
    doc = square_doc()
    doc["vertices"] = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
    path = write_json(tmp_path / "flat.json", doc)
    proc = run_cli("validate", path)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "weakly-convex"
    proc = run_cli("validate", path, "--weak")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "weakly-convex"


def test_malformed_input_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("validate", str(path))
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "MalformedInput"
    proc = run_cli("validate", str(tmp_path / "missing.json"))
    assert proc.returncode == 3


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_coordinate_is_malformed(tmp_path, literal):
    doc = square_doc()
    doc["vertices"][2][1] = float(literal)
    bad = write_json(tmp_path / "bad.json", doc)  # json writes NaN / Infinity
    assert literal in (tmp_path / "bad.json").read_text(encoding="utf-8")
    proc = run_cli("classify", bad, write_json(tmp_path / "good.json", square_doc()))
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["error"] == "MalformedInput"
    assert "vertices[2]" in payload["message"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["complete", "chain"])
def test_non_finite_matrix_or_embedding_is_malformed(tmp_path, command, literal):
    bad = float(literal)
    if command == "complete":
        args = [write_json(tmp_path / "M.json",
                           {"rows": 2, "cols": 2, "data": [0.5, 0.0, bad, 0.5]})]
        field = "data"
    else:
        doc = {"ambient_dimension": 3, "simplices": [[0, 1, 2]],
               "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, bad, 0.5]]}
        args = [write_json(tmp_path / "E.json", doc), "--base-dim", "2"]
        field = "vertices[2]"
    proc = run_cli(command, *args)
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["error"] == "MalformedInput"
    assert field in payload["message"]
    assert "Traceback" not in proc.stderr


def test_schema_error_names_field(tmp_path):
    doc = square_doc()
    del doc["facets"]
    path = write_json(tmp_path / "nofacets.json", doc)
    proc = run_cli("validate", path)
    assert proc.returncode == 3
    assert "facets" in json.loads(proc.stdout)["message"]


PIPELINE = ["classify", "edges", "distance", "scale"]


def golden_run(name):
    """Run ``name`` of ``GOLDEN_RUNS`` in process; it must print its golden byte for byte
    and exit with its code."""
    golden, _, code = GOLDEN_RUNS[name]
    proc = run_cli(*golden_args(name))
    assert proc.returncode == code
    assert proc.stdout == (DATA / golden).read_text(encoding="utf-8")
    return proc


@pytest.mark.parametrize("name", PIPELINE)
def test_golden_counterexample_pipeline(name):
    proc = golden_run(name)
    # byte-stable across runs
    again = run_cli(*golden_args(name))
    assert again.stdout == proc.stdout


@pytest.mark.parametrize("name", sorted(set(SUBCOMMANDS) - set(PIPELINE)))
def test_golden_subcommand(name):
    golden_run(name)


@pytest.mark.parametrize("name", sorted(set(GOLDEN_RUNS) - set(SUBCOMMANDS)))
def test_extra_goldens(name):
    golden_run(name)


PAIR_COMMANDS = {"classify": [], "edges": [], "distance": [], "order": [], "scale": [],
                 "lift": [], "pleat": ["--triangulation", "fan:0"]}


@pytest.mark.parametrize("name", sorted(PAIR_COMMANDS))
def test_pair_commands_validate_p_then_q(tmp_path, name):
    """Every pair subcommand loads and validates P before it reads Q: an invalid P
    fails with Q's file missing, and a valid P with an invalid Q names Q."""
    reflex = square_doc()
    reflex["vertices"][2] = [0.2, 0.2]
    bad = write_json(tmp_path / "reflex.json", reflex)
    good = write_json(tmp_path / "square.json", square_doc())
    for p, q, label in ((bad, str(tmp_path / "missing.json"), "P"), (good, bad, "Q")):
        proc = run_cli(name, p, q, *PAIR_COMMANDS[name])
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["error"] == "ValidationFailure"
        assert payload["message"].startswith(f"{label} ({tmp_path}")
        assert payload["report"]["verdict"] == "invalid"


def test_classify_verdict_payload():
    proc = run_cli("classify", str(DATA / "P.json"), str(DATA / "Q.json"))
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "NotWeakCompression"
    assert payload["edge_contracting"] is True


def test_distance_homothety_is_zero(tmp_path):
    a = write_json(tmp_path / "a.json", square_doc(1.0))
    b = write_json(tmp_path / "b.json", square_doc(3.0))
    proc = run_cli("distance", a, b)
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["delta"]) <= 1e-10


def test_distance_computes_the_chain_deltas_once(monkeypatch, capsys):
    from polycomp import cli, metric

    calls, log_spread = [], metric._log_spread

    def counted(*args):
        calls.append(args)
        return log_spread(*args)

    monkeypatch.setattr(metric, "_log_spread", counted)
    assert cli.main(["distance", str(DATA / "square.json"), str(DATA / "square_half.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert payload["method"] == "barycentric" and payload["delta"] == max(payload["per_chain"])


def test_order_command(tmp_path):
    a = write_json(tmp_path / "a.json", square_doc(1.0))
    b = write_json(tmp_path / "b.json", square_doc(0.5))
    proc = run_cli("order", a, b)
    assert json.loads(proc.stdout)["relation"] == "P<=Q"


def test_complete_three_four_five():
    proc = run_cli("complete", str(DATA / "M.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    u = np.array(payload["U"])
    assert np.abs(np.abs(u) - np.array([[0.6, 0.8], [0.8, 0.6]])).max() <= 1e-12
    assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-10


def test_complete_rejects_expansion(tmp_path):
    path = write_json(tmp_path / "m.json", {"rows": 1, "cols": 1, "data": [1.5]})
    proc = run_cli("complete", path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "NotContraction"


def test_complete_rejects_an_overflowing_gram(tmp_path):
    # M^T M overflows, so its top eigenvalue reads inf: a NotContraction, not a numpy error.
    path = write_json(tmp_path / "m.json", {"rows": 2, "cols": 2, "data": [1e300, 0, 0, 1e-300]})
    proc = run_cli("complete", path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout, parse_constant=reject_constant) == {
        "error": "NotContraction", "message": "alpha_max = inf is not at most 1"}
    assert "Traceback" not in proc.stderr


def test_classify_degenerate_exit_code(tmp_path):
    doc = square_doc()
    doc["mode"] = "weak"
    doc["vertices"][1] = [1e-12, 0.0]  # collides with vertex 0
    bad = write_json(tmp_path / "dup.json", doc)
    good = write_json(tmp_path / "good.json", square_doc())
    proc = run_cli("classify", bad, good)
    assert proc.returncode == 1  # DuplicateVertex during validation
    doc2 = square_doc()
    doc2["vertices"][2] = [1.0 + 5e-10, 1.0]  # perturbed but still valid
    near = write_json(tmp_path / "near.json", doc2)
    proc = run_cli("classify", near, good)
    assert proc.returncode == 0


def test_lift_and_chain_roundtrip(tmp_path):
    tri_doc = {
        "dimension": 2, "vertex_count": 3,
        "facets": [[0, 1], [1, 2], [0, 2]],
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "mode": "strict",
    }
    p = write_json(tmp_path / "p.json", tri_doc)
    qdoc = dict(tri_doc)
    qdoc["vertices"] = (0.7 * np.array(tri_doc["vertices"])).tolist()
    q = write_json(tmp_path / "q.json", qdoc)
    proc = run_cli("lift", p, q)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ambient_dimension"] == 4
    assert payload["isometry_residual"] <= 1e-9
    emb = write_json(tmp_path / "emb.json", payload)
    proc = run_cli("chain", emb, "--base-dim", "2")
    assert proc.returncode == 0
    chain = json.loads(proc.stdout)
    dims = [s["ambient_dimension"] for s in chain["stages"]]
    assert dims == [4, 3, 2]
    assert chain["max_alpha_vs_prev"] <= 1.0 + 1e-9


def test_pleat_fan_and_file(tmp_path):
    p = write_json(tmp_path / "p.json", square_doc(1.0))
    q = write_json(tmp_path / "q.json", square_doc(0.8))
    proc = run_cli("pleat", p, q, "--triangulation", "fan:0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ambient_dimension"] == 6
    assert payload["projection_residual"] <= 1e-10

    tri = write_json(tmp_path / "tri.json", {"simplices": [[0, 1, 2], [0, 2, 3]]})
    proc2 = run_cli("pleat", p, q, "--triangulation", tri)
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout)["vertices"] == payload["vertices"]


def test_pleat_rejects_expansion(tmp_path):
    p = write_json(tmp_path / "p.json", square_doc(1.0))
    q = write_json(tmp_path / "q.json", square_doc(1.4))
    proc = run_cli("pleat", p, q, "--triangulation", "fan:0")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "NotContraction"


def test_subdivide_roundtrip_parses_as_triangulation(tmp_path):
    p = write_json(tmp_path / "p.json", square_doc(1.0))
    proc = run_cli("subdivide", p)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["chain_count"] == 8
    assert payload["face_pairing_is_tree"] is False  # B(n-gon) duals are cycles
    # the output is ingestible as a triangulation file; its simplices index
    # barycentre vertices, so pleat rejects it for the original polytope
    # with a clear schema error rather than silently misreading it
    tri = write_json(tmp_path / "sub.json", {"simplices": payload["simplices"]})
    q = write_json(tmp_path / "q.json", square_doc(0.8))
    proc2 = run_cli("pleat", p, q, "--triangulation", tri)
    assert proc2.returncode == 3
    assert "simplices" in json.loads(proc2.stdout)["message"]


def test_perturb_with_pair(tmp_path):
    rhombus = {
        "dimension": 2, "vertex_count": 4,
        "facets": [[0, 1], [1, 2], [2, 3], [3, 0]],
        "vertices": [[-2.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, -1.0]],
        "mode": "strict",
    }
    p = write_json(tmp_path / "rhombus.json", rhombus)
    flex = {"rows": 4, "cols": 2,
            "data": [1.0, 0.0, 0.0, 2.0, -1.0, 0.0, 0.0, -2.0]}  # s = -1
    v = write_json(tmp_path / "flex.json", flex)
    proc = run_cli("perturb", p, v, "--pair",
                   '{"face": [0]}', '{"face": [2, 3]}')
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pair_derivative"] == pytest.approx(-4 / np.sqrt(9.25), abs=1e-5)


def test_perturb_accepts_barycentric_weights(capsys):
    from polycomp import cli

    def derivative(first):
        assert cli.main(["perturb", P_, V_, "--pair", first, '{"face": [2]}']) == 0
        return json.loads(capsys.readouterr().out)["pair_derivative"]

    midpoint = derivative('{"face": [0, 1]}')
    assert derivative('{"face": [0, 1], "weights": [0.5, 0.5]}') == midpoint
    # Within the 1e-9 tolerance: a vertex given with rounding noise.
    vertex = derivative('{"face": [0]}')
    assert derivative('{"face": [0, 1], "weights": [1.0000000005, -5e-10]}') == pytest.approx(
        vertex, abs=1e-6)


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_perturb_non_finite_weights_are_malformed(tmp_path, literal):
    p = write_json(tmp_path / "square.json", square_doc())
    v = write_json(tmp_path / "V.json", {"rows": 4, "cols": 2, "data": [0.0] * 8})
    proc = run_cli("perturb", p, v, "--pair",
                   f'{{"face": [0, 1], "weights": [{literal}, 0.5]}}', '{"face": [2]}')
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["error"] == "MalformedInput"
    assert "weights" in payload["message"]


POINTS_3D = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0]]


@pytest.mark.parametrize("simplices,field", [
    (5, "'simplices'"),
    ([], "'simplices'"),
    ([[]], "base-dim + 1"),
    ([[0]], "base-dim + 1"),
    ([[0, 1, 2, 3, 4]], "base-dim + 1"),
    ([[0, 1, 2], [0, 1, 2, 3]], "base-dim + 1"),
], ids=["int", "empty", "empty-simplex", "one-vertex", "five-vertices", "mixed-sizes"])
def test_chain_rejects_malformed_simplices(tmp_path, simplices, field):
    doc = {"ambient_dimension": 3, "vertices": POINTS_3D, "simplices": simplices}
    proc = run_cli("chain", write_json(tmp_path / "E.json", doc), "--base-dim", "2")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)  # exactly one JSON document
    assert payload["error"] == "MalformedInput"
    assert field in payload["message"]
    assert "Traceback" not in proc.stderr


def test_chain_repeated_vertex_is_singular(tmp_path):
    doc = {"ambient_dimension": 3, "vertices": POINTS_3D, "simplices": [[0, 1, 2], [3, 3, 4]]}
    proc = run_cli("chain", write_json(tmp_path / "E.json", doc), "--base-dim", "2")
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"error": "SingularSimplex",
                                       "message": "source simplex is affinely degenerate"}


def test_perturb_simplex_verdict(tmp_path):
    tri_doc = {
        "dimension": 2, "vertex_count": 3,
        "facets": [[0, 1], [1, 2], [0, 2]],
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "mode": "strict",
    }
    p = write_json(tmp_path / "p.json", tri_doc)
    shrink = {"rows": 3, "cols": 2, "data": [0.0, 0.0, -1.0, 0.0, 0.0, -1.0]}
    v = write_json(tmp_path / "v.json", shrink)
    proc = run_cli("perturb", p, v)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["infinitesimal_weak_compression"] is True


def test_sequence_command(tmp_path):
    docs = []
    reg = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)])
    flat = (reg[0] + reg[2]) / 2.0
    for i in range(1, 11):
        c = reg.copy()
        c[1] = flat + 2.0 ** -i * (reg[1] - flat)
        docs.append({
            "dimension": 2, "vertex_count": 6,
            "facets": [[k, (k + 1) % 6] for k in range(6)],
            "vertices": c.tolist(), "mode": "strict",
        })
    seq = write_json(tmp_path / "seq.json", docs)
    limit_doc = dict(docs[0])
    c = reg.copy()
    c[1] = flat
    limit_doc = {**docs[0], "vertices": c.tolist(), "mode": "weak"}
    limit = write_json(tmp_path / "limit.json", limit_doc)
    proc = run_cli("sequence", seq, "--limit", limit, "--eps", "0.05")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["cauchy"] is True
    assert payload["converges"] is True
    assert len(payload["delta_matrix"]) == 10


def test_sequence_of_shape_files_matches_one_array_file(tmp_path, capsys):
    from polycomp import cli

    members = json.loads((DATA / "hexagons.json").read_text(encoding="utf-8"))
    paths = [write_json(tmp_path / f"member{i}.json", doc) for i, doc in enumerate(members)]
    assert cli.main(["sequence", *paths]) == 0
    separate = capsys.readouterr().out
    assert cli.main(["sequence", str(DATA / "hexagons.json")]) == 0
    assert separate == capsys.readouterr().out
    assert json.loads(separate)["count"] == len(members) > 1


def test_help_mentions_schemas():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "vertex_count" in proc.stdout
    assert "exit codes" in proc.stdout
    for name in ("shape", "triangulation", "matrix", "embedding", "sequence"):
        assert f"\n  {name} " in proc.stdout
    proc = run_cli("classify", "--help")
    assert proc.returncode == 0
    assert "--tol" in proc.stdout


def test_edges_rejects_different_polytopes(tmp_path):
    angles = 2 * np.pi * np.arange(5) / 5
    pentagon = {"dimension": 2, "vertex_count": 5,
                "facets": [[i, (i + 1) % 5] for i in range(5)],
                "vertices": np.c_[np.cos(angles), np.sin(angles)].tolist()}
    square = write_json(tmp_path / "square.json", square_doc())
    pent = write_json(tmp_path / "pentagon.json", pentagon)
    for p, q in ((square, pent), (pent, square)):
        proc = run_cli("edges", p, q)
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {
            "error": "PolytopeMismatch",
            "message": "shapes realize different combinatorial polytopes"}


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in stdout")


def cube_doc(scale):
    facets = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7]]
    vertices = [[scale * x, scale * y, scale * z] for z in (0, 1) for y in (0, 1) for x in (0, 1)]
    return {"dimension": 3, "vertex_count": 8, "facets": facets, "vertices": vertices}


SQ, HALF, P_, V_ = (str(DATA / f) for f in ("square.json", "square_half.json", "P.json", "V.json"))
# Text that is not UTF-8, JSON nested 5,000 deep and an int past Python's 4,300-digit limit,
# written to files of these names and given as --pair text (as the interpreter decodes it).
UNPARSABLE = {"not_utf8.json": b"\xff\xfe{}", "deep.json": b"[" * 5000 + b"]" * 5000,
              "long_int.json": b'{"face": [' + b"1" * 4301 + b"]}"}
NOT_UTF8, DEEP, LONG_INT = map(os.fsdecode, UNPARSABLE.values())

# Inputs that used to exit 2 with empty stdout, print NaN, give a wrong answer or
# end in a traceback: (argv, a piece of the message naming the bad field).
BAD_INPUTS = {
    "no-command": ([], "required: command"),
    "unknown-command": (["bogus"], "invalid choice"),
    "missing-argument": (["classify", P_], "required: target"),
    "unknown-option": (["validate", P_, "--bogus"], "unrecognized arguments"),
    "missing-base-dim": (["chain", str(DATA / "golden_pleat.json")], "--base-dim"),
    "bad-base-dim": (["chain", str(DATA / "golden_pleat.json"), "--base-dim", "two"],
                     "--base-dim"),
    "bad-tol": (["classify", SQ, HALF, "--tol", "abc"], "--tol"),
    "nan-tol": (["classify", SQ, HALF, "--tol", "nan"], "--tol"),
    "inf-tol": (["classify", SQ, HALF, "--tol", "inf"], "--tol"),
    "negative-tol": (["classify", SQ, HALF, "--tol", "-1e-9"], "--tol"),
    "nan-tol-order": (["order", SQ, HALF, "--tol", "nan"], "--tol"),
    "nan-eps": (["sequence", str(DATA / "hexagons.json"), "--eps", "nan"], "--eps"),
    "inf-eps": (["sequence", str(DATA / "hexagons.json"), "--eps", "inf"], "--eps"),
    "zero-eps": (["sequence", str(DATA / "hexagons.json"), "--eps", "0"], "--eps"),
    "negative-eps": (["sequence", str(DATA / "hexagons.json"), "--eps", "-1"], "--eps"),
    "too-few-vertices": (["validate", "few.json"], "'vertex_count'"),
    "fan-apex-high": (["pleat", SQ, HALF, "--triangulation", "fan:7"], "--triangulation"),
    "fan-apex-negative": (["pleat", SQ, HALF, "--triangulation", "fan:-1"], "--triangulation"),
    "fan-on-cube": (["pleat", "cube.json", "cube_half.json", "--triangulation", "fan:0"],
                    "--triangulation"),
    "face-out-of-range": (["perturb", P_, V_, "--pair", '{"face": [9]}', '{"face": [0]}'],
                          "'face'"),
    "face-negative": (["perturb", P_, V_, "--pair", '{"face": [0]}', '{"face": [-1]}'],
                      "'face'"),
    "face-empty": (["perturb", P_, V_, "--pair", '{"face": []}', '{"face": [0]}'], "'face'"),
    "weights-outside-face": (["perturb", str(DATA / "P_small.json"), V_, "--pair",
                              '{"face": [0, 1], "weights": [5, -4]}', '{"face": [2]}'],
                             "first point: 'weights' must be nonnegative and sum to 1"),
    "weights-zero": (["perturb", str(DATA / "P_small.json"), V_, "--pair",
                      '{"face": [0, 1], "weights": [0, 0]}', '{"face": [2]}'],
                     "first point: 'weights' must be nonnegative and sum to 1"),
    "weights-second-point": (["perturb", str(DATA / "P_small.json"), V_, "--pair",
                              '{"face": [2]}', '{"face": [0, 1], "weights": [0.5, 0.6]}'],
                             "second point: 'weights'"),
    "sequence-bad-member": (["sequence", "bad_member.json"], "[2]: field 'vertices[0]'"),
    "bool-dimension": (["validate", "bool_dimension.json"], "'dimension'"),
    "bool-rows": (["complete", "bool_rows.json"], "'rows'"),
    "bool-face": (["perturb", P_, V_, "--pair", '{"face": [true]}', '{"face": [0]}'], "'face'"),
    "bool-vertices": (["validate", "bool_vertices.json"], "'vertices[0]'"),
    "zero-dimension": (["validate", "zero_dimension.json"],
                       "'dimension' and 'vertex_count' must be positive"),
    "triangulation-array": (["pleat", SQ, HALF, "--triangulation", "array.json"],
                            "triangulation document must be a JSON object"),
    "matrix-array": (["complete", "array.json"], "matrix document must be a JSON object"),
    "embedding-array": (["chain", "array.json", "--base-dim", "1"],
                        "embedding document must be a JSON object"),
    "bool-simplex": (["pleat", SQ, HALF, "--triangulation", "bool_simplex.json"],
                     "field 'simplices[0]' must list integers"),
    "zero-rows": (["complete", "zero_rows.json"], "'rows' and 'cols' must be positive"),
    "matrix-not-square": (["complete", "wide.json"], "matrix must be square"),
    "embedding-index-out-of-range": (["chain", "far_simplex.json", "--base-dim", "1"],
                                     "field 'simplices[0]' must list vertex indices in [0, 2)"),
    "pair-invalid-json": (["perturb", P_, V_, "--pair", "{", '{"face": [0]}'],
                          "--pair first point: invalid JSON"),
    "pair-not-object": (["perturb", P_, V_, "--pair", '{"face": [0]}', "[0]"],
                        "--pair second point: expected an object with 'face'"),
    "file-not-utf8": (["validate", "not_utf8.json"], "not_utf8.json: cannot read file"),
    "file-deep": (["sequence", "deep.json"], "deep.json: invalid JSON"),
    "file-long-int": (["order", SQ, "long_int.json"], "long_int.json: invalid JSON"),
    "pair-not-utf8": (["perturb", P_, V_, "--pair", NOT_UTF8, '{"face": [0]}'],
                      "--pair first point: invalid JSON"),
    "pair-deep": (["perturb", P_, V_, "--pair", '{"face": [0]}', DEEP],
                  "--pair second point: invalid JSON"),
    "pair-long-int": (["perturb", P_, V_, "--pair", LONG_INT, '{"face": [0]}'],
                      "--pair first point: invalid JSON"),
    "velocity-shape": (["perturb", P_, "wide.json"], "matrix must be 3 x 2"),
    "perturb-square-without-pair": (["perturb", SQ, "square_v.json"], "needs --pair"),
    "fan-apex-not-int": (["pleat", SQ, HALF, "--triangulation", "fan:x"],
                         "--triangulation: bad fan apex in 'fan:x'"),
    "zero-base-dim": (["chain", str(DATA / "golden_pleat.json"), "--base-dim", "0"],
                      "--base-dim must be between 1 and the ambient dimension"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_3_with_one_json_document(tmp_path, capsys, case):
    from polycomp import cli

    write_json(tmp_path / "few.json", {"dimension": 3, "vertex_count": 3,
                                       "facets": [[0, 1], [1, 2], [0, 2]],
                                       "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]})
    write_json(tmp_path / "cube.json", cube_doc(1.0))
    write_json(tmp_path / "cube_half.json", cube_doc(0.5))
    members = json.loads((DATA / "hexagons.json").read_text(encoding="utf-8"))
    members[2]["vertices"][0] = [0.0]
    write_json(tmp_path / "bad_member.json", members)
    write_json(tmp_path / "bool_vertices.json", {
        "dimension": 2, "vertex_count": 3, "facets": [[0, 1], [1, 2], [0, 2]],
        "vertices": [[False, False], [True, False], [False, True]]})
    write_json(tmp_path / "bool_dimension.json", {"dimension": True, "vertex_count": 2,
                                                  "facets": [[0], [1]], "vertices": [[0], [1]]})
    write_json(tmp_path / "bool_rows.json", {"rows": True, "cols": 1, "data": [0.5]})
    write_json(tmp_path / "zero_dimension.json", {"dimension": 0, "vertex_count": 1,
                                                  "facets": [[0]], "vertices": [[]]})
    write_json(tmp_path / "array.json", [])
    write_json(tmp_path / "bool_simplex.json", {"simplices": [[0, 1, True], [0, 2, 3]]})
    write_json(tmp_path / "zero_rows.json", {"rows": 0, "cols": 1, "data": []})
    write_json(tmp_path / "wide.json", {"rows": 1, "cols": 2, "data": [0.5, 0.0]})
    write_json(tmp_path / "far_simplex.json", {"ambient_dimension": 2,
                                               "vertices": [[0.0, 0.0], [1.0, 0.0]],
                                               "simplices": [[0, 2]]})
    write_json(tmp_path / "square_v.json", {"rows": 4, "cols": 2, "data": [0.0] * 8})
    for name, text in UNPARSABLE.items():
        (tmp_path / name).write_bytes(text)
    argv, field = BAD_INPUTS[case]
    argv = [str(tmp_path / a) if a.endswith(".json") and "/" not in a else a for a in argv]
    assert cli.main(argv) == 3
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert payload["error"] == "MalformedInput"
    assert field in payload["message"]


def test_every_error_reaches_the_cli_with_its_exit_code(monkeypatch, capsys):
    from polycomp import cli, errors

    # The exit-code mapping the CLI used to spell out as tuples of classes.
    expected = {
        "NotSimple": 1, "InconsistentLattice": 1, "DegenerateSpan": 1, "DuplicateVertex": 1,
        "PolytopeMismatch": 1, "NotTree": 1, "PointOutside": 1, "ValidationFailure": 1,
        "SingularSimplex": 2, "DegenerateSimplex": 2, "NotContraction": 2, "NotPSD": 2,
        "InfeasibleApex": 2, "NonFiniteResult": 2, "MalformedInput": 3,
    }
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.PolycompError)
               and c is not errors.PolycompError] + [cli.ValidationFailure]
    assert sorted(c.__name__ for c in classes) == sorted(expected)
    for cls in classes:
        assert cls.exit_code == expected[cls.__name__]

        want = {"error": cls.__name__, "message": "boom"}
        if cls is cli.ValidationFailure:  # carries the validation report
            want["report"] = {"verdict": "invalid"}
            exc = cls("boom", want["report"])
        else:
            exc = cls("boom")

        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_complete", fail)
        assert cli.main(["complete", "M.json"]) == expected[cls.__name__]
        assert json.loads(capsys.readouterr().out) == want


def scaled_pair_files(tmp_path, name, scale):
    """P, Q, a zero velocity matrix and a two-shape sequence, all scaled."""
    if name == "square":
        docs = [square_doc(scale), square_doc(0.5 * scale)]
    elif name == "triangles":  # the lift golden's pair: P reaches 3.452, scale's lambda Q 4.39
        docs = [json.loads((DATA / f).read_text(encoding="utf-8"))
                for f in ("P.json", "P_small.json")]
        for doc in docs:
            doc["vertices"] = (scale / 8 * np.array(doc["vertices"])).tolist()
    else:
        docs = json.loads((DATA / "hexagons.json").read_text(encoding="utf-8"))[:2]
        for doc in docs:
            doc["vertices"] = (scale * np.array(doc["vertices"])).tolist()
    p, q = (write_json(tmp_path / f"{side}.json", doc) for side, doc in zip("PQ", docs))
    n = len(docs[0]["vertices"])
    v = write_json(tmp_path / "V.json", {"rows": n, "cols": 2, "data": [0.0] * (2 * n)})
    return p, q, v, write_json(tmp_path / "seq.json", docs)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-12, 1e100, 1e300])
@pytest.mark.parametrize("name", ["square", "hexagons"])
def test_scaled_shapes_keep_the_cli_contract(tmp_path, capsys, name, scale):
    from polycomp import cli

    def run(argv):
        code = cli.main(argv)
        return code, json.loads(capsys.readouterr().out, parse_constant=reject_constant)

    (tmp_path / "one").mkdir()
    p1, q1, _, _ = scaled_pair_files(tmp_path / "one", name, 1.0)
    p, q, v, seq = scaled_pair_files(tmp_path, name, scale)
    for argv in (["validate", p], ["subdivide", p], ["classify", p, q], ["edges", p, q],
                 ["distance", p, q], ["order", p, q], ["scale", p, q], ["lift", p, q],
                 ["pleat", p, q, "--triangulation", "fan:0"],
                 ["perturb", p, v, "--pair", '{"face": [0]}', '{"face": [1]}'],
                 ["sequence", seq, "--limit", p]):
        code, payload = run(argv)
        assert code in (0, 1, 2, 3), (argv[0], payload)
        if argv[0] != "lift":  # lift takes simplices only, so it exits 3 here
            assert "error" not in payload, (argv[0], payload)
    assert run(["classify", p, q])[1]["verdict"] == run(["classify", p1, q1])[1]["verdict"]
    folds, folds1 = (run(["pleat", a, b, "--triangulation", "fan:0"])[1]["facet_folds"]
                     for a, b in ((p, q), (p1, q1)))
    # Rounding the scaled input moves a flat fold (pi, where arccos has an
    # infinite slope) by up to about sqrt(eps); every other angle far less.
    assert [f["dihedral"] for f in folds] == pytest.approx([f["dihedral"] for f in folds1],
                                                           rel=0, abs=1e-7)


@pytest.mark.parametrize("p_scale,q_scale", [(1e-160, 1e160), (1e160, 1e-160), (1.0, 1e300),
                                              (1e300, 1.0), (1.0, 1e-300), (1e-300, 1.0)])
@pytest.mark.parametrize("name", ["square", "hexagons"])
def test_unequal_scales_keep_the_cli_contract(tmp_path, capsys, name, p_scale, q_scale):
    """P and Q about the float range apart: the map's alphas over- or underflow,
    so only some results exist, but every command still prints one strict
    JSON document and exits 0-3."""
    from polycomp import cli

    for side, scale in (("p", p_scale), ("q", q_scale)):
        (tmp_path / side).mkdir()
        scaled_pair_files(tmp_path / side, name, scale)
    p, q = str(tmp_path / "p" / "P.json"), str(tmp_path / "q" / "Q.json")
    for argv in (["classify", p, q], ["edges", p, q], ["distance", p, q], ["order", p, q],
                 ["scale", p, q], ["pleat", p, q, "--triangulation", "fan:0"]):
        code = cli.main(argv)
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert code in (0, 1, 2, 3), (argv[0], payload)
        if argv[0] in ("scale", "classify"):
            assert (code, payload["error"]) == (2, "NonFiniteResult"), (argv[0], payload)


@pytest.mark.parametrize("scale", [1e308, -1e308, 1.7e308, -1.7e308])
@pytest.mark.parametrize("name", ["square", "hexagons", "triangles"])
def test_shapes_near_the_float_maximum_keep_the_cli_contract(tmp_path, capsys, name, scale):
    """Largest |coordinate| near the float maximum, where the coordinate sums
    overflow: every command prints one strict JSON document and succeeds, since
    every solve reads the shapes' mantissas, except lift on a polygon, a usage
    error."""
    from polycomp import cli

    p, q, v, seq = scaled_pair_files(tmp_path, name, scale)
    for argv in (["validate", p], ["subdivide", p], ["classify", p, q], ["edges", p, q],
                 ["distance", p, q], ["order", p, q], ["scale", p, q], ["lift", p, q],
                 ["pleat", p, q, "--triangulation", "fan:0"],
                 ["perturb", p, v, "--pair", '{"face": [0]}', '{"face": [1]}'],
                 ["sequence", seq, "--limit", p]):
        code = cli.main(argv)
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert code == (3 if argv[0] == "lift" and name != "triangles" else 0), (argv, payload)


def test_chain_near_the_float_maximum_keeps_the_cli_contract(tmp_path, capsys):
    """Two triangles with coordinates of 1e308, where an edge's length would
    overflow: the alphas are ratios, so they read as those of the same file
    divided by 2^1000, and the stages keep the input's coordinates."""
    from polycomp import cli

    doc = {"ambient_dimension": 3, "simplices": [[0, 1, 2], [0, 1, 3]],
           "vertices": [[1e308, 0.0, 0.0], [0.0, 1e308, 0.0], [0.0, 0.0, 1e308],
                        [1e308, 1e308, 0.0]]}
    small = dict(doc, vertices=np.ldexp(doc["vertices"], -1000).tolist())

    def run(name, d):
        code = cli.main(["chain", write_json(tmp_path / name, d), "--base-dim", "2"])
        return code, json.loads(capsys.readouterr().out, parse_constant=reject_constant)

    (code, payload), (small_code, small_payload) = run("E.json", doc), run("e.json", small)
    assert (code, small_code) == (0, 0), payload
    assert payload["max_alpha_vs_prev"] == small_payload["max_alpha_vs_prev"] == 1.0
    assert ([s["alpha_max_vs_prev"] for s in payload["stages"]]
            == [s["alpha_max_vs_prev"] for s in small_payload["stages"]])
    assert payload["stages"][0]["vertices"] == doc["vertices"]


@pytest.mark.parametrize("scale", [1e-160, 1e-154, 1e-150, 1e-100, 0.5, 1e100, 1e150, 1e154,
                                   1e160])
def test_scale_reaches_the_critical_homothety_at_any_scale(tmp_path, capsys, scale):
    """Wherever ``scale`` returns, the rescaled map is critical: its deciding
    chain reads alpha_max 1.0 exactly, the verdict is weak and lambda undoes the
    scale to the last bits.  At 1e-160 the solved rescaled map once read
    1.0000111329412578, NotWeakCompression, and lambda, from a subnormal
    alpha_max, was 5.6e-6 too large."""
    from polycomp import cli

    p = write_json(tmp_path / "P.json", square_doc())
    q = write_json(tmp_path / "Q.json", square_doc(scale))
    code = cli.main(["scale", p, q])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    if code:
        assert (code, payload["error"]) == (2, "NonFiniteResult"), payload
    else:
        assert payload["verdict_after"] == "WeakCompressionNotStrict"
        assert payload["alpha_max_after"] == 1.0
        assert abs(payload["lambda"] * scale - 1.0) <= 2.0**-51
    # alpha_max = scale^2 stays positive (subnormal at 1e-160) up to 1e154 and
    # overflows at 1e160.
    assert code == (2 if scale > 1e154 else 0)


def test_non_finite_results_exit_2_with_one_json_document(tmp_path, capsys, monkeypatch):
    from polycomp import cli

    assert cli.NonFiniteResult("x").exit_code == 2
    monkeypatch.setattr(cli, "cmd_complete", lambda args: ({"value": float("nan")}, "", 0))
    assert cli.main(["complete", "M.json"]) == 2
    assert json.loads(capsys.readouterr().out, parse_constant=reject_constant) == {
        "error": "NonFiniteResult", "message": "complete: a result is not a finite number"}


def test_deficient_facet_residual_prints_as_null(tmp_path, capsys):
    from polycomp import cli

    doc = cube_doc(1.0)
    doc["vertices"][:4] = [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.6, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assert cli.main(["validate", write_json(tmp_path / "squashed.json", doc)]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert payload["facets"][0] == {"facet": [0, 1, 2, 3], "margin": 0.0, "residual": None}
    assert payload["messages"][0] == "facet (0, 1, 2, 3) has deficient affine span"


# Values a hand-edited or corrupted shape file may hold in place of any field.
JUNK = (st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False, None, "x",
                         10**400, -10**400, 1e-320, -1, 0, 7, 2.5])
        | st.builds(list) | st.builds(dict))  # fresh containers: a row may grow later


def json_paths(doc, prefix=()):
    """Every position in a JSON document, the root included, as key tuples."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


@st.composite
def mutated_docs(draw, name):
    """A copy of tests/data/``name`` with one to three fields replaced by junk,
    deleted (a missing field, a short row) or extended (a long row)."""
    doc = json.loads((DATA / name).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            doc = draw(JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "append"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "append" and isinstance(parent[path[-1]], list):
            parent[path[-1]].append(draw(JUNK))
        else:
            parent[path[-1]] = draw(JUNK)
    return doc


@given(st.sampled_from(["square.json", "hexagons.json"]).flatmap(
    lambda name: st.tuples(st.just(name), mutated_docs(name))))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzzed_files_keep_the_cli_contract(case):
    """Any damage to a shape file ends in one strict JSON document and exit 0-3.
    A nonzero exit names its error, except validate's exit 1 on a shape that
    loads but fails its mode: that document is the report."""
    from polycomp import cli

    name, doc = case
    if name == "square.json":
        half = json.loads((DATA / "square_half.json").read_text(encoding="utf-8"))
        p, q, seq = doc, half, [doc, half]
    else:  # the first two members; the whole document stands in for a missing one
        members = (doc if isinstance(doc, list) else []) + [doc, doc]
        p, q, seq = members[0], members[1], doc
    with tempfile.TemporaryDirectory() as tmp:
        p, q, seq = (write_json(Path(tmp) / f"{label}.json", d)
                     for label, d in (("P", p), ("Q", q), ("seq", seq)))
        for argv in (["validate", p], ["classify", p, q], ["distance", p, q], ["sequence", seq]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            text = out.getvalue()
            payload = json.loads(text, parse_constant=reject_constant)
            assert text.count("\n") == 1 and isinstance(payload, dict), (argv[0], text)
            assert code in (0, 1, 2, 3), (argv[0], payload)
            if code and "error" not in payload:
                assert argv[0] == "validate" and code == 1, (argv[0], payload)
                assert payload["verdict"] in ("invalid", "weakly-convex"), payload
