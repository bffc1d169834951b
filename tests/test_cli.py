"""End-to-end CLI checks: JSON payloads, exit codes, golden outputs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "polycomp", *args],
                          capture_output=True, text=True, cwd=cwd)
    return proc


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


def test_schema_error_names_field(tmp_path):
    doc = square_doc()
    del doc["facets"]
    path = write_json(tmp_path / "nofacets.json", doc)
    proc = run_cli("validate", path)
    assert proc.returncode == 3
    assert "facets" in json.loads(proc.stdout)["message"]


@pytest.mark.parametrize("name", ["classify", "edges", "distance", "scale"])
def test_golden_counterexample_pipeline(name):
    proc = run_cli(name, str(DATA / "P.json"), str(DATA / "Q.json"))
    assert proc.returncode == 0
    golden = (DATA / f"golden_{name}.json").read_text(encoding="utf-8")
    assert proc.stdout == golden
    # byte-stable across runs
    again = run_cli(name, str(DATA / "P.json"), str(DATA / "Q.json"))
    assert again.stdout == proc.stdout


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


def test_help_mentions_schemas():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "vertex_count" in proc.stdout
    assert "exit codes" in proc.stdout
