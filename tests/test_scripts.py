"""The experiment scripts run to completion and print their report."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("name", ["completion_experiment.py", "pleat_square_demo.py",
                                  "triangle_counterexample.py"])
def test_script_runs(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_bench_records_times_and_counted_calls(tmp_path):
    out = tmp_path / "bench.json"
    root = SCRIPTS.parent
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "--dims", "3",
                           "--ngons", "8", "--pleats", "8", "--sequences", "8", "--repeat", "2",
                           "--cli", "sequence", "validate",
                           "--src", f"first={root}", "--src", f"second={root}",
                           "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["layout"] == "polycomp-bench/1" and sorted(doc["runs"]) == ["first", "second"]
    for run in doc["runs"].values():
        cube = run["cubes"]["3"]
        assert cube["chains"] == 48  # 3! chains at each of the 3-cube's 8 vertices
        assert sorted(cube["us"]) == sorted(
            ["classify", "compare_order", "scale_critical", "delta_polytope",
             "per_chain_deltas", "job", "complex_build", "chain_build", "flatness", "solve",
             "eigvalsh"])
        assert all(v > 0 for v in cube["us"].values())
        # The calls one job makes, as counted by the wrappers: the chains of P
        # and Q built and tested once each, and (P, Q) solved once; the spectra
        # of (Q, P) and (P, lambda Q) derive from it, and no witness is read.
        assert cube["calls"] == {"chain_simplex_coords": 2, "_flat": 2, "linear_parts": 1}
        ngon = run["ngons"]["8"]
        assert sorted(ngon) == ["reflex", "strict", "weak"]
        for cls in ngon.values():
            assert sorted(cls["us"]) == ["job", "shape_from_dict", "validate_shape"]
            assert all(v > 0 for v in cls["us"].values())
        # The Farkas certificate settles every vertex of the strict octagon and
        # all but the moved one of the others.  The neighbours' certificate
        # proves the weak one's moved vertex non-extreme; NNLS decides the reflex one.
        assert {c: r["calls"]["_cone_residual"] for c, r in ngon.items()} == {
            "strict": 0, "weak": 0, "reflex": 1}
        pleat = run["pleats"]["8"]
        assert sorted(pleat["us"]) == ["cold_extra", "fan_first", "fan_repeat", "first_job",
                                       "job", "pleat_validity", "pleated_embedding",
                                       "pleated_projection_chain"]
        # cold_extra, a median of differences, may take either sign.
        assert all(v > 0 for k, v in pleat["us"].items() if k != "cold_extra")
        assert pleat["us"]["first_job"] > pleat["us"]["fan_first"]
        assert pleat["peak_bytes"]["pleated_projection_chain"] > 0
        # The 8-gon fan's chain solves its 6 triangles' maps once, no stage against
        # the one above, and its certificate passes the 6 frames of each of the 12
        # stages above R^2, so none is factored.  The d = 2 pleat job calls no QR,
        # eigh or SVD of np.linalg.
        assert pleat["calls"] == {"solved_pairs": 6, "stage_frames": 0,
                                  "qr": 0, "eigh": 0, "svd": 0}
        sequence = run["sequences"]["8"]
        assert sequence["pairs"] == 36  # 28 member pairs and 8 to the limit
        assert sorted(sequence["us"]) == ["chain_coords", "edge_inverses", "eigvalsh", "flags",
                                          "linear", "sequence_report"]
        assert all(v > 0 for v in sequence["us"].values())
        # One request: the chains of all nine shapes built and tested at once, and
        # all 576 chain pairs (fewer than _BLOCK) in one block of linear parts.
        assert sequence["calls"] == {"chain_simplex_coords": 1, "degenerate": 1,
                                     "solve_correspondence": 0, "linear_parts": 1}
        # Four cold calls per subcommand (twice --repeat), golden byte for byte,
        # importing only the modules it runs.
        cli = run["cli"]
        assert sorted(cli) == ["sequence", "validate"]
        assert all(row["calls"] == 4 and row["golden"] and row["s"] > 0
                   and 0 < row["polycomp_import_s"] < row["s"] for row in cli.values())
        assert cli["validate"]["modules"] == ["polycomp", "polycomp.cli", "polycomp.errors",
                                              "polycomp.io", "polycomp.polytopes"]
        assert "polycomp.lifting" not in cli["sequence"]["modules"]
    assert 0 < doc["cli_baseline"]["python_s"] < doc["cli_baseline"]["numpy_s"]
