"""Every golden run: the golden file in tests/data it prints, the subcommand and its
arguments, and the exit code.

A ``.json`` argument names a file in tests/data; ``chain`` reads the pleat golden.
A run named after its subcommand prints ``golden_<subcommand>.json``: one run per
subcommand, which ``scripts/bench.py`` times cold.  The others are the goldens beyond
those: ``validate`` on the flat hexagon (weakly convex, one non-extreme vertex settled
by NNLS, flat pair [0, 2], margins at rounding level) and on a reflex pentagon (exit 1,
with messages and a non-extreme vertex); ``chain`` on dyadic segments in R^5 whose
edges have power-of-two lengths, so each previous-stage alpha is the correctly rounded
ratio G_c / G_{c+1} of exact sums; the far-scale runs, which print the goldens of the
same shapes unscaled (the metric and the order are scale-free, and a power of two
scales exactly); and the unit cube against a frustum of dyadic coordinates, the d = 3
goldens.  ``tests/test_cli.py`` runs them all in process.  Run as a script, it checks
every golden and exit code against the installed ``polycomp`` console script, one
process per run, so a module a subcommand fails to import shows:

    python tests/golden_runs.py
"""

import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"

GOLDEN_RUNS = {
    "validate": ("golden_validate.json", ["validate", "P.json"], 0),
    "subdivide": ("golden_subdivide.json", ["subdivide", "square.json"], 0),
    "classify": ("golden_classify.json", ["classify", "P.json", "Q.json"], 0),
    "edges": ("golden_edges.json", ["edges", "P.json", "Q.json"], 0),
    "distance": ("golden_distance.json", ["distance", "P.json", "Q.json"], 0),
    "order": ("golden_order.json", ["order", "square.json", "square_half.json"], 0),
    "scale": ("golden_scale.json", ["scale", "P.json", "Q.json"], 0),
    "lift": ("golden_lift.json", ["lift", "P.json", "P_small.json"], 0),
    "pleat": ("golden_pleat.json",
              ["pleat", "square.json", "square_half.json", "--triangulation", "fan:0"], 0),
    "chain": ("golden_chain.json", ["chain", "golden_pleat.json", "--base-dim", "2"], 0),
    "complete": ("golden_complete.json", ["complete", "M.json"], 0),
    "perturb": ("golden_perturb.json",
                ["perturb", "P.json", "V.json", "--pair", '{"face": [0]}',
                 '{"face": [1, 2], "weights": [0.25, 0.75]}'], 0),
    "sequence": ("golden_sequence.json",
                 ["sequence", "hexagons.json", "--limit", "hexagon_flat.json", "--eps", "0.05"],
                 0),
    "validate_flat": ("golden_validate_flat.json", ["validate", "hexagon_flat.json"], 0),
    "validate_reflex": ("golden_validate_reflex.json", ["validate", "pentagon_reflex.json"], 1),
    "chain_segments": ("golden_chain_segments.json",
                       ["chain", "segments.json", "--base-dim", "1"], 0),
    "distance_far": ("golden_distance.json",
                     ["distance", "P_x2pow600.json", "Q_x2pow-600.json"], 0),
    "order_far": ("golden_order.json",
                  ["order", "square_x2pow1023.json", "square_half_x2pow1023.json"], 0),
    "classify_cube3": ("golden_classify_cube3.json",
                       ["classify", "cube3.json", "frustum3.json"], 0),
    "distance_cube3": ("golden_distance_cube3.json",
                       ["distance", "cube3.json", "frustum3.json"], 0),
    "order_cube3": ("golden_order_cube3.json", ["order", "cube3.json", "frustum3.json"], 0),
}
SUBCOMMANDS = [name for name, (_, argv, _) in GOLDEN_RUNS.items() if argv[0] == name]


def golden_args(name):
    """The subcommand and arguments of run ``name``, each ``.json`` argument as a path
    into tests/data."""
    return [str(DATA / a) if a.endswith(".json") else a for a in GOLDEN_RUNS[name][1]]


def main():
    failed = []
    for name, (golden, _, code) in GOLDEN_RUNS.items():
        proc = subprocess.run(["polycomp", *golden_args(name)], capture_output=True)
        if proc.returncode != code or proc.stdout != (DATA / golden).read_bytes():
            failed.append(name)
            sys.stderr.write(f"{name}: exit {proc.returncode}\n{proc.stderr.decode()}")
    passed = len(GOLDEN_RUNS) - len(failed)
    print(f"{passed} of {len(GOLDEN_RUNS)} goldens printed byte for byte with their exit codes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
