"""The arguments that print each ``tests/data/golden_<subcommand>.json``.

A ``.json`` argument names a file in tests/data; ``chain`` reads the pleat golden.
``tests/test_cli.py`` runs these in process and ``scripts/bench.py`` times them cold.
Run as a script, it checks every golden against the installed ``polycomp`` console
script, one process per subcommand, so a module a subcommand fails to import shows:

    python tests/golden_runs.py
"""

import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"

GOLDEN_RUNS = {
    "validate": ["P.json"],
    "subdivide": ["square.json"],
    "classify": ["P.json", "Q.json"],
    "edges": ["P.json", "Q.json"],
    "distance": ["P.json", "Q.json"],
    "order": ["square.json", "square_half.json"],
    "scale": ["P.json", "Q.json"],
    "lift": ["P.json", "P_small.json"],
    "pleat": ["square.json", "square_half.json", "--triangulation", "fan:0"],
    "chain": ["golden_pleat.json", "--base-dim", "2"],
    "complete": ["M.json"],
    "perturb": ["P.json", "V.json", "--pair", '{"face": [0]}',
                '{"face": [1, 2], "weights": [0.25, 0.75]}'],
    "sequence": ["hexagons.json", "--limit", "hexagon_flat.json", "--eps", "0.05"],
}


def golden_args(name):
    """``GOLDEN_RUNS[name]`` with each ``.json`` argument as a path into tests/data."""
    return [str(DATA / a) if a.endswith(".json") else a for a in GOLDEN_RUNS[name]]


def main():
    failed = []
    for name in GOLDEN_RUNS:
        proc = subprocess.run(["polycomp", name, *golden_args(name)], capture_output=True)
        if proc.returncode != 0 or proc.stdout != (DATA / f"golden_{name}.json").read_bytes():
            failed.append(name)
            sys.stderr.write(f"{name}: exit {proc.returncode}\n{proc.stderr.decode()}")
    print(f"{len(GOLDEN_RUNS) - len(failed)} of {len(GOLDEN_RUNS)} goldens printed byte for byte")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
