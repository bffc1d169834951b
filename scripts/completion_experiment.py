#!/usr/bin/env python3
"""Drive a hexagon family toward a weakly convex limit (one interior angle
reaching pi) and report Cauchy/convergence behaviour of the compression
metric along the way.

Usage: python3 scripts/completion_experiment.py [steps]
"""

import sys

import numpy as np

from polycomp import Shape, ngon_polytope, sequence_report, validate_shape


def hexagon_family(steps):
    poly = ngon_polytope(6)
    reg = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)])
    flat = (reg[0] + reg[2]) / 2.0

    def member(tau):
        c = reg.copy()
        c[1] = flat + tau * (reg[1] - flat)
        return c

    seq = [Shape(poly, member(2.0 ** -i)) for i in range(1, steps + 1)]
    limit = Shape(poly, member(0.0), mode="weak")
    return seq, limit


def main():
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    seq, limit = hexagon_family(steps)

    window, eps = steps // 2, 1e-3
    report = sequence_report(seq, window=window, eps=eps, limit=limit)
    print(f"hexagon family, {steps} steps, vertex 1 flattening onto [v0, v2]")
    print("\ndistance to the weakly convex limit:")
    for i, delta in enumerate(report.limit_deltas, start=1):
        print(f"  step {i:2d}: delta = {delta:.3e}")

    print(f"\nCauchy (window={window}, eps={eps:g}): {report.cauchy}")
    print(f"converges to the limit (eps={eps:g}): {report.converges}")

    strict = validate_shape(limit.polytope, limit.coords, "strict")
    weak = validate_shape(limit.polytope, limit.coords, "weak")
    print(f"\nlimit shape: strict validation -> {strict.verdict}, "
          f"weak validation -> {weak.verdict}")
    print(f"non-extreme vertices: "
          f"{[i for i, e in enumerate(weak.vertex_extreme) if not e]}")
    print(f"flat facet pairs: {list(weak.flat_facet_pairs)}")


if __name__ == "__main__":
    main()
