#!/usr/bin/env python3
"""Walk through the triangle pair whose map shrinks every edge yet expands
an interior pair, then rescale the target to the critical homothety.

Usage: python3 scripts/triangle_counterexample.py
"""

import numpy as np

from polycomp import (
    Shape,
    classify,
    edge_contraction_check,
    evaluate_map,
    induced_map,
    scale_critical,
    simplex_polytope,
    spectral_summary,
)

P_COORDS = np.array([[0.0, 1.692], [3.452, 0.527], [1.901, 0.0]])
Q_COORDS = np.array([[3.452, 3.519], [4.696, 2.078], [4.393, 1.692]])


def main():
    poly = simplex_polytope(2)
    p = Shape(poly, P_COORDS)
    q = Shape(poly, Q_COORDS)

    print("edge lengths (source -> target):")
    edges = edge_contraction_check(p, q)
    for e, sl, tl, r in zip(edges.edges, edges.source_lengths,
                            edges.target_lengths, edges.ratios):
        print(f"  {e}: {sl:.6f} -> {tl:.6f}  (ratio {r:.6f})")
    print(f"all edges contract: {edges.all_contracting}")

    m = induced_map(p, q)
    s = spectral_summary(m)
    print(f"\nspectrum of the linear part: alpha_min={s.alpha_min:.6f} "
          f"alpha_max={s.alpha_max:.6f}")
    result = classify(m)
    print(f"verdict: {result.verdict}")
    w = result.witness
    print(f"expanding pair: x'={w.x.round(6).tolist()} y'={w.y.round(6).tolist()} "
          f"ratio={w.ratio:.6f}")

    x = np.array([0.34, 0.464, 0.196]) @ P_COORDS
    y = np.array([0.149, 0.316, 0.535]) @ P_COORDS
    print(f"\nsample interior pair: |x-y|={np.linalg.norm(x - y):.6f} "
          f"|f(x)-f(y)|={np.linalg.norm(evaluate_map(m, x) - evaluate_map(m, y)):.6f}")

    rescale = scale_critical(p, q)
    print(f"\ncritical homothety lambda = {rescale.lam:.9f}")
    print(f"after rescaling: {rescale.classification.verdict}, "
          f"extremal ratio {rescale.classification.witness.ratio:.12f}")


if __name__ == "__main__":
    main()
