"""The reference oracle against the repository's golden CLI outputs.

Run with:  python3 -m pytest perfbench/test_oracle.py
"""

from pathlib import Path

import numpy as np

import oracle

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"


def test_oracle_matches_golden_classify_and_distance():
    assert oracle.golden_mismatches(DATA) == []


def test_chain_counts():
    assert len(oracle.cube_complex(3).chains) == 48
    assert len(oracle.cube_complex(4).chains) == 384
    assert len(oracle.ngon_complex(8).chains) == 16


def test_isometry_has_zero_delta_and_unit_alphas():
    cx = oracle.cube_complex(3)
    p = oracle.cube_vertices(3) + 0.1 * np.arange(8)[:, None] ** 0.5
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    spec = oracle.chain_spectrum(cx, p, p @ q.T + 5.0)
    assert np.allclose(spec["alpha_max"], 1.0) and np.allclose(spec["alpha_min"], 1.0)
    assert np.abs(spec["delta"]).max() < 1e-9
