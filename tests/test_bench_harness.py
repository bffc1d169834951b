"""The counting, timing and summary harness of ``scripts/bench.py``, imported in process."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import polycomp
import polycomp.io  # noqa: F401  (the bench's front end reads polycomp.io)
import polycomp.lifting  # noqa: F401  (counted patches only the modules imported so far)
import polycomp.spectral  # noqa: F401

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script sets them on import; undone after the test
    spec = importlib.util.spec_from_file_location("polycomp_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    """Every attribute of every polycomp module, keyed by module and name."""
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("polycomp.") for attr, value in vars(mod).items()}


def assert_unchanged(before):
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def test_counted_counts_the_nnls_call_of_a_reflex_octagon(bench):
    # The reflex octagon of the bench's n = 8 ladder: NNLS decides the moved
    # vertex, which neither certificate settles.
    doc = bench.ngon_doc(np.random.default_rng([bench.SEED + 8, 2]), 8, "reflex")
    before = attributes()
    counts = bench.counted(polycomp, lambda: bench.laps(bench.front_end(polycomp, doc)),
                           {"_cone_residual": bench.one})
    assert counts == {"_cone_residual": 1}
    assert_unchanged(before)


def test_counted_restores_every_patched_attribute_when_run_raises(bench):
    before = attributes()
    # the pleat ladder's pair counters: this checkout's, and older ones' (_pair_alphas,
    # restricted_singular_values)
    names = ("_cone_residual", "restricted_singular_values", "_pair_alphas", "gram_eigenvalues",
             "edge_inverses", "degenerate")

    def run():
        patched = [key for key in before if key[1] in names
                   and getattr(sys.modules[key[0]], key[1]) is not before[key]]
        assert ("polycomp.lifting", "gram_eigenvalues") in patched
        assert ("polycomp.lifting", "edge_inverses") in patched
        # gone from this checkout (the second moved into the tests): nothing to patch
        assert not any(key[1] in ("_pair_alphas", "restricted_singular_values")
                       for key in before)
        # every module holding a name is patched: affine and spectral share one function
        assert ("polycomp.affine", "degenerate") in patched
        assert ("polycomp.spectral", "degenerate") in patched
        assert len(patched) == sum(key[1] in names for key in before)
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="^stop$"):
        bench.counted(polycomp, run, dict.fromkeys(names, bench.one))
    assert_unchanged(before)


def test_laps_time_each_step_in_order_and_medians_sum_them(bench):
    def steps():
        yield "first"
        yield "second"

    us = bench.laps(steps())
    assert list(us) == ["first", "second"] and all(v >= 0 for v in us.values())
    jobs = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 5.0}, {"a": 2.0, "b": 9.0}]
    assert bench.medians(jobs) == {"a": 2.0, "b": 5.0, "job": 8.0}
    assert bench.medians(jobs, job=False) == {"a": 2.0, "b": 5.0}
