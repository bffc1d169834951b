#!/usr/bin/env python3
"""Time the five pair entry points on projective d-cubes, the shape front
end on n-gons and the pleat path over n-gon fans, and count the kernel calls
they make, for one checkout or several side by side.

For each d of the ladder, a job builds a pair P, Q of projective images of
the d-cube and runs ``classify(induced_map(P, Q))``, ``compare_order``,
``scale_critical``, ``delta_polytope`` and ``per_chain_deltas`` on it, in
that order, as one client would.  The script records, in microseconds:

- the median of each entry point and of the whole job over ``--repeat``
  jobs, each on a fresh pair;
- the median of each kernel under them over ``--repeat`` calls on one
  pair's chains: the chain build (``chain_simplex_coords``), the flatness
  pass (``degenerate``), the solve (``solve_correspondence``) and the
  eigenvalues (``gram_eigenvalues``, one ``eigvalsh`` of the Gram stack);

and the calls of ``chain_simplex_coords``, ``degenerate`` and
``solve_correspondence``.

For each n of the n-gon ladder and each class (strictly convex; weakly
convex, one vertex on its neighbours' chord; reflex, one vertex pulled inside
the hull), a job loads a shape document with ``io.shape_from_dict`` and runs
``validate_shape`` on it.  The script records the median us of each over
``--repeat`` jobs, each on a fresh n-gon, and the ``_cone_residual`` (NNLS)
calls.

For each n of the pleat ladder, a job pleats a strictly convex n-gon P over
its fan from vertex 0 onto a second one, Q, scaled so that the fan map has
alpha_max 0.81: ``pleated_embedding``, then ``pleat_validity`` and
``pleated_projection_chain`` on the embedding.  The script records the median
us of each over ``--repeat`` jobs, each on a fresh pair, and the (stage,
simplex) pairs of the projection chain, counted where the checkout computes
them: ``_pair_alphas``, or ``restricted_singular_values`` in a checkout
without it.  It also records, each as a median over ``--repeat`` rounds that
start with every ``lru_cache`` of the checkout emptied, as in a fresh
process: ``fan_triangulation``'s first call and a repeat of it, and the first
job (that first fan call and the three steps).  Each round is followed at
once by the timed job on its pair, so a first job and a warm one see the
same host speed; ``cold_extra`` is the median over rounds of the first job's
us minus its warm job's.  And it records the ``tracemalloc`` peak of one
``pleated_projection_chain`` call, in bytes.

Calls are counted over one more job, with the functions wrapped wherever a
module of the checkout holds them: counts, not formulas.

Every ``--src`` checkout is imported into this one process under its own
package name, and the checkouts take turns job by job and call by call, on
the same inputs, with the first side alternating.  So a parent commit and a
change are measured by the same script, and a host whose speed drifts slows
every side alike.  BLAS runs on one thread, and the process on the
highest-numbered CPU it may use.

Usage:
    python3 scripts/bench.py [--src [LABEL=]DIR ...] [--dims 3 4 5]
                             [--ngons 8 32 128] [--pleats 8 32 128]
                             [--repeat N] [--out FILE]

Each checkout's numbers go to ``runs[LABEL]`` of the JSON file ``--out``
(LABEL defaults to the directory's name; with no ``--src``, this checkout
is timed as ``change``).  Example:

    python3 scripts/bench.py --src parent=../parent --src change=. --out BENCH.json
"""

import argparse
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy starts its BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = "polycomp-bench/1"
# The inputs of d come from SEED + d and those of a pleat n from SEED + 1000 + n,
# the same on every side and run.
SEED = 14
ENTRY_POINTS = ("classify", "compare_order", "scale_critical", "delta_polytope",
                "per_chain_deltas")
NGON_CLASSES = ("strict", "weak", "reflex")


def load_checkout(src: Path, index: int):
    """The checkout's ``src/polycomp``, imported as the package ``polycomp_<index>``
    with its ``io`` module."""
    name = f"polycomp_{index}"
    init = src / "src" / "polycomp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pc = importlib.util.module_from_spec(spec)
    sys.modules[name] = pc
    spec.loader.exec_module(pc)
    importlib.import_module(name + ".io")
    return pc


def modules(pc):
    """The modules of the checkout imported so far."""
    prefix = pc.__name__ + "."
    return [m for name, m in sys.modules.items() if name.startswith(prefix)]


def one(*args, **kwargs):  # the weight in ``counted`` of any call
    return 1


def counted(pc, run, weights):
    """Call ``run()`` with each function named in ``weights`` wrapped wherever a
    module of the checkout holds it; return the count of each, which a call
    raises by ``weights[name](*args)``.  Every patched attribute is restored,
    also when ``run`` raises."""
    counts = dict.fromkeys(weights, 0)
    patched = [(mod, name, getattr(mod, name)) for mod in modules(pc) for name in weights
               if hasattr(mod, name)]
    try:
        for mod, name, f in patched:
            def wrapper(*args, _f=f, _name=name, **kwargs):
                counts[_name] += weights[_name](*args, **kwargs)
                return _f(*args, **kwargs)

            setattr(mod, name, wrapper)
        run()
    finally:
        for mod, name, f in patched:
            setattr(mod, name, f)
    return counts


def laps(steps):
    """The us of each named step of a job, run in order: ``steps`` yields
    each step's name as the step ends."""
    out, t0 = {}, time.perf_counter_ns()
    for name in steps:
        out[name] = (time.perf_counter_ns() - t0) / 1e3
        t0 = time.perf_counter_ns()
    return out


def medians(jobs, job=True):
    """The median of each step's us over a side's ``jobs`` (``laps`` results)
    and, unless ``job`` is false, the median of their sums as ``job``."""
    out = {name: float(np.median([j[name] for j in jobs])) for name in jobs[0]}
    if job:
        out["job"] = float(np.median([sum(j.values()) for j in jobs]))
    return out


def in_turns(n_sides, repeat, step):
    """``step(k, i)`` for every side k and i < repeat, the sides taking turns
    for each i with the first side alternating; results per side, by i."""
    out = [[] for _ in range(n_sides)]
    for i in range(repeat):
        for k in (range(n_sides) if i % 2 == 0 else reversed(range(n_sides))):
            out[k].append(step(k, i))
    return out


def cube_facets(d):
    verts = list(itertools.product((0, 1), repeat=d))
    return [[i for i, v in enumerate(verts) if v[k] == side]
            for k in range(d) for side in (0, 1)]


def projective_cube(pc, rng, d):
    """A projective image of the centred unit d-cube whose hyperplane at
    infinity misses it, so it is convex with the cube's face lattice."""
    x = np.array(list(itertools.product((0, 1), repeat=d)), dtype=float) - 0.5
    a = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    c = rng.uniform(-0.3, 0.3, d)
    coords = (x @ a.T + rng.standard_normal(d)) / (1.0 + x @ c)[:, None]
    return pc.Shape(pc.build_polytope(d, 2**d, cube_facets(d)), coords)


def ngon_points(rng, n):
    """A strictly convex n-gon: an affine image of a polygon inscribed in the
    unit circle at jittered even angles."""
    t = 2 * np.pi * (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
    return np.column_stack([np.cos(t), np.sin(t)]) @ (np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2)))


def ngon_doc(rng, n, cls):
    """A shape document of an n-gon of class ``cls`` (see NGON_CLASSES): the
    ``ngon_points``, with one vertex moved for "weak" and "reflex"."""
    pts = ngon_points(rng, n)
    if cls != "strict":
        k = int(rng.integers(n))
        prev, nxt = pts[k - 1], pts[(k + 1) % n]
        mid = prev + rng.uniform(0.3, 0.7) * (nxt - prev)  # on the chord
        pts[k] = mid if cls == "weak" else mid + rng.uniform(0.2, 0.4) * (pts.mean(axis=0) - mid)
    return {"dimension": 2, "vertex_count": n, "facets": [[i, (i + 1) % n] for i in range(n)],
            "vertices": pts.tolist(), "mode": "weak" if cls == "weak" else "strict"}


def front_end(pc, doc):
    """Load and validate one shape document, one step each."""
    shape = pc.io.shape_from_dict(doc)
    yield "shape_from_dict"
    pc.polytopes.validate_shape(shape.polytope, shape.coords, shape.mode)
    yield "validate_shape"


def bench_ngon(sides, n, repeat, seed):
    """One n of the ladder for every side and class, on the same documents."""
    out = [{} for _ in sides]
    for c, cls in enumerate(NGON_CLASSES):
        rng = np.random.default_rng([seed, c])
        docs = [ngon_doc(rng, n, cls) for _ in range(repeat + 1)]
        for k, pc in enumerate(sides):
            laps(front_end(pc, docs[0]))  # warm-up: builds the polytope and its facet arrays
            out[k][cls] = {"calls": counted(pc, lambda: laps(front_end(pc, docs[0])),
                                            {"_cone_residual": one})}
        gc.collect()
        jobs = in_turns(len(sides), repeat, lambda k, i: laps(front_end(sides[k], docs[i + 1])))
        for k, side_jobs in enumerate(jobs):
            out[k][cls]["us"] = medians(side_jobs)
    return out


def pleat_pair(pc, p_pts, q_pts):
    """Shapes P and Q of the checkout and the fan of P from vertex 0, Q scaled
    so that the fan map has alpha_max 0.81."""
    poly = pc.ngon_polytope(len(p_pts))
    p, q = pc.Shape(poly, p_pts), pc.Shape(poly, q_pts)
    tri = pc.fan_triangulation(poly, 0)
    alpha = pc.triangulation_map(p, q, tri.simplices).alphas.max()
    return p, q.scaled(np.sqrt(0.81 / alpha)), tri


def pleat_job(pc, p, q, tri):
    """Pleat P onto Q over the fan and check it, one step each."""
    pe = pc.pleated_embedding(p, q, tri)
    yield "pleated_embedding"
    pc.pleat_validity(pe)
    yield "pleat_validity"
    pc.pleated_projection_chain(pe)
    yield "pleated_projection_chain"


def cold_steps(pc, p, q):
    """``fan_triangulation`` on a first call and on a repeat, then
    ``pleat_job`` on the first call's fan."""
    tri = pc.fan_triangulation(p.polytope, 0)
    yield "fan_first"
    pc.fan_triangulation(p.polytope, 0)
    yield "fan_repeat"
    yield from pleat_job(pc, p, q, tri)


def cold_job(pc, p, q):
    """The us of both fan calls of ``cold_steps`` and of its first job (the first
    fan call and the pleat steps), every ``lru_cache`` of the checkout emptied."""
    for mod in modules(pc):
        for f in list(vars(mod).values()):
            if callable(getattr(f, "cache_clear", None)):
                f.cache_clear()
    us = laps(cold_steps(pc, p, q))
    repeat = us.pop("fan_repeat")
    return {"fan_first": us["fan_first"], "fan_repeat": repeat, "first_job": sum(us.values())}


def chain_peak_bytes(pc, p, q, tri):
    """The ``tracemalloc`` peak of one ``pleated_projection_chain`` call."""
    pe = pc.pleated_embedding(p, q, tri)
    tracemalloc.start()
    try:
        pc.pleated_projection_chain(pe)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_pleat(sides, n, repeat, seed):
    """One n of the pleat ladder for every side, on the same coordinates."""
    rng = np.random.default_rng(seed)
    points = [(ngon_points(rng, n), ngon_points(rng, n)) for _ in range(repeat + 1)]
    pairs = [[pleat_pair(pc, *pts) for pts in points] for pc in sides]
    out = []
    for pc, side_pairs in zip(sides, pairs):
        laps(pleat_job(pc, *side_pairs[0]))  # warm-up: builds the polytope and its complex
        # One per leading index of the first argument, whichever kernel the side has:
        # restricted SVDs of the stage pairs, or their frames in ``_pair_alphas``.
        svd_pairs = dict.fromkeys(("restricted_singular_values", "_pair_alphas"),
                                  lambda source, target: int(np.prod(np.shape(source)[:-2])))
        calls = counted(pc, lambda: laps(pleat_job(pc, *side_pairs[0])), svd_pairs)
        out.append({"calls": {"restricted_svd_pairs": sum(calls.values())},
                    "peak_bytes": {"pleated_projection_chain":
                                   chain_peak_bytes(pc, *side_pairs[0])}})
    gc.collect()

    def turn(k, i):  # a cold round, then a warm job on the same pair, under the same drift
        p, q, tri = pairs[k][i + 1]
        return cold_job(sides[k], p, q), laps(pleat_job(sides[k], p, q, tri))

    for side_out, side_turns in zip(out, in_turns(len(sides), repeat, turn)):
        colds, jobs = zip(*side_turns)
        extra = [cold["first_job"] - sum(job.values()) for cold, job in side_turns]
        side_out["us"] = {**medians(jobs), **medians(colds, job=False),
                          "cold_extra": float(np.median(extra))}
    return out


def cube_job(pc, p, q):
    """The five entry points on (p, q), one step each."""
    pc.classify(pc.induced_map(p, q))
    yield "classify"
    for name in ENTRY_POINTS[1:]:
        getattr(pc, name)(p, q)
        yield name


def kernel_inputs(pc, p, q):
    """What ``kernel_job`` reuses: the complex, p, the chains of (p, q), their solve."""
    complex_ = pc.barycentric_complex(p.polytope)
    src, tgt = (pc.barycentric.chain_simplex_coords(complex_, s) for s in (p, q))
    return complex_, p, src, tgt, pc.affine.solve_correspondence(src, tgt)


def kernel_job(pc, complex_, p, src, tgt, corr):
    """The four kernels on one pair's chains, one step each."""
    pc.barycentric.chain_simplex_coords(complex_, p)
    yield "chain_build"
    pc.affine.degenerate(src)
    yield "flatness"
    pc.affine.solve_correspondence(src, tgt)
    yield "solve"
    corr.gram_eigenvalues()
    yield "eigvalsh"


def bench_cube(sides, d, repeat, seed):
    """One d of the ladder for every side, on the same coordinates."""
    pairs = []
    for pc in sides:
        rng = np.random.default_rng(seed)
        pairs.append([(projective_cube(pc, rng, d), projective_cube(pc, rng, d))
                      for _ in range(repeat + 2)])
    for pc, side_pairs in zip(sides, pairs):
        laps(cube_job(pc, *side_pairs[0]))  # warm-up: builds the polytope, its chains and complex
    weights = dict.fromkeys(("chain_simplex_coords", "degenerate", "solve_correspondence"), one)
    counts = [counted(pc, lambda: laps(cube_job(pc, *side_pairs[1])), weights)
              for pc, side_pairs in zip(sides, pairs)]
    gc.collect()
    jobs = in_turns(len(sides), repeat, lambda k, i: laps(cube_job(sides[k], *pairs[k][i + 2])))
    inputs = [kernel_inputs(pc, *side_pairs[2]) for pc, side_pairs in zip(sides, pairs)]
    kernels = in_turns(len(sides), repeat, lambda k, i: laps(kernel_job(sides[k], *inputs[k])))
    return [{"chains": side_inputs[0].simplex_count, "calls": count,
             "us": {**medians(side_jobs), **medians(side_kernels, job=False)}}
            for side_inputs, side_jobs, side_kernels, count in zip(inputs, jobs, kernels, counts)]


def provenance(src):
    digest = hashlib.sha256()
    for path in sorted((src / "src" / "polycomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(  # "-dirty" when the checkout has uncommitted edits
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "src_digest": digest.hexdigest()[:16]}


def machine():
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        cpu = None
    pinned = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"cpu": cpu or platform.processor() or None, "nproc": os.cpu_count(),
            "pinned_cpu": pinned, "blas_threads": 1, "python": platform.python_version(),
            "numpy": np.__version__}


def parse_src(text):
    label, sep, path = text.rpartition("=")
    src = Path(path).resolve()
    if not (src / "src" / "polycomp" / "__init__.py").exists():
        raise argparse.ArgumentTypeError(f"no src/polycomp under {path}")
    return (label if sep else src.name), src


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--src", type=parse_src, action="append", metavar="[LABEL=]DIR",
                    help="checkout whose src/polycomp is timed, filed under LABEL "
                         "(default: this checkout as 'change'); repeat to take turns")
    ap.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--ngons", type=int, nargs="+", default=[8, 32, 128])
    ap.add_argument("--pleats", type=int, nargs="+", default=[8, 32, 128])
    ap.add_argument("--repeat", type=int, default=30,
                    help="timed jobs, and calls of each kernel, per d and checkout")
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    if (args.repeat < 1 or any(d < 2 for d in args.dims)
            or any(n < 4 for n in args.ngons + args.pleats)):
        ap.error("--repeat must be at least 1, every --dims entry at least 2 "
                 "and every --ngons and --pleats entry at least 4")
    srcs = args.src or [("change", ROOT)]
    labels = [label for label, _ in srcs]
    if len(set(labels)) != len(labels):
        ap.error("each --src needs its own label")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sides = [load_checkout(src, k) for k, (_, src) in enumerate(srcs)]
    cubes = {str(d): bench_cube(sides, d, args.repeat, SEED + d) for d in args.dims}
    ngons = {str(n): bench_ngon(sides, n, args.repeat, SEED + n) for n in args.ngons}
    pleats = {str(n): bench_pleat(sides, n, args.repeat, SEED + 1000 + n) for n in args.pleats}
    doc = {"layout": LAYOUT, "machine": machine(), "repeat": args.repeat, "seed": SEED,
           "runs": {label: {**provenance(src), "cubes": {d: c[k] for d, c in cubes.items()},
                            "ngons": {n: g[k] for n, g in ngons.items()},
                            "pleats": {n: g[k] for n, g in pleats.items()}}
                    for k, (label, src) in enumerate(srcs)}}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for label, run in doc["runs"].items():
        for d, cube in run["cubes"].items():
            print(f"{label} d={d} chains={cube['chains']} job={cube['us']['job']:.0f}us "
                  + " ".join(f"{k}={v}" for k, v in cube["calls"].items()))
        for n, ngon in run["ngons"].items():
            print(f"{label} n={n} " + " ".join(
                f"{cls}: load={r['us']['shape_from_dict']:.0f}us "
                f"validate={r['us']['validate_shape']:.0f}us nnls={r['calls']['_cone_residual']}"
                for cls, r in ngon.items()))
        for n, pleat in run["pleats"].items():
            print(f"{label} pleat n={n} "
                  + " ".join(f"{k}={v:.0f}us" for k, v in pleat["us"].items())
                  + f" svd_pairs={pleat['calls']['restricted_svd_pairs']}"
                  + f" chain_peak={pleat['peak_bytes']['pleated_projection_chain']}B")


if __name__ == "__main__":
    main()
