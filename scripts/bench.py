#!/usr/bin/env python3
"""Time the five pair entry points on projective d-cubes and the shape front
end on n-gons, and count the kernel calls they make, for one checkout or
several side by side.

For each d of the ladder, a job builds a pair P, Q of projective images of
the d-cube and runs ``classify(induced_map(P, Q))``, ``compare_order``,
``scale_critical``, ``delta_polytope`` and ``per_chain_deltas`` on it, in
that order, as one client would.  The script records, in microseconds:

- the median of each entry point and of the whole job over ``--repeat``
  jobs, each on a fresh pair;
- the median of each kernel under them over ``--repeat`` calls on one
  pair's chains: the chain build (``chain_simplex_coords``), the flatness
  pass (``degenerate``), the solve (``solve_correspondence``) and the
  eigenvalues (``gram_eigenvalues``, one ``eigvalsh`` of the Gram stack).

One more job per d runs with ``chain_simplex_coords``, ``degenerate`` and
``solve_correspondence`` wrapped wherever a module of the checkout holds
them, and the calls the wrappers counted are recorded: counts, not formulas.

For each n of the n-gon ladder and each class (strictly convex; weakly
convex, one vertex on its neighbours' chord; reflex, one vertex pulled inside
the hull), a job loads a shape document with ``io.shape_from_dict`` and runs
``validate_shape`` on it.  The script records the median us of each over
``--repeat`` jobs, each on a fresh n-gon, and the ``_cone_residual`` (NNLS)
calls that a wrapper counted over one more job.

For each n of the pleat ladder, a job pleats a strictly convex n-gon P over
its fan from vertex 0 onto a second one, Q, scaled so that the fan map has
alpha_max 0.81: ``pleated_embedding``, then ``pleat_validity`` and
``pleated_projection_chain`` on the embedding.  The script records the median
us of each over ``--repeat`` jobs, each on a fresh pair, and the (stage,
simplex) pairs handed to ``restricted_singular_values`` that a wrapper
counted over one more job.  It also records, each as a median over
``--repeat`` rounds that start with every ``lru_cache`` of the checkout
emptied, as in a fresh process: ``fan_triangulation``'s first call and a
repeat of it, and the first job (that first fan call and the three steps).
And it records the ``tracemalloc`` peak of one ``pleated_projection_chain``
call, in bytes.

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
KERNELS = ("chain_simplex_coords", "degenerate", "solve_correspondence")
NGON_CLASSES = ("strict", "weak", "reflex")
PLEAT_STEPS = ("pleated_embedding", "pleat_validity", "pleated_projection_chain")
COLD_STEPS = ("fan_first", "fan_repeat", "first_job")


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
    """Load and validate one shape document; return each step's time in us."""
    load = sys.modules[pc.__name__ + ".io"].shape_from_dict
    validate = sys.modules[pc.__name__ + ".polytopes"].validate_shape
    t0 = time.perf_counter_ns()
    shape = load(doc)
    t1 = time.perf_counter_ns()
    validate(shape.polytope, shape.coords, shape.mode)
    return (t1 - t0) / 1e3, (time.perf_counter_ns() - t1) / 1e3


def counted_nnls(pc, doc):
    """``_cone_residual`` calls of one ``front_end`` job, from a wrapper."""
    polytopes = sys.modules[pc.__name__ + ".polytopes"]
    f, count = polytopes._cone_residual, [0]

    def wrapper(*args):
        count[0] += 1
        return f(*args)

    polytopes._cone_residual = wrapper
    try:
        front_end(pc, doc)
    finally:
        polytopes._cone_residual = f
    return count[0]


def bench_ngon(sides, n, repeat, seed):
    """One n of the ladder for every side and class, on the same documents."""
    out = [{} for _ in sides]
    for c, cls in enumerate(NGON_CLASSES):
        rng = np.random.default_rng([seed, c])
        docs = [ngon_doc(rng, n, cls) for _ in range(repeat + 1)]
        for k, pc in enumerate(sides):
            front_end(pc, docs[0])  # warm-up: builds the polytope and its facet arrays
            out[k][cls] = {"calls": {"_cone_residual": counted_nnls(pc, docs[0])}}
        gc.collect()
        jobs = in_turns(len(sides), repeat, lambda k, i: front_end(sides[k], docs[i + 1]))
        for k, side_jobs in enumerate(jobs):
            side_jobs = np.array(side_jobs)
            out[k][cls]["us"] = {"shape_from_dict": float(np.median(side_jobs[:, 0])),
                                 "validate_shape": float(np.median(side_jobs[:, 1])),
                                 "job": float(np.median(side_jobs.sum(axis=1)))}
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
    """Pleat P onto Q over the fan and check it; return each step's time in us."""
    t0 = time.perf_counter_ns()
    pe = pc.pleated_embedding(p, q, tri)
    t1 = time.perf_counter_ns()
    pc.pleat_validity(pe)
    t2 = time.perf_counter_ns()
    pc.pleated_projection_chain(pe)
    stamps = (t0, t1, t2, time.perf_counter_ns())
    return {name: (hi - lo) / 1e3 for name, lo, hi in zip(PLEAT_STEPS, stamps, stamps[1:])}


def counted_svd_pairs(pc, p, q, tri):
    """The (stage, simplex) pairs one ``pleat_job`` hands to
    ``restricted_singular_values``, from a wrapper: one per leading index of
    its stacked source."""
    lifting = sys.modules[pc.__name__ + ".lifting"]
    f, count = lifting.restricted_singular_values, [0]

    def wrapper(source, target):
        count[0] += int(np.prod(np.shape(source)[:-2]))
        return f(source, target)

    lifting.restricted_singular_values = wrapper
    try:
        pleat_job(pc, p, q, tri)
    finally:
        lifting.restricted_singular_values = f
    return count[0]


def empty_caches(pc):
    """Empty every ``lru_cache`` in the checkout's modules, as in a fresh process."""
    prefix = pc.__name__ + "."
    for mod in [m for name, m in sys.modules.items() if name.startswith(prefix)]:
        for f in list(vars(mod).values()):
            if callable(getattr(f, "cache_clear", None)):
                f.cache_clear()


def cold_job(pc, p, q):
    """Time ``fan_triangulation`` on a first call after ``empty_caches`` and on a
    repeat, and the first job (that first call, then ``pleat_job``); us."""
    empty_caches(pc)
    t0 = time.perf_counter_ns()
    tri = pc.fan_triangulation(p.polytope, 0)
    t1 = time.perf_counter_ns()
    pc.fan_triangulation(p.polytope, 0)
    first = (t1 - t0) / 1e3
    return {"fan_first": first, "fan_repeat": (time.perf_counter_ns() - t1) / 1e3,
            "first_job": first + sum(pleat_job(pc, p, q, tri).values())}


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
        pleat_job(pc, *side_pairs[0])  # warm-up: builds the polytope and its complex
        out.append({"calls": {"restricted_svd_pairs": counted_svd_pairs(pc, *side_pairs[0])},
                    "peak_bytes": {"pleated_projection_chain":
                                   chain_peak_bytes(pc, *side_pairs[0])}})
    gc.collect()
    jobs = in_turns(len(sides), repeat, lambda k, i: pleat_job(sides[k], *pairs[k][i + 1]))
    colds = in_turns(len(sides), repeat, lambda k, i: cold_job(sides[k], *pairs[k][i + 1][:2]))
    for side_out, side_jobs, side_colds in zip(out, jobs, colds):
        us = {name: float(np.median([j[name] for j in side_jobs])) for name in PLEAT_STEPS}
        us["job"] = float(np.median([sum(j.values()) for j in side_jobs]))
        us.update({name: float(np.median([c[name] for c in side_colds])) for name in COLD_STEPS})
        side_out["us"] = us
    return out


def timed_us(f):
    t0 = time.perf_counter_ns()
    f()
    return (time.perf_counter_ns() - t0) / 1e3


def job(pc, p, q):
    """Run the five entry points on (p, q); return each one's time in us."""
    return [timed_us(f) for f in (lambda: pc.classify(pc.induced_map(p, q)),
                                  lambda: pc.compare_order(p, q),
                                  lambda: pc.scale_critical(p, q),
                                  lambda: pc.delta_polytope(p, q),
                                  lambda: pc.per_chain_deltas(p, q))]


def counted_job(pc, p, q):
    """Kernel call counts of one job, from wrappers on every module name of
    the checkout that holds a kernel."""
    counts = dict.fromkeys(KERNELS, 0)
    patched = []
    prefix = pc.__name__ + "."
    for mod in [m for name, m in sys.modules.items() if name.startswith(prefix)]:
        for name in KERNELS:
            f = getattr(mod, name, None)
            if f is None:
                continue

            def wrapper(*args, _f=f, _name=name, **kwargs):
                counts[_name] += 1
                return _f(*args, **kwargs)

            patched.append((mod, name, f))
            setattr(mod, name, wrapper)
    try:
        job(pc, p, q)
    finally:
        for mod, name, f in patched:
            setattr(mod, name, f)
    return counts


def kernel_calls(pc, p, q):
    """The four kernels on the chains of (p, q), as calls with no arguments."""
    chains = sys.modules[pc.__name__ + ".barycentric"].chain_simplex_coords
    affine = sys.modules[pc.__name__ + ".affine"]
    complex_ = pc.barycentric_complex(p.polytope)
    src, tgt = chains(complex_, p), chains(complex_, q)
    corr = affine.solve_correspondence(src, tgt)
    return {"chain_build": lambda: chains(complex_, p),
            "flatness": lambda: affine.degenerate(src),
            "solve": lambda: affine.solve_correspondence(src, tgt),
            "eigvalsh": corr.gram_eigenvalues}


def in_turns(n_sides, repeat, step):
    """``step(k, i)`` for every side k and i < repeat, the sides taking turns
    for each i with the first side alternating; results per side, by i."""
    out = [[] for _ in range(n_sides)]
    for i in range(repeat):
        for k in (range(n_sides) if i % 2 == 0 else reversed(range(n_sides))):
            out[k].append(step(k, i))
    return out


def bench_cube(sides, d, repeat, seed):
    """One d of the ladder for every side, on the same coordinates."""
    pairs = []
    for pc in sides:
        rng = np.random.default_rng(seed)
        pairs.append([(projective_cube(pc, rng, d), projective_cube(pc, rng, d))
                      for _ in range(repeat + 2)])
    for pc, side_pairs in zip(sides, pairs):
        job(pc, *side_pairs[0])  # warm-up: builds the polytope, its chains and complex
    counts = [counted_job(pc, *side_pairs[1]) for pc, side_pairs in zip(sides, pairs)]
    gc.collect()
    jobs = in_turns(len(sides), repeat, lambda k, i: job(sides[k], *pairs[k][i + 2]))
    calls = [kernel_calls(pc, *side_pairs[2]) for pc, side_pairs in zip(sides, pairs)]
    kernels = in_turns(len(sides), repeat,
                       lambda k, i: {name: timed_us(f) for name, f in calls[k].items()})
    out = []
    for pc, side_pairs, side_jobs, side_kernels, count in zip(sides, pairs, jobs, kernels,
                                                              counts):
        side_jobs = np.array(side_jobs)
        us = {name: float(np.median(col)) for name, col in zip(ENTRY_POINTS, side_jobs.T)}
        us["job"] = float(np.median(side_jobs.sum(axis=1)))
        us.update({name: float(np.median([r[name] for r in side_kernels]))
                   for name in side_kernels[0]})
        chains = pc.barycentric_complex(side_pairs[0][0].polytope).simplex_count
        out.append({"chains": chains, "us": us, "calls": count})
    return out


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
