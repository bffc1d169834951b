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
  pair's chains: the cold build of the d-cube's barycentric complex
  (``barycentric_complex.__wrapped__``, past its cache), the chain build
  (``chain_simplex_coords``), the flatness pass (``degenerate``), the solve
  (``solve_correspondence``) and the eigenvalues (``gram_eigenvalues``, one
  ``eigvalsh`` of the Gram stack);

and the calls of ``chain_simplex_coords``, ``_flat`` (the flatness test, on
edge matrices) and ``linear_parts`` (the solve, from edge inverses).

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
us of each over ``--repeat`` jobs, each on a fresh pair, the calls of one job
to ``np.linalg.qr``, ``eigh`` and ``svd`` (``LINALG``), and the work of one
``pleated_projection_chain`` call: the (stage, simplex) pairs whose maps it
solves (``solved_pairs``, the leading sizes of its ``linear_parts`` calls:
one per simplex from the source, plus one per pair solved against the
previous stage) and the stage frames it factors (``stage_frames``, those of
its ``_gram_schmidt`` calls).  A checkout without these names counts 0.  It also
records, each as a median over ``--repeat`` rounds that start with every
``lru_cache`` of the checkout emptied, as in a fresh process:
``fan_triangulation``'s first call and a repeat of it, and the first
job (that first fan call and the three steps).  Each round is followed at
once by the timed job on its pair, so a first job and a warm one see the
same host speed; ``cold_extra`` is the median over rounds of the first job's
us minus its warm job's.  And it records the ``tracemalloc`` peak of one
``pleated_projection_chain`` call, in bytes.

For each K of the sequence ladder, a job runs ``sequence_report(window=K/2,
eps=0.1, limit)`` on a family of K octagons whose vertex k moves onto its
neighbours' chord by halves, plus the weakly convex limit on the chord: all
K(K-1)/2 member pairs and K limit pairs, 16 chains each.  The script records
the median us of the job over ``--repeat`` jobs, each on a fresh family, and
the median of each layer under it over ``--repeat`` runs on one family's
request, all pairs in one block: the chain coordinates of every shape
(``chain_coords``), their flatness flags (``flags``), then, where the checkout
has the edge-form kernel, each shape's edge inverses (``edge_inverses``) and
the pairs' linear parts from them (``linear``), or else the pairs' homogeneous
solve (``linear``, with no ``edge_inverses``), and the Gram eigenvalues
(``eigvalsh``: the checkout's ``gram_eigenvalues``, a closed form for d = 2
where it has one).  It also counts the calls of ``chain_simplex_coords``,
``degenerate``, ``solve_correspondence`` and ``linear_parts`` in a job.

Calls are counted over one more job, with the functions wrapped wherever a
module of the checkout holds them (``np.linalg`` itself for ``LINALG``):
counts, not formulas.

For each subcommand in ``--cli`` (default: all), run with the arguments of its
golden in tests/golden_runs.py, the script makes 2 x ``--repeat`` cold ``python -m
polycomp`` calls per checkout, the checkouts taking turns, each in a fresh
process with ``PYTHONDONTWRITEBYTECODE=1``, so polycomp is compiled from
source unless the checkout holds a ``__pycache__`` (recorded as
``bytecode_cached``).  It records the median wall time of a call, in seconds,
whether every call printed the golden byte for byte, and, from a quarter as
many calls under ``-X importtime``, the median of polycomp's own import time
(the self times of ``polycomp`` and its modules), of numpy's cumulative import
time, and the polycomp modules a call imports.  As a baseline it records the
median wall time of ``python -c pass`` and of ``python -c "import numpy"``.

Every ``--src`` checkout is imported into this one process under its own
package name, and the checkouts take turns job by job and call by call, on
the same inputs, with the first side alternating.  So a parent commit and a
change are measured by the same script, and a host whose speed drifts slows
every side alike.  BLAS runs on one thread, and the process on the
highest-numbered CPU it may use.

Usage:
    python3 scripts/bench.py [--src [LABEL=]DIR ...] [--dims 3 4 5]
                             [--ngons 8 32 128] [--pleats 8 32 128]
                             [--sequences 8 40] [--repeat N] [--cli SUB ...]
                             [--out FILE]

Each checkout's numbers go to ``runs[LABEL]`` of the JSON file ``--out``
(LABEL defaults to the directory's name; with no ``--src``, this checkout
is timed as ``change``), the CLI baseline to ``cli_baseline``.  Example:

    python3 scripts/bench.py --src parent=../parent --src change=. --out BENCH.json
"""

import argparse
import gc
import hashlib
import importlib.util
import inspect
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
DATA = ROOT / "tests" / "data"
LAYOUT = "polycomp-bench/1"
# The inputs of d come from SEED + d, those of a pleat n from SEED + 1000 + n and
# those of a sequence K from SEED + 2000 + K, the same on every side and run.
SEED = 14
# The np.linalg functions whose calls a pleat job makes through ``np.linalg`` are counted
# (numpy's calls among its own functions, such as ``pinv``'s ``svd``, are not seen).
LINALG = ("qr", "eigh", "svd")
ENTRY_POINTS = ("classify", "compare_order", "scale_critical", "delta_polytope",
                "per_chain_deltas")
NGON_CLASSES = ("strict", "weak", "reflex")


def load_golden_runs():
    """tests/golden_runs.py: the golden runs, one per subcommand among them."""
    spec = importlib.util.spec_from_file_location("golden_runs", ROOT / "tests" / "golden_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = load_golden_runs()


def load_checkout(src: Path, index: int):
    """The checkout's ``src/polycomp``, imported as the package ``polycomp_<index>``
    with its ``io`` module and every module that holds a public name."""
    name = f"polycomp_{index}"
    init = src / "src" / "polycomp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pc = importlib.util.module_from_spec(spec)
    sys.modules[name] = pc
    spec.loader.exec_module(pc)
    importlib.import_module(name + ".io")
    for public in getattr(pc, "__all__", ()):  # loads each module ``counted`` patches
        getattr(pc, public)
    return pc


def modules(pc):
    """The modules of the checkout imported so far."""
    prefix = pc.__name__ + "."
    return [m for name, m in sys.modules.items() if name.startswith(prefix)]


def one(*args, **kwargs):  # the weight in ``counted`` of any call
    return 1


def counted(pc, run, weights, mods=None):
    """Call ``run()`` with each function named in ``weights`` wrapped wherever a
    module of the checkout holds it, or else one of ``mods``; return the count of
    each, which a call raises by ``weights[name](*args)``.  Every patched attribute
    is restored, also when ``run`` raises."""
    counts = dict.fromkeys(weights, 0)
    patched = [(mod, name, getattr(mod, name)) for mod in mods or modules(pc) for name in weights
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


def chain_pairs(pc, p, q, tri):
    """The (stage, simplex) pairs one ``pleated_projection_chain`` call solves and the
    stage frames it factors, where the checkout's chain calls them by these names."""
    pe = pc.pleated_embedding(p, q, tri)

    def lead(first, *rest):  # one per leading index of the first argument
        return int(np.prod(np.shape(first)[:-2]))

    calls = counted(pc, lambda: pc.pleated_projection_chain(pe),
                    dict.fromkeys(("linear_parts", "_gram_schmidt"), lead))
    return {"solved_pairs": calls["linear_parts"], "stage_frames": calls["_gram_schmidt"]}


def bench_pleat(sides, n, repeat, seed):
    """One n of the pleat ladder for every side, on the same coordinates."""
    rng = np.random.default_rng(seed)
    points = [(ngon_points(rng, n), ngon_points(rng, n)) for _ in range(repeat + 1)]
    pairs = [[pleat_pair(pc, *pts) for pts in points] for pc in sides]
    out = []
    for pc, side_pairs in zip(sides, pairs):
        laps(pleat_job(pc, *side_pairs[0]))  # warm-up: builds the polytope and its complex
        linalg = counted(pc, lambda: laps(pleat_job(pc, *side_pairs[0])),
                         dict.fromkeys(LINALG, one), mods=[np.linalg])
        out.append({"calls": {**chain_pairs(pc, *side_pairs[0]), **linalg},
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
    src, tgt = (pc.barycentric.chain_simplex_coords(complex_, s.coords) for s in (p, q))
    return complex_, p, src, tgt, solve(pc.affine, src, tgt)


def solve(aff, src, tgt):
    """The linear parts of the maps between two vertex stacks by ``solve_correspondence``,
    which takes their edge stacks, or, in older checkouts, the vertex stacks."""
    if "e_src" in inspect.signature(aff.solve_correspondence).parameters:
        return aff.solve_correspondence(aff.edges(src), aff.edges(tgt))
    return aff.solve_correspondence(src, tgt).linear


def kernel_job(pc, complex_, p, src, tgt, linear):
    """The complex built cold and the four kernels on one pair's chains, one step each."""
    pc.barycentric.barycentric_complex.__wrapped__(p.polytope)
    yield "complex_build"
    pc.barycentric.chain_simplex_coords(complex_, p.coords)
    yield "chain_build"
    pc.affine.degenerate(src)
    yield "flatness"
    solve(pc.affine, src, tgt)
    yield "solve"
    pc.affine.gram_eigenvalues(linear)
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
    weights = dict.fromkeys(("chain_simplex_coords", "_flat", "linear_parts"), one)
    counts = [counted(pc, lambda: laps(cube_job(pc, *side_pairs[1])), weights)
              for pc, side_pairs in zip(sides, pairs)]
    gc.collect()
    jobs = in_turns(len(sides), repeat, lambda k, i: laps(cube_job(sides[k], *pairs[k][i + 2])))
    inputs = [kernel_inputs(pc, *side_pairs[2]) for pc, side_pairs in zip(sides, pairs)]
    kernels = in_turns(len(sides), repeat, lambda k, i: laps(kernel_job(sides[k], *inputs[k])))
    return [{"chains": side_inputs[0].simplex_count, "calls": count,
             "us": {**medians(side_jobs), **medians(side_kernels, job=False)}}
            for side_inputs, side_jobs, side_kernels, count in zip(inputs, jobs, kernels, counts)]


def octagon_family(pc, rng, size):
    """K = ``size`` octagons whose vertex k lies 2^-i of the way from its neighbours'
    chord, i = 1..K, and the weakly convex limit with vertex k on the chord."""
    base = ngon_points(rng, 8)
    k = int(rng.integers(8))
    flat = base[k - 1] + rng.uniform(0.35, 0.65) * (base[(k + 1) % 8] - base[k - 1])
    poly = pc.ngon_polytope(8)

    def member(tau, mode="strict"):
        coords = base.copy()
        coords[k] = flat + tau * (base[k] - flat)
        return pc.Shape(poly, coords, mode=mode)

    return [member(0.5**i) for i in range(1, size + 1)], member(0.0, "weak")


def sequence_job(pc, seq, limit):
    pc.sequence_report(seq, window=len(seq) // 2, eps=0.1, limit=limit)
    yield "sequence_report"


def request_pairs(size):
    """The (i, j) pairs of a K = ``size`` request: the members', then each to the limit K."""
    return np.concatenate([np.column_stack(np.triu_indices(size, k=1)),
                           np.column_stack([np.arange(size), np.full(size, size)])])


def sequence_layers(pc, complex_, shapes, pairs):
    """The layers of one request's pair deltas, one step each, all pairs in one block."""
    aff = pc.affine
    if hasattr(aff, "linear_parts"):  # the edge-form kernel: one inverse per shape's chain
        x = pc.barycentric.chain_simplex_coords(complex_, np.stack([s.coords for s in shapes]))
        yield "chain_coords"
        bad = aff.degenerate(x)
        yield "flags"
        e = aff.edges(x)
        inv = aff.edge_inverses(e, bad)
        yield "edge_inverses"
        linear = aff.linear_parts(inv[pairs[:, 0]].reshape(-1, *e.shape[2:]),
                                  e[pairs[:, 1]].reshape(-1, *e.shape[2:]))
        yield "linear"
        aff.gram_eigenvalues(linear)
    else:  # one homogeneous solve per chain of every pair
        x = np.stack([pc.barycentric.chain_simplex_coords(complex_, s.coords) for s in shapes])
        yield "chain_coords"
        aff.degenerate(x)
        yield "flags"
        corr = aff.solve_correspondence(x[pairs[:, 0]].reshape(-1, *x.shape[2:]),
                                        x[pairs[:, 1]].reshape(-1, *x.shape[2:]))
        yield "linear"
        aff.gram_eigenvalues(corr.linear)
    yield "eigvalsh"


def bench_sequence(sides, size, repeat, seed):
    """One K of the sequence ladder for every side, on the same coordinates."""
    families = []
    for pc in sides:
        rng = np.random.default_rng(seed)
        families.append([octagon_family(pc, rng, size) for _ in range(repeat + 1)])
    weights = dict.fromkeys(("chain_simplex_coords", "degenerate", "solve_correspondence",
                             "linear_parts"), one)
    counts = []
    for pc, side_families in zip(sides, families):
        laps(sequence_job(pc, *side_families[0]))  # warm-up: builds the polytope and its complex
        counts.append(counted(pc, lambda: laps(sequence_job(pc, *side_families[0])), weights))
    gc.collect()
    jobs = in_turns(len(sides), repeat, lambda k, i: laps(sequence_job(sides[k],
                                                                       *families[k][i + 1])))
    pairs = request_pairs(size)
    requests = [(pc.barycentric_complex(limit.polytope), seq + [limit], pairs)
                for pc, ((seq, limit), *_) in zip(sides, families)]
    layers = in_turns(len(sides), repeat, lambda k, i: laps(sequence_layers(sides[k],
                                                                            *requests[k])))
    return [{"pairs": len(pairs), "calls": count,
             "us": {**medians(side_jobs, job=False), **medians(side_layers, job=False)}}
            for side_jobs, side_layers, count in zip(jobs, layers, counts)]


def wall_s(cmd, env):
    """The wall time of one call of ``cmd`` in tests/data, in seconds, and its process."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=DATA, env=env, capture_output=True)
    return time.perf_counter() - t0, proc


def import_times(stderr: bytes):
    """From ``-X importtime`` lines: the summed self us of polycomp and its modules,
    numpy's cumulative us, and the polycomp modules imported."""
    own, numpy_us, names = 0, 0, []
    for line in stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative, name = (part.strip() for part in line[12:].split("|"))
        if name == "polycomp" or name.startswith("polycomp."):
            own += int(self_us)
            names.append(name)
        elif name == "numpy":
            numpy_us = int(cumulative)
    return own, numpy_us, sorted(names)


def bench_cli(srcs, subs, calls):
    """Cold ``python -m polycomp`` calls of each subcommand in ``subs``, the checkouts
    taking turns call by call."""
    envs = [{**os.environ, "PYTHONPATH": str(src / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            for src in srcs]
    out = [{} for _ in srcs]
    for sub in subs:
        cmd = ["-m", "polycomp", *GOLDEN.golden_args(sub)]
        golden = (DATA / GOLDEN.GOLDEN_RUNS[sub][0]).read_bytes()
        timed = in_turns(len(srcs), calls,
                         lambda k, i: wall_s([sys.executable, *cmd], envs[k]))
        traced = in_turns(len(srcs), max(1, calls // 4),
                          lambda k, i: wall_s([sys.executable, "-X", "importtime", *cmd],
                                              envs[k])[1])
        for k, (side_timed, side_traced) in enumerate(zip(timed, traced)):
            times = [import_times(proc.stderr) for proc in side_traced]
            out[k][sub] = {
                "s": float(np.median([wall for wall, _ in side_timed])),
                "calls": calls,
                "golden": all(proc.stdout == golden for _, proc in side_timed),
                "polycomp_import_s": float(np.median([own for own, _, _ in times])) / 1e6,
                "numpy_import_s": float(np.median([num for _, num, _ in times])) / 1e6,
                "modules": times[0][2],
            }
    baseline = {name: float(np.median([wall_s([sys.executable, "-c", code], envs[0])[0]
                                       for _ in range(calls)]))
                for name, code in (("python_s", "pass"), ("numpy_s", "import numpy"))}
    return out, baseline


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
    return {"commit": commit, "src_digest": digest.hexdigest()[:16],
            "bytecode_cached": (src / "src" / "polycomp" / "__pycache__").exists()}


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
    ap.add_argument("--sequences", type=int, nargs="+", default=[8, 40])
    ap.add_argument("--repeat", type=int, default=30,
                    help="timed jobs, and calls of each kernel, per d and checkout; "
                         "twice as many cold calls of each subcommand")
    ap.add_argument("--cli", nargs="+", choices=sorted(GOLDEN.SUBCOMMANDS),
                    default=GOLDEN.SUBCOMMANDS, metavar="SUB",
                    help="subcommands timed cold (default: all)")
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    if (args.repeat < 1 or any(d < 2 for d in args.dims)
            or any(n < 4 for n in args.ngons + args.pleats) or any(k < 1 for k in args.sequences)):
        ap.error("--repeat must be at least 1, every --dims entry at least 2, every --ngons "
                 "and --pleats entry at least 4 and every --sequences entry at least 1")
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
    sequences = {str(k): bench_sequence(sides, k, args.repeat, SEED + 2000 + k)
                 for k in args.sequences}
    cli, baseline = bench_cli([src for _, src in srcs], args.cli, 2 * args.repeat)
    doc = {"layout": LAYOUT, "machine": machine(), "repeat": args.repeat, "seed": SEED,
           "runs": {label: {**provenance(src), "cubes": {d: c[k] for d, c in cubes.items()},
                            "ngons": {n: g[k] for n, g in ngons.items()},
                            "pleats": {n: g[k] for n, g in pleats.items()},
                            "sequences": {n: g[k] for n, g in sequences.items()},
                            "cli": cli[k]}
                    for k, (label, src) in enumerate(srcs)},
           "cli_baseline": baseline}
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
                  + f" solved_pairs={pleat['calls']['solved_pairs']}"
                  + f" stage_frames={pleat['calls']['stage_frames']}"
                  + "".join(f" {name}={pleat['calls'][name]}" for name in LINALG)
                  + f" chain_peak={pleat['peak_bytes']['pleated_projection_chain']}B")
        for k, seq in run["sequences"].items():
            print(f"{label} sequence K={k} pairs={seq['pairs']} "
                  + " ".join(f"{name}={v:.0f}us" for name, v in seq["us"].items())
                  + " " + " ".join(f"{name}={v}" for name, v in seq["calls"].items()))
        for sub, row in run["cli"].items():
            print(f"{label} cli {sub} {row['s'] * 1e3:.1f}ms golden={row['golden']} "
                  f"polycomp_import={row['polycomp_import_s'] * 1e3:.1f}ms "
                  f"modules={len(row['modules'])}")


if __name__ == "__main__":
    main()
