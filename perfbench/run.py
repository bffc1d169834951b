#!/usr/bin/env python3
"""polycomp benchmark: seeded workloads against the library API and the CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/polycomp must exist).  One run:

1. checks the reference oracle against tests/data/golden_{classify,distance}.json;
2. starts SETUP_RUNS fresh workers one after another; set-up time is measured
   from each worker's start until it reports READY (polycomp imported, inputs
   generated, one warm-up job run).  The last worker goes on to run one
   closed-loop client for S seconds in total;
3. makes one untimed fresh ``python -m polycomp <subcommand>`` call on the
   workload's own files, then one timed call after each of CLI_CALLS equal
   segments of the closed loop, while the worker waits;
4. with --trace 1, also times ``python -X importtime -c "import polycomp"``
   and reports per-layer numbers from the spans, written to
   .perfbench/traces/<workload>-seed<N>.json.

Every time is CPU time scaled to a reference host speed by the probe units
run next to it (probe.py): one after every job inside the worker, and
PROBE_UNITS on each side of every set-up and CLI call in this process.  The
run and all its children are pinned to one CPU.

Every job and CLI call is checked against the oracle and invariants.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) of BENCHMARK.json.  BLAS/OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
CLI_CALLS = 8
PROBE_UNITS = 3
IMPORT_PROBES = 3
WORKER_GRACE_S = 120.0
CALL_TIMEOUT_S = 60.0
MAX_ERRORS_SHOWN = 5

WORKLOADS = ("pairs-cube4", "validate-ngon", "sequence-octagon", "pleat-ngon")
FUNCTIONS = (
    "io.shape_from_dict",
    "polytopes.validate_shape", "polytopes.fan_triangulation",
    "barycentric.induced_map",
    "spectral.classify", "spectral.compare_order", "spectral.scale_critical",
    "spectral.edge_contraction_check",
    "metric.delta_polytope", "metric.per_chain_deltas", "metric.sequence_report",
    "lifting.pleated_embedding", "lifting.pleat_validity", "lifting.pleated_projection_chain",
)
SUBCOMMANDS = ("classify", "order", "scale", "distance", "sequence", "pleat")
WORK_KEYS = ("chains", "vertices_validated", "delta_pairs", "restricted_svds")
RATES = (  # (metric, span name, work count)
    ("barycentric.induced_map.us_per_chain", "barycentric.induced_map", "chains"),
    ("polytopes.validate_shape.us_per_vertex", "polytopes.validate_shape", "vertices_validated"),
    ("metric.sequence_report.us_per_delta", "metric.sequence_report", "delta_pairs"),
    ("lifting.pleated_projection_chain.us_per_svd", "lifting.pleated_projection_chain",
     "restricted_svds"),
)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def provenance(seed: int, cpus: set) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CALL_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polycomp").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "nproc": len(cpus), "pinned_cpu": max(cpus), "cpu": cpu}


class Processes:
    """Every child process of the run, so that none outlives it."""

    def __init__(self):
        self.live = []

    def start(self, argv, env, stdin=subprocess.DEVNULL) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=stdin, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        self.live.append(proc)
        return proc

    def finish(self, proc, timeout) -> tuple[str, str]:
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            self.stop(proc)
        return out, err

    def stop(self, proc):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc)


class Worker:
    """One worker process and its line protocol (see worker.py)."""

    def __init__(self, procs, env, args, outdir: Path, setup_only: bool):
        outdir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--trace", str(args.trace), "--outdir", str(outdir),
                "--cli-calls", str(CLI_CALLS)]
        if setup_only:
            argv.append("--setup-only")
        self.procs, self.outdir = procs, outdir
        start = perf_counter()
        self.proc = procs.start(argv, env, stdin=subprocess.PIPE)
        line = self.expect("READY", WORKER_GRACE_S)
        self.setup = {"cpu": float(line.split()[1]), "wall": perf_counter() - start}

    def expect(self, word: str, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if line.split()[:1] != [word]:
            self.procs.stop(self.proc)
            raise RuntimeError(f"worker sent {line!r} instead of {word}: "
                               f"{self.proc.stderr.read()[-2000:]}")
        return line

    def send(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        """Stop the worker, wait for it to end and return its result."""
        self.send("STOP")
        self.expect("DONE", WORKER_GRACE_S)
        _, err = self.procs.finish(self.proc, timeout=WORKER_GRACE_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}: {err[-2000:]}")
        return json.loads((self.outdir / "result.json").read_text(encoding="utf-8"))


def measure(procs, env, args, rundir: Path):
    """Set-up times, the main worker's result and the CLI calls of one run.

    The closed loop is cut into CLI_CALLS equal segments with one timed CLI
    call after each, so jobs and CLI calls sample the same stretch of time
    without ever overlapping.  The untimed warm-up call comes first.
    """
    setups = []

    def start(name, setup_only):
        worker, speed = probed(lambda: Worker(procs, env, args, rundir / name, setup_only))
        setups.append({**worker.setup, "speed": speed})
        return worker

    def cli(case, j):
        call, speed = probed(lambda: run_cli(procs, env, case, j))
        return {**call, "speed": speed}

    # Set-up is an end-to-end metric only, so traced runs time it once.
    for r in range(0 if args.trace else SETUP_RUNS - 1):
        worker = start(f"setup{r}", setup_only=True)
        procs.finish(worker.proc, timeout=WORKER_GRACE_S)
    worker = start("main", setup_only=False)
    cases = json.loads((rundir / "main" / "cli.json").read_text(encoding="utf-8"))
    calls = [cli(cases[0], 0)]
    for j, case in enumerate(cases[1:], start=1):
        worker.send(f"RUN {args.seconds / CLI_CALLS!r}")
        worker.expect("PAUSED", args.seconds + WORKER_GRACE_S)
        calls.append(cli(case, j))
    return setups, worker.finish(), calls


def probed(measure):
    """Call measure() between PROBE_UNITS probe units on each side; return its
    result and the speed factor of those units."""
    before = [probe.unit() for _ in range(PROBE_UNITS)]
    result = measure()
    after = [probe.unit() for _ in range(PROBE_UNITS)]
    return result, probe.speed(before + after)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _get(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _close(got, want, rtol=1e-8, atol=1e-12) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rtol, atol) for g, w in zip(got, want)))
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= atol + rtol * abs(want))


def cli_errors(case, code, stdout) -> tuple[bool, list[str]]:
    """(exit code as expected and exactly one JSON document, all mismatches)."""
    lines = stdout.splitlines()
    try:
        payload = json.loads(stdout) if len(lines) == 1 else None
    except json.JSONDecodeError:
        payload = None
    if payload is None:
        return False, [f"stdout is not exactly one JSON document ({len(lines)} lines)"]
    expect = case["expect"]
    if code != expect["code"]:
        return False, [f"exit code {code}, expected {expect['code']}: {stdout[:300]}"]
    errs = []
    for op, path, want in expect["checks"]:
        try:
            got = _get(payload, path)
        except (KeyError, IndexError, TypeError):
            errs.append(f"missing {'.'.join(map(str, path))}")
            continue
        ok = {"eq": lambda: got == want, "close": lambda: _close(got, want),
              "le": lambda: isinstance(got, (int, float)) and got <= want}[op]()
        if not ok:
            errs.append(f"{'.'.join(map(str, path))} = {got!r}, expected {op} {want!r}")
    return True, errs


def run_cli(procs, env, case, j) -> dict:
    """One CLI call, timed on the wall clock and by the child's CPU time
    (reaped children's rusage, before and after)."""
    argv = [sys.executable, "-m", "polycomp", case["sub"], *case["args"]]
    cpu, start = children_cpu(), perf_counter()
    proc = procs.start(argv, env)
    try:
        out, _ = procs.finish(proc, timeout=CALL_TIMEOUT_S)
        valid, errs = cli_errors(case, proc.returncode, out)
    except subprocess.TimeoutExpired:
        valid, errs = False, [f"timed out after {CALL_TIMEOUT_S} s"]
    return {"sub": case["sub"], "cpu": children_cpu() - cpu, "wall": perf_counter() - start,
            "wall_start": start, "timed": j > 0, "valid": valid,
            "error": f"cli call {j} ({case['sub']}): " + "; ".join(errs) if errs else None}


def import_breakdown(procs, env) -> dict:
    """Median cumulative import time of polycomp, numpy and scipy, in seconds.

    Each package counts where it is first imported outside its own package,
    so scipy's share includes scipy.optimize pulled in by polycomp.polytopes.
    """
    probes = {"polycomp": [], "numpy": [], "scipy": []}
    for _ in range(IMPORT_PROBES):
        proc = procs.start([sys.executable, "-X", "importtime", "-c", "import polycomp"], env)
        _, err = procs.finish(proc, timeout=CALL_TIMEOUT_S)
        rows = []
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line and "cumulative" not in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                depth = (len(name) - len(name.lstrip())) // 2
                rows.append((depth, int(cumulative), name.strip()))
        totals = dict.fromkeys(probes, 0)
        stack = []  # reversed output is pre-order: a parent precedes its children
        for depth, cumulative, name in reversed(rows):
            del stack[depth:]
            top = name.split(".")[0]
            if top in totals and all(a.split(".")[0] != top for a in stack):
                totals[top] += cumulative
            stack.append(name)
        for key in probes:
            probes[key].append(totals[key] / 1e6)
    return {f"import.{k}_s": statistics.median(v) for k, v in probes.items()}


def quantile(values, q) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def on_clock(cpu, wall, speed, clock: str) -> float:
    """One time on the reported clock ("scaled": CPU time at the reference
    speed) or on the raw "cpu" or "wall" clock."""
    return {"scaled": cpu * speed, "cpu": cpu, "wall": wall}[clock]


def per_layer(worker, cli_calls, imports) -> dict:
    """Per-layer numbers from the traced jobs' spans, on the scaled CPU clock."""
    spans = worker["spans"]
    traced = [(k, s) for k, s in enumerate(spans) if s[0] == "job"]
    totals = {name: [0, 0.0] for name in FUNCTIONS}
    job_time = child = 0.0
    for k, job in traced:
        speed = worker["jobs"][job[6]][4]
        children = sorted((s for s in spans if s[5] == k), key=lambda s: s[3])
        for lo, hi in ((1, 2), (3, 4)):  # both clocks
            edge = job[lo]
            for s in children:
                if s[lo] < edge or s[hi] > job[hi]:
                    raise RuntimeError(f"span {s[0]} of job {job[6]} leaves its job or "
                                       "overlaps another")
                edge = s[hi]
        for s in children:
            totals[s[0]][0] += 1
            totals[s[0]][1] += speed * (s[2] - s[1])
        job_time += speed * (job[2] - job[1])
        child += speed * sum(s[2] - s[1] for s in children)
    n = max(len(traced), 1)
    metrics = {}
    for name, (calls, secs) in totals.items():
        metrics[f"{name}.calls"] = (calls / n, "count/job")
        metrics[f"{name}.ms"] = (1e3 * secs / n, "ms")
        metrics[f"{name}.share"] = (secs / job_time if job_time else 0.0, "ratio")
    metrics["job.ms"] = (1e3 * job_time / n, "ms")
    metrics["job.self_ms"] = (1e3 * (job_time - child) / n, "ms")
    metrics["job.self_share"] = ((job_time - child) / job_time if job_time else 0.0, "ratio")
    traced_ids = {job[6] for _, job in traced}
    work = [w for i, w in enumerate(worker["work"]) if i in traced_ids]
    sums = {key: sum(w[key] for w in work) for key in WORK_KEYS}
    for key in WORK_KEYS:
        metrics[f"work.{key}"] = (sums[key] / n, "count/job")
    for metric, span, key in RATES:
        metrics[metric] = (1e6 * totals[span][1] / sums[key] if sums[key] else 0.0, "us")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    for sub in SUBCOMMANDS:
        times = [c["cpu"] * c["speed"] for c in cli_calls
                 if c["timed"] and c["valid"] and c["sub"] == sub]
        metrics[f"cli.{sub}.s"] = (statistics.median(times) if times else 0.0, "s")
    on = [j[0] * j[4] for j in worker["jobs"] if j[2]]
    off = [j[0] * j[4] for j in worker["jobs"] if not j[2]]
    metrics["trace_overhead"] = (statistics.fmean(on) / statistics.fmean(off)
                                 if on and off else 1.0, "ratio")
    return metrics


def end_to_end(setups, worker, cli_calls, clock: str = "scaled") -> dict:
    """The end-to-end metrics on one clock; the scaled CPU clock is the one reported."""
    times = [on_clock(j[0], j[1], j[4], clock) for j in worker["jobs"]]
    cli = [c for c in cli_calls if c["timed"] and c["valid"]]
    cli = [on_clock(c["cpu"], c["wall"], c["speed"], clock)
           for c in cli or [c for c in cli_calls if c["timed"]]]
    return {
        "setup_s": (statistics.median(on_clock(s["cpu"], s["wall"], s["speed"], clock)
                                      for s in setups), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(times), "ms"),
        "job_p90_ms": (1e3 * quantile(times, 0.9), "ms"),
        "cli_p50_s": (statistics.median(cli), "s"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polycomp" / "__init__.py").is_file():
        print(f"error: no polycomp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    import oracle

    wrong = oracle.golden_mismatches(ROOT / "tests" / "data")
    if wrong:
        print("error: the oracle disagrees with the golden files: " + "; ".join(wrong),
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the finally below stops every child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = pinned_env()
    # One CPU for this process and every child, which never run at once, so
    # that the probe units measure the CPU the measured code runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    for _ in range(PROBE_UNITS):
        probe.unit()  # warm-up
    rundir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    procs = Processes()
    try:
        setups, worker, cli_calls = measure(procs, env, args, rundir)
        imports = import_breakdown(procs, env) if args.trace else {}
    finally:
        procs.stop_all()
        shutil.rmtree(rundir, ignore_errors=True)

    errors = [j[3] for j in worker["jobs"] if j[3]] + [c["error"] for c in cli_calls if c["error"]]
    attempted = len(worker["jobs"]) + len(cli_calls)
    if args.trace:
        metrics = per_layer(worker, cli_calls, imports)
    else:
        metrics = end_to_end(setups, worker, cli_calls)

    prov = {**provenance(args.seed, cpus), **worker["versions"], "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}
    print(f"polycomp benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("inputs: " + json.dumps(worker["inputs"]))
    print(f"jobs: {len(worker['jobs'])} (p90 has {len(worker['jobs']) // 10} beyond it)  "
          f"cli calls: {len(cli_calls)} (1 untimed)  setups: {len(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    if not args.trace:
        for clock in ("cpu", "wall"):
            raw = end_to_end(setups, worker, cli_calls, clock)
            print(f"  {clock} clock, unscaled: " + "  ".join(
                f"{k}={v:.6g}" for k, (v, _) in raw.items() if k != "peak_rss_mb"))
        speeds = [j[4] for j in worker["jobs"]]
        print(f"  host speed factor over the jobs: median {statistics.median(speeds):.4g}, "
              f"range {min(speeds):.4g}-{max(speeds):.4g}")
    print(f"  {'fail_ratio':46s} {len(errors) / attempted:14.6g} "
          f"ratio  ({len(errors)} failed of {attempted} attempted)")
    for message in errors[:MAX_ERRORS_SHOWN]:
        print(f"  FAILED {message}")
    if args.trace:
        trace = {"provenance": prov, "span_fields": worker["span_fields"],
                 "spans": worker["spans"], "cli_calls": cli_calls,
                 "metrics": {k: v for k, (v, _) in metrics.items()}}
        path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace), encoding="utf-8")
        print(f"trace: {path.relative_to(ROOT)}")
    print("provenance: " + json.dumps(prov))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
