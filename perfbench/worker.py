"""One benchmark worker: set up, then run one closed-loop client.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1
                                --outdir DIR --cli-calls C [--setup-only]

Set-up is: import polycomp, generate the run's inputs (job pool and the CLI
calls' files), and run one untimed warm-up job.  The worker then prints
"READY <cpu seconds since the process started>".  With --setup-only it stops
there.  Otherwise it reads commands on stdin: "RUN <seconds>" runs jobs back
to back for that many wall-clock seconds and then prints PAUSED, so that the
parent can make a CLI call while the worker is idle; "STOP" writes
``result.json`` to DIR and ends the worker.  Each job's outputs are checked
after its timed region.  With --trace 1 every other job runs inside spans.

Every time is taken on two clocks: the process's CPU clock, which the
metrics use because it does not count time the process spent descheduled
(hypervisor steal and neighbours on a shared host), and the wall clock.
GAP_UNITS probe units (probe.py) run at the start of every segment and after
every job, and each job records the speed factor of the units around it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

# At least the jobs a 14 s run completes at the parent commit; later jobs'
# inputs are generated on demand, outside the job's timed region.
POOL_SIZE = {"pairs-cube4": 48, "validate-ngon": 224, "sequence-octagon": 96, "pleat-ngon": 224}
GAP_UNITS = 2


class Tracer:
    """Spans around calls into polycomp, kept in memory until the run ends.

    Outside a traced job ``call`` forwards to the function and records
    nothing, so traced and untraced jobs make exactly the same calls.
    """

    FIELDS = ["name", "cpu_start", "cpu_end", "wall_start", "wall_end", "parent", "job"]

    def __init__(self):
        self.spans = []
        self.job_span = None

    def call(self, fn, *args, **kwargs):
        if self.job_span is None:
            return fn(*args, **kwargs)
        wall, cpu = perf_counter(), process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            name = fn.__module__.removeprefix("polycomp.") + "." + fn.__name__
            self.spans.append([name, cpu, process_time(), wall, perf_counter(),
                               self.job_span, self.spans[self.job_span][6]])

    def begin_job(self, job_id: int, cpu: float, wall: float):
        self.spans.append(["job", cpu, None, wall, None, None, job_id])
        self.job_span = len(self.spans) - 1

    def end_job(self, cpu: float, wall: float):
        self.spans[self.job_span][2] = cpu
        self.spans[self.job_span][4] = wall
        self.job_span = None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--cli-calls", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import polycomp
    from polycomp import barycentric, io, lifting, metric, polytopes, spectral

    pc = SimpleNamespace(io=io, polytopes=polytopes, barycentric=barycentric,
                         spectral=spectral, metric=metric, lifting=lifting)

    import gen
    import probe
    import workloads

    job, check, work, cli_expect = workloads.WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    pool = [gen.make(args.workload, args.seed, gen.POOL, i)
            for i in range(POOL_SIZE[args.workload])]
    cases = []
    for j in range(args.cli_calls + 1):  # call 0 is the untimed warm-up call
        inp = gen.make(args.workload, args.seed, gen.CLI, j)
        case = gen.cli_case(args.workload, inp, j, outdir)
        case["expect"] = cli_expect(inp, case["sub"])
        cases.append(case)
    (outdir / "cli.json").write_text(json.dumps(cases), encoding="utf-8")
    tracer = Tracer()
    job(tracer.call, pc, gen.make(args.workload, args.seed, gen.WARMUP, 0))
    probe.unit()
    print(f"READY {process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    jobs, works, used = [], [], []

    def probe_gap() -> list[float]:
        return [probe.unit() for _ in range(GAP_UNITS)]

    def run_job(i: int, before: list[float]) -> list[float]:
        """Run, time and check job i, then run the probe units after it and
        return their times; a failed job stays in the timings and counts."""
        inp = pool[i] if i < len(pool) else gen.make(args.workload, args.seed, gen.POOL, i)
        traced = bool(args.trace) and i % 2 == 0
        error = None
        wall, cpu = perf_counter(), process_time()
        if traced:
            tracer.begin_job(i, cpu, wall)
        try:
            out = job(tracer.call, pc, inp)
        except Exception as exc:  # a raising job is a failed job
            out, error = None, f"job {i}: {type(exc).__name__}: {exc}"
        cpu_end, wall_end = process_time(), perf_counter()
        if traced:
            tracer.end_job(cpu_end, wall_end)
        if error is None:
            try:
                errs = check(inp, out)
                error = f"job {i}: " + "; ".join(errs) if errs else None
            except Exception:  # a check that cannot read the outputs fails the job
                error = f"job {i}: output check raised\n{traceback.format_exc(limit=3)}"
        after = probe_gap()
        jobs.append([cpu_end - cpu, wall_end - wall, traced, error,
                     probe.speed(before + after)])
        works.append(work(inp))
        used.append(inp)
        return after

    for command in sys.stdin:
        if command.strip() == "STOP":
            break
        deadline = perf_counter() + float(command.split()[1])
        before = probe_gap()
        while perf_counter() < deadline:
            before = run_job(len(jobs), before)
        print("PAUSED", flush=True)

    import numpy
    import scipy

    result = {
        "jobs": jobs,
        "work": works,
        "spans": tracer.spans,
        "span_fields": Tracer.FIELDS,
        "inputs": gen.properties(args.workload, used),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "polycomp": polycomp.__version__},
    }
    (outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
