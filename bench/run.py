"""Benchmark of the kmmix command line on four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; kmmix is imported from ./src.  One
run is one fresh single-threaded interpreter for one workload.  It repeats
passes over the workload's jobs (bench/workloads.py), each job one call of
kmmix.cli.main(argv), until --seconds is spent, then checks every job's
output outside the timed region (bench/checks.py).

--trace 0 reports the end-to-end metrics: setup_s (median time from a fresh
interpreter to an imported kmmix.cli), wall_ref (median pass time, each job
divided by the reference kernel timed around it; bench/reference.py) and
peak_rss_mb.
--trace 1 alternates untraced and traced passes (bench/tracing.py) and
reports the per-layer metrics; each traced job's output must be identical
to the untraced output of the same argv.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics.  A record of the run (environment, per-job times, failures and,
for a traced run, the spans of one traced pass) goes to .bench_out/.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh-interpreter set-ups timed per run: one after each pass, topped up at
# the end, so that they sample the whole run; an untimed one warms the caches.
SETUP_REPEATS = 7
# Single-threaded BLAS and OpenMP pools, for this process (set before numpy
# is first imported) and the set-up children that inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until it has imported
    kmmix.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, kmmix.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"importing kmmix.cli failed (exit {proc.returncode})")
    return elapsed


def run_job(cli, argv):
    """(exit code, seconds, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed job, not a stopped run
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start, buf.getvalue()


class Pass:
    """One closed-loop pass over the jobs, each job timed against the
    workload's reference kernel (bench/reference.py)."""

    def __init__(self, cli, jobs, ref, traced=False):
        gc.collect()
        before = ref.between()
        self.codes, self.times, self.outputs, self.times_ref = [], [], [], []
        for argv in jobs:
            (code, seconds, output), ticks = ref.during(run_job, cli, argv)
            after = ref.between()
            self.codes.append(code)
            self.times.append(seconds)
            self.outputs.append(output)
            self.times_ref.append(seconds / statistics.fmean([before, after, *ticks]))
            before = after
        self.traced = traced
        self.wall = sum(self.times)
        self.wall_ref = sum(self.times_ref)


def judge(jobs, passes, checker) -> list:
    """(pass index, job index, reason) for every failed job execution.  A job
    fails when its check fails or when its output differs from the same job's
    output in the first pass (untraced), byte for byte."""
    first = passes[0].outputs
    verdicts = {}
    failures = []
    for k, p in enumerate(passes):
        for j, (argv, code, out) in enumerate(zip(jobs, p.codes, p.outputs)):
            if (j, code, out) not in verdicts:
                reason = checker.check(argv, code, out)
                if reason is None and out != first[j]:
                    reason = "output differs from the first pass"
                verdicts[(j, code, out)] = reason
            if verdicts[(j, code, out)] is not None:
                failures.append((k, j, verdicts[(j, code, out)]))
    return failures


def environment() -> dict:
    import numpy as np
    finfo = np.finfo(np.longdouble)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "longdouble": {"precision": int(finfo.precision), "nmant": int(finfo.nmant),
                       "eps": str(finfo.eps), "bits": np.dtype(np.longdouble).itemsize * 8},
    }


def _commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kmmix" / "cli.py").is_file():
        print(f"bench: no kmmix sources under {SRC}; run from a kmmix checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    if args.trace == 0:
        time_setup()

    sys.path.insert(0, str(SRC))
    import kmmix.cli as cli
    import checks
    import reference
    import tracing

    jobs = workloads.jobs(args.workload, args.seed)
    ref = reference.Reference(reference.KERNELS[workloads.REFERENCE[args.workload]])

    passes, recs, setup = [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(Pass(cli, jobs, ref))
        if args.trace:
            recs.append(tracer.install())
            try:
                passes.append(Pass(cli, jobs, ref, traced=True))
            finally:
                tracer.uninstall()
        else:
            setup.append(time_setup())
        now = time.perf_counter()
        if (now - start) + (now - round_start) > args.seconds:
            break
    while args.trace == 0 and len(setup) < SETUP_REPEATS:
        setup.append(time_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = judge(jobs, passes, checks.OutputChecker())
    attempted = len(passes) * len(jobs)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        # tracing's relative cost in reference units, expressed in seconds
        overhead = statistics.median(p.wall for p in plain) * (
            statistics.median(p.wall_ref for p in traced)
            / statistics.median(p.wall_ref for p in plain) - 1.0)
        layers = tracing.layer_metrics(recs, overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_ref": {"value": statistics.median(p.wall_ref for p in plain), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "jobs": jobs,
        "reference_kernel": workloads.REFERENCE[args.workload],
        "passes": [{"traced": p.traced, "wall_s": p.wall, "wall_ref": p.wall_ref,
                    "job_s": p.times, "job_ref": p.times_ref, "exit": p.codes}
                   for p in passes],
        "setup_s": setup,
        "failures": [{"pass": k, "job": j, "reason": r} for k, j, r in failures],
        "absent_targets": tracer.absent,
        "metrics": metrics,
        "spans": recs[0].to_json() if recs else None,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs; record in {path.relative_to(ROOT)}")
    print(f"  environment: {json.dumps(env)}")
    print(f"  untraced pass: median {statistics.median(p.wall for p in plain):.3f} s, "
          f"{statistics.median(p.wall_ref for p in plain):.1f} ref")
    for j, argv in enumerate(jobs):
        times = [p.times[j] for p in plain]
        print(f"  {statistics.median(times):8.4f} s median of {len(times)}: {' '.join(argv)}")
    if recs and "cli.main" in recs[0].names:  # one root span per job
        print("  where the time goes in the first traced pass (self time):")
        for argv, (total, split) in zip(jobs, recs[0].by_root()):
            top = sorted(split.items(), key=lambda kv: -kv[1])[:3]
            print(f"  {total:8.4f} s {argv[0]:8s} "
                  + ", ".join(f"{name} {own / total:.0%}" for name, own in top))
    for k, j, reason in failures[:10]:
        print(f"  FAILED pass {k} job {' '.join(jobs[j])}: {reason}")
    if tracer.absent:
        print(f"  absent trace targets: {', '.join(tracer.absent)}")
    print(f"  fail_ratio {len(failures)}/{attempted}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
