"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

It checks that a corrupted job output, a job output that differs from the
first pass, and a nonzero exit are each counted as failures; that every
trace target is found on this checkout and wrapped wherever it is bound;
that a missing target is reported as absent without stopping the run; and
that the metrics run.py prints are exactly those BENCHMARK.json lists, all
named with [A-Za-z0-9_.-] only.  Exits 1 if any check fails.
"""

import contextlib
import io
import json
import re
import sys
from types import SimpleNamespace

import run
import workloads

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402  (imports kmmix from the checkout)
import kmmix.cli as cli  # noqa: E402
import kmmix.mixing as mixing  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)


def check_failure_accounting():
    argv = ["tv", *workloads.WORKED, "--t-max", "5"]
    code, _, good = run.run_job(cli, argv)
    checker = checks.OutputChecker()
    expect(checker.check(argv, code, good) is None, "the seed tv output fails its check")

    doc = json.loads(good)
    doc["results"]["rows"][3]["tv_exact"] += 1e-6
    corrupted = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    expect(checker.check(argv, code, corrupted) is not None,
           "a perturbed tv_exact passes the tv check")

    reformatted = json.dumps(json.loads(good)) + "\n"  # same values, other bytes
    jobs = [argv]
    passes = [SimpleNamespace(codes=[code], outputs=[good]),
              SimpleNamespace(codes=[code], outputs=[corrupted]),
              SimpleNamespace(codes=[code], outputs=[reformatted]),
              SimpleNamespace(codes=[1], outputs=[good]),
              SimpleNamespace(codes=[code], outputs=[good])]
    failed = [k for k, _, _ in run.judge(jobs, passes, checker)]
    expect(failed == [1, 2, 3], f"judge flagged passes {failed}, expected [1, 2, 3]")


def check_tracer():
    original = mixing.tv_exact
    tracer = tracing.Tracer()
    rec = tracer.install()
    try:
        expect(tracer.absent == [], f"trace targets absent on this checkout: {tracer.absent}")
        expect(cli.tv_exact is mixing.tv_exact and cli.tv_exact is not original,
               "cli's imported tv_exact is not wrapped")
        run.run_job(cli, ["tv", *workloads.WORKED, "--t-max", "2"])
    finally:
        tracer.uninstall()
    expect(cli.tv_exact is original and mixing.tv_exact is original,
           "uninstall did not restore tv_exact")
    stats = rec.summary()
    expect(stats["mixing.tv_exact"].calls == 3 and stats["cli.main"].calls == 1,
           "tv --t-max 2 did not record 1 main and 3 tv_exact spans")

    gone = tracing.Target("mixing.gone", "kmmix.mixing", "no_such_function")
    tracer = tracing.Tracer(tracing.TARGETS + [gone])
    rec = tracer.install()
    tracer.uninstall()
    expect(tracer.absent == ["kmmix.mixing.no_such_function"],
           f"a missing target is not reported as absent: {tracer.absent}")
    tracing.layer_metrics([rec], 0.0)


def printed_metrics(trace):
    argv = ["--workload", "coupling-mc", "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(argv)
    result = json.loads(buf.getvalue().splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0, f"run {argv} reported failures")
    return result["metrics"]


def check_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect({w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY,
           "BENCHMARK.json workloads differ from bench/workloads.py")
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        names += list(listed)
        printed = {k: v["unit"] for k, v in printed_metrics(trace).items()}
        names += list(printed)
        expect(listed == printed, f"{kind}: BENCHMARK.json lists {sorted(listed.items())}, "
                                  f"run.py prints {sorted(printed.items())}")
    bad = [n for n in names if not NAME.fullmatch(n)]
    expect(not bad, f"names outside [A-Za-z0-9_.-]: {bad}")


def main() -> int:
    for check in (check_failure_accounting, check_tracer, check_metric_names):
        before = len(problems)
        check()
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}")
    for message in problems:
        print(f"  {message}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
