"""Benchmark of the aortafit pipeline: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload readme_bulge --seed 0 --seconds 20 --trace 0

The benchmark imports the program from ``src/`` of the checkout it sits in,
generates the workload's inputs from the seed (set-up, repeated and timed),
then runs the workload's cases one after another in this process through
``aortafit.cli.main`` until ``--seconds`` have passed and at least the
workload's minimum number of cases has run. Every case's outputs are checked.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the calls into each layer are wrapped in spans and
the last line holds the per-layer metrics instead, after a per-layer table.
A traced run also reruns its last case untraced: the rerun must reproduce
that case's outputs exactly, and the difference of the two wall times is the
tracing overhead. The full result,
with the environment record and (traced) the span tree, is written to
``.perfbench/results/``. Exit code 0 on a completed run (failed checks are
reported in the result line), 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
WORKLOAD_NAMES = ("readme_bulge", "cohort_small", "audit_existing")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import aortafit from this checkout's src/ and the modules that drive it."""
    sys.path.insert(0, SRC)
    import aortafit  # noqa: F401  (imported here so set-up time includes it)

    where = os.path.realpath(aortafit.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"aortafit imported from {where}, not from {SRC}")
    import layers  # noqa: F401  (imports numpy, scipy and the program's modules)
    import workloads  # noqa: F401


def run_case(workload, case, out, seed):
    """Run one case; returns its wall and CPU times and the problems its checks found."""
    from aortafit import cli

    os.makedirs(out)
    problems = []
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in workload.commands(case, out, seed):
                code = cli.main(argv)
                if code != 0:
                    problems.append(f"aortafit {argv[0]} exited with {code}")
                    break
    except Exception:  # a traceback fails the case; the run goes on
        problems.append(traceback.format_exc(limit=4))
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if not problems:
        try:
            problems = workload.check(case, out, seed)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems.append(f"check failed: {exc!r}")
    return wall, cpu, problems


def layer_table(metrics, case_s, setup_s):
    from layers import SETUP_SPANS, SPANS

    rows = [("span", "calls", "busy_s", "self_s", "share")]
    for name in SPANS:
        calls, busy, own = (metrics[f"{name}.{k}"]["value"] for k in ("calls", "s", "self_s"))
        base = setup_s if name in SETUP_SPANS else case_s
        rows.append((name, f"{calls:g}", f"{busy:.4f}", f"{own:.4f}",
                     f"{100 * busy / base:.1f}%" if base > 0 else "-"))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import envinfo
    import layers
    import stats
    import workloads
    from tracing import Tracer, self_times

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            layers.install(tracer)
            tracer.case = "setup"
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        setup_reps = []

        def set_up():
            start = time.perf_counter()
            made = workload.make_inputs(args.seed, inputs)
            setup_reps.append(time.perf_counter() - start)
            return made

        cases, files = set_up()

        walls, cpus, problems = [], [], []
        start = time.perf_counter()
        while len(walls) < workload.min_cases or time.perf_counter() - start < args.seconds:
            i = len(walls)
            if tracer:
                tracer.case = i
            out = os.path.join(work, f"case-{i:03d}")
            wall, cpu, found = run_case(workload, cases[i % len(cases)], out, args.seed)
            if tracer and not found and os.path.exists(os.path.join(out, "history.json")):
                layers.record_fit(tracer, out)
            walls.append(wall)
            cpus.append(cpu)
            problems.append(found)

        # The other set-up repetitions run after the cases, so that the median
        # samples the machine at both ends of the run. They rewrite identical files.
        if tracer:
            tracer.case = "setup"
        for _ in range(SETUP_REPS - 1):
            set_up()
        setup_s = import_s + statistics.median(setup_reps)

        rerun = None
        if tracer:
            tracer.restore()
            tracer.case = "rerun"
            last = len(walls) - 1
            rerun_out = os.path.join(work, "rerun")
            rerun_wall, _, found = run_case(workload, cases[last % len(cases)], rerun_out, args.seed)
            if not (found or problems[last]) and \
                    not workload.same_outputs(os.path.join(work, f"case-{last:03d}"), rerun_out):
                found = [f"rerun of case {last} did not reproduce its outputs"]
            rerun = {"case": last, "wall_s": rerun_wall, "problems": found}
            problems.append(found)

        failed = sum(1 for p in problems if p)
        ok = [w for w, p in zip(walls, problems) if not p] or walls
        case_s = statistics.median(ok)
        tail_pct, tail_s, beyond = stats.tail(ok)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            overhead_s = walls[-1] - rerun["wall_s"]
            metrics = layers.metrics(tracer, len(walls), SETUP_REPS, case_s, overhead_s)
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "case_s": (case_s, "s"),
                "case_tail_s": (tail_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

        env = envinfo.environment(ROOT)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "inputs": {"files": files, "cases": cases},
            "setup": {"import_s": import_s, "reps_s": setup_reps},
            "cases": [{"wall_s": w, "cpu_s": c, "problems": p} for w, c, p in zip(walls, cpus, problems)],
            "rerun": rerun,
            "case_tail": {"percentile": tail_pct, "value_s": tail_s, "samples": len(ok), "beyond": beyond},
            "peak_rss_mb": peak_rss_mb,
            "metrics": metrics,
        }
        if tracer:
            own = self_times(tracer.spans)
            record["spans"] = [
                dict(s, start=s["start"] - start, end=s["end"] - start, self=own[s["id"]]) for s in tracer.spans
            ]
        result_path = os.path.join(OUT, "results", f"{tag}.json")
        with open(result_path, "w") as fh:
            json.dump(record, fh, indent=1, default=str)

        for p in problems:
            for line in p:
                print(f"perfbench: FAILED CHECK: {line}", file=sys.stderr)
        print("environment: " + json.dumps(env, sort_keys=True))
        print("inputs: " + json.dumps(files, sort_keys=True))
        print(f"cases: {len(walls)} timed, {failed} failed, case_s {case_s:.3f} s, "
              f"tail p{tail_pct:.1f} {tail_s:.3f} s over {len(ok)} samples ({beyond} beyond), "
              f"setup {setup_s:.3f} s, peak RSS {peak_rss_mb:.0f} MB")
        if tracer:
            print(layer_table(metrics, case_s, statistics.median(setup_reps)))
        print(f"result: {result_path}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(problems),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
