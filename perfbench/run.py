"""Benchmark of the halfsquares pipelines: exact certification and numerical decomposition.

One workload, in this process:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

prints the output digest and every metric by name with its unit, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 the layer spans are recorded and the metrics are
the per-layer ones.  Times are in quiet seconds, which take out the slowdown
other tenants of the machine cause (speed.py); the wall-clock times are in the
report beside them.  The full report goes to perfbench/out/<workload>.trace<t>.json
and the traced run's spans to perfbench/out/<workload>.spans.json.

Every workload, untraced and then traced, each in a fresh process:

    python3 perfbench/run.py [--seed 1] [--seconds 25]

prints a summary with the tracing overhead and writes perfbench/out/summary.json.

Run it from the root of a checkout: halfsquares is imported from its src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("catalog", "generate", "decompose-1d", "decompose-2d")
SETUP_RUNS = 5  # set-ups per run: this process plus fresh ones; setup_s is their median
DEFAULT_SECONDS = 25


def pin_process():
    """The single-threaded baseline, on one CPU.

    Thread pools are pinned before numpy loads, which happens with the
    workloads.  The process stays on the last CPU it may use: on a small
    machine CPU 0 also serves interrupts and most other processes, whose
    preemptions would land in the timings.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ProgramMissing(Exception):
    """The checkout holds no halfsquares sources to benchmark."""


def program_package():
    package = SRC / "halfsquares" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no halfsquares sources at {package.parent}")
    return package


def load_workloads():
    """Import halfsquares from the checkout's src/ and the workloads on top of it."""
    package = program_package()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import halfsquares

    if Path(halfsquares.__file__).resolve() != package.resolve():
        raise ProgramMissing(f"halfsquares was imported from {halfsquares.__file__}, not {package}")
    import workloads

    return workloads


def timed_setup(name, seed, reduced):
    """Imports, input generation and warm-up: (start, end, workloads, state, run_pass)."""
    start = time.perf_counter()
    workloads = load_workloads()
    setup, run_pass = workloads.WORKLOADS[name]
    state = setup(seed, reduced)
    return start, time.perf_counter(), workloads, state, run_pass


def setup_only(name, seed, reduced):
    """One set-up in this fresh process, in quiet and in wall seconds."""
    with speed.SpeedProbe() as probe:
        start, end, *_ = timed_setup(name, seed, reduced)
    clock = probe.clock()
    return {"setup_s": clock(end) - clock(start), "wall_s": end - start}


def fresh_setup(name, seed, reduced):
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(
        cmd + (["--reduced"] if reduced else []), cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timing(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def measure(name, seed, seconds, trace, reduced=False):
    """Set up, then run passes for about ``seconds`` (at least one).

    Times are in quiet seconds (speed.py); the wall-clock ones are reported
    beside them.  Returns the full report and, for a traced run, the tracer
    holding the spans.
    """
    fresh = [fresh_setup(name, seed, reduced) for _ in range(SETUP_RUNS - 1)]
    tracer = spans.Tracer() if trace else None
    walls, failures, attempted, digest = [], [], 0, None
    with speed.SpeedProbe() as probe:
        setup_start, setup_end, workloads, state, run_pass = timed_setup(name, seed, reduced)
        if tracer:
            tracer.install()
        try:
            began = time.perf_counter()
            while True:
                out = workloads.Outcome()
                start = time.perf_counter()
                if tracer:
                    tracer.run_pass(len(walls) + 1, lambda: run_pass(state, out))
                else:
                    run_pass(state, out)
                walls.append((start, time.perf_counter()))
                if digest is None:
                    digest = out.digest
                else:
                    out.check(out.digest == digest, "output digest differs from the first pass")
                attempted += out.attempted
                failures += out.failures
                elapsed = walls[-1][1] - began
                if elapsed + elapsed / len(walls) > seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
    clock = probe.clock()
    setups = [clock(setup_end) - clock(setup_start)] + [f["setup_s"] for f in fresh]
    passes = [clock(end) - clock(start) for start, end in walls]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "reduced": reduced,
        "environment": environment(),
        "setup_s": timing(setups),
        "wall_s": timing(passes),
        "wall_clock": {
            "setup_s": timing([setup_end - setup_start] + [f["wall_s"] for f in fresh]),
            "wall_s": timing([end - start for start, end in walls]),
        },
        "speed": {"samples": len(probe.durations), "median_slowdown": probe.slowdown()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:50],
        "digest": digest,
    }
    if tracer:
        report["layers"] = spans.layer_metrics(tracer.pass_stats(clock))
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    report["result"] = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return report, tracer


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha1": src_digest(),
        "threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


def git_commit():
    """HEAD of the checkout, read from .git; "unknown" where there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    """SHA-1 over the program's sources, which names the version without git."""
    sha = hashlib.sha1()
    for path in sorted((SRC / "halfsquares").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def print_report(report):
    result = report["result"]
    print(f"# workload {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"{'  reduced' if report['reduced'] else ''}")
    print("# environment " + json.dumps(report["environment"], sort_keys=True))
    print("# digest " + json.dumps(report["digest"], sort_keys=True))
    for failure in report["failures"][:10]:
        print("# FAILED " + failure)
    setup, wall, clock = report["setup_s"], report["wall_s"], report["wall_clock"]
    print(f"setup_s {setup['median']:.4f} s (median of {len(setup['samples'])} set-ups; "
          f"wall clock {clock['setup_s']['median']:.4f} s)")
    print(f"wall_s {wall['median']:.4f} s (median of {len(wall['samples'])} passes, quartiles "
          f"{wall['q1']:.4f} .. {wall['q3']:.4f}; wall clock {clock['wall_s']['median']:.4f} s)"
          f"{'  traced' if report['trace'] else ''}")
    print(f"# quiet seconds: the machine ran at 1/{report['speed']['median_slowdown']:.2f} of the reference's "
          f"unloaded speed (median of {report['speed']['samples']} speed samples)")
    if not report["trace"]:
        print(f"peak_rss_mb {report['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio {report['fail_ratio']:.6g} ratio ({report['failed']} failed of "
          f"{report['attempted']} attempted)")
    for name, metric in report.get("layers", {}).items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def run_all(seed, seconds, reduced):
    """Each workload untraced then traced, in fresh processes; a summary of both."""
    summary = {}
    for name in WORKLOADS:
        reports = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            subprocess.run(cmd + (["--reduced"] if reduced else []), cwd=ROOT, capture_output=True,
                           timeout=600, check=True)
            reports.append(json.loads((OUT / f"{name}.trace{trace}.json").read_text()))
        plain, traced = reports
        summary[name] = {
            "setup_s": plain["setup_s"],
            "wall_s": plain["wall_s"],
            "wall_clock": plain["wall_clock"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "fail_ratio": plain["fail_ratio"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "traced_wall_s": traced["wall_s"]["median"],
            "trace_overhead_s": traced["wall_s"]["median"] - plain["wall_s"]["median"],
            "span_overhead_s": traced["layers"]["harness.span_overhead_s"]["value"],
            "traced_failed": traced["failed"],
            "digest": plain["digest"],
            "layers": traced["layers"],
        }
        row, wall = summary[name], plain["wall_s"]
        print(f"{name:13s} setup_s {row['setup_s']['median']:.3f} s  wall_s {wall['median']:.3f} s "
              f"(n={len(wall['samples'])}, q1 {wall['q1']:.3f}, q3 {wall['q3']:.3f})  "
              f"peak_rss_mb {row['peak_rss_mb']:.1f} MB  fail_ratio {row['fail_ratio']:.3g} "
              f"({row['failed']}/{row['attempted']})  trace_overhead_s {row['trace_overhead_s']:+.3f} s "
              f"(wrappers: {row['span_overhead_s']:.3f} s)",
              flush=True)
    doc = {"seed": seed, "seconds": seconds, "reduced": reduced, "environment": environment(), "workloads": summary}
    (OUT / "summary.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return 0 if all(s["failed"] == 0 and s["traced_failed"] == 0 for s in summary.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_process()
    try:
        if args.setup_only:
            print(json.dumps(setup_only(args.workload, args.seed, args.reduced)))
            return 0
        program_package()
        OUT.mkdir(exist_ok=True)
        if args.workload is None:
            return run_all(args.seed, args.seconds, args.reduced)
        report, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if tracer:
        meta = {"workload": args.workload, "seed": args.seed}
        tracer.dump(OUT / f"{args.workload}.spans.json", meta)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
