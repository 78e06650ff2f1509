"""heckepairs benchmark: seeded CLI job lists run in-process.

    python3 bench/run.py --workload degrees --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, untraced and traced

Each workload runs in its own process as a closed loop: one client, one job
at a time, each job a call of ``heckepairs.cli.main(argv)`` with stdout and
stderr captured.  The job list (see ``workloads.py``) is run in passes until
``--seconds`` have elapsed, always finishing the pass.  Every job is checked
(``checks.py``) after the timed loop.

``setup_s`` times fresh interpreters started on this file with
``--setup-only``, which set up, print ``ready`` and exit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py``: it alternates untraced and traced passes, so that
their wall-time ratio gives the tracing overhead.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from anywhere; the program is imported from ``src/`` of
the checkout holding this file, and the run fails without printing a result
when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import checks
import tracer as tracing
from workloads import WORKLOADS, make_jobs, write_inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_RUNS = 25
TAIL_BEYOND = 10  # jobs beyond the tail percentile
# Times are scaled to a CPU on which reference_kernel() takes this long (a
# core of the baseline machine with no other load): the sandbox's effective
# CPU speed swings by up to 2x within seconds with other tenants' load, and
# dividing by the reference computation timed between the jobs of the same
# pass cancels that swing.  See "Timing" in bench/README.md.
REF_KERNEL_S = 0.0015
# Set-up starts an interpreter, so it is scaled by a bare interpreter start
# (``python3 -c pass``) timed next to it instead, to this many seconds.
REF_START_S = 0.04


def import_program():
    """Import ``heckepairs`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "heckepairs" or m.startswith("heckepairs.")]:
        del sys.modules[name]
    hp = importlib.import_module("heckepairs")
    if not os.path.abspath(hp.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"heckepairs imported from {hp.__file__}, not from src/")
    return hp, importlib.import_module("heckepairs.cli")


def setup(workload: str, seed: int):
    """Everything before the first job is ready: import the program, build
    the job list and write the config and element files."""
    hp, cli = import_program()
    jobs, files, order = make_jobs(workload, seed)
    write_inputs(files)
    return hp, cli.main, jobs, order


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter on this file with
    ``--setup-only`` to its report that the first job is ready, so that
    interpreter start-up and every import are counted."""
    start = time.perf_counter()
    with subprocess.Popen(bench_argv(ROOT, workload, seed, setup_only=True),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready\n":
        raise SystemExit(f"set-up of {workload} exited {proc.returncode}")
    return elapsed


def bare_start() -> float:
    """Seconds taken to start and end an interpreter that does nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def bench_argv(root, workload, seed, seconds=None, trace=None, setup_only=False) -> list:
    argv = [sys.executable, os.path.join(root, "bench", "run.py"),
            "--workload", workload, "--seed", str(seed)]
    if setup_only:
        return argv + ["--setup-only"]
    return argv + ["--seconds", str(seconds), "--trace", str(trace)]


def run_subprocess(workload, seed, seconds, trace, root=ROOT, env=None):
    """Run one workload of the benchmark in ``root`` in a fresh process.
    Returns the finished process and its parsed result line, or None when
    it printed none."""
    proc = subprocess.run(bench_argv(root, workload, seed, seconds, trace),
                          capture_output=True, text=True, env=env, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def run_job(main, argv):
    """(seconds, exit code, captured stdout, exception repr or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, error = main(argv), None
        except Exception as exc:  # a traceback is a failed job, not a failed run
            code, error = None, repr(exc)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def load_reference() -> dict:
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        return json.load(fh)


def reference_kernel() -> float:
    """Seconds taken by a fixed computation that does not involve the
    program: exact rational sums, the same kind of interpreter work."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def run_passes(main, jobs, order, seconds, trace, tracer):
    """Run the job list in passes until ``seconds`` have elapsed.

    The reference computation runs before the first job and after every
    job.  Each job time (``times``) is scaled by ``local_speeds``; sums over
    the pass (``pass_s``, the layer accumulators ``stats`` of a traced pass)
    by the mean of all the pass's kernel runs (``speed``).

    Returns (first, runs, passes): each slot's first (code, text, error),
    every run's (slot, code, sha256, error), and one dict per pass.
    """
    first, runs, passes = {}, [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        runner = main
        if traced:
            tracer.stats.clear()
            tracer.install()
            runner = tracer.wrap("cli", main)
        kernel, raw, report_bytes = [reference_kernel()], [], 0
        for slot in order:
            elapsed, code, text, error = run_job(runner, jobs[slot].argv)
            kernel.append(reference_kernel())
            raw.append(elapsed)
            report_bytes += len(text.encode())
            first.setdefault(slot, (code, text, error))
            runs.append((slot, code, checks.sha256(text), error))
        speed = REF_KERNEL_S / statistics.mean(kernel)
        record = {"traced": traced, "speed": speed, "raw": raw,
                  "times": [t * f for t, f in zip(raw, local_speeds(raw, kernel))],
                  "pass_s": sum(raw) * speed}
        if traced:
            tracer.uninstall()
            stats = Counter({k: v * speed if k.endswith("_s") else v
                             for k, v in tracer.stats.items()})
            stats["cli.report_bytes"] = report_bytes
            record["stats"] = stats
        passes.append(record)
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return first, runs, passes


def local_speeds(raw: list, kernel: list) -> list:
    """Speed factor of each job of a pass: the reference time over the mean
    of the kernel runs next to the job, widened on each side until the jobs
    in between last as long as the job itself.  A short job gets the CPU
    state of its two neighbouring kernel runs, a long one the average state
    around it.  ``kernel[i]`` ran before job ``i`` and ``kernel[i + 1]``
    after it."""
    out = []
    for i, duration in enumerate(raw):
        lo, span = i, 0.0
        while lo > 0 and span < duration:
            lo -= 1
            span += raw[lo]
        hi, span = i + 1, 0.0
        while hi < len(raw) and span < duration:
            span += raw[hi]
            hi += 1
        out.append(REF_KERNEL_S / statistics.mean(kernel[lo:hi + 1]))
    return out


def count_failures(workload, seed, jobs, first, runs, hp) -> int:
    """Check each slot's first run; a run fails if its slot fails or its
    exit code, report or exception differs from that first run."""
    reference = load_reference()
    reasons = {}
    for slot, (code, text, error) in first.items():
        bad = checks.check_job(jobs[slot], code, text, error, workload, seed,
                               reference, hp)
        if bad:
            reasons[slot] = bad
            print(f"FAIL {workload} slot {slot} {jobs[slot].argv}: {'; '.join(bad)}",
                  file=sys.stderr)
    expected = {slot: (code, checks.sha256(text), error)
                for slot, (code, text, error) in first.items()}
    failed = 0
    for slot, code, digest, error in runs:
        differs = (code, digest, error) != expected[slot]
        if differs and slot not in reasons:
            print(f"FAIL {workload} slot {slot} {jobs[slot].argv}: exit {code}, error"
                  f" {error} or report differs from the job's first run", file=sys.stderr)
        failed += slot in reasons or differs
    return failed


def percentiles(passes, key, tail_rank):
    """(median, tail) over the job list of each job's typical time, the
    median of its times in the passes.  The tail is the time of the job of
    rank ``tail_rank``.  Taking each job's median first keeps a rank that
    falls at the edge of a cluster of jobs with similar costs from reading
    the slowest run of the cluster."""
    typical = sorted(statistics.median(p[key][i] for p in passes)
                     for i in range(len(passes[0][key])))
    return statistics.median(typical), typical[tail_rank - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    setup_s, bare = [], bare_start()
    for _ in range(SETUP_RUNS):
        elapsed = time_setup(workload, seed)
        after = bare_start()
        setup_s.append(elapsed * REF_START_S * 2 / (bare + after))
        bare = after
    hp, main, jobs, order = setup(workload, seed)
    tracer = tracing.Tracer()
    first, runs, passes = run_passes(main, jobs, order, seconds, trace, tracer)
    failed = count_failures(workload, seed, jobs, first, runs, hp)

    plain = [p for p in passes if not p["traced"]]
    speed = statistics.median(p["speed"] for p in passes)
    pass_s = statistics.median(p["pass_s"] for p in plain)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed}
    info = {"workload": workload, "seed": seed, "passes": len(passes),
            "jobs_per_pass": len(order), "fail_ratio": failed / len(runs),
            "speed": speed}
    if trace:
        traced = [p for p in passes if p["traced"]]
        overhead = statistics.median(p["pass_s"] for p in traced) / pass_s - 1
        result["metrics"] = tracing.layer_metrics([p["stats"] for p in traced],
                                                  tracer.absent, overhead)
        info["absent_layers"] = sorted(tracer.absent)
        return result, info

    # the highest percentile of the job list with TAIL_BEYOND jobs beyond it
    tail_rank = max(len(order) - TAIL_BEYOND, 1)
    info["tail"] = {"percentile": round(100 * tail_rank / len(order), 2),
                    "jobs": len(order), "samples": len(order) * len(plain)}
    p50, tail = percentiles(plain, "times", tail_rank)
    info["raw"] = percentiles(plain, "raw", tail_rank)
    result["metrics"] = {
        "job_p50_s": {"value": p50, "unit": "s"},
        "job_tail_s": {"value": tail, "unit": "s"},
        "jobs_per_s": {"value": (1 - info["fail_ratio"]) * len(order) / pass_s,
                       "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "unit": "MB"},
    }
    return result, info


def print_human(result: dict, info: dict) -> None:
    print(f"workload {info['workload']}  seed {info['seed']}  passes {info['passes']}"
          f"  jobs/pass {info['jobs_per_pass']}  attempted {result['attempted']}"
          f"  failed {result['failed']}  fail_ratio {info['fail_ratio']:.4g} (ratio)")
    for name, metric in result["metrics"].items():
        line = f"  {name:40} {metric['value']:<14.6g} {metric['unit']}"
        if name == "job_tail_s":
            tail = info["tail"]
            line += (f"  (p{tail['percentile']:g}: {TAIL_BEYOND} of {tail['jobs']} jobs"
                     f" beyond it; {tail['samples']} job runs)")
        print(line)
    print(f"  cpu speed factor {info['speed']:.4g} (reference kernel {REF_KERNEL_S * 1e3:g} ms"
          " / measured, median over passes; times above are scaled by it)")
    if "raw" in info:
        print(f"  unscaled wall time: job_p50 {info['raw'][0]:.6g} s,"
              f" job_tail {info['raw'][1]:.6g} s")
    if info.get("absent_layers"):
        print(f"  absent layers: {', '.join(info['absent_layers'])}")


def run_all(seed: int, seconds: int) -> dict:
    """Each workload in a fresh process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, part = run_subprocess(workload, seed, seconds, trace)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if part is None:
                raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "heckepairs", "cli.py")):
        print("error: src/heckepairs not found next to bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        print_human(result, info)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
