"""Benchmark of the wrsp engine: one command, every metric, checked outputs.

    python3 bench/run.py --workload cli-k123 --seed 1 --seconds 30 --trace 0

Each repetition is a fresh Python process (``worker.py``) with ``src`` on
``PYTHONPATH`` and ``WRSP_THREADS`` cleared, started serially from this
process, so every cache in ``wrsp`` starts cold.  With ``--trace 0`` the
run repeats the workload (at least twice) while the next repetition still
fits in ``--seconds``, adds a few set-up-only processes, and reports
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``, and ``pass_ratio``,
the share of operations that passed.  With ``--trace 1``
it runs the workload once untraced and once traced and reports the
per-layer metrics and the tracing overhead.  The last line of standard output is the
JSON result; the line before it records the context of the result.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")   # records and spans of past runs
SETUP_PROBES = 10       # set-up-only processes per untraced run
MIN_REPS = 2            # untraced repetitions per run, however long each takes
RUN_BUDGET_S = 170      # every child is stopped before the run exceeds this


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WRSP_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "wrsp", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: int, work: str, deadline: float) -> dict:
    """Untraced repetitions: medians of the end-to-end metrics."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(base + ["--work", work, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(run_child(base + ["--work", tempfile.mkdtemp(dir=work)], deadline))
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now - start + (now - t) > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    return {
        "reps": reps,
        "metrics": {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        },
    }


def measure_traced(workload: str, seed: int, work: str, deadline: float) -> dict:
    """One untraced and one traced repetition: per-layer metrics and overhead."""
    base = ["--workload", workload, "--seed", str(seed)]
    plain = run_child(base + ["--work", tempfile.mkdtemp(dir=work)], deadline)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    traced = run_child(base + ["--work", tempfile.mkdtemp(dir=work), "--trace",
                               "--spans", spans], deadline)
    claim_ids = workloads.load_goldens()["claims-k4"]
    metrics = {name: (traced["layers"][name], unit)
               for name, unit in tracer.layer_metric_names(claim_ids)}
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain["wall_s"], "ratio")
    return {"reps": [plain, traced], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wrsp", "__init__.py")):
        print("error: no wrsp package under src/ to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        if args.trace:
            record = measure_traced(args.workload, args.seed, work, deadline)
        else:
            record = measure(args.workload, args.seed, args.seconds, work, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in record["reps"])
    failures = [f for r in record["reps"] for f in sorted(r["failures"].items())]
    if not args.trace:
        # the fail ratio as a gated metric that is never 0: the share that passed
        record["metrics"]["pass_ratio"] = ((attempted - len(failures)) / attempted, "ratio")
    for op, why in failures[:20]:
        print(f"failed: {op}: {why}", file=sys.stderr)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(record["reps"]),
        "fail_ratio": len(failures) / attempted,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "src_wrsp_lines": src_lines(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }
    record_path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="ascii") as fh:
        json.dump({"context": context, "reps": record["reps"], "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
