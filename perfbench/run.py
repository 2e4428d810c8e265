"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-tables, pld-sweep, scenario-screen (see README.md).  With
``--trace 0`` the run first times ``SETUP_PROBES`` fresh interpreters from
start to framerisk imported and inputs built (``setup_s``, their median
scaled to the nominal machine speed of ``calibrate.py``),
then one worker process measures the workload for ``--seconds``.  With
``--trace 1`` the worker reports per-layer metrics instead.  The last line
of standard output is the JSON result; the same result, with the machine
and software versions, is written to ``perfbench/out/``.  Exits 2 without a
result when the checkout holds no ``src/framerisk`` or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper-tables", "pld-sweep", "scenario-screen")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # the whole run, probes included


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_seconds(workload: str, seed: int) -> tuple[float, list[float], list[float]]:
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters, scaled
    to the nominal machine speed, with the raw probe and kernel times."""
    kernels = [kernel_seconds()]
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_seconds(workload, seed))
        kernels.append(kernel_seconds())
    return statistics.median(probes) * NOMINAL_S / statistics.mean(kernels), probes, kernels


def probe_seconds(workload: str, seed: int) -> float:
    """Wall time from launching an interpreter to its ``ready`` line."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            _kill(proc)
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_worker(workload: str, seed: int, seconds: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    if not (ROOT / "src" / "framerisk" / "__init__.py").is_file():
        print(f"no framerisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    try:
        setup, probes, kernels = (None, [], []) if args.trace else setup_seconds(args.workload, args.seed)
        remaining = RUN_LIMIT_S - (time.perf_counter() - began)
        result = run_worker(args.workload, args.seed, args.seconds, args.trace, remaining)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    for problem in result["problems"] + result["errors"]:
        print(problem, file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **result["versions"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "rounds": result["rounds"],
        "ops_per_round": result["ops_per_round"],
        "setup_probes_wall_s": probes,
        "setup_kernel_ms": [k * 1e3 for k in kernels],
        "metrics": metrics,
        **result["extra"],
        "problems": result["problems"],
        "errors": result["errors"],
    }
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
