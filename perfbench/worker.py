"""One benchmark process: build a workload's inputs, then time whole rounds
of its operations and check every output.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``--setup-only`` prints ``ready`` once framerisk is imported and the inputs
are built, then exits; ``run.py`` times fresh interpreters up to that line.
Otherwise the last line of standard output is a JSON summary for
``run.py``.  ``--trace 1`` runs a quarter of the time untraced, then
installs the tracer and reports per-layer metrics per round plus the
tracing overhead against the untraced rounds.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import NOMINAL_S, kernel_seconds  # noqa: E402

# Traced rounds stop early once this many spans are held (about 40 bytes each).
SPAN_BUDGET = 1_500_000
# Seconds of work per sample of the calibration kernel (about 0.1 s each),
# and the most samples taken at once.
CALIBRATE_EVERY_S = 0.5
MAX_SAMPLES = 10


class Rounds:
    """Op times, round sums and failures of consecutive whole rounds, and
    the calibration kernel's times sampled between operations."""

    def __init__(self):
        self.calibrate = False
        self.kernel_times: list[float] = []
        self._calibrated_at = time.perf_counter() - CALIBRATE_EVERY_S
        self.op_times: list[float] = []
        self.round_sums: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def _sample_speed(self) -> None:
        # One kernel sample per CALIBRATE_EVERY_S of work since the last
        # ones, so long operations are matched by as many samples.
        since = time.perf_counter() - self._calibrated_at
        if self.calibrate and since >= CALIBRATE_EVERY_S:
            for _ in range(min(MAX_SAMPLES, int(since / CALIBRATE_EVERY_S))):
                self.kernel_times.append(kernel_seconds())
            self._calibrated_at = time.perf_counter()

    def run(self, workload, seconds: float, stop=lambda: False) -> Rounds:
        began = time.perf_counter()
        self._sample_speed()
        while True:
            outputs, spent = [], 0.0
            for index, inp in enumerate(workload.inputs):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = workload.run(inp)
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.failed += 1
                    self.errors.append(f"op {index}: {exc!r}")
                    outputs.append(None)
                    continue
                dt = time.perf_counter() - t0
                self.op_times.append(dt)
                spent += dt
                outputs.append(out)
                self.problems += workload.check(index, out)
                self._sample_speed()
            self.problems += workload.check_round(outputs)
            self.round_sums.append(spent)
            if time.perf_counter() - began >= seconds or stop():
                return self


def peak_rss_mib() -> float:
    """Largest resident set of this process and of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(rounds: Rounds, per_round: int) -> tuple[dict, dict]:
    """Metrics at the nominal machine speed, and the raw wall-time figures.

    The 90th percentile is kept only where at least ten samples lie beyond
    it; a workload with fewer samples reports its median alone."""
    kernel = statistics.mean(rounds.kernel_times)
    scale = NOMINAL_S / kernel
    p50 = statistics.median(rounds.op_times)
    rate = per_round / statistics.median(rounds.round_sums)
    metrics = {
        "op_p50_ms": (p50 * scale * 1e3, "ms"),
        "ops_per_s": (rate / scale, "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    extra = {
        "op_samples": len(rounds.op_times),
        "kernel_ms": kernel * 1e3,
        "kernel_samples": len(rounds.kernel_times),
        "wall_op_p50_ms": p50 * 1e3,
        "wall_ops_per_s": rate,
    }
    if len(rounds.op_times) >= 100:
        p90 = statistics.quantiles(rounds.op_times, n=10)[8]
        extra.update(op_p90_ms=p90 * scale * 1e3, wall_op_p90_ms=p90 * 1e3)
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import framerisk
    import workloads

    source = Path(framerisk.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"framerisk imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 2
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    try:
        if len(workload.inputs) > 1:
            workload.run(workload.inputs[0])  # warm-up, not counted
        rounds = Rounds()
        extra = {}
        if args.trace:
            from tracing import Tracer, layer_metrics

            rounds.run(workload, 0.25 * args.seconds)
            untraced = list(rounds.round_sums)
            tracer = Tracer()
            tracer.install()
            began = len(rounds.round_sums)
            try:
                rounds.run(workload, 0.75 * args.seconds, stop=lambda: len(tracer.spans) > 5 * SPAN_BUDGET)
            finally:
                tracer.uninstall()
            traced = rounds.round_sums[began:]
            metrics = layer_metrics(tracer, len(traced))
            overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            tracer.save(workdir / f"spans_{args.workload}_s{args.seed}.npz")
        else:
            rounds.calibrate = True
            rounds.run(workload, args.seconds)
            metrics, extra = end_to_end(rounds, len(workload.inputs))
    finally:
        workload.close()

    import numpy
    import scipy

    print(json.dumps({
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "rounds": len(rounds.round_sums),
        "ops_per_round": len(workload.inputs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "problems": rounds.problems[:20],
        "errors": rounds.errors[:20],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
