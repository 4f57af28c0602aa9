"""One benchmark process: set up a workload, time whole passes, check outputs.

``run.py`` starts this script in a fresh process with BLAS thread pools set
to one. It imports ``deltamod`` from the checkout's ``src`` and nowhere else,
builds the workload's inputs, prints the monotonic time at which they were
ready, times the stream kernel of ``speed`` a few times to scale that
set-up time, and then (unless ``--setup-only``) times whole passes over the
items until another pass would overrun ``--seconds``. The workload's kernel
is also timed between items, at least every CONTROL_EVERY_S, and each
pass's times are scaled by ``speed.factor`` of that pass's samples. Every output is checked by ``checks`` outside the
timed region. The last stdout line is one JSON object.

The first pass is run and checked but not timed: it lets the program's
caches fill (``modularity._transition`` alone builds tens of MiB of index
tables on the first families item), and which item comes first depends on
the seed. With ``--trace 1`` the passes after it alternate traced and
untraced; per-layer metrics come from the traced passes and the tracing
overhead from comparing the two kinds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TAIL_MIN_ITEMS = 40
CONTROL_EVERY_S = 0.5
CONTROL_SAMPLES = 3
SETUP_KERNEL_SAMPLES = 5


def _import_program() -> str:
    """Import numpy and the checkout's deltamod; return numpy's version."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy
    import deltamod
    if os.path.dirname(os.path.abspath(deltamod.__file__)) != os.path.join(src, "deltamod"):
        raise SystemExit(f"deltamod was imported from {deltamod.__file__}, "
                         f"not from {src}")
    return numpy.__version__


class Tally:
    def __init__(self, n_items: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.timing = False   # the first pass only warms the program's caches
        self.problems: list[str] = []
        self.times: list[list[float]] = [[] for _ in range(n_items)]  # scaled
        self.raw: list[list[float]] = [[] for _ in range(n_items)]
        self.factors: list[float] = []
        self.kernel: list[list[float]] = []

    def note(self, name: str, problems: list[str]) -> None:
        if len(self.problems) < 20:
            self.problems += [f"{name}: {p}" for p in problems]


def run_pass(wl, tally: Tally) -> float:
    """Run every item once; return the pass's scaled seconds in the program."""
    kernel: list[float] = []
    last = 0.0
    done: dict[int, float] = {}
    outs: list = []
    bad: set[int] = set()
    for k, call in enumerate(wl.calls):
        if not kernel or time.perf_counter() - last >= CONTROL_EVERY_S:
            kernel += [speed.kernel_seconds(wl.kernel) for _ in range(CONTROL_SAMPLES)]
            last = time.perf_counter()
        t0 = time.perf_counter()
        try:
            res = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            outs.append(None)
            bad.add(k)
            tally.note(wl.names[k], [f"raised {type(exc).__name__}: {exc}"])
            continue
        done[k] = time.perf_counter() - t0
        out = wl.plain(res)
        outs.append(out)
        problems = wl.check(wl.cases[k], out)
        if problems:
            bad.add(k)
            tally.wrong = True
            tally.note(wl.names[k], problems)
    kernel += [speed.kernel_seconds(wl.kernel) for _ in range(CONTROL_SAMPLES)]
    if wl.check_pass is not None:
        for k, problems in wl.check_pass(wl.cases, outs).items():
            bad.add(k)
            tally.wrong = True
            tally.note(wl.names[k], problems)
    tally.attempted += len(wl.calls)
    tally.failed += len(bad)
    factor = speed.factor(kernel, wl.kernel)
    if tally.timing:
        tally.factors.append(factor)
        tally.kernel.append(kernel)
        for k, dt in done.items():
            tally.raw[k].append(dt)
            tally.times[k].append(dt * factor)
    return sum(done.values()) * factor


def tail(values: list[float]) -> tuple[float, int | None]:
    """Highest whole percentile with at least ten values beyond it.

    With fewer than TAIL_MIN_ITEMS values there is no tail, and the largest
    value is returned with percentile None.
    """
    n = len(values)
    s = sorted(values)
    if n < TAIL_MIN_ITEMS:
        return s[-1], None
    p = 100 * (n - 10) // n
    return s[-(-p * n // 100) - 1], p


def machine(numpy_version: str) -> dict:
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "optimize": sys.flags.optimize, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    numpy_version = _import_program()
    import tracing
    import workloads
    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.BUILDERS[args.workload](args.seed)
    if tracer:
        tracer.uninstall()
        setup_stats = {k: list(v) for k, v in tracer.stats.items()}
        tracer.reset()
    ready = time.monotonic()
    setup_factor = speed.factor([speed.kernel_seconds("stream")
                                 for _ in range(SETUP_KERNEL_SAMPLES)], "stream")
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_factor": setup_factor}))
        return 0

    tally = Tally(len(wl.calls))
    plain_s: list[float] = []
    traced_s: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        tally.timing = bool(walls)
        t0 = time.perf_counter()
        try:
            pass_s = run_pass(wl, tally)
        finally:
            if traced:
                tracer.uninstall()
        if tally.timing:
            (traced_s if traced else plain_s).append(pass_s)
        walls.append(time.perf_counter() - t0)
        enough = len(walls) >= (3 if tracer else 2)
        if enough and time.perf_counter() - start + max(walls) > args.seconds:
            break

    # An item's latency is the mean of its scaled times over the passes: the
    # host's noise is drift rather than outliers, and across runs the mean
    # of the passes spread less than their median.
    item_ms = {name: statistics.mean(t) * 1000
               for name, t in zip(wl.names, tally.times) if t}
    detail = {"machine": machine(numpy_version), "passes": len(walls),
              "items_per_pass": len(wl.calls), "problems": tally.problems,
              "speed_factors": tally.factors, "kernel_s": tally.kernel,
              "raw_item_pass_s": dict(zip(wl.names, tally.raw)),
              "raw_item_ms": {name: statistics.mean(t) * 1000
                              for name, t in zip(wl.names, tally.raw) if t}}
    if tracer:
        metrics = tracing.layer_metrics(
            tracer.stats, len(traced_s), statistics.median(tally.factors[::2]),
            setup_stats, setup_factor)
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_s) / statistics.median(plain_s),
            "unit": "ratio"}
        detail["spans"] = tracer.stats
        detail["traced_passes"] = len(traced_s)
    else:
        tail_ms, tail_p = tail(list(item_ms.values()))
        metrics = {
            "items_per_s": {"value": sum(map(len, tally.times)) / sum(plain_s), "unit": "1/s"},
            "p50_ms": {"value": statistics.median(item_ms.values()), "unit": "ms"},
            "tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
        detail.update({"tail_percentile": tail_p, "pass_program_s": plain_s,
                       "item_ms": item_ms})
    print(json.dumps({"ready": ready, "setup_factor": setup_factor,
                      "correct": not tally.wrong,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
