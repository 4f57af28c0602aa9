"""Benchmark of deltamod: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: families, extend, oracle and
search (see bench/README.md). Each run starts fresh single-threaded worker
processes (bench/worker.py) one after another and waits for each:

* with ``--trace 0``, six set-up-only processes and then the timed worker.
  ``setup_s`` is the median over the seven processes of the time from
  starting the process to its inputs being ready, which covers the
  interpreter, importing numpy and deltamod and building the inputs. Like
  every time the benchmark reports, it is scaled by the machine-speed
  factor the worker measured (see bench/speed.py);
* with ``--trace 1``, one traced worker, which reports per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
machine's core count, the Python and numpy versions and whether it ran
under ``-O``, is written to ``bench/out/``. The exit code is not 0, and no
result is printed, when a worker fails or deltamod is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("families", "extend", "oracle", "search")
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it; return (scaled set-up seconds, JSON)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    # Set-up imports from cached bytecode, as an installed package does; the
    # first worker of a fresh checkout writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable] + ["-O"] * sys.flags.optimize
    cmd += [os.path.join(BENCH, "worker.py")] + extra
    t0 = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"worker {extra} timed out")
    if proc.returncode != 0:
        raise WorkerError(f"worker {extra} exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {extra} printed nothing:\n{err.strip()}")
    result = json.loads(lines[-1])
    return (result["ready"] - t0) * result["setup_factor"], result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of deltamod: one run of one workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(base + ["--setup-only"], deadline)[0])
        setup, result = run_worker(base + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace)], deadline)
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = os.path.join(out_dir, f"{kind}-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({**line, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "setup_samples_s": setups,
                   **result["detail"]}, fh, indent=1, sort_keys=True)
    for problem in result["detail"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
