"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Makes a very short run (a warm-up pass and one timed pass) of every
   workload through run.py and one short traced run, and checks that each
   prints exactly the metrics BENCHMARK.json names, with their units, and
   no failed item.
2. Runs one item of each workload, shows that its checker accepts the real
   output, and that it rejects tampered copies: a wrong level, a witness
   whose determinant is wrong or within delta, a "holds" answer, a wrong
   oracle value, infeasible or unproved search certificates, and a profile
   off by one line.

Exits 0 when everything behaves, 1 otherwise. Takes about two minutes.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import worker

ROOT = worker.ROOT
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def short_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = [(w["name"], 0, e2e) for w in spec["workloads"]]
    runs.append(("search", 1, layers))
    for name, trace, want in runs:
        proc = subprocess.run(spec["command"] + ["--workload", name, "--seed", "1",
                                                 "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        what = f"short run {name} --trace {trace}"
        if proc.returncode != 0:
            expect(False, f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(line) == {"correct", "attempted", "failed", "metrics"},
               f"{what}: result keys")
        expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
               f"{what}: correct, {line['attempted']} attempted, {line['failed']} failed")
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
        if not trace:
            expect(all(v["value"] > 0 for v in line["metrics"].values()),
                   f"{what}: every end-to-end metric above 0")


def rejects(check, case: dict, out: dict, what: str) -> None:
    problems = check(case, out)
    expect(bool(problems), f"rejects {what}: {problems[:1]}")


def tamper_tests() -> None:
    worker._import_program()
    import checks
    import reference as ref
    import workloads

    wl = workloads.build_families(0)
    case, out = wl.cases[0], wl.plain(wl.calls[0]())
    expect(not checks.check_family(case, out), f"families accepts {wl.names[0]}")
    rejects(checks.check_family, case, dict(out, level=out["level"] - 1),
            "a level below its witness")
    d = case["delta"] + 1
    bad = dict(out, level=d, witness=out["witness"][:2] + (d,))
    rejects(checks.check_family, case, bad, "a level above delta with a matching witness")
    prof = dict(out["profile"])
    prof[min(prof)] += 1
    rejects(checks.check_family, case, dict(out, profile=prof), "a profile with one line too many")
    prof = dict(out["profile"])
    prof[max(prof)] -= 1
    rejects(checks.check_family, case, dict(out, profile=prof), "a profile with one line too few")

    wl = workloads.build_extend(0)
    case, out = wl.cases[0], wl.plain(wl.calls[0]())
    expect(not checks.check_extend(case, out), f"extend accepts {wl.names[0]}")
    rows, cols, value = out["witness"]
    rejects(checks.check_extend, case, dict(out, witness=(rows, cols, value + 1)),
            "a witness whose determinant is wrong")
    r = len(case["cols"][0])
    units = sorted(case["cols"].index(tuple(int(i == k) for i in range(r))) for k in range(r))
    d = ref.det(ref.submatrix_rows(case["cols"], range(r), units))
    rejects(checks.check_extend, case, dict(out, witness=(tuple(range(r)), tuple(units), d)),
            "a correct witness within delta")
    rejects(checks.check_extend, case, {"holds": True, "witness": None}, "a 'holds' answer")

    wl = workloads.build_oracle(0)
    case, out = wl.cases[0], wl.plain(wl.calls[0]())
    expect(not checks.check_oracle(case, out), f"oracle accepts {wl.names[0]}")
    rejects(checks.check_oracle, case, dict(out, value=out["value"] + 1), "a wrong value")
    rows, cols, value = out["witness"]
    rejects(checks.check_oracle, case, dict(out, witness=(rows, cols, -value - 1)),
            "a witness whose determinant is wrong")

    wl = workloads.build_search(0)
    picks = [k for k, c in enumerate(wl.cases) if c["node_limit"] is None]
    cases = [wl.cases[k] for k in picks]
    outs = [wl.plain(wl.calls[k]()) for k in picks]
    for case, out in zip(cases, outs):
        expect(not checks.check_search(case, out), f"search accepts {case['mode']}")
    expect(not checks.check_search_pass(cases, outs), "search accepts the pass")
    case, out = cases[0], outs[0]
    d, r = case["delta"], case["rank"]
    over = (d + 1, 1) + (0,) * (r - 2)
    rejects(checks.check_search, case,
            dict(out, cols=out["cols"] + [over], count=out["count"] + 1),
            "a certificate with a minor above delta")
    rejects(checks.check_search, case,
            dict(out, cols=out["cols"] + [tuple(-v for v in out["cols"][-1])],
                 count=out["count"] + 1),
            "a certificate with parallel columns")
    rejects(checks.check_search, case, dict(out, optimal=False),
            "an unproved search without a node limit")
    low = copy.deepcopy(outs)
    hnf = next(k for k, c in enumerate(cases) if c["mode"] == "hnf-exhaustive")
    low[hnf]["count"] -= 1
    expect(bool(checks.check_search_pass(cases, low)),
           "rejects an hnf-exhaustive optimum below the identity-anchored one")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tamper_tests()
    short_runs(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
