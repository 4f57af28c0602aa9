"""Print one independently checked violating minor per extend input.

    python3 bench/witnesses.py [--seed N]

For every input A|c of the extend workload, runs ``is_delta_modular`` once
and prints the witness columns, the determinant recomputed by the
benchmark's own arithmetic (``reference.det``), and whether the witness
passes ``checks.check_extend``: |det| > delta and the added column used.
Exits 1 if any input is not refuted by a checked witness.
"""

from __future__ import annotations

import argparse
import sys

import worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    worker._import_program()
    import checks
    import reference as ref
    import workloads

    wl = workloads.build_extend(args.seed)
    bad = 0
    for name, case, call in zip(wl.names, wl.cases, wl.calls):
        out = wl.plain(call())
        problems = checks.check_extend(case, out)
        if out["witness"] is None:
            print(f"FAIL  {name}: no witness")
        else:
            rows, cols, _ = out["witness"]
            d = ref.det(ref.submatrix_rows(case["cols"], rows, cols))
            print(f"{'FAIL' if problems else 'ok  '}  {name}: added column {case['added']}, "
                  f"witness columns {list(cols)}, det {d}", *problems)
        bad += bool(problems)
    print(f"{len(wl.cases) - bad} of {len(wl.cases)} inputs refuted by a checked witness")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
