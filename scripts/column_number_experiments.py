#!/usr/bin/env python3
"""Reproduce the desk-scale column-number values.

Runs the exhaustive searches for the known exact values and the greedy
extension of the sporadic rank-3 matrix, printing one row per experiment.
Each row's expected (count, optimal, nodes) is in the ``EXPECTED`` table
below; the script exits 1 if any row differs from it. Each row's wall time
goes to stderr, so stdout is the same on every run. The counts are:

    bound 1, rank 2, 3 and 4: 3, 6 and 10 (Heller's C(r+1, 2))
    bound 2, rank 3, identity class and all classes: 9
    bound 3, rank 3, identity class and all classes: 11, the sporadic
        matrix's count, about a second each
    bound 3, rank 3, greedy from the sporadic matrix: 11, not proved
    bound 4, rank 3, identity class: 13, one more than the family count
        12, in 53,576,135 nodes, about 10 s

Usage: PYTHONPATH=src python scripts/column_number_experiments.py
"""

import argparse
import sys
import time

from deltamod import SearchConfig, max_columns_search, sporadic_rank3

# name, (delta, rank, mode), expected (count, optimal, nodes)
EXPECTED = [
    ("bound 1, rank 2", (1, 2, "hnf-exhaustive"), (3, True, 2)),
    ("bound 1, rank 3", (1, 3, "hnf-exhaustive"), (6, True, 62)),
    ("bound 1, rank 4", (1, 4, "hnf-exhaustive"), (10, True, 11153)),
    ("bound 2, rank 3 (identity class)", (2, 3, "identity-anchored"), (9, True, 17181)),
    ("bound 2, rank 3 (all classes)", (2, 3, "hnf-exhaustive"), (9, True, 18916)),
    ("bound 3, rank 3 (identity class)", (3, 3, "identity-anchored"),
     (11, True, 1684388)),
    ("bound 3, rank 3 (all classes)", (3, 3, "hnf-exhaustive"), (11, True, 1907917)),
    ("bound 3, rank 3 (greedy from sporadic)", (3, 3, "greedy-seeded"),
     (11, False, 145)),
    ("bound 4, rank 3 (identity class)", (4, 3, "identity-anchored"),
     (13, True, 53576135)),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--time-limit", type=float, default=1800.0)
    args = ap.parse_args()

    print(f"{'experiment':42s} {'count':>5s} {'optimal':>8s} {'nodes':>9s}")
    failed = 0
    for name, (delta, r, mode), expected in EXPECTED:
        seed = sporadic_rank3() if mode == "greedy-seeded" else None
        config = SearchConfig(delta, r, mode, time_limit_seconds=args.time_limit,
                              seed_matrix=seed)
        t0 = time.monotonic()
        cert = max_columns_search(config)
        dt = time.monotonic() - t0
        got = (cert.best_count, cert.optimal, cert.nodes_explored)
        mark = "" if got == expected else f"  MISMATCH, expected {expected}"
        failed += got != expected
        print(f"{name:42s} {cert.best_count:5d} {str(cert.optimal):>8s} "
              f"{cert.nodes_explored:9d}{mark}")
        print(f"{name}: {dt:.2f} s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
