#!/usr/bin/env python3
"""Reproduce the desk-scale column-number values.

Runs the exhaustive searches for the known exact values and the greedy
extension of the sporadic rank-3 matrix, printing one row per experiment.
Each row's expected (count, optimal, nodes) is in the ``EXPECTED`` table
below; the script exits 1 if any row differs from it. A row also fails if
its run statistics do not account for every node: the pair-filter,
orbit, colour and conflict skips, the ``tryAdd`` calls and the one node
that exceeds a limit add up to the node count. Each row's wall time goes to
stderr, so stdout is the same on every run. The counts are:

    bound 1, rank 2, 3 and 4: 3, 6 and 10 (Heller's C(r+1, 2))
    bound 2, rank 3, identity class and all classes: 9
    bound 3, rank 3, identity class and all classes: 11, the sporadic
        matrix's count, about 0.1 s each
    bound 3, rank 3, greedy from the sporadic matrix: 11, not proved
    bound 4, rank 3, identity class and all classes: 13, one more than the
        family count 12, in 14,551,639 and 16,480,375 nodes, about 3 s
        and 4 s

Usage: PYTHONPATH=src python scripts/column_number_experiments.py
"""

import argparse
import sys
import time

from deltamod import SearchConfig, max_columns_search, sporadic_rank3

# name, (delta, rank, mode), expected (count, optimal, nodes)
EXPECTED = [
    ("bound 1, rank 2", (1, 2, "hnf-exhaustive"), (3, True, 2)),
    ("bound 1, rank 3", (1, 3, "hnf-exhaustive"), (6, True, 33)),
    ("bound 1, rank 4", (1, 4, "hnf-exhaustive"), (10, True, 5945)),
    ("bound 2, rank 3 (identity class)", (2, 3, "identity-anchored"), (9, True, 5222)),
    ("bound 2, rank 3 (all classes)", (2, 3, "hnf-exhaustive"), (9, True, 5479)),
    ("bound 3, rank 3 (identity class)", (3, 3, "identity-anchored"),
     (11, True, 362598)),
    ("bound 3, rank 3 (all classes)", (3, 3, "hnf-exhaustive"), (11, True, 390406)),
    ("bound 3, rank 3 (greedy from sporadic)", (3, 3, "greedy-seeded"),
     (11, False, 134)),
    ("bound 4, rank 3 (identity class)", (4, 3, "identity-anchored"),
     (13, True, 14551639)),
    ("bound 4, rank 3 (all classes)", (4, 3, "hnf-exhaustive"), (13, True, 16480375)),
]


def nodes_add_up(stats: dict) -> bool:
    """Whether every node is a skip, a ``tryAdd`` call or the node that
    exceeded the budget."""
    calls = sum(c["tryAdd"] for c in stats["checkers"].values())
    return (stats["pairFilterSkips"] + stats["orbitSkips"] + stats["colourSkips"]
            + stats["conflictSkips"] + calls + (stats["stop"] != "exhausted")
            ) == stats["nodes"]


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
        if not nodes_add_up(cert.stats):
            mark += f"  MISMATCH, the stats do not add up to the nodes: {cert.stats}"
        failed += bool(mark)
        print(f"{name:42s} {cert.best_count:5d} {str(cert.optimal):>8s} "
              f"{cert.nodes_explored:9d}{mark}")
        print(f"{name}: {dt:.2f} s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
