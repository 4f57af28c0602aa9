#!/usr/bin/env python3
"""Reproduce the desk-scale column-number values.

Runs the exhaustive searches for the known exact values and the greedy
extension of the sporadic rank-3 matrix, printing one row per experiment.
Expected counts, each proved optimal except the greedy lower bound:

    bound 1, rank 2, 3 and 4: 3, 6 and 10 (Heller's C(r+1, 2))
    bound 2, rank 3, identity class and all classes: 9
    bound 3, rank 3, identity class and all classes: 11, the sporadic
        matrix's count, in 4,379,785 and 4,603,314 nodes, a few seconds each
    bound 3, rank 3, greedy from the sporadic matrix: 11, not proved

Usage: PYTHONPATH=src python scripts/column_number_experiments.py
"""

import argparse
import time

from deltamod import SearchConfig, max_columns_search, sporadic_rank3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--time-limit", type=float, default=1800.0)
    args = ap.parse_args()

    experiments = [
        ("bound 1, rank 2", SearchConfig(1, 2, "hnf-exhaustive")),
        ("bound 1, rank 3", SearchConfig(1, 3, "hnf-exhaustive")),
        ("bound 1, rank 4", SearchConfig(1, 4, "hnf-exhaustive",
                                         time_limit_seconds=args.time_limit)),
        ("bound 2, rank 3 (identity class)",
         SearchConfig(2, 3, "identity-anchored",
                      time_limit_seconds=args.time_limit)),
        ("bound 2, rank 3 (all classes)",
         SearchConfig(2, 3, "hnf-exhaustive",
                      time_limit_seconds=args.time_limit)),
        ("bound 3, rank 3 (identity class)",
         SearchConfig(3, 3, "identity-anchored",
                      time_limit_seconds=args.time_limit)),
        ("bound 3, rank 3 (all classes)",
         SearchConfig(3, 3, "hnf-exhaustive",
                      time_limit_seconds=args.time_limit)),
        ("bound 3, rank 3 (greedy from sporadic)",
         SearchConfig(3, 3, "greedy-seeded", seed_matrix=sporadic_rank3(),
                      time_limit_seconds=args.time_limit)),
    ]
    print(f"{'experiment':42s} {'count':>5s} {'optimal':>8s} {'nodes':>9s} {'sec':>7s}")
    for name, config in experiments:
        t0 = time.monotonic()
        cert = max_columns_search(config)
        dt = time.monotonic() - t0
        print(f"{name:42s} {cert.best_count:5d} {str(cert.optimal):>8s} "
              f"{cert.nodes_explored:9d} {dt:7.2f}")


if __name__ == "__main__":
    main()
