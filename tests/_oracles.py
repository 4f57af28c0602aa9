"""Naive reference implementations used only to cross-check the library.

Everything here is deliberately simple: cofactor determinants, exhaustive
subset enumeration, no shortcuts shared with the code under test.
"""

from itertools import combinations

from deltamod.exact import det_cofactor, rank
from deltamod.intmatrix import IntMatrix


def naive_max_rank_subdet(m: IntMatrix) -> int:
    r = rank(m)
    best = 0
    for rows in combinations(range(m.rows), r):
        for cols in combinations(range(m.cols), r):
            best = max(best, abs(det_cofactor(m.submatrix(rows, cols))))
    return best


def naive_max_subdet_all_sizes(m: IntMatrix) -> int:
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                best = max(best, abs(det_cofactor(m.submatrix(rows, cols))))
    return best


def naive_max_subset_sum(v) -> int:
    best = 0
    n = len(v)
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            best = max(best, sum(v[i] for i in idx))
    return best


def naive_partition_count(n: int) -> int:
    # classic table: ways[k] = partitions using parts <= current part
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def naive_first_max_rank_subdet(m: IntMatrix, bound: int | None = None):
    """(|det|, cols, rows) of the first rank-sized maximiser.

    Column subsets are the outer loop and row subsets the inner one, both
    in lexicographic order. With ``bound``, the first |det| above it wins
    instead, if there is one.
    """
    r = rank(m)
    best = None
    for cols in combinations(range(m.cols), r):
        for rows in combinations(range(m.rows), r):
            d = abs(det_cofactor(m.submatrix(rows, cols)))
            if bound is not None and d > bound:
                return d, cols, rows
            if best is None or d > best[0]:
                best = (d, cols, rows)
    return best
