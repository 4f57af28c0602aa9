"""Naive reference implementations used only to cross-check the library.

Everything here is deliberately simple: cofactor determinants, exhaustive
subset enumeration, no shortcuts shared with the code under test. The
parallel references test every pair with ``is_parallel``, where the library
groups columns by canonical form; ``random_columns_with_parallels`` builds
inputs for them.
"""

from itertools import combinations

from deltamod.exact import det_cofactor, is_parallel, rank
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


def naive_row_basis(m: IntMatrix) -> tuple[int, ...]:
    """The first row set R maximizing |det A[R,S0]|, in lexicographic order.

    S0 is the lexicographically first column basis, found greedily.
    """
    s0: list[int] = []
    for j in range(m.cols):
        if rank(IntMatrix.from_cols([m.column(k) for k in s0 + [j]])) > len(s0):
            s0.append(j)
    dets = [(abs(det_cofactor(m.submatrix(rows, s0))), rows)
            for rows in combinations(range(m.rows), len(s0))]
    best = max(d for d, _ in dets)
    return next(rows for d, rows in dets if d == best)


def naive_long_lines(m: IntMatrix, e: int) -> list[tuple[tuple[int, ...], int]]:
    """(columns, points) of each long line through column e, sorted.

    A line is every nonzero column in the rank-2 span of e and some column f
    outside the point of e; its points are its columns up to parallelism.
    """
    cols = m.columns()

    def rk(*idx):
        return rank(IntMatrix.from_cols([cols[j] for j in idx]))

    nonzero = [j for j in range(m.cols) if any(cols[j])]
    lines = set()
    for f in nonzero:
        if rk(e, f) < 2:
            continue
        line = tuple(j for j in nonzero if rk(e, f, j) <= 2)
        points = sum(1 for i, j in enumerate(line)
                     if all(rk(k, j) == 2 for k in line[:i]))
        if points >= 3:
            lines.add((line, points))
    return sorted(lines)


def naive_parallel_pairs(m: IntMatrix) -> tuple[tuple[int, int], ...]:
    """Every pair i < j of parallel columns, by ``is_parallel`` on all pairs."""
    cols = m.columns()
    return tuple((i, j) for i, j in combinations(range(m.cols), 2)
                 if is_parallel(cols[i], cols[j]))


def naive_parallel_classes(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The nonzero columns parallel to each nonzero column, by ``is_parallel``
    on all pairs; each class once, in order of its first column."""
    cols = m.columns()
    nonzero = [j for j in range(m.cols) if any(cols[j])]
    return tuple(dict.fromkeys(tuple(k for k in nonzero if is_parallel(cols[j], cols[k]))
                               for j in nonzero))


def random_columns_with_parallels(rng) -> IntMatrix:
    """A few random columns mixed with zero, negated and scaled copies."""
    r = rng.randint(1, 4)
    cols = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 5)):
        k = rng.choice((0, -1, 2, -2, 3))
        cols.append([k * v for v in rng.choice(cols)])
    rng.shuffle(cols)
    return IntMatrix.from_cols(cols)
