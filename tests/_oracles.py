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


def naive_anchored_split(m: IntMatrix):
    """(unit column of each row, edge columns by row pair, extra columns)
    of a matrix with a unit column for every row, or None without one.

    The first +-e_i serves row i and the first +-(e_i - e_j) the pair
    {i, j}; any other nonzero column is an extra, in column order.
    """
    units: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    extras: list[int] = []
    for j, col in enumerate(m.columns()):
        nz = [i for i, v in enumerate(col) if v]
        vals = sorted(col[i] for i in nz)
        if len(nz) == 1 and abs(vals[0]) == 1:
            units.setdefault(nz[0], j)
        elif vals == [-1, 1]:
            edges.setdefault((nz[0], nz[1]), j)
        elif nz:
            extras.append(j)
    if len(units) < m.rows:
        return None
    return units, edges, extras


def _naive_components(rows, pairs) -> list[frozenset]:
    """Connected components of the graph on ``rows`` with edges ``pairs``."""
    comps = [{i} for i in rows]
    for i, j in pairs:
        a = next(c for c in comps if i in c)
        b = next(c for c in comps if j in c)
        if a is not b:
            a |= b
            comps.remove(b)
    return [frozenset(c) for c in comps]


def naive_identity_scan(m: IntMatrix):
    """Every collapsed minor of an identity-anchored matrix in scan order.

    A family is a tuple of pairwise disjoint row sets (as bitmasks), each
    connected by the edge columns, taken from the connected row sets in
    increasing mask order and extended depth first; a family is listed
    before its extensions. For each family of t parts, the t-subsets S of
    the extras follow in colex order, each with |det| of the t x t matrix
    whose entry (a, b) sums extra S_b over the rows of part a. A family
    whose minors are all zero is not extended: every minor of an extension
    expands along its rows. Returns each family as (parts, [(S, |det|), ...]).
    """
    units, edges, extras = naive_anchored_split(m)
    r, nx = m.rows, len(extras)
    cols = m.columns()

    def inside(mask):
        return [i for i in range(r) if mask >> i & 1]

    conn = [mask for mask in range(1, 1 << r)
            if len(_naive_components(inside(mask), [(i, j) for i, j in edges
                                                    if {i, j} <= set(inside(mask))])) == 1]
    out = []

    def visit(start: int, used: int, parts: tuple) -> None:
        if len(parts) == min(r, nx):
            return
        for idx in range(start, len(conn)):
            mask = conn[idx]
            if mask & used:
                continue
            fam = parts + (mask,)
            t = len(fam)
            minors = []
            for s in sorted(combinations(range(nx), t), key=lambda s: s[::-1]):
                block = [[sum(cols[extras[k]][i] for i in range(r) if part >> i & 1) for k in s]
                         for part in fam]
                minors.append((s, abs(det_cofactor(IntMatrix.from_rows(block)))))
            out.append((fam, minors))
            if any(d for _, d in minors):
                visit(idx + 1, used | mask, fam)

    visit(0, 0, ())
    return out


def naive_identity_witness(scan, bound: int | None = None):
    """(value, parts, S) of the scan's witness: with ``bound``, the first
    minor above it (None if there is none); else the first minor that is
    strictly larger than every earlier one and than 1, or (1, (), ()), the
    unit basis, when no minor exceeds 1."""
    best = (1, (), ())
    for fam, minors in scan:
        for s, d in minors:
            if bound is not None and d > bound:
                return d, fam, s
            if d > best[0]:
                best = (d, fam, s)
    return None if bound is not None else best


def naive_witness_parts(m: IntMatrix, cols) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(parts, S) that a witness column set of an identity-anchored scan
    stands for: its edge columns span the parts with two or more rows, a
    row with neither a unit column nor an edge is a part of its own, and S
    lists the positions of its extras among all extras."""
    units, edges, extras = naive_anchored_split(m)
    unit_rows = {i for i, j in units.items() if j in cols}
    pairs = [p for p, j in edges.items() if j in cols]
    comps = _naive_components([i for i in range(m.rows) if i not in unit_rows], pairs)
    parts = sorted(sum(1 << i for i in c) for c in comps)
    return tuple(parts), tuple(k for k, j in enumerate(extras) if j in cols)
