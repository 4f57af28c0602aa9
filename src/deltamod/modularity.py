"""Exact bounded-subdeterminant checking.

``is_delta_modular`` decides whether every rank-sized subdeterminant stays
within a bound, and ``modularity_level`` measures the exact maximum. Two
strategies are dispatched on matrix structure:

* identity-anchored: the matrix contains a (signed) unit column for every
  row. Appending unit columns extends any square submatrix of the remaining
  block to a full-rank one of equal absolute determinant, so the level
  equals the maximum over ALL square minors of the non-unit block. Minors
  mixing difference columns (e_i - e_j) with general columns are evaluated
  by contracting each spanning forest of difference columns: the value of a
  minor that uses general columns c_1..c_t equals, up to sign, the t x t
  determinant of row-sums of the c_k over the forest components. The level
  is therefore the maximum of |det[(sum over S_a of c_b)]| over families of
  disjoint, nonempty, edge-connected row subsets S_1..S_t and t-subsets of
  general columns. Each row of such a matrix sums rows of X, the block of
  general columns, so by multilinearity (the Cauchy-Binet formula) its
  minors are signed sums of plain minors det X[R, S] over the transversals
  R of the parts, one row from each. ``_SubsetScan`` computes each plain
  minor once per scan and shares it among every family, in the dtype
  that ``_batch.scan_dtype`` gives for its bound on every value: int32,
  int64 or exact Python ints.

* general: brute force over rank-sized subsets factored through a column
  basis: one kernel pass over row subsets, one over column subsets, first
  hit in lexicographic order, columns outer (``exact._scan_subdets``).

A matrix is dispatched through a row basis. For pivot columns S0 and R*,
the lexicographically first row set maximizing |det A[R,S0]|, every
rank-sized minor is det A[R,S] = det A[R,S0] / det A[R*,S0] * det A[R*,S],
a factor of absolute value at most 1 times a minor of A[R*,:], so the
rows R* carry every maximum and every bound violation. ``_minor_scan``
alone chooses the scan, with at most one echelon and one row pass:

1. No echelon when the matrix holds a unit basis: it has full row rank,
   so it is its own A[R*,:], and the identity-anchored scan runs on it.
2. Otherwise one row pass (``exact._row_pass``) finds R*. When the matrix
   is tall and A[R*,:] has a unit basis, the identity-anchored scan runs
   on A[R*,:] and its witness rows are R*.
3. Otherwise the general scan runs on the whole matrix with that row pass.

The identity-anchored scan takes at most ``_MAX_FAST_ROWS`` rows. A
zero-sum matrix of rank one below its row count takes R* = every row but
the last, because each row set of that size ties (its row transform
[I; -1^T] is totally unimodular), so the clique extensions of the paper
are anchored.

A scan too large for memory is refused with ``ValueError`` before it
starts (``_batch.check_scan_bytes``). The identity-anchored path is
cross-validated against the brute-force path in the test suite on
randomized inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import _batch
from .exact import _parallel_groups, _row_pass, _scan_subdets, checked_witness
from .intmatrix import DegenerateRankError, IntMatrix, SubmatrixWitness

_MAX_FAST_ROWS = 12
# entries that one batch of minor-store rows gathers: its rows of X and
# the store rows one level down
_BATCH_ENTRIES = 1 << 14
# int32 colex blocks at least this wide are built with ``np.einsum``'s
# sum of products, the others with ``np.matmul``. One int32 store row of
# 7 terms (2-core VM, numpy 2.4.6, best of 7 x 2,000 calls): einsum took
# 9.7 us against matmul's 37 us at width 5,000 and 3.6 against 4.7 us at
# 512, both about 3 us at 256, and 3.0 against 2.2 us at 128, where
# einsum's larger fixed cost a call outweighs its faster loop. On int64
# rows the two tie up to width 5,000; on object rows einsum is 1.3-1.5x
# slower.
_EINSUM_WIDTH = 256


@dataclass(frozen=True)
class ModularityReport:
    """The level of a matrix with its witness, and its parallel columns.

    ``delta`` is the largest |det| of a rank-sized submatrix, attained by
    ``witness``. ``parallel_violations`` lists every pair i < j of parallel
    columns, and ``pairwise_non_parallel`` says that it is empty.
    """

    delta: int
    witness: SubmatrixWitness
    pairwise_non_parallel: bool
    parallel_violations: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {"delta": self.delta,
                "witness": self.witness.to_json_dict(),
                "pairwiseNonParallel": self.pairwise_non_parallel,
                "parallelViolations": [list(p) for p in self.parallel_violations]}


def append_zero_sum_row(m: IntMatrix) -> IntMatrix:
    sums = [sum(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]
    return IntMatrix(m.entries + (tuple(-s for s in sums),), m.labels)


def drop_last_row(m: IntMatrix) -> IntMatrix:
    if m.rows < 2:
        raise DegenerateRankError("cannot drop the only row")
    return IntMatrix(m.entries[:-1], m.labels)


# -- identity-anchored structure -------------------------------------------


@dataclass(frozen=True)
class _Split:
    unit_for_row: tuple[int, ...]          # row -> column index of +-e_row
    edge_col: dict[tuple[int, int], int]   # (i, j), i < j -> column of +-(e_i - e_j)
    adj: tuple[int, ...]                   # row -> neighbor bitmask
    extras: tuple[int, ...]                # column indices of general columns


@lru_cache(maxsize=4096)
def _classify(col: tuple[int, ...]) -> tuple[str, object]:
    """("unit", i) for +-e_i, ("edge", (i, j)) for +-(e_i - e_j) with i < j,
    and ("extra", None) for any other nonzero column."""
    nz = [(i, v) for i, v in enumerate(col) if v]
    if len(nz) == 1 and abs(nz[0][1]) == 1:
        return "unit", nz[0][0]
    if len(nz) == 2 and abs(nz[0][1]) == 1 and nz[0][1] + nz[1][1] == 0:
        return "edge", (nz[0][0], nz[1][0])
    return "extra", None


def _split_identity_anchored(m: IntMatrix) -> _Split | None:
    r = m.rows
    unit_for_row: dict[int, int] = {}
    edge_col: dict[tuple[int, int], int] = {}
    extras: list[int] = []
    for j, col in enumerate(m.columns()):
        if not any(col):
            continue
        kind, data = _classify(col)
        if kind == "unit":
            unit_for_row.setdefault(data, j)
        elif kind == "edge":
            edge_col.setdefault(data, j)
        else:
            extras.append(j)
    if len(unit_for_row) != r:
        return None
    adj = [0] * r
    for (i, j) in edge_col:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return _Split(tuple(unit_for_row[i] for i in range(r)), edge_col,
                  tuple(adj), tuple(extras))


def _tree(mask: int, adj) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of a spanning tree of the nonempty row set
    ``mask`` over ``adj``, grown from its lowest row with a stack: each
    popped row takes its unseen neighbours in increasing order. The tree
    spans ``mask`` iff it has one edge fewer than ``mask`` has rows."""
    seen = mask & -mask
    stack = [seen.bit_length() - 1]
    edges = []
    while stack:
        u = stack.pop()
        grow = adj[u] & mask & ~seen
        seen |= grow
        while grow:
            v = (grow & -grow).bit_length() - 1
            grow &= grow - 1
            edges.append((u, v) if u < v else (v, u))
            stack.append(v)
    return edges


@lru_cache(maxsize=512)
def _connected_masks(r: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(mk for mk in range(1, 1 << r) if len(_tree(mk, adj)) == mk.bit_count() - 1)


@lru_cache(maxsize=4096)
def _mask_sums(col: tuple[int, ...], r: int) -> tuple[int, ...]:
    """sums[mask] = sum of col over the rows in mask; cached for the search."""
    sums = [0] * (1 << r)
    for mask in range(1, 1 << r):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + col[low.bit_length() - 1]
    return tuple(sums)


def _witness_cols(family: tuple[int, ...], combo: tuple[int, ...],
                  split: _Split, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    used = 0
    cols: list[int] = []
    for mask in family:
        used |= mask
        tree = _tree(mask, split.adj)
        if len(tree) != mask.bit_count() - 1:
            raise RuntimeError("part is not connected")
        cols.extend(split.edge_col[e] for e in tree)
    for i in range(r):
        if not (used >> i & 1):
            cols.append(split.unit_for_row[i])
    cols.extend(split.extras[k] for k in combo)
    return tuple(range(r)), tuple(sorted(cols))


class _ScanHit(Exception):
    """Carries the first bound violation out of the DFS."""

    def __init__(self, value: int, family: tuple[int, ...], combo: tuple[int, ...]):
        self.value = value
        self.family = family
        self.combo = combo


@lru_cache(maxsize=4096)
def _row_set(mask: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(colex rank, rows, rank without each row) of the row set ``mask``."""
    rows = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    rank = _batch.colex_rank
    return rank(rows), rows, tuple(rank(rows[:p] + rows[p + 1:]) for p in range(len(rows)))


def _grow(trans: list[tuple[int, int]], rows) -> list[tuple[int, int]]:
    """Each signed transversal of ``trans`` extended by each of ``rows``:
    appending row i flips the sign when an odd number of rows of the
    transversal lie above i."""
    return [(rs | 1 << i, -s if (rs >> i).bit_count() & 1 else s) for rs, s in trans for i in rows]


def _first_max(values: np.ndarray, hi: int, lo: int) -> int:
    """The first index of ``values``, whose maximum is hi and minimum lo,
    where |value| is largest."""
    local = max(hi, -lo)
    return min(int(np.argmax(values == v)) for v in {hi, lo} if abs(v) == local)


@lru_cache(maxsize=64)
def _blocks(nx: int, t: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """The layout of level t of the minor store over nx columns: the colex
    blocks of its t-subsets (``_batch.colex_blocks``) and the rows of one
    batch, as many as keep what the batch gathers, t rows of X and t rows
    one level down for each row, within ``_BATCH_ENTRIES`` entries, else
    one."""
    return _batch.colex_blocks(nx, t), max(1, _BATCH_ENTRIES // (t * (nx + comb(nx, t - 1))))


@lru_cache(maxsize=64)
def _signs(t: int, dtype: np.dtype) -> np.ndarray:
    """The signs (-1)**(t-1-p) of the terms of level t, in the store's
    dtype, so that multiplying by them keeps the store's width."""
    return np.array([(-1) ** (t - 1 - p) for p in range(t)], dtype=dtype)


@lru_cache(maxsize=64)
def _store_layout(r: int, nx: int, depth: int, dtype: np.dtype):
    """(shapes of levels 2..depth, worst-case bytes) of the minor store in
    ``dtype`` of a scan of r rows, nx general columns and families of up to
    ``depth`` parts.

    The worst case adds to the levels X and the larger of two scratches,
    which are never alive at once. One is the sums of a node at level t,
    priced as (2**f - 1 + f) * C(nx, t) entries for the f = r - t + 1 rows
    that its kids' parts can take at most: ``_evaluate``'s block holds at
    most 2**f - 1 rows, one per kid or helper single, each a connected part
    of those rows, and the boolean masks that it takes of a row fit in the
    other f rows. This covers a bounded scan's one family sum with its
    masks, twice C(nx, t). The other is the largest batch of
    ``_build_level``, what it gathers (``_blocks``) and, when it holds more
    than one row, its output. Every term is in ``dtype``.
    """
    shapes = tuple((comb(r, t), comb(nx, t)) for t in range(2, depth + 1))
    scratch = max((2 ** (r - t + 1) + r - t) * comb(nx, t) for t in range(1, depth + 1))
    for t, (rows, size) in enumerate(shapes, 2):
        n = min(rows, _blocks(nx, t)[1])
        scratch = max(scratch, n * (t * (nx + comb(nx, t - 1)) + (size if n > 1 else 0)))
    entries = r * nx + sum(a * b for a, b in shapes) + scratch
    return shapes, _batch.array_bytes(entries, dtype)


# Shared by every scan: a table per scan raised the `extend` benchmark's
# p50_ms from 1.21 to 1.33 ms (medians of 6 alternating runs).
@lru_cache(maxsize=4)
def _free_parts(conn: tuple[int, ...]) -> dict[int, tuple[tuple[int, int], ...]]:
    """A table, filled on use and shared by every scan over ``conn``, of
    the parts disjoint from a row mask: used -> its (index, part) pairs in
    increasing index order. The parts disjoint from ``used`` are nonempty
    subsets of the other rows, so a table over r rows holds at most 3**r
    pairs: 2,187 at rank 7, 531,441 (about 45 MiB) at the 12 rows that the
    scan takes at most."""
    return {}


class _SubsetScan:
    """DFS over families of disjoint connected parts, by Cauchy-Binet.

    A family (M_1..M_t) stands for the t x t matrices whose row a is the
    sum of the rows M_a of X, the r x nx block of general columns, on a
    t-subset S of them. Each row is linear in the rows it sums, so the
    minor on S is a signed sum over the transversals R (one row of each
    part) of the plain minor det X[R, S]: the sign is that of the rows of R
    taken in path order, and appending row i to R flips it when an odd
    number of rows of R lie above i. The state of a family, its minors on
    every t-subset S in colex order, is therefore a signed sum of rows of
    the store ``levels[t]``, where row rank(R) holds det X[R, S] for every
    S. A store row is built on first request, after the missing rows of
    its subsets, level by level, by expanding along the top column c of
    each colex block of S (``_blocks``):

        det X[R, S] = sum over p of (-1)**(t-1-p) * X[R_p, c] * det X[R - R_p, S - c]

    whose second factors are a prefix of the row of R - R_p one level down.
    Every level is built by one rule: in batches of rows (level 2 whole, if
    one batch holds it), one product per block for the whole batch, a sum
    of t products per entry. The kernel is chosen by the block's width and
    dtype: ``np.einsum``'s sum of products for int32 blocks at least
    ``_EINSUM_WIDTH`` wide, integer ``np.matmul`` otherwise, where einsum's
    larger cost a call (or its slower int64 and object loops) would not
    pay. A batch of one row is written in place, a larger one through one
    scratch array that is scattered into the store once. The levels are
    views of one buffer. For 7 rows and 24 columns they hold 2,629,406
    minors, about 10.5 MB in int32 (21 MB in int64).

    A scan with no bound (``modularity_level``) evaluates all kids of a DFS
    node together (``_evaluate``): each row of the kids' parts gets its
    single, the signed sum of its transversals' store rows, once; a kid of
    several rows costs one add, an earlier kid plus a single; and one
    maximum and one minimum reduction serve the node's whole block. A scan
    with a bound (``is_delta_modular``) extends kid by kid (``_extend``):
    its first violation ends the scan, so sums of later kids, and the store
    rows that they would build first, are never needed. Either way, kids
    are inspected in mask order just before their subtrees, the best
    value and its witness are the same, and a kid whose minors all vanish
    is not extended.

    Every value the scan forms, a term or partial sum of that expansion, of
    a transversal sum or of a node's block, is bounded by t! * B**t for B
    the largest l1 norm of a column of X: each such value is part of the
    Cauchy-Binet sum of a minor of a family of disjoint row sets, and
    expanded over the t! permutations, the absolute terms of one
    permutation sum to a product of t factors, each the l1 norm of one
    column of X over the rows of one part, at most B. The store takes
    the dtype ``_batch.scan_dtype(max_depth, B)`` of that bound: int32 when
    max_depth! * B**max_depth < 2**31, half the bytes of int64 and half
    the memory traffic, else int64 or exact Python ints. One code path
    serves all three.
    """

    def __init__(self, x: np.ndarray, conn, bound: int | None, max_depth: int):
        self.x = x
        self.conn = conn
        self.nx = nx = x.shape[1]
        self.bound = bound
        self.max_depth = max_depth
        self.best = 1
        self.best_at: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self.path: list[int] = []
        # levels[t][rank(R)] = det X[R, S] over the t-subsets S; level 1 is X.
        # Levels 2.. are views of one buffer, whose rows are written before
        # they are read; the next scan reuses the block without page faults
        # (one array per level: 2,536 faults per full 7 x 24 store, about
        # 6 ms on a 2-core VM).
        shapes = _store_layout(x.shape[0], nx, max_depth, x.dtype)[0]
        buf = np.empty(sum(a * b for a, b in shapes), dtype=x.dtype)
        self.levels = [None, x]
        start = 0
        for a, b in shapes:
            self.levels.append(buf[start:start + a * b].reshape(a, b))
            start += a * b
        self.built = {1 << i for i in range(x.shape[0])}
        self.free = _free_parts(conn)

    def run(self) -> None:
        self._rec(0, 0, [(0, 1)])

    def _rec(self, start: int, used: int, trans: list[tuple[int, int]]) -> None:
        depth = len(self.path)
        if depth == self.max_depth:
            return
        free = self.free.get(used)
        if free is None:
            free = self.free[used] = tuple((idx, mk) for idx, mk in enumerate(self.conn)
                                           if not mk & used)
        kids = free[bisect_left(free, (start,)):]  # (start,) < (start, part)
        if self.bound is not None:
            for idx, mask in kids:
                self.path.append(mask)
                child = self._extend(trans, mask, depth)
                if child is not None:
                    self._rec(idx + 1, used | mask, child)
                self.path.pop()
            return
        if not kids:
            return
        for (idx, mask), (local, at, child) in zip(kids, self._evaluate(trans, kids, depth)):
            self.path.append(mask)
            if local > self.best:  # ``_evaluate`` found ``at`` for every such kid
                self.best = local
                self.best_at = (tuple(self.path), _batch.colex_unrank(depth + 1, at))
            if child is not None:
                self._rec(idx + 1, used | mask, child)
            self.path.pop()

    def _evaluate(self, trans: list[tuple[int, int]], kids, depth: int) -> list[tuple]:
        """(largest |minor|, its first S or None, transversals or None) of
        the family extended by each kid, from one block of sums.

        Row i of the kids' parts gets its single, the signed sum of the
        store rows R + {i} over the transversals R of ``trans``; a kid is
        the sum of the singles of its rows, taken as an earlier kid (the
        kid without its lowest row) plus one single when that is a kid.
        Each block row holds its sum times the sign of its first term, as
        ``sign`` records, which leaves |values| alone. Every row is the
        minor vector of a family of disjoint row sets, so the scan's bound
        covers it and each partial sum (class docstring). The first S is
        found only for a kid that beats the best so far and every kid
        before it, the only kids that can raise the best. The block dies
        here, so no block is alive while a deeper node is evaluated."""
        t = depth + 1
        masks = [mask for _, mask in kids]
        union = 0
        for mask in masks:
            union |= mask
        singles = {i: _grow(trans, (i,)) for i in _row_set(union)[1]}
        missing = [rs for ts in singles.values() for rs, _ in ts if rs not in self.built]
        if missing:
            self._build(missing, t)
        level = self.levels[t]
        # block rows: the kids in order, then the helper singles, the rows
        # whose one-row part is no kid; a one-row kid is its single
        pos = {mask: k for k, mask in enumerate(masks)}
        for i in singles:
            pos.setdefault(1 << i, len(pos))
        block = np.empty((len(pos), level.shape[1]), level.dtype)
        sign = [1] * len(pos)
        for i, ((rs, s), *others) in singles.items():
            k = pos[1 << i]
            out = block[k]
            acc = level[_row_set(rs)[0]]
            for rs, s_rs in others:
                acc = (np.add if s_rs == s else np.subtract)(acc, level[_row_set(rs)[0]], out=out)
            if not others:
                np.copyto(out, acc)
            sign[k] = s
        for k, mask in enumerate(masks):
            low = mask & -mask
            if low != mask:
                rest = mask ^ low
                terms = [pos[rest], pos[low]] if rest in pos else [
                    pos[1 << i] for i in _row_set(mask)[1]]
                a, *others = terms
                acc = block[a]
                for b in others:
                    acc = (np.add if sign[b] == sign[a] else np.subtract)(
                        acc, block[b], out=block[k])
                sign[k] = sign[a]
        kid_block = block[:len(masks)]
        his = np.maximum.reduce(kid_block, axis=1).tolist()
        los = np.minimum.reduce(kid_block, axis=1).tolist()
        evals = []
        top = self.best
        for values, mask, hi, lo in zip(kid_block, masks, his, los):
            if hi == lo == 0:
                evals.append((0, None, None))
                continue
            local = max(hi, -lo)
            first = None
            if local > top:
                top = local
                first = _first_max(values, hi, lo)
            low = mask & -mask
            evals.append((local, first, singles[low.bit_length() - 1] if low == mask
                          else _grow(trans, _row_set(mask)[1])))
        return evals

    def _extend(self, trans: list[tuple[int, int]], mask: int, depth: int
                ) -> list[tuple[int, int]] | None:
        """Inspect the minors of the family extended by the part ``mask``,
        the signed sum of the store rows of its transversals, and return
        the transversals; None when every minor is zero. The sum ends here,
        so no family's sum is alive while a store row is built."""
        child = _grow(trans, _row_set(mask)[1])
        missing = [rs for rs, _ in child if rs not in self.built]
        if missing:
            self._build(missing, depth + 1)
        level = self.levels[depth + 1]
        (rs, first), *others = child
        values = level[_row_set(rs)[0]]
        out = None  # the first sum allocates the result, the others add into it
        for rs, s in others:  # signs relative to the first leave |values| alone
            values = out = (np.add if s == first else np.subtract)(
                values, level[_row_set(rs)[0]], out=out)
        hi, lo = int(values.max()), int(values.min())
        if hi == lo == 0:
            return None
        self._inspect(values, hi, lo, depth + 1)
        return child

    def _build(self, masks: list[int], t: int) -> None:
        """Build the store rows of ``masks`` and of their missing subsets."""
        todo = [masks]
        for _ in range(t, 2, -1):
            subs = {mk & ~(1 << i) for mk in todo[-1] for i in _row_set(mk)[1]}
            todo.append([mk for mk in subs if mk not in self.built])
        for k, level_masks in zip(range(t - len(todo) + 1, t + 1), reversed(todo)):
            if level_masks:
                self._build_level(level_masks, k)

    def _build_level(self, masks: list[int], t: int) -> None:
        x, r = self.x, self.x.shape[0]
        spans, step = _blocks(self.nx, t)
        signs = _signs(t, x.dtype)
        # all pairs in one batch: the rows below are X. Building only the
        # pairs asked for raised the `extend` benchmark's p50_ms from 1.21
        # to 1.33 ms (medians of 6 alternating runs)
        if t == 2 and comb(r, 2) <= step:
            masks = [1 << i | 1 << j for i, j in combinations(range(r), 2)]
        level, below = self.levels[t], self.levels[t - 1]
        for lo in range(0, len(masks), step):
            meta = [_row_set(mk) for mk in masks[lo:lo + step]]
            # coef[a, p, c] = +-X[row p of R_a, c], subs[a, p] = the row of R_a - row p
            coef = x[[m[1] for m in meta]]
            coef *= signs[:, None]
            subs = below[[m[2] for m in meta]]
            # block c of row a is coef[a, :, c] @ subs[a, :, :width]: one
            # row is written in place, more through one scratch array
            n = len(meta)
            out = level[meta[0][0]][None] if n == 1 else np.empty((n, level.shape[1]), x.dtype)
            for c, start, width in spans:
                if width < _EINSUM_WIDTH or x.dtype != np.int32:
                    np.matmul(coef[:, None, :, c], subs[..., :width],
                              out=out[:, None, start:start + width])
                else:
                    np.einsum("ap,apw->aw", coef[..., c], subs[..., :width],
                              out=out[:, start:start + width])
            if n > 1:
                level[[m[0] for m in meta]] = out
            del coef, subs, out  # before the next batch: one batch is priced
        self.built.update(masks)

    def _inspect(self, values: np.ndarray, hi: int, lo: int, k: int) -> None:
        """Raise the first minor above the bound; else keep the family's
        largest |minor|, at its first S, when it beats the best so far."""
        local = max(hi, -lo)
        if self.bound is not None and local > self.bound:
            i = int(np.argmax((values > self.bound) | (values < -self.bound)))
            raise _ScanHit(abs(int(values[i])), tuple(self.path), _batch.colex_unrank(k, i))
        if local > self.best:
            i = _first_max(values, hi, lo)
            self.best = local
            self.best_at = (tuple(self.path), _batch.colex_unrank(k, i))


def _scan_identity(m: IntMatrix, split: _Split, bound: int | None
                   ) -> tuple[int, SubmatrixWitness]:
    r = m.rows
    value, hit = 1, ((), ())  # the empty family: the unit basis itself
    if split.extras:
        cols = m.columns()
        extras_cols = [cols[j] for j in split.extras]
        nx = len(extras_cols)
        max_depth = min(r, nx)
        col_bound = max(sum(map(abs, col)) for col in extras_cols)
        dtype = _batch.scan_dtype(max_depth, col_bound)
        _batch.check_scan_bytes(_store_layout(r, nx, max_depth, dtype)[1], max_depth, nx)
        x = np.ascontiguousarray(np.array(extras_cols, dtype=dtype).T)
        scan = _SubsetScan(x, _connected_masks(r, split.adj), bound, max_depth)
        try:
            scan.run()
            value, hit = scan.best, scan.best_at
        except _ScanHit as h:
            value, hit = h.value, (h.family, h.combo)
    return value, checked_witness(m, *_witness_cols(*hit, split, r), value)


# -- dispatch ----------------------------------------------------------------


def _scan_general(m: IntMatrix, rows: tuple, bound: int | None
                  ) -> tuple[int, SubmatrixWitness]:
    return _scan_subdets(m, rows, bound)


def _minor_scan(m: IntMatrix, bound: int | None) -> tuple[int, SubmatrixWitness]:
    """The one choice of strategy: see the module docstring for the order."""
    split = _split_identity_anchored(m) if m.rows <= _MAX_FAST_ROWS else None
    if split is not None:
        return _scan_identity(m, split, bound)  # full row rank: m is its own R*
    rows = _row_pass(m)
    top = rows[2]
    if len(top) < m.rows and len(top) <= _MAX_FAST_ROWS:
        work = m.submatrix(top, range(m.cols))
        split = _split_identity_anchored(work)
        if split is not None:
            value, wit = _scan_identity(work, split, bound)  # its witness takes every row
            return value, SubmatrixWitness(top, wit.col_indices, wit.det_value)
    return _scan_general(m, rows, bound)


def is_delta_modular(m: IntMatrix, delta: int
                     ) -> tuple[bool, SubmatrixWitness | None]:
    """Decide whether all rank-sized subdeterminants have |det| <= delta.

    Aborts at the first violation and returns it as a witness.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    value, witness = _minor_scan(m, delta)
    if value > delta:
        return False, witness
    return True, None


def parallel_violations(m: IntMatrix) -> tuple[tuple[int, int], ...]:
    """Every pair i < j of parallel columns, in lexicographic order.

    Two nonzero columns are parallel iff they share a parallel class; a
    zero column is parallel to every column.
    """
    classes, loops = _parallel_groups(m.columns())
    pairs = set(combinations(loops, 2))
    for cl in classes:
        pairs.update(combinations(sorted(cl + loops), 2))
    return tuple(sorted(pairs))


def modularity_level(m: IntMatrix) -> ModularityReport:
    """Exact modularity level with witness and a pairwise-parallelism audit.

    The whole scan runs with no bound. To test a bound, ``is_delta_modular``
    stops at the first minor above it.
    """
    value, witness = _minor_scan(m, None)
    viol = parallel_violations(m)
    return ModularityReport(
        delta=value,
        witness=witness,
        pairwise_non_parallel=not viol,
        parallel_violations=viol)


# -- incremental feasibility for search --------------------------------------


@lru_cache(maxsize=4096)
def _laplace_terms(fam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], bool], ...]:
    """(mask, rest of the family, negate) for each row of a t x t determinant
    over the parts ``fam``, expanded along its last column: the term of
    row a carries the sign (-1)**(a + t - 1)."""
    t = len(fam)
    return tuple((mask, fam[:a] + fam[a + 1:], (t - 1 - a) % 2 == 1)
                 for a, mask in enumerate(fam))


@lru_cache(maxsize=4096)
def _capped(conn: tuple[int, ...], t: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every family of t disjoint masks of conn, lexicographic over
    positions, then the cap of its union U."""
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(start: int, used: int) -> None:
        if len(acc) == t:
            out.append((*acc, caps[used.bit_count()]))
            return
        for idx in range(start, len(conn) - (t - len(acc)) + 1):
            mk = conn[idx]
            if not mk & used:
                acc.append(mk)
                rec(idx + 1, used | mk)
                acc.pop()

    rec(0, 0)
    return tuple(out)


@lru_cache(maxsize=4096)
def _expansions(conn: tuple[int, ...], t: int, caps: tuple[int, ...]) -> tuple[tuple, ...]:
    """(``_laplace_terms``, cap) of every family of t disjoint masks of conn."""
    return tuple((_laplace_terms(e[:-1]), e[-1]) for e in _capped(conn, t, caps))


class IdentityAnchoredChecker:
    """Grow a column set over a fixed unit basis with exact bound checks.

    With ``d`` > 1 the columns are basis coordinates adj(B) c over a basis B
    with |det B| = d (``search.max_columns_search``). A family of parts with
    union U stands for minors of k = |U| of them (a spanning tree of each
    part plus one extra per part), held to ``caps[k]`` = delta * d**(k-1).

    ``try_add`` verifies only the minors that involve the incoming column;
    subsets of feasible sets are feasible, so this matches a full recheck.
    The trail holds, per accepted extra k, its part sums ``sums[k]``
    (``_mask_sums``) and its minor table ``minors[k]``:
    ``minors[k][rest][fam]`` is the determinant whose columns are the part
    sums of the extras ``rest + (k,)`` (ascending indices) and whose rows
    are the parts ``fam`` (ascending masks, one per column). A minor
    depends on part sums only, not on ``adj``, so an entry stays valid
    while extra k is on the trail; an edge accepted later only adds
    families. Entries are filled on first use by expanding along column k,
    and ``pop`` drops them with the extra. An incoming column is checked by
    the same expansion along itself, over the held minors of the extras.

    A fill reads only minors already held, so it never recurses. In one
    ``_extra_ok`` call, the pass over t parts with the extras ``rest``
    reads, and so holds, the minor of ``rest`` over each (t - 1)-part
    family G with a part M disjoint from G and new[M] != 0. A fill in the
    pass over t + 1 parts, made for a part M of the checked family F with
    new[M] != 0, expands the minor of ``rest + (k,)`` over F - M along
    column k: it reads the minors of ``rest`` over F - M - M', families
    that M is disjoint from, so the pass over t parts held them. With one
    extra below, they are the part sums.

    An edge e_i - e_j not yet held is checked the same way, as an extra
    over the parts held before it, and then joins ``adj``. This is exact. A
    new part through the edge is either an old part, or the union of two
    old parts A, holding i, and B, holding j. A family that merges A and B
    is, expanded along the edge column, a family of the old parts in which
    the edge is the column of one part: that column is 1 on part A, -1 on
    part B and 0 elsewhere, so adding row A to row B and expanding along
    it leaves the merged row. Both are the same k x k minor of Y over the
    same union U, held to ``caps[|U|]``. A family of old parts in which the
    edge meets one part alone gives a minor over a smaller union, which
    already holds within its smaller cap.

    After ``try_add`` says no, ``conflict`` names the held columns of the
    minor that went over its cap, as a bitmask over trail positions: the
    held extra of a failing 2 x 2 check, or the held extras of a failing
    family of t parts, and the held edges of a spanning tree of each part
    of the failing family, over ``adj``; a failing one-part check names
    only its tree. With the unit columns of the rows outside the family,
    these and the rejected column are exactly the columns of that minor,
    so no column set that holds them all is feasible. The positions are
    read off the trail, which holds one entry per accepted column and
    names its extra or edge.
    """

    def __init__(self, r: int, delta: int, d: int = 1):
        self.r = r
        self.caps = tuple(delta * d ** max(k - 1, 0) for k in range(r + 1))
        self.adj = [0] * r
        self.sums: list[tuple[int, ...]] = []
        self.minors: list[dict[tuple[int, ...], dict[tuple[int, ...], int]]] = []
        # per accepted column: ("unit", None), ("extra", its index in
        # ``sums``) or ("edge", (i, j))
        self._trail: list[tuple[str, object]] = []
        self.conflict = 0
        # try_add calls and accepts; held-minor lookups that hit and fills
        self.calls = self.accepted = self.hits = self.fills = 0

    def try_add(self, col: tuple[int, ...]) -> bool:
        self.calls += 1
        kind, data = _classify(col)
        if kind == "unit" or kind == "edge" and self.adj[data[0]] >> data[1] & 1:
            # like a unit column, an edge already held adds no minor to check
            self._trail.append(("unit", None))
        else:
            sums = _mask_sums(col, self.r)
            if not self._extra_ok(sums):
                return False
            if kind == "edge":
                i, j = data  # type: ignore[misc]
                self.adj[i] |= 1 << j
                self.adj[j] |= 1 << i
            else:
                data = len(self.sums)
                self.sums.append(sums)
                self.minors.append({})
            self._trail.append((kind, data))
        self.accepted += 1
        return True

    def pop(self) -> None:
        kind, data = self._trail.pop()
        if kind == "edge":
            i, j = data  # type: ignore[misc]
            self.adj[i] &= ~(1 << j)
            self.adj[j] &= ~(1 << i)
        elif kind == "extra":
            self.sums.pop()
            self.minors.pop()

    def stats(self) -> dict[str, int]:
        return {"tryAdd": self.calls, "accepted": self.accepted,
                "minorHits": self.hits, "minorFills": self.fills}

    def _fill(self, ks: tuple[int, ...], held: dict, fam: tuple[int, ...]) -> int:
        """Expand the minor of the extras ``ks`` over the parts ``fam`` along
        its last column and hold it in ``held``, the table of ``ks``. The
        minors it reads one level down, part sums when ``ks`` has two
        extras, are already held (class docstring)."""
        col, low = self.sums[ks[-1]], len(ks) == 2
        below = self.sums[ks[0]] if low else self.minors[ks[-2]][ks[:-2]]
        v = 0
        for mask, sub, neg in _laplace_terms(fam):
            x = col[mask]
            if x:
                if low:
                    m = below[sub[0]]
                else:
                    m = below[sub]
                    self.hits += 1
                v = v - x * m if neg else v + x * m
        held[fam] = v
        self.fills += 1
        return v

    def _reject(self, extras: tuple[int, ...], fam: tuple[int, ...]) -> bool:
        """Set ``conflict`` to the trail positions of the held columns of the
        minor of the extras ``extras`` and the new column over the parts
        ``fam``: those extras and the edges of a tree of each part; False."""
        edges = {e for mask in fam for e in _tree(mask, self.adj)}
        self.conflict = sum(1 << p for p, (kind, data) in enumerate(self._trail)
                            if kind == "extra" and data in extras
                            or kind == "edge" and data in edges)
        return False

    def _extra_ok(self, new: tuple[int, ...]) -> bool:
        caps = self.caps
        conn = _connected_masks(self.r, tuple(self.adj))
        # one part: the minors are the part sums themselves
        for mask, cap in _capped(conn, 1, caps):
            if abs(new[mask]) > cap:
                return self._reject((), (mask,))
        # two parts: 2 x 2 minors with one chosen extra
        pairs = _capped(conn, 2, caps)
        for x, col in enumerate(self.sums):
            for m0, m1, cap in pairs:
                if abs(col[m0] * new[m1] - col[m1] * new[m0]) > cap:
                    return self._reject((x,), (m0, m1))
        # t parts: expand along the new column over held minors of t - 1 extras
        nx = len(self.sums)
        for t in range(3, min(self.r, nx + 1) + 1):
            expansions = _expansions(conn, t, caps)
            for rest in combinations(range(nx), t - 1):
                held = self.minors[rest[-1]].setdefault(rest[:-1], {})
                for terms, cap in expansions:
                    d = 0
                    for mask, sub, neg in terms:
                        x = new[mask]
                        if x:
                            m = held.get(sub)
                            if m is None:
                                m = self._fill(rest, held, sub)
                            else:
                                self.hits += 1
                            d = d - x * m if neg else d + x * m
                    if abs(d) > cap:
                        return self._reject(rest, tuple(mask for mask, _, _ in terms))
        return True
