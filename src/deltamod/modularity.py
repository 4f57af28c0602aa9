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
  general columns. Each added part is one step of the shared minor kernel
  in ``_batch``, in int64 when its growth guard allows and over exact
  Python ints otherwise.

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
starts. The identity-anchored path is cross-validated against the
brute-force path in the test suite on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import _batch
from .exact import _row_pass, _scan_subdets, det, is_parallel
from .intmatrix import DegenerateRankError, IntMatrix, SubmatrixWitness

_MAX_FAST_ROWS = 12


@dataclass(frozen=True)
class ModularityReport:
    delta: int
    witness: SubmatrixWitness
    pairwise_non_parallel: bool
    parallel_violations: tuple[tuple[int, int], ...]
    satisfies_bound: bool | None = None

    def to_json_dict(self) -> dict:
        d: dict = {"delta": self.delta,
                   "witness": self.witness.to_json_dict(),
                   "pairwiseNonParallel": self.pairwise_non_parallel,
                   "parallelViolations": [list(p) for p in self.parallel_violations]}
        if self.satisfies_bound is not None:
            d["satisfiesBound"] = self.satisfies_bound
        return d


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
    edge_for_pair: tuple[tuple[int, int, int], ...]  # (i, j, col), i < j
    adj: tuple[int, ...]                   # row -> neighbor bitmask
    extras: tuple[int, ...]                # column indices of general columns


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
    edge_for_pair: dict[tuple[int, int], int] = {}
    extras: list[int] = []
    for j in range(m.cols):
        col = m.column(j)
        if not any(col):
            continue
        kind, data = _classify(col)
        if kind == "unit":
            unit_for_row.setdefault(data, j)
        elif kind == "edge":
            edge_for_pair.setdefault(data, j)
        else:
            extras.append(j)
    if len(unit_for_row) != r:
        return None
    adj = [0] * r
    for (i, j) in edge_for_pair:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return _Split(tuple(unit_for_row[i] for i in range(r)),
                  tuple((i, j, c) for (i, j), c in sorted(edge_for_pair.items())),
                  tuple(adj), tuple(extras))


def _is_connected(mask: int, adj: tuple[int, ...]) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


@lru_cache(maxsize=512)
def _connected_masks(r: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(mk for mk in range(1, 1 << r) if _is_connected(mk, adj))


@lru_cache(maxsize=4096)
def _disjoint_families(conn: tuple[int, ...], t: int) -> tuple[tuple[int, ...], ...]:
    """Families of t pairwise-disjoint masks, lexicographic over positions."""
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(start: int, used: int) -> None:
        if len(acc) == t:
            out.append(tuple(acc))
            return
        remaining = t - len(acc)
        for idx in range(start, len(conn) - remaining + 1):
            mk = conn[idx]
            if mk & used:
                continue
            acc.append(mk)
            rec(idx + 1, used | mk)
            acc.pop()

    rec(0, 0)
    return tuple(out)


@lru_cache(maxsize=4096)
def _mask_sums(col: tuple[int, ...], r: int) -> tuple[int, ...]:
    """sums[mask] = sum of col over the rows in mask; cached for the search."""
    sums = [0] * (1 << r)
    for mask in range(1, 1 << r):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + col[low.bit_length() - 1]
    return tuple(sums)


def _spanning_tree_cols(mask: int, split: _Split) -> list[int]:
    """Column indices of difference columns forming a spanning tree of mask."""
    edge_col = {(i, j): c for (i, j, c) in split.edge_for_pair}
    rows = [i for i in range(len(split.adj)) if mask >> i & 1]
    seen = {rows[0]}
    cols: list[int] = []
    frontier = [rows[0]]
    while frontier:
        i = frontier.pop()
        for j in rows:
            if j in seen or not (split.adj[i] >> j & 1):
                continue
            seen.add(j)
            frontier.append(j)
            cols.append(edge_col[(min(i, j), max(i, j))])
    if len(seen) != len(rows):
        raise RuntimeError("part is not connected")
    return cols


def _witness_cols(family: tuple[int, ...], combo: tuple[int, ...],
                  split: _Split, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    used = 0
    cols: list[int] = []
    for mask in family:
        used |= mask
        if mask & (mask - 1):
            cols.extend(_spanning_tree_cols(mask, split))
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


class _SubsetScan:
    """DFS over families of disjoint connected parts with a shared-minor DP.

    The state at depth L holds, for every L-subset of general columns in
    colex order, the determinant of the collapsed L x L matrix given by the
    current part masks. Extending the family by one part is a single step
    of the minor kernel, so minors are shared across every family with a
    common prefix.
    """

    def __init__(self, sums: np.ndarray, conn, nx: int, bound: int | None):
        self.sums = sums
        self.conn = conn
        self.nx = nx
        self.bound = bound
        self.best = 1
        self.best_at: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self.path: list[int] = []

    def run(self, max_depth: int) -> None:
        self.max_depth = max_depth
        self._rec(0, 0, np.ones(1, dtype=self.sums.dtype))

    def _rec(self, start: int, used: int, state: np.ndarray) -> None:
        depth = len(self.path)
        if depth == self.max_depth:
            return
        for idx in range(start, len(self.conn)):
            mask = self.conn[idx]
            if mask & used:
                continue
            self.path.append(mask)
            child = self._extend(state, mask, depth)
            if child is not None:
                self._inspect(child, depth + 1)
                self._rec(idx + 1, used | mask, child)
            self.path.pop()

    def _extend(self, state: np.ndarray, mask: int, depth: int) -> np.ndarray | None:
        acc = _batch.laplace_step(self.sums[mask], state, self.nx, depth + 1)
        return acc if acc.any() else None

    def _inspect(self, values: np.ndarray, k: int) -> None:
        fam = tuple(self.path)
        av = np.abs(values)
        if self.bound is not None:
            viol = av > self.bound
            if viol.any():
                i = int(np.argmax(viol))
                raise _ScanHit(int(av[i]), fam, _batch.colex_unrank(k, i))
        local = int(av.max())
        if local > self.best:
            i = int(np.argmax(av == local))
            self.best = local
            self.best_at = (fam, _batch.colex_unrank(k, i))


def _scan_identity(m: IntMatrix, split: _Split, bound: int | None
                   ) -> tuple[int, SubmatrixWitness]:
    r = m.rows
    value, hit = 1, ((), ())  # the empty family: the unit basis itself
    if split.extras:
        extras_cols = [m.column(j) for j in split.extras]
        nx = len(extras_cols)
        max_depth = min(r, nx)
        col_bound = max(sum(abs(v) for v in col) for col in extras_cols)
        dtype = _batch.scan_dtype(max_depth, col_bound)
        _batch.check_scan_size(nx, max_depth, dtype)
        # uncached: at 12 rows the cache would hold 4096 sums per column
        sums = np.ascontiguousarray(np.array(
            [_mask_sums.__wrapped__(col, r) for col in extras_cols], dtype=dtype).T)
        scan = _SubsetScan(sums, _connected_masks(r, split.adj), nx, bound)
        try:
            scan.run(max_depth)
            value, hit = scan.best, scan.best_at
        except _ScanHit as h:
            value, hit = h.value, (h.family, h.combo)
    rows_w, cols_w = _witness_cols(*hit, split, r)
    wit = SubmatrixWitness(rows_w, cols_w, det(m.submatrix(rows_w, cols_w)))
    if abs(wit.det_value) != value:
        raise RuntimeError(f"witness determinant {wit.det_value} disagrees "
                           f"with the scanned value {value}")
    return value, wit


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
    cols = m.columns()
    out = []
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            if is_parallel(cols[i], cols[j]):
                out.append((i, j))
    return tuple(out)


def modularity_level(m: IntMatrix, query: int | None = None) -> ModularityReport:
    """Exact modularity level with witness and a pairwise-parallelism audit."""
    value, witness = _minor_scan(m, None)
    viol = parallel_violations(m)
    return ModularityReport(
        delta=value,
        witness=witness,
        pairwise_non_parallel=not viol,
        parallel_violations=viol,
        satisfies_bound=None if query is None else value <= query)


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
    """Every family of t disjoint masks of conn, then the cap of its union U."""
    return tuple(fam + (caps[sum(fam).bit_count()],) for fam in _disjoint_families(conn, t))


@lru_cache(maxsize=4096)
def _expansions(conn: tuple[int, ...], t: int, caps: tuple[int, ...]) -> tuple[tuple, ...]:
    """(``_laplace_terms``, cap) of every family of t disjoint masks of conn."""
    return tuple((_laplace_terms(e[:-1]), e[-1]) for e in _capped(conn, t, caps))


class IdentityAnchoredChecker:
    """Grow a column set over a fixed unit basis with exact bound checks.

    With ``d`` > 1 the columns are basis coordinates adj(B) c over a basis B
    with |det B| = d (``search._GeneralChecker``). A family of parts with
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
    """

    def __init__(self, r: int, delta: int, d: int = 1):
        self.r = r
        self.caps = tuple(delta * d ** max(k - 1, 0) for k in range(r + 1))
        self.adj = [0] * r
        self.extras: list[tuple[int, ...]] = []
        self.sums: list[tuple[int, ...]] = []
        self.minors: list[dict[tuple[int, ...], dict[tuple[int, ...], int]]] = []
        self._trail: list[tuple[str, object]] = []
        # try_add calls and accepts; held-minor lookups that hit and fills
        self.calls = self.accepted = self.hits = self.fills = 0

    def try_add(self, col: tuple[int, ...]) -> bool:
        self.calls += 1
        kind, data = _classify(col)
        if kind == "unit" or kind == "edge" and self.adj[data[0]] >> data[1] & 1:
            # like a unit column, an edge already held adds no minor to check
            self._trail.append(("unit", None))
        elif kind == "edge":
            i, j = data  # type: ignore[misc]
            if not self._edge_ok(i, j):
                return False
            self.adj[i] |= 1 << j
            self.adj[j] |= 1 << i
            self._trail.append(("edge", (i, j)))
        else:
            sums = _mask_sums(col, self.r)
            if not self._extra_ok(sums):
                return False
            self.extras.append(col)
            self.sums.append(sums)
            self.minors.append({})
            self._trail.append(("extra", None))
        self.accepted += 1
        return True

    def pop(self) -> None:
        kind, data = self._trail.pop()
        if kind == "edge":
            i, j = data  # type: ignore[misc]
            self.adj[i] &= ~(1 << j)
            self.adj[j] &= ~(1 << i)
        elif kind == "extra":
            self.extras.pop()
            self.sums.pop()
            self.minors.pop()

    def stats(self) -> dict[str, int]:
        return {"tryAdd": self.calls, "accepted": self.accepted,
                "minorHits": self.hits, "minorFills": self.fills}

    def _minor(self, ks: tuple[int, ...], fam: tuple[int, ...]) -> int:
        """Minor of the chosen extras ``ks`` over the parts ``fam``."""
        if len(ks) == 1:
            return self.sums[ks[0]][fam[0]]
        held = self.minors[ks[-1]].setdefault(ks[:-1], {})
        v = held.get(fam)
        if v is None:
            v = self._fill(ks, held, fam)
        else:
            self.hits += 1
        return v

    def _fill(self, ks: tuple[int, ...], held: dict, fam: tuple[int, ...]) -> int:
        """Expand the minor of ``ks`` over ``fam`` along its last column and
        hold it in ``held``, the table of ``ks``."""
        col, rest = self.sums[ks[-1]], ks[:-1]
        v = 0
        for mask, sub, neg in _laplace_terms(fam):
            x = col[mask]
            if x:
                m = self._minor(rest, sub)
                v = v - x * m if neg else v + x * m
        held[fam] = v
        self.fills += 1
        return v

    def _edge_ok(self, i: int, j: int) -> bool:
        nx = len(self.extras)
        if not nx:
            return True
        new_adj = list(self.adj)
        new_adj[i] |= 1 << j
        new_adj[j] |= 1 << i
        conn = _connected_masks(self.r, tuple(new_adj))
        pair_mask = (1 << i) | (1 << j)
        for t in range(1, min(self.r, nx) + 1):
            for fam in _disjoint_families(conn, t):
                if not any(mask & pair_mask == pair_mask for mask in fam):
                    continue
                cap = self.caps[sum(fam).bit_count()]
                for ks in combinations(range(nx), t):
                    if abs(self._minor(ks, fam)) > cap:
                        return False
        return True

    def _extra_ok(self, new: tuple[int, ...]) -> bool:
        caps = self.caps
        conn = _connected_masks(self.r, tuple(self.adj))
        # one part: the minors are the part sums themselves
        if any(abs(new[mask]) > cap for mask, cap in _capped(conn, 1, caps)):
            return False
        # two parts: 2 x 2 minors with one chosen extra
        pairs = _capped(conn, 2, caps)
        for col in self.sums:
            for m0, m1, cap in pairs:
                if abs(col[m0] * new[m1] - col[m1] * new[m0]) > cap:
                    return False
        # t parts: expand along the new column over held minors of t - 1 extras
        nx = len(self.sums)
        for t in range(3, min(self.r, nx + 1) + 1):
            expansions = _expansions(conn, t, caps)
            if not expansions:
                break
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
                        return False
        return True
