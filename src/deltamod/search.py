"""Desk-scale search for the column number.

The column number at (delta, r) is the largest number of pairwise
non-parallel columns of a rank-r integer matrix whose rank-sized
subdeterminants all stay within delta. Three modes:

* identity-anchored: seeds the unit basis and searches the class of
  matrices containing it, as the hnf-exhaustive loop below run over that
  one basis. Any entry of such a matrix is itself a full-rank
  subdeterminant up to sign (complete the column with unit columns), so
  candidates range over [-delta, delta]^r; the optimum is class-relative.

* hnf-exhaustive: covers every matrix class. Any feasible matrix can be
  transformed by a unimodular row map (which preserves feasibility) so
  that some column basis becomes an upper-triangular matrix H with
  positive diagonal, reduced entries above each pivot, and diagonal
  product at most delta. Columns may also be scaled by -1 and replaced by
  their primitive parts without losing feasibility or count, so bases
  with a non-primitive column are skipped. Every remaining column c then
  satisfies adj(H) c = y with |y_i| = |det of H with column i replaced by
  c| <= delta, i.e. c = H y / det(H) for an integer vector y in
  [-delta, delta]^r. Exhausting, for every such H, all subsets of that
  candidate grid therefore exhausts the search space, and the maximum
  over bases is exact.

  Every basis is searched in these coordinates, the grid's own: with
  d = det(H) and Y = adj(H) C, [H | C] = H [I | Y / d], so a rank-sized
  minor through k columns of C is, up to sign, a k x k minor of Y divided
  by d**(k-1). The identity-anchored checker, fed the rows y and holding
  each k x k minor of Y to delta * d**(k-1), serves every basis.

* greedy-seeded: one greedy pass extending a provided feasible matrix,
  checked in the basis coordinates of its pivot columns; reported as a
  lower bound only.

Search is sequential and deterministic: candidates are ordered by
(max absolute entry, entries), depth-first inclusion is tried in order,
and only strict improvements replace the incumbent, so the reported
matrix is the lexicographically least among maximum solutions.

Pair filter. For a seed basis H, bit j of candidate i's compatibility row
is set iff H plus candidates i and j is delta-modular. The minors that use
both candidates are, by the argument above, the 2 x 2 minors of their
grid coordinates [y_i y_j] divided by d, so one row is a single int64
vectorised product over the later candidates against the cap delta * d.
The depth-first search carries the AND of the rows of the chosen
candidates and skips a candidate whose bit is clear without asking the
exact checker: a superset of an infeasible set is infeasible, so that call
could only have said no. Rows are built the first time their candidate is
accepted. The search steps from one set bit of the AND to the next. A
node is still one candidate examined: the skipped candidates between two
set bits, up to the first index where the count bound fails, are charged
to the node budget in one block, which stops on the same node as charging
them one by one. So every search visits the same nodes in the same order,
with the same count, limits and certificate, as without the filter.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import comb, gcd, prod
from typing import Iterator

import numpy as np

from ._batch import MAX_SCAN_BYTES, subset_minors
from .exact import _bareiss_det, _canonical, _pivot_cols, rank
from .intmatrix import IntMatrix, ShapeError
from .modularity import IdentityAnchoredChecker, is_delta_modular, parallel_violations

MODES = ("identity-anchored", "hnf-exhaustive", "greedy-seeded")


@dataclass(frozen=True)
class SearchConfig:
    delta: int
    rank: int
    mode: str
    node_limit: int = 10 ** 8
    time_limit_seconds: float = 600.0
    seed_matrix: IntMatrix | None = None

    def __post_init__(self) -> None:
        if self.delta < 1 or self.rank < 1:
            raise ValueError("delta and rank must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # not (t > 0) also rejects a NaN time limit, which never expires
        if self.node_limit < 1 or not self.time_limit_seconds > 0:
            raise ValueError("limits must be positive")
        if self.seed_matrix is not None and self.mode != "greedy-seeded":
            raise ValueError(f"a seed matrix is used only by greedy-seeded mode, "
                             f"not {self.mode}")


@dataclass(frozen=True)
class SearchCertificate:
    best_count: int
    best_matrix: IntMatrix
    optimal: bool
    nodes_explored: int
    ceiling_used: int
    # run statistics (``_search_stats``); not part of the JSON certificate
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {"bestCount": self.best_count,
                "optimal": self.optimal,
                "matrix": self.best_matrix.to_json_dict(),
                "nodes": self.nodes_explored,
                "ceiling": self.ceiling_used}


def hermite_bases(delta: int, r: int) -> list[IntMatrix]:
    """Upper-triangular bases with positive diagonal, reduced entries above
    each pivot, diagonal product <= delta, and primitive columns."""

    def diagonals(pos: int, budget: int, acc: list[int]):
        if pos == r:
            yield tuple(acc)
            return
        for d in range(1, budget + 1):
            acc.append(d)
            yield from diagonals(pos + 1, budget // d, acc)
            acc.pop()

    bases = []
    for diag in diagonals(0, delta, []):
        above = [(i, j) for j in range(r) for i in range(j) if diag[j] > 1]
        choices = [range(diag[j]) for (_, j) in above]
        for combo in product(*choices) if above else [()]:
            h = [[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]
            for (i, j), v in zip(above, combo):
                h[i][j] = v
            if all(gcd(*(h[i][j] for i in range(j + 1))) == 1 for j in range(r)):
                bases.append(IntMatrix.from_rows(h))
    return bases


def _grid_candidates(h: IntMatrix, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical columns c = H y / det H for integer y in [-delta, delta]^r
    other than H's own, and their coordinates y = adj(H) c: two int64 arrays
    of shape (n, r), rows in search order.

    The grid and its image are refused before they are built if together
    they would need more than ``MAX_SCAN_BYTES``. No dedupe is needed: if
    H y' / det H = g p with p primitive, then y' = g adj(H) p, so
    y = adj(H) p lies in the grid too and maps to p itself. Each canonical
    column is thus met exactly once, with its coordinates, as a primitive
    image with a positive leading entry.
    """
    r = h.rows
    need = 2 * (2 * delta + 1) ** r * r * 8
    if need > MAX_SCAN_BYTES:
        raise ValueError(
            f"the candidate grid [-{delta}, {delta}]^{r} needs {need / 2 ** 30:.1f} GiB "
            f"with its image, over the {MAX_SCAN_BYTES / 2 ** 30:.0f} GiB limit")
    d = prod(h.entries[k][k] for k in range(r))
    ys = np.indices((2 * delta + 1,) * r, dtype=np.int64).reshape(r, -1).T
    ys -= delta
    # |entries| <= r * delta**2: no grid under the limit comes near int64's
    cs = ys @ np.array(h.entries, dtype=np.int64).T
    if d > 1:
        keep = (cs % d == 0).all(axis=1)
        ys, cs = ys[keep], cs[keep] // d
    lead = cs[np.arange(len(cs)), (cs != 0).argmax(axis=1)]
    keep = (np.gcd.reduce(cs, axis=1) == 1) & (lead > 0)
    for col in h.columns():
        keep &= (cs != col).any(axis=1)
    ys, cs = ys[keep], cs[keep]
    order = np.lexsort((*cs.T[::-1], np.abs(cs).max(axis=1)))
    return cs[order], ys[order]


def _seed_bases(delta: int, r: int, mode: str) -> Iterator[IntMatrix]:
    """Every Hermite basis for hnf-exhaustive, the unit basis otherwise.

    The unit basis is ``hermite_bases``' first and is yielded before the
    rest are built, so an oversize grid, the same size for every basis, is
    refused before the bases are enumerated.
    """
    yield IntMatrix.identity(r)
    if mode == "hnf-exhaustive":
        yield from hermite_bases(delta, r)[1:]


def column_universe(delta: int, r: int) -> list[tuple[int, ...]]:
    """The identity universe: the unit columns and the grid columns of the
    unit basis, primitive, sign-canonical and pairwise non-parallel, sorted
    by (max absolute entry, entries)."""
    unit = IntMatrix.identity(r)
    cols = set(unit.columns()) | set(map(tuple, _grid_candidates(unit, delta)[0].tolist()))
    return sorted(cols, key=lambda c: (max(abs(v) for v in c), c))


_CLOCK_EVERY = 1024


class _Budget:
    """Node and time budget of one search.

    ``charge(k)`` counts the next k nodes at once. The node limit is exact: a
    block that crosses it stops at node ``node_limit + 1``. The clock is read
    only when a block crosses a multiple of ``_CLOCK_EVERY``; if the deadline
    has passed, the count stops at the first multiple crossed, so the time
    limit is noticed fewer than that many nodes late. Either way the node
    that stops the search is counted but not examined.
    """

    def __init__(self, node_limit: int, time_limit: float):
        self.node_limit = node_limit
        self.deadline = time.monotonic() + time_limit
        self.nodes = 0
        self.exceeded = False

    def charge(self, k: int) -> bool:
        """Count k more nodes; False once the budget is exceeded."""
        before, self.nodes = self.nodes, self.nodes + k
        multiple = (before // _CLOCK_EVERY + 1) * _CLOCK_EVERY
        if self.nodes >= multiple or self.nodes > self.node_limit:
            end = min(self.nodes, self.node_limit + 1)
            if multiple <= end and time.monotonic() > self.deadline:
                self.nodes, self.exceeded = multiple, True
            elif self.nodes > self.node_limit:
                self.nodes, self.exceeded = end, True
        return not self.exceeded

    def stop_reason(self) -> str:
        if not self.exceeded:
            return "exhausted"
        return "node-limit" if self.nodes > self.node_limit else "time-limit"


def _basis_coords(basis_cols) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj B, |det B|) for the nonsingular basis B with columns ``basis_cols``;
    a column c has basis coordinates y = adj(B) c, and c = B y / det B."""
    r = len(basis_cols)
    rows = [[c[p] for c in basis_cols] for p in range(r)]

    def cofactor(i: int, j: int) -> int:  # (-1)**(i+j) det of B without row j, column i
        minor = [row[:i] + row[i + 1:] for row in rows[:j] + rows[j + 1:]]
        return (-1) ** (i + j) * (_bareiss_det(minor) if r > 1 else 1)

    adj = tuple(tuple(cofactor(i, j) for j in range(r)) for i in range(r))
    return adj, abs(sum(rows[0][q] * adj[q][0] for q in range(r)))


def _coords(adj, col) -> tuple[int, ...]:
    return tuple(sum(a * v for a, v in zip(row, col)) for row in adj)


class _PairRows:
    """Lazy pairwise-compatibility bitsets over the candidates of one basis.

    ``rows[i]`` is a Python int whose bit j (j > i) is set iff the seed
    basis B plus candidates i and j is delta-modular: iff every 2 x 2 minor
    of their grid coordinates [y_i y_j] (rows of ``ys``) is within ``cap`` =
    delta * |det B|. A row is one int64 kernel pass over the pairs with every
    later candidate: |y| <= delta < 2**25 (the grid refusal keeps
    16 * (2 * delta + 1) within 2**30), so every minor is below 2**51.
    """

    def __init__(self, ys: np.ndarray, cap: int):
        self.ys = ys
        self.cap = cap
        self._rows: list[int | None] = [None] * len(ys)

    def __getitem__(self, i: int) -> int:
        row = self._rows[i]
        if row is None:
            later = self.ys[i + 1:]
            pairs = np.stack([np.broadcast_to(self.ys[i], later.shape), later], axis=1)
            ok = (abs(subset_minors(pairs)) <= self.cap).all(axis=1)
            bits = np.packbits(ok, bitorder="little").tobytes()
            row = self._rows[i] = int.from_bytes(bits, "little") << (i + 1)
        return row


def _branch_and_bound(seed_count, cands, rows, try_add, undo, budget):
    """Depth-first max subset with count bound; returns (best, selection).

    ``live`` is the AND of the compatibility rows of the chosen candidates.
    Only its set bits are offered to ``try_add``; the candidates between
    them, which ``try_add`` would reject, are still nodes and are charged to
    the budget in one block, up to the first index where the count bound
    fails.
    """
    best = seed_count
    best_sel: tuple[int, ...] = ()
    sel: list[int] = []
    n = len(cands)

    def rec(i: int, live: int) -> None:
        nonlocal best, best_sel
        while True:
            stop = n + seed_count + len(sel) - best  # the count bound fails from here
            low = live & -live
            j = low.bit_length() - 1 if live else n
            if j >= stop:
                if stop > i:
                    budget.charge(stop - i)
                return
            if not budget.charge(j + 1 - i):
                return
            live ^= low
            i = j + 1
            if try_add(cands[j]):
                sel.append(j)
                if seed_count + len(sel) > best:
                    best = seed_count + len(sel)
                    best_sel = tuple(sel)
                rec(i, live & rows[j])
                undo()
                sel.pop()
                if budget.exceeded:
                    return

    rec(0, (1 << n) - 1)
    return best, best_sel


class _GeneralChecker(IdentityAnchoredChecker):
    """Greedy's checker: the identity-anchored checker in the basis
    coordinates y = adj(B) c of the seed's pivot columns B, with the caps
    delta * |det B|**(k-1). Greedy offers each column once; nothing is cached."""

    def __init__(self, basis_cols, delta: int):
        self.adjugate, d = _basis_coords(basis_cols)
        super().__init__(len(basis_cols), delta, d)

    def try_add(self, col: tuple[int, ...]) -> bool:
        return super().try_add(_coords(self.adjugate, col))


def _search_stats(budget: _Budget, checkers: list[tuple[str, object]]) -> dict:
    """Nodes, pair-filter skips, per-checker work and the stop reason.

    Every node charged within the budget either was skipped by the pair
    filter or called ``try_add``; the one node whose charge exceeded the
    budget did neither. The greedy mode lists no checker and has no pair
    filter.
    """
    per_checker: dict[str, Counter] = {}
    for name, c in checkers:
        per_checker.setdefault(name, Counter()).update(c.stats())
    calls = sum(e["tryAdd"] for e in per_checker.values())
    skips = budget.nodes - calls - int(budget.exceeded) if checkers else 0
    return {"nodes": budget.nodes,
            "pairFilterSkips": skips,
            "checkers": {name: dict(e) for name, e in per_checker.items()},
            "stop": budget.stop_reason()}


def max_columns_search(config: SearchConfig) -> SearchCertificate:
    """Largest feasible column set of the configured mode, with certificate.

    ``optimal`` means that the search space was exhausted within the
    budget; the search never stops early on a count. The certificate's
    ``ceiling_used`` is delta**2 * C(r+1, 2), reported for reference only.
    At delta = 1 it is Heller's bound (Heller, "On linear systems with
    integral valued solutions", Pacific J. Math. 1957: a unimodular rank-r
    matrix has at most r**2 + r + 1 distinct columns, hence at most
    C(r+1, 2) pairwise non-parallel nonzero ones); no theorem making it an
    upper bound at delta >= 2 is relied on.
    """
    delta, r = config.delta, config.rank
    ceiling = delta * delta * comb(r + 1, 2)
    budget = _Budget(config.node_limit, config.time_limit_seconds)
    checkers: list[tuple[str, object]] = []

    if config.mode != "greedy-seeded":
        best = 0
        matrix = None
        for h in _seed_bases(delta, r, config.mode):
            cs, ys = _grid_candidates(h, delta)
            d = prod(h.entries[k][k] for k in range(r))
            checker = IdentityAnchoredChecker(r, delta, d)
            checkers.append(("identity-anchored" if d == 1 else "general", checker))
            h_best, sel = _branch_and_bound(
                r, list(map(tuple, ys.tolist())), _PairRows(ys, delta * d),
                checker.try_add, checker.pop, budget)
            h_matrix = IntMatrix.from_cols(h.columns() + cs[list(sel)].tolist())
            if h_best > best or (h_best == best and (
                    matrix is None or h_matrix.entries < matrix.entries)):
                best = h_best
                matrix = h_matrix
            if budget.exceeded:
                break
        optimal = not budget.exceeded
    else:  # greedy-seeded
        if config.seed_matrix is None:
            raise ValueError("greedy-seeded mode requires a seed matrix")
        seed = config.seed_matrix
        if seed.rows != r:
            raise ShapeError("the seed matrix must have rank rows")
        if not verify_is_feasible(seed, delta):
            raise ValueError("seed matrix is not feasible")
        cols = seed.columns()
        basis = _pivot_cols(seed)
        checker = _GeneralChecker([cols[k] for k in basis], delta)
        for k, c in enumerate(cols):
            if k not in basis and not checker.try_add(c):
                raise RuntimeError("the checker rejected a column of a feasible seed")
        # universe columns are canonical and pairwise non-parallel
        seen = {_canonical(c) for c in cols}
        for c in column_universe(delta, r):
            if not budget.charge(1):
                break
            if c in seen:
                continue
            if checker.try_add(c):
                cols.append(c)
        matrix = IntMatrix.from_cols(cols)
        best = len(cols)
        optimal = False

    cert = SearchCertificate(best, matrix, optimal, budget.nodes, ceiling,
                             _search_stats(budget, checkers))
    if not verify_is_feasible(cert.best_matrix, delta):
        raise RuntimeError("search produced an infeasible certificate")
    if cert.best_count != cert.best_matrix.cols:
        raise RuntimeError("certificate bookkeeping is inconsistent")
    return cert


def verify_is_feasible(m: IntMatrix, delta: int) -> bool:
    """Full-rank, delta-modular, pairwise non-parallel; search-independent."""
    if rank(m) != m.rows:
        return False
    if parallel_violations(m):
        return False
    ok, _ = is_delta_modular(m, delta)
    return ok
