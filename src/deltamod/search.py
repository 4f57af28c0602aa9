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
and only strict improvements replace the incumbent. So over one basis
the search reports the least maximum selection in the lexicographic
order of its sorted candidate indices. Across the hnf bases it reports,
among the bases' reported matrices of the largest count, the least by
row-major entries. Greedy makes one pass and reports what it took.

Nodes. A node is one candidate examined. A frame of the depth-first
search examines its candidates in index order up to the first index where
the count bound fails, and charges them to the node budget in blocks: each
run up to the next candidate it may take (a set bit of the AND below,
short of the colouring cut), then its last block. A block stops on the
same node as charging one by one. Each examined node not offered to
``try_add`` is counted where it is charged, as one of four skips: a
conflict skip if it ends a block but a learned conflict set already rules
it out (Learned conflicts below), a colour skip if it could still be taken
in the last block (the colouring bound below cut it), else an orbit skip
at the top level and a pair-filter skip below it. The node that exceeds
the budget is counted, not examined, and none of these, so the skips,
the ``try_add`` calls and that node add up to the node count. Greedy's
nodes are the universe columns that its seed does not hold, each offered
to ``try_add``; the seed's own columns are loaded uncounted.

Pair filter. For a seed basis H, bit j of candidate i's compatibility row
is set iff H plus candidates i and j is delta-modular. The minors that use
both candidates are, by the argument above, the 2 x 2 minors of their
grid coordinates [y_i y_j] divided by d, so one row is a single int64
vectorised product over the later candidates against the cap delta * d.
The depth-first search carries the AND of the rows of the chosen
candidates and skips a candidate whose bit is clear without asking the
exact checker: a superset of an infeasible set is infeasible, so that call
could only have said no. Rows are built when the colouring bound below
first needs them. The search steps from one set bit of the AND to the
next; the candidates between are still nodes, pair-filter skips (Nodes
above). So every search visits the same nodes in the same order, with the
same count, limits and certificate, as without the filter.

Orbit minima. Over the unit basis (identity-anchored mode, and
hnf-exhaustive's first basis), the first chosen candidate ranges only over
orbit minima under signed row permutations: candidate i is kept iff it is
the first candidate, in search order, with its sorted vector of absolute
values. A signed row permutation g is a unimodular row map, so it keeps a
column set feasible and pairwise non-parallel; it maps the unit columns to
unit columns up to sign, and a grid candidate to one up to sign (entries,
primitivity and non-unit-ness are kept). So it maps each feasible set
I + S over the grid to a feasible set I + g(S) of the same size, g(S)
canonicalised. The group acts transitively on the canonical primitive
vectors that share one multiset of absolute values (permute the entries
into place, then fix the signs), so those vectors form one orbit, and the
kept candidate is its least member; no group is enumerated. The reported
matrix cannot change. The search reports the least maximum selection S in
the lexicographic order of its sorted indices. If S started at a
candidate i that is not an orbit minimum, some g would map i to the
minimum m < i of its orbit, and g(S), as large and feasible and holding m,
would sort before S. So S starts at an orbit minimum, and the subtrees of
the orbit minima, each still walking every later candidate, contain it.
Each other top-level candidate is still a node, an orbit skip (Nodes
above); on a budget that never leaves the first top-level subtree,
nothing changes, since the first candidate is always an orbit minimum
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998, for
the general method).

Colouring bound. Each frame of the depth-first search greedily colours
its candidates, from the last index down: a candidate joins the first
class with no member it is compatible with, or opens a new class. Its row
holds only later candidates, and every member of a class is later, so the
members of a class are pairwise incompatible, and a feasible selection,
pairwise compatible, takes at most one of each. A frame's candidates are
the AND it entered with; at the top level they are every candidate, since
a child of an orbit minimum walks its whole row. With room = best - (seed
count + chosen), a candidate j is cut, with its subtree, when the frame's
candidates from j on fill at most ``room`` classes: no selection through
j can then be larger than ``best``. A candidate's class depends only on
the candidates above it, so the colouring is stable under extension: a
frame colours lazily, stops once the classes outnumber ``room``, resumes
when ``best``, and with it ``room``, rises, and never colours below the
candidate it has reached. The n - j candidates from j on fill at most
n - j classes, so the cut never lies past the count bound's (Ostergard,
"A fast algorithm for the maximum clique problem", Discrete Appl. Math.
2002; Tomita and Seki, DMTCS 2003).

The reported matrix cannot change. A candidate is cut only when its
subtree holds no selection larger than ``best``, and only a strictly
larger selection replaces the incumbent. So ``best`` and the incumbent
change at the same selections, in the same order, as without the cut,
and the first maximum in search order is reported either way; a search
that exhausts its space without the cut exhausts it with the cut. The
cut candidates are still nodes, colour skips (Nodes above); only their
subtrees are no longer visited.

Learned conflicts. When ``try_add`` rejects candidate j, the checker's
``conflict`` names the chosen candidates among the columns of the minor
that went over its cap. They form a conflict set w of j, kept for the rest
of that basis's search. Infeasibility is closed under supersets: the basis,
w and j already hold a minor over its cap, so for every selection S that
contains w, the basis with S and j is infeasible, and ``try_add(j)`` would
return False. So a candidate with a learned set inside the selection is a
conflict skip (Nodes above) and is not offered. Every frame accepts the
same candidates as before: the branches, the nodes and their blocks,
``best``, the incumbent and the certificate do not change. Only the
``try_add`` calls, fewer by the conflict skips, and the checker's
held-minor work move. The sets never enter the AND, the colouring or the
count bound (nogood learning: Dechter, "Enhancement schemes for constraint
processing", Artificial Intelligence 1990; Prosser, "Hybrid algorithms for
the constraint satisfaction problem", Computational Intelligence 1993).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import comb, gcd, prod
from typing import Iterator

import numpy as np

from ._batch import MAX_SCAN_BYTES, array_bytes
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
        if self.mode != "greedy-seeded":
            if self.seed_matrix is not None:
                raise ValueError(f"a seed matrix is used only by greedy-seeded mode, "
                                 f"not {self.mode}")
        elif self.seed_matrix is None:
            raise ValueError("greedy-seeded mode requires a seed matrix")
        elif self.seed_matrix.rows != self.rank:
            raise ShapeError("the seed matrix must have rank rows")


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


def _bitset(ok: np.ndarray) -> int:
    """The Python int whose bit i is set iff ``ok[i]``."""
    return int.from_bytes(np.packbits(ok, bitorder="little").tobytes(), "little")


def _orbit_minima(ys: np.ndarray) -> np.ndarray:
    """Which unit-basis candidates are orbit minima under signed row
    permutations: the first candidate of each sorted vector of absolute
    values (module docstring)."""
    _, first = np.unique(np.sort(np.abs(ys), axis=1), axis=0, return_index=True)
    keep = np.zeros(len(ys), dtype=bool)
    keep[first] = True
    return keep


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
    need = array_bytes(2 * (2 * delta + 1) ** r * r, np.int64)
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


class _Budget:
    """Node and time budget of one search.

    ``charge(k)`` counts the next k nodes at once and reads the clock. The
    node limit is exact: a block that crosses it stops at node
    ``node_limit + 1``. Otherwise a block charged after the deadline counts
    in full and stops the search. Either way the node that stops the search
    is counted but not examined.
    """

    def __init__(self, node_limit: int, time_limit: float):
        self.node_limit = node_limit
        self.deadline = time.monotonic() + time_limit
        self.nodes = 0
        self.exceeded = False

    def charge(self, k: int) -> bool:
        """Count k more nodes; False once the budget is exceeded."""
        self.nodes += k
        if self.nodes > self.node_limit:
            self.nodes, self.exceeded = self.node_limit + 1, True
        elif time.monotonic() > self.deadline:
            self.exceeded = True
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


# ``_PairRows`` builds a block of rows at a time, at most this many minors
# on one row pair at once
_PAIR_BLOCK_ENTRIES = 1 << 13


class _PairRows:
    """Lazy pairwise-compatibility bitsets over the candidates of one basis.

    ``rows[i]`` is a Python int whose bit j (j > i) is set iff the seed
    basis B plus candidates i and j is delta-modular: iff every 2 x 2 minor
    of their grid coordinates [y_i y_j] (rows of ``ys``) is within ``cap`` =
    delta * |det B|. Rows are built for the candidates the colouring bound
    colours, which are most of them, so a missing row is built with the
    other rows of its block: each row pair a < b is one int64 product of
    the block's candidates with every later one, at most
    ``_PAIR_BLOCK_ENTRIES`` minors, never one n x n x C(r, 2) array. In
    int64: |y| <= delta < 2**25 (the grid refusal keeps 16 * (2 * delta + 1)
    within 2**30), so every minor is below 2**51.
    """

    def __init__(self, ys: np.ndarray, cap: int):
        self.ys = ys
        self.cap = cap
        self.pairs = list(zip(*np.triu_indices(ys.shape[1], 1)))
        self.block = max(1, _PAIR_BLOCK_ENTRIES // max(1, len(ys)))
        self._rows: list[int | None] = [None] * len(ys)

    def __getitem__(self, i: int) -> int:
        row = self._rows[i]
        if row is None:
            self._build(i - i % self.block)
            row = self._rows[i]
        return row

    def _build(self, lo: int) -> None:
        """Rows lo to lo + block - 1; row i keeps the later candidates j > i."""
        y = self.ys[lo:lo + self.block, None]
        later = self.ys[None, lo + 1:]
        ok = np.ones((len(y), later.shape[1]), dtype=bool)
        for a, b in self.pairs:
            ok &= abs(y[..., a] * later[..., b] - y[..., b] * later[..., a]) <= self.cap
        for k in range(len(y)):
            # column t of ``ok`` is candidate lo + 1 + t; keep t >= k
            self._rows[lo + k] = _bitset(ok[k, k:]) << (lo + k + 1)


def _colour_cut(rows, todo: int, classes: list[int], room: int, floor: int) -> tuple[int, int]:
    """Colour more candidates for the colouring bound; returns (cut, todo).

    Takes the candidates of ``todo`` at or above ``floor`` from the last
    index down. Each joins the first of ``classes`` with no member that its
    row marks compatible, or opens a new class; it stops once the classes
    outnumber ``room``. A row holds only later candidates, all coloured
    before it, so the members of a class are pairwise incompatible.
    Returns ``todo`` less the coloured candidates, and ``cut``: one past
    the candidate that opened class ``room`` + 1, or ``floor`` if none did.
    The coloured candidates at or above ``cut`` lie in at most ``room``
    classes, so a selection among them has at most ``room`` members.
    """
    while todo >> floor:
        v = todo.bit_length() - 1
        bit = 1 << v
        todo ^= bit
        row = rows[v]
        for k, cls in enumerate(classes):
            if not row & cls:
                classes[k] = cls | bit
                break
        else:
            classes.append(bit)
            if len(classes) > room:
                return v + 1, todo
    return floor, todo


def _known_conflict(learned: list[int], chosen: int) -> bool:
    """Whether one of the conflict sets ``learned`` lies within ``chosen``."""
    for w in learned:
        if w & chosen == w:
            return True
    return False


def _branch_and_bound(seed_count, cands, rows, checker, budget, first, skips):
    """Depth-first max subset with the colouring bound; returns (best,
    selection) and adds its skips to ``skips``, [pair-filter, orbit,
    colour, conflict].

    ``live`` is the AND of the compatibility rows of the chosen candidates,
    and ``first`` at the top level, the candidates a selection may start
    from. Each frame colours its candidates lazily with ``_colour_cut``:
    ``live`` as it entered, or at the top level every candidate, since a
    child walks all of rows[j]. A set bit of ``live`` is offered to
    ``checker.try_add`` unless it is at or past the cut, or one of its
    learned conflict sets lies within ``chosen``, the chosen candidates
    (module docstring, Learned conflicts). Every candidate examined is a
    node, charged by ``charge`` (module docstring, Nodes).
    """
    best = seed_count
    best_sel: tuple[int, ...] = ()
    sel: list[int] = []
    n = len(cands)
    # the conflict sets of each candidate, as bitmasks over candidates
    learned: list[list[int]] = [[] for _ in range(n)]

    def charge(i: int, end: int, cut: int | None = None) -> bool:
        """Charge nodes i to end - 1 and count the skips among them.

        Without ``cut``, node end - 1 is taken up next: offered to
        ``try_add``, or a conflict skip. With it, this is the frame's last
        block, and its live candidates ``cut`` were cut by the colouring
        bound. The node that exceeds the budget is no skip.
        """
        before = budget.nodes
        ok = budget.charge(end - i)
        seen = budget.nodes - before - (cut is None or not ok)
        if cut is not None:
            colour = (cut & ((1 << (i + seen)) - 1)).bit_count()
            skips[2] += colour
            seen -= colour
        skips[0 if sel else 1] += seen
        return ok

    def rec(i: int, live: int, todo: int, chosen: int) -> None:
        nonlocal best, best_sel
        classes: list[int] = []
        while True:
            room = best - seed_count - len(sel)
            if len(classes) <= room:  # on entry, and after best rose
                cut, todo = _colour_cut(rows, todo, classes, room, i)
            stop = n - room  # the count bound fails from here
            low = live & -live
            j = low.bit_length() - 1 if live else n
            if j >= cut or j >= stop:
                if stop > i:
                    charge(i, stop, live)
                return
            if not charge(i, j + 1):
                return
            live ^= low
            i = j + 1
            if learned[j] and _known_conflict(learned[j], chosen):
                skips[3] += 1
            elif checker.try_add(cands[j]):
                sel.append(j)
                if seed_count + len(sel) > best:
                    best = seed_count + len(sel)
                    best_sel = tuple(sel)
                # ``first`` limits only the top level: a child walks all of rows[j]
                child = live & rows[j] if len(sel) > 1 else rows[j]
                rec(i, child, child, chosen | low)
                checker.pop()
                sel.pop()
                if budget.exceeded:
                    return
            else:
                # bit k of ``conflict`` is the trail's k-th column, sel[k]
                c = checker.conflict
                learned[j].append(sum(1 << s for k, s in enumerate(sel) if c >> k & 1))

    rec(0, first, (1 << n) - 1, 0)
    return best, best_sel


class _GeneralChecker(IdentityAnchoredChecker):
    """Greedy's checker: the identity-anchored checker, with its held minor
    tables, in the basis coordinates y = adj(B) c of the seed's pivot
    columns B, with the caps delta * d**(k-1), d = |det B|."""

    def __init__(self, basis_cols, delta: int):
        self.adjugate, self.d = _basis_coords(basis_cols)
        super().__init__(len(basis_cols), delta, self.d)

    def try_add(self, col: tuple[int, ...]) -> bool:
        return super().try_add(_coords(self.adjugate, col))


def _search_stats(budget: _Budget, checkers: list[tuple[str, object]],
                  skips: list[int]) -> dict:
    """Nodes, the pair-filter, orbit, colour and conflict skips as counted
    where they were charged (module docstring, Nodes), per-checker work and
    the stop reason. The greedy mode skips nothing."""
    per_checker: dict[str, Counter] = {}
    for name, c in checkers:
        per_checker.setdefault(name, Counter()).update(c.stats())
    pair_filter, orbit, colour, conflict = skips
    return {"nodes": budget.nodes,
            "pairFilterSkips": pair_filter,
            "orbitSkips": orbit,
            "colourSkips": colour,
            "conflictSkips": conflict,
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
    skips = [0, 0, 0, 0]  # pair-filter, orbit, colour and conflict skips

    if config.mode != "greedy-seeded":
        best = 0
        matrix = None
        for h in _seed_bases(delta, r, config.mode):
            cs, ys = _grid_candidates(h, delta)
            d = prod(h.entries[k][k] for k in range(r))
            checker = IdentityAnchoredChecker(r, delta, d)
            checkers.append(("identity-anchored" if d == 1 else "general", checker))
            # d = 1 only for the unit basis, whose grid signed row permutations keep
            first = _bitset(_orbit_minima(ys)) if d == 1 else (1 << len(ys)) - 1
            h_best, sel = _branch_and_bound(
                r, list(map(tuple, ys.tolist())), _PairRows(ys, delta * d),
                checker, budget, first, skips)
            h_matrix = IntMatrix.from_cols(h.columns() + cs[list(sel)].tolist())
            if h_best > best or (h_best == best and (
                    matrix is None or h_matrix.entries < matrix.entries)):
                best = h_best
                matrix = h_matrix
            if budget.exceeded:
                break
        optimal = not budget.exceeded
    else:  # greedy-seeded
        seed = config.seed_matrix
        if not verify_is_feasible(seed, delta):
            raise ValueError("seed matrix is not feasible")
        cols = seed.columns()
        basis = _pivot_cols(seed)
        checker = _GeneralChecker([cols[k] for k in basis], delta)
        checkers.append(("identity-anchored" if checker.d == 1 else "general", checker))
        for k, c in enumerate(cols):
            if k not in basis and not checker.try_add(c):
                raise RuntimeError("the checker rejected a column of a feasible seed")
        checker.calls = checker.accepted = 0  # the seed's columns are no nodes
        # universe columns are canonical and pairwise non-parallel
        seen = {_canonical(c) for c in cols}
        for c in column_universe(delta, r):
            if c in seen:
                continue
            if not budget.charge(1):
                break
            if checker.try_add(c):
                cols.append(c)
        matrix = IntMatrix.from_cols(cols)
        best = len(cols)
        optimal = False

    cert = SearchCertificate(best, matrix, optimal, budget.nodes, ceiling,
                             _search_stats(budget, checkers, skips))
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
