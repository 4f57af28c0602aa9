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

* greedy-seeded: one greedy pass extending a provided feasible matrix;
  reported as a lower bound only.

Search is sequential and deterministic: candidates are ordered by
(max absolute entry, entries), depth-first inclusion is tried in order,
and only strict improvements replace the incumbent, so the reported
matrix is the lexicographically least among maximum solutions.

Pair filter. For a seed basis H, bit j of candidate i's compatibility row
is set iff H plus candidates i and j is delta-modular. Every rank-sized
minor of [H | a | b] that uses both candidates is det[H_S a b] for an
(r-2)-subset S of the basis columns, a fixed antisymmetric bilinear form
in (a, b), so one row is a single exact vectorised product over the later
candidates (for H = I these are the 2x2 minors of [a b]). The depth-first
search carries the AND of the rows of the chosen candidates and skips a
candidate whose bit is clear without asking the exact checker: a superset
of an infeasible set is infeasible, so that call could only have said no.
Rows are built the first time their candidate is accepted. A node is still
one candidate examined: the node budget is charged before the filter, and
the count bound is unchanged, so every search visits the same nodes in the
same order, with the same count and certificate, as without the filter.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, gcd

import numpy as np

from ._batch import fits_int64
from .exact import _bareiss_det, _canonical, is_parallel, rank
from .intmatrix import IntMatrix
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
        if self.node_limit < 1 or self.time_limit_seconds <= 0:
            raise ValueError("limits must be positive")


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


def _sorted_universe(cols: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return sorted(cols, key=lambda c: (max(abs(v) for v in c), c))


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
            h = [[0] * r for _ in range(r)]
            for k in range(r):
                h[k][k] = diag[k]
            for (i, j), v in zip(above, combo):
                h[i][j] = v
            ok = True
            for j in range(r):
                g = 0
                for i in range(j + 1):
                    g = gcd(g, h[i][j])
                if g != 1:
                    ok = False
                    break
            if ok:
                bases.append(IntMatrix.from_rows(h))
    return bases


def _grid_candidates(h: IntMatrix, delta: int) -> list[tuple[int, ...]]:
    r = h.rows
    d = 1
    for k in range(r):
        d *= h.entries[k][k]
    cols = set()
    for y in product(range(-delta, delta + 1), repeat=r):
        if not any(y):
            continue
        v = [sum(h.entries[i][j] * y[j] for j in range(r)) for i in range(r)]
        if any(x % d for x in v):
            continue
        cols.add(_canonical(tuple(x // d for x in v)))
    seed_cols = h.columns()
    return _sorted_universe({c for c in cols
                             if not any(is_parallel(c, s) for s in seed_cols)})


def _seed_bases(delta: int, r: int, mode: str) -> list[IntMatrix]:
    """Every Hermite basis for hnf-exhaustive, the unit basis otherwise."""
    return hermite_bases(delta, r) if mode == "hnf-exhaustive" else [IntMatrix.identity(r)]


def column_universe(delta: int, r: int, mode: str) -> list[tuple[int, ...]]:
    """Primitive, sign-canonical, pairwise non-parallel candidate columns."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    cols: set[tuple[int, ...]] = set()
    for h in _seed_bases(delta, r, mode):
        cols.update(_canonical(c) for c in h.columns())
        cols.update(_grid_candidates(h, delta))
    return _sorted_universe(cols)


_CLOCK_EVERY = 1024


class _Budget:
    def __init__(self, node_limit: int, time_limit: float):
        self.node_limit = node_limit
        self.deadline = time.monotonic() + time_limit
        self.nodes = 0
        self.exceeded = False

    def tick(self) -> bool:
        """Count one node. The node limit is exact; the clock is read only
        every ``_CLOCK_EVERY`` nodes, so the time limit is noticed fewer than
        that many nodes late."""
        self.nodes += 1
        if self.nodes > self.node_limit or (
                not self.nodes % _CLOCK_EVERY and time.monotonic() > self.deadline):
            self.exceeded = True
        return not self.exceeded

    def stop_reason(self) -> str:
        if not self.exceeded:
            return "exhausted"
        return "node-limit" if self.nodes > self.node_limit else "time-limit"


class _PairRows:
    """Lazy pairwise-compatibility bitsets over the candidates of one basis.

    ``rows[i]`` is a Python int whose bit j (j > i) is set iff the seed
    basis plus candidates i and j is delta-modular. A minor of [H | a | b]
    that uses both candidates is a^T M_S b with M_S[p][q] = det[H_S e_p e_q]
    for an (r-2)-subset S of the basis columns; the forms are built once
    and a row is one product of them with every later candidate.
    """

    def __init__(self, seed_cols, cands, delta: int):
        r = len(seed_cols)
        units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
        forms = []
        for s in combinations(seed_cols, r - 2) if r > 1 else ():
            form = [[0] * r for _ in range(r)]
            for p, q in combinations(range(r), 2):
                cols = list(s) + [units[p], units[q]]
                v = _bareiss_det([[c[i] for c in cols] for i in range(r)])
                form[p][q], form[q][p] = v, -v
            forms.append(form)
        # a^T M_S b is a Laplace expansion of an r x r determinant over basis
        # and candidate entries; every partial sum of it stays within
        # r! * bound**r, the growth that fits_int64 guards.
        entry_bound = max((abs(v) for c in list(seed_cols) + list(cands) for v in c),
                          default=1)
        dtype = np.int64 if fits_int64(r, entry_bound) else object
        self.forms = np.array(forms, dtype=dtype).reshape(len(forms), r, r)
        self.cands = np.array(cands, dtype=dtype).reshape(len(cands), r)
        self.delta = delta
        self._rows: list[int | None] = [None] * len(cands)

    def __getitem__(self, i: int) -> int:
        row = self._rows[i]
        if row is None:
            later = self.cands[i + 1:]
            # dets[j, s] = a_i^T M_s b_j for every later candidate b_j
            dets = later @ (self.cands[i] @ self.forms).T
            ok = (abs(dets) <= self.delta).all(axis=1)
            bits = np.packbits(ok, bitorder="little").tobytes()
            row = self._rows[i] = int.from_bytes(bits, "little") << (i + 1)
        return row


def _branch_and_bound(seed_count, cands, rows, try_add, undo, budget):
    """Depth-first max subset with count bound; returns (best, selection).

    ``live`` is the AND of the compatibility rows of the chosen candidates;
    a candidate outside it still costs a node but skips ``try_add``, which
    would reject it.
    """
    best = seed_count
    best_sel: tuple[int, ...] = ()
    sel: list[int] = []
    n = len(cands)

    def rec(start: int, live: int) -> None:
        nonlocal best, best_sel
        for i in range(start, n):
            if budget.exceeded:
                return
            if seed_count + len(sel) + (n - i) <= best:
                return
            if not budget.tick():
                return
            if not live >> i & 1:
                continue
            if try_add(cands[i]):
                sel.append(i)
                if seed_count + len(sel) > best:
                    best = seed_count + len(sel)
                    best_sel = tuple(sel)
                rec(i + 1, live & rows[i])
                undo()
                sel.pop()

    rec(0, (1 << n) - 1)
    return best, best_sel


class _GeneralChecker:
    """Incremental feasibility for matrices without an identity anchor.

    Adding a column only creates rank-sized minors that involve it, so each
    step checks the new column against all (r-1)-subsets of current ones.
    """

    def __init__(self, seed_cols: list[tuple[int, ...]], delta: int, r: int):
        self.cols = list(seed_cols)
        self.delta = delta
        self.r = r
        self.calls = self.accepted = 0

    def try_add(self, col: tuple[int, ...]) -> bool:
        self.calls += 1
        r = self.r
        for rest in combinations(range(len(self.cols)), r - 1):
            chosen = [self.cols[k] for k in rest] + [list(col)]
            d = _bareiss_det([[chosen[c][i] for c in range(r)] for i in range(r)])
            if abs(d) > self.delta:
                return False
        self.cols.append(col)
        self.accepted += 1
        return True

    def pop(self) -> None:
        self.cols.pop()

    def stats(self) -> dict[str, int]:
        return {"tryAdd": self.calls, "accepted": self.accepted}


def _search_stats(budget: _Budget, checkers: list[tuple[str, object]]) -> dict:
    """Nodes, pair-filter skips, per-checker work and the stop reason.

    Every node that passed its budget tick either was skipped by the pair
    filter or called ``try_add``; the one node whose tick exceeded the
    budget did neither. The greedy mode has no checker and no pair filter.
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


def _certificate_matrix(seed_cols, cands, sel) -> IntMatrix:
    return IntMatrix.from_cols(list(seed_cols) + [list(cands[i]) for i in sel])


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
            seed_cols = h.columns()
            cands = _grid_candidates(h, delta)
            checker: object
            if h == IntMatrix.identity(r):
                name, checker = "identity-anchored", IdentityAnchoredChecker(r, delta)
            else:
                name, checker = "general", _GeneralChecker(seed_cols, delta, r)
            checkers.append((name, checker))
            h_best, sel = _branch_and_bound(
                r, cands, _PairRows(seed_cols, cands, delta),
                checker.try_add, checker.pop, budget)
            h_matrix = _certificate_matrix(seed_cols, cands, sel)
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
        if not verify_is_feasible(seed, delta):
            raise ValueError("seed matrix is not feasible")
        seed_cols = list(seed.columns())
        cols = list(seed_cols)
        for c in column_universe(delta, r, config.mode):
            if not budget.tick():
                break
            if any(is_parallel(c, s) for s in cols):
                continue
            trial = IntMatrix.from_cols(cols + [list(c)])
            ok, _ = is_delta_modular(trial, delta)
            if ok:
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
