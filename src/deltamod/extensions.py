"""Extensions of a clique by one, two, or three columns.

The clique on n vertices is represented by the matrix whose columns are all
pairwise differences e_i - e_j; its rows sum to zero, and any extension
column is normalized to sum to zero as well. For a single zero-sum column
the maximum full-rank subdeterminant of the extended matrix equals
max(1, G) where G is the maximum subset sum of the column, which for a
zero-sum vector is the sum of its positive entries. That closed form makes
admissible single columns finitely enumerable for each bound.

Pairs and triples of extension columns are pinned down by giving each
column a dedicated row carrying the entry 1 (the remaining rows form the
shared support). One form serves any number k of such columns:
``embed_anchored`` builds the clique plus the k columns with their unit
rows, and ``canonical_rows`` keys them up to row and column permutation.
Pairs are enumerated against the exact modularity check at minimal
embedding rank; triples are refuted by exhibiting a square subdeterminant
that exceeds the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

from .exact import det
from .families import _difference_columns, _partitions_desc
from .intmatrix import IntMatrix, ShapeError, SubmatrixWitness
from .modularity import is_delta_modular


def clique_matrix(n: int) -> IntMatrix:
    """All difference columns e_i - e_j for 1 <= i < j <= n, lexicographic."""
    if n < 2:
        raise ValueError("clique needs at least 2 rows")
    return IntMatrix.from_cols(_difference_columns(n))


def max_subset_sum(a: Sequence[int]) -> int:
    """Maximum subset sum of a nonzero zero-sum integer vector.

    Equals the sum of the positive entries: adding a non-positive entry
    never helps, and the empty set gives 0 < sum of positives.
    """
    if sum(a) != 0:
        raise ValueError("vector must sum to zero")
    if not any(a):
        raise ValueError("vector must be nonzero")
    return sum(v for v in a if v > 0)


def clique_extension_max_subdet(a: Sequence[int], r: int) -> int:
    """Max |full-rank subdet| of the clique on r+1 vertices plus column a."""
    if len(a) != r + 1:
        raise ShapeError(f"column of length {len(a)} does not fit rank {r}")
    return max(1, max_subset_sum(a))


def embed_single(a: Sequence[int]) -> IntMatrix:
    return clique_matrix(len(a)).hstack(IntMatrix.from_cols([list(a)]))


# -- canonical forms ---------------------------------------------------------


@dataclass(frozen=True)
class CanonicalColumn:
    """A zero-sum column up to row permutation and global sign.

    ``reduced`` keeps the nonzero entries sorted non-increasingly; the
    representative is the lexicographically greater of the sorted vector
    and its sorted negation. ``sign_flag`` records whether negation was
    applied to reach it.
    """

    reduced: tuple[int, ...]
    sign_flag: bool = False

    @property
    def support_size(self) -> int:
        return len(self.reduced)

    def vector(self) -> tuple[int, ...]:
        return self.reduced


def canonical_column(a: Sequence[int]) -> CanonicalColumn:
    nz = [v for v in a if v]
    if not nz:
        raise ValueError("zero column has no canonical form")
    fwd = tuple(sorted(nz, reverse=True))
    rev = tuple(sorted((-v for v in nz), reverse=True))
    if fwd >= rev:
        return CanonicalColumn(fwd, False)
    return CanonicalColumn(rev, True)


def enumerate_single_extensions(delta: int) -> list[CanonicalColumn]:
    """All admissible single extension columns, canonical and deduplicated.

    A zero-sum column keeps the extended clique delta-modular iff its
    positive entries sum to at most delta; columns parallel to a difference
    column are excluded. Output is sorted by (support size, entries).
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    seen: set[tuple[int, ...]] = set()
    out: list[CanonicalColumn] = []
    for p in range(1, delta + 1):
        for pos in _partitions_desc(p, p):
            for neg in _partitions_desc(p, p):
                if len(pos) == 1 and len(neg) == 1:
                    continue  # (p, -p) is parallel to a difference column
                col = list(pos) + [-v for v in neg]
                canon = canonical_column(col)
                if canon.reduced not in seen:
                    seen.add(canon.reduced)
                    out.append(CanonicalColumn(canon.reduced))
    out.sort(key=lambda c: (c.support_size, c.reduced))
    return out


# -- pairs -------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalPair:
    """Two extension columns over their union support, canonical under row
    permutation and column swap; each column implicitly carries a 1 in its
    own dedicated row below the listed block."""

    rows: tuple[tuple[int, int], ...]

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(r[k] for r in self.rows)

    @property
    def support_rows(self) -> int:
        return len(self.rows)


def canonical_rows(*cols: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of k extension columns under row and column permutation.

    The rows of the columns side by side, zero rows dropped and the rest
    sorted; the least such tuple over every order of the columns.
    """
    return min(tuple(sorted(r for r in zip(*order) if any(r)))
               for order in permutations(cols))


def embed_anchored(*cols: Sequence[int]) -> IntMatrix:
    """Clique plus the k columns, each with its own unit row appended.

    The columns share their first t rows; the clique spans all t + k rows.
    """
    t, k = len(cols[0]), len(cols)
    if any(len(c) != t for c in cols):
        raise ShapeError("extension columns must share a support length")
    anchored = [list(c) + [int(i == j) for j in range(k)] for i, c in enumerate(cols)]
    return clique_matrix(t + k).hstack(IntMatrix.from_cols(anchored))


def _anchored_shapes(delta: int) -> list[tuple[int, ...]]:
    """Nonzero parts of an extension column after removing its unit entry.

    Signs are pinned by the dedicated +1 row, so both sign choices of each
    admissible single column that expose a +1 contribute a shape.
    """
    shapes: set[tuple[int, ...]] = set()
    for canon in enumerate_single_extensions(delta):
        for vec in (canon.reduced, tuple(-v for v in canon.reduced)):
            if 1 in vec:
                rest = list(vec)
                rest.remove(1)
                shapes.add(tuple(sorted(rest, reverse=True)))
    return sorted(shapes, key=lambda s: (len(s), s))


def _distinct_perms(values: Sequence[int]) -> list[tuple[int, ...]]:
    return sorted(set(permutations(values)))


def _private_splits(shape: tuple[int, ...]):
    """(private, body): the shape whole with no private row, then, if it
    has a -1, the shape less one -1, which moves to the column's private row."""
    yield 0, list(shape)
    if -1 in shape:
        body = list(shape)
        body.remove(-1)
        yield 1, body


def _pair_candidates(delta: int):
    shapes = _anchored_shapes(delta)
    seen: set[tuple[tuple[int, int], ...]] = set()
    for sa in shapes:
        for sb in shapes:
            for da, ra in _private_splits(sa):
                for db, rb in _private_splits(sb):
                    if len(ra) != len(rb) or not ra:
                        continue
                    for pa in _distinct_perms(ra):
                        for pb in _distinct_perms(rb):
                            a = pa + (-1,) * da + (0,) * db
                            b = pb + (0,) * da + (-1,) * db
                            if a == b:
                                continue
                            key = canonical_rows(a, b)
                            if key not in seen:
                                seen.add(key)
                                yield key


def _pair_is_admissible(rows: tuple[tuple[int, int], ...], delta: int) -> bool:
    # never parallel: each column has a 1 in its own unit row, the other a 0
    ok, _ = is_delta_modular(embed_anchored(*zip(*rows)), delta)
    return ok


def enumerate_pair_extensions(delta: int = 3) -> list[CanonicalPair]:
    """All admissible pairs of extension columns with dedicated unit rows.

    Each candidate pair is verified exactly at its minimal embedding rank;
    support-local admissibility transfers to every larger rank because the
    added columns are unit or difference columns. Candidate generation
    prunes by the support-overlap conditions (at most one private row per
    column, carrying -1), which are valid consequences of 3-modularity;
    bounds below 3 inherit them, so values other than 3 are best-effort
    experimental output and exact only for delta <= 3.
    """
    out = [CanonicalPair(rows) for rows in _pair_candidates(delta)
           if _pair_is_admissible(rows, delta)]
    out.sort(key=lambda p: (p.support_rows, p.rows))
    return out


# -- triples -----------------------------------------------------------------


@dataclass(frozen=True)
class TripleRefutation:
    columns: tuple[tuple[int, int, int], ...]  # union-support rows of (a, b, c)
    matrix: IntMatrix                          # minimal embedding
    witness: SubmatrixWitness | None           # |det| > delta, None if none found


def _triple_candidates(delta: int):
    pairs = enumerate_pair_extensions(delta)
    pair_keys = {p.rows for p in pairs}
    shapes = _anchored_shapes(delta)
    seen: set = set()
    for pair in pairs:
        t = pair.support_rows
        a = pair.column(0)
        b = pair.column(1)
        for sc in shapes:
            for dc, body in _private_splits(sc):
                if len(body) > t:
                    continue
                width = t + dc
                for support in combinations(range(t), len(body)):
                    for vals in _distinct_perms(body):
                        c = [0] * width
                        for pos, v in zip(support, vals):
                            c[pos] = v
                        if dc:
                            c[t] = -1
                        ae = tuple(a) + (0,) * dc
                        be = tuple(b) + (0,) * dc
                        ce = tuple(c)
                        if ce == ae or ce == be:
                            continue
                        if canonical_rows(ae, ce) not in pair_keys:
                            continue
                        if canonical_rows(be, ce) not in pair_keys:
                            continue
                        key = canonical_rows(ae, be, ce)
                        if key not in seen:
                            seen.add(key)
                            yield key


def refute_triple_extensions(delta: int = 3) -> list[TripleRefutation]:
    """Witness a bound violation for every candidate triple of extensions.

    Candidates are triples of distinct columns, pairwise admissible per
    ``enumerate_pair_extensions``, embedded with three dedicated unit rows
    at minimal rank. A refutation carries a square subdeterminant witness
    with |det| > delta; ``witness`` is None only if a candidate is in fact
    delta-modular, which the acceptance suite asserts never happens.
    """
    out = []
    for rows in sorted(_triple_candidates(delta)):
        m = embed_anchored(*zip(*rows))
        ok, wit = is_delta_modular(m, delta)
        out.append(TripleRefutation(rows, m, None if ok else wit))
    return out


# -- corner pattern ----------------------------------------------------------


def corner_det(a: int, b: int, c: int, d: int, e: int) -> int:
    """|det| of the 4x4 corner pattern, cross-checked against (a+c)-(b+d)e."""
    m = IntMatrix.from_rows([
        [1, 0, a, b],
        [-1, 0, c, d],
        [0, 1, e, 0],
        [0, -1, 0, 1],
    ])
    direct = abs(det(m))
    formula = abs((a + c) - (b + d) * e)
    if direct != formula:
        raise RuntimeError(f"corner formula disagrees: {direct} vs {formula}")
    return direct
