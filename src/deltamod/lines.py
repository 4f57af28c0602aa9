"""Point and line structure of integer column configurations.

A point is a maximal set of pairwise parallel nonzero columns; a line is a
maximal rank-2 set; a long line has at least three points. Points are
found by canonical form (``exact._canonical``, equal for two columns iff
they are parallel): the parallel classes group the columns by it, and the
points of a line are counted by it.

The multiset of long-line lengths through the designated first unit
column distinguishes the extremal families pairwise: it has a closed form
driven by the partition, and the partition can be recovered from the
multiset, so distinct partitions yield non-isomorphic column matroids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .exact import _canonical, _parallel_groups
from .families import ExtremalMatrix, Partition, build_A, build_A_lee, partitions
from .intmatrix import IntMatrix


@dataclass(frozen=True)
class LineMultiset:
    """Multiset of long-line lengths, keyed by length (>= 3)."""

    counts: tuple[tuple[int, int], ...]  # (length, multiplicity), length ascending

    def __post_init__(self) -> None:
        if any(length < 3 or mult < 1 for length, mult in self.counts):
            raise ValueError("long lines have length >= 3")
        if any(a[0] >= b[0] for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be sorted by length")

    @classmethod
    def from_counter(cls, c: Counter) -> "LineMultiset":
        return cls(tuple(sorted((k, v) for k, v in c.items() if v)))

    @classmethod
    def from_lengths(cls, lengths) -> "LineMultiset":
        return cls.from_counter(Counter(lengths))

    @property
    def total(self) -> int:
        return sum(v for _, v in self.counts)

    def __str__(self) -> str:
        return ",".join(f"{k}:{v}" for k, v in self.counts)

    @classmethod
    def parse(cls, text: str) -> "LineMultiset":
        c: Counter = Counter()
        for tok in text.split(","):
            k, v = tok.split(":")
            c[int(k)] += int(v)
        return cls.from_counter(c)


@dataclass(frozen=True)
class NonIsoCertificate:
    left_id: str
    right_id: str
    left_nu: LineMultiset
    right_nu: LineMultiset

    @property
    def distinct(self) -> bool:
        return self.left_nu != self.right_nu

    def to_json_dict(self) -> dict:
        return {"leftId": self.left_id, "rightId": self.right_id,
                "leftNu": str(self.left_nu), "rightNu": str(self.right_nu),
                "distinct": self.distinct}


@dataclass(frozen=True)
class ParallelClasses:
    classes: tuple[tuple[int, ...], ...]  # non-loop columns, grouped
    loops: tuple[int, ...]                # zero columns

    @property
    def point_count(self) -> int:
        return len(self.classes)


def parallel_classes(m: IntMatrix) -> ParallelClasses:
    """Group column indices into parallel classes; zero columns are loops."""
    classes, loops = _parallel_groups(m.columns())
    return ParallelClasses(tuple(tuple(cl) for cl in classes), tuple(loops))


def _long_lines(m: IntMatrix, e: int) -> list[tuple[tuple[int, ...], int]]:
    """Long lines through column e with their point counts, sorted.

    With ce[p] != 0, the linear map c -> ce[p] * c - c[p] * ce has kernel
    span(ce), so two columns lie on one line through e iff their images are
    parallel. Columns parallel to e map to zero and lie on every line.
    """
    cols = m.columns()
    ce = m.column(e)
    if not any(ce):
        raise ValueError("designated column is zero")
    p = next(i for i, v in enumerate(ce) if v)
    through_e: list[int] = []
    by_image: dict[tuple[int, ...], list[int]] = {}
    for j, c in enumerate(cols):
        if not any(c):
            continue
        image = tuple(ce[p] * v - c[p] * w for v, w in zip(c, ce))
        if any(image):
            by_image.setdefault(_canonical(image), []).append(j)
        else:
            through_e.append(j)
    lines = []
    for members in by_image.values():
        points = 1 + len({_canonical(cols[j]) for j in members})
        if points >= 3:
            lines.append((tuple(sorted(members + through_e)), points))
    lines.sort(key=lambda lw: lw[0])
    return lines


def long_lines_through(m: IntMatrix, e: int) -> list[tuple[int, ...]]:
    """Maximal rank-2 closures through column e with at least three points.

    Two distinct lines through e meet only in the parallel class of e, so
    each non-parallel column lies on exactly one line through e; zero
    columns are excluded.
    """
    return [line for line, _ in _long_lines(m, e)]


def line_length_multiset(m: IntMatrix, e: int) -> LineMultiset:
    """Multiset of point counts of the long lines through column e."""
    return LineMultiset.from_lengths(points for _, points in _long_lines(m, e))


def nu_formula(delta: int, partition: Partition, r: int) -> LineMultiset:
    """Predicted long-line length multiset through the designated element.

    Four blocks: plain triangles on the free rows; one line per part
    through the unit column of its row; per free row, one line per part
    through a difference column; one line per pair of parts.
    """
    lam = partition
    m = lam.m
    if lam.n != delta - 1:
        raise ValueError(f"partition {lam} does not sum to delta - 1 = {delta - 1}")
    if r < m + 1:
        raise ValueError(f"rank {r} below m + 1 = {m + 1}")
    q = r - (m + 1)
    c: Counter = Counter()
    c[3] += q
    for i in range(m):
        c[3 + lam.parts[i]] += 1
    for i in range(m):
        c[2 + lam.parts[i]] += q
    for i in range(m):
        for j in range(i + 1, m):
            c[2 + lam.parts[i] + lam.parts[j]] += 1
    return LineMultiset.from_counter(c)


def _profile_size(r: int, m: int) -> int:
    return (r - (m + 1)) + m + (r - (m + 1)) * m + comb(m, 2)


def recover_partition(nu: LineMultiset, delta: int, r: int) -> Partition:
    """Invert the line-length formula: unique partition with this profile.

    The part count m is the unique solution of the profile-size equation on
    [1, r-2]; part multiplicities follow inductively from the counts of
    lengths 3, 4, ... where the pair block contributes, for length s + 2,
    the number of index pairs of parts summing to s.
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    total = nu.total
    matches = [m for m in range(1, r - 1) if _profile_size(r, m) == total]
    if len(matches) != 1:
        raise ValueError(f"not a valid line profile: profile size {total} "
                         f"matches {len(matches)} part counts")
    m = matches[0]
    q = r - (m + 1)
    if q < 1:
        raise ValueError("not a valid line profile: no free rows")
    counts = dict(nu.counts)
    n: dict[int, int] = {}
    l3 = counts.get(3, 0)
    if l3 < q or (l3 - q) % q:
        raise ValueError("not a valid line profile: length-3 count")
    n[1] = (l3 - q) // q
    for s in range(2, delta):
        z = 0
        for u in range(1, (s + 1) // 2):
            z += n.get(u, 0) * n.get(s - u, 0)
        if s % 2 == 0:
            z += comb(n.get(s // 2, 0), 2)
        rem = counts.get(s + 2, 0) - n.get(s - 1, 0) - z
        if rem < 0 or rem % q:
            raise ValueError(f"not a valid line profile: length-{s + 2} count")
        n[s] = rem // q
    parts = []
    for s in sorted(n, reverse=True):
        parts.extend([s] * n[s])
    if sum(parts) != delta - 1 or len(parts) != m:
        raise ValueError("not a valid line profile: parts do not assemble")
    lam = Partition(tuple(parts))
    if nu_formula(delta, lam, r) != nu:
        raise ValueError("not a valid line profile: reconstruction mismatch")
    return lam


def distinguishing_report(delta: int, r: int) -> list[NonIsoCertificate]:
    """Pairwise profile comparison of all constructions at this delta, r.

    Covers the partition family for every partition of delta - 1 plus the
    ladder construction; profiles are measured from the matrices at the
    designated element, not taken from the formula.
    """
    if r < delta + 1:
        raise ValueError("requires r >= delta + 1")
    builds: list[ExtremalMatrix] = [build_A(delta, lam, r)
                                    for lam in partitions(delta - 1)]
    builds.append(build_A_lee(delta, r))
    profiles = [line_length_multiset(b.matrix, b.designated_element)
                for b in builds]
    certs = []
    for i in range(len(builds)):
        for j in range(i + 1, len(builds)):
            certs.append(NonIsoCertificate(
                builds[i].describe, builds[j].describe,
                profiles[i], profiles[j]))
    return certs
