"""Constructors for the extremal matrix families and the sporadic example.

The partition-indexed family stacks, over a unit basis and all pairwise
differences, the columns k*e_1 + e_{i+1} and k*e_1 + e_{i+1} - e_j driven
by a partition of delta - 1; the ladder variant stacks k*e_1 - e_i
instead. Both reach binom(r+1, 2) + (delta - 1)(r - 1) pairwise
non-parallel columns.

Column labels record the block each column belongs to (A-1 unit, A-2
difference, A-3 / A-4 partition-driven, A-5 ladder) so downstream tools can
address blocks without re-deriving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .intmatrix import IntMatrix


@dataclass(frozen=True)
class Partition:
    """Non-increasing sequence of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a partition has at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing, got {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        return cls(tuple(int(tok) for tok in text.split(",")))


def _partitions_desc(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return [Partition(p) for p in _partitions_desc(n, n)]


def partition_count(n: int) -> int:
    if n == 0:
        return 1
    return len(partitions(n))


def expected_count(delta: int, r: int) -> int:
    """Column count binom(r+1, 2) + (delta - 1)(r - 1) of both families."""
    if delta < 1 or r < 1:
        raise ValueError("delta and r must be positive")
    return comb(r + 1, 2) + (delta - 1) * (r - 1)


@dataclass(frozen=True)
class ExtremalMatrix:
    matrix: IntMatrix
    delta: int
    rank: int
    partition: Partition | None
    designated_element: int = 0

    @property
    def describe(self) -> str:
        if self.partition is None:
            return f"lee(delta={self.delta}, rank={self.rank})"
        parts = "+".join(str(p) for p in self.partition.parts)
        return f"extremal(delta={self.delta}, parts={parts}, rank={self.rank})"


def _unit(r: int, i: int, k: int = 1) -> list[int]:
    v = [0] * r
    v[i] = k
    return v


def _difference_columns(n: int) -> list[list[int]]:
    """All columns e_i - e_j for 0 <= i < j < n, lexicographic: the clique."""
    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            v = _unit(n, i)
            v[j] = -1
            cols.append(v)
    return cols


def _base_columns(r: int) -> tuple[list[list[int]], list[str]]:
    """The unit columns (A-1), then the difference columns (A-2)."""
    cols = [_unit(r, i) for i in range(r)] + _difference_columns(r)
    return cols, ["A-1"] * r + ["A-2"] * comb(r, 2)


def _check_count(m: IntMatrix, delta: int, r: int) -> None:
    if m.cols != expected_count(delta, r):
        raise RuntimeError(f"built {m.cols} columns, expected {expected_count(delta, r)}")


def build_A(delta: int, partition: Partition | Sequence[int], r: int) -> ExtremalMatrix:
    """Partition-indexed extremal matrix; columns ordered i, then k, then j."""
    lam = partition if isinstance(partition, Partition) else Partition(tuple(partition))
    if delta < 2:
        raise ValueError("delta must be at least 2 for the partition family")
    if lam.n != delta - 1:
        raise ValueError(f"partition {lam} does not sum to delta - 1 = {delta - 1}")
    if r < lam.m + 1:
        raise ValueError(f"rank {r} below m + 1 = {lam.m + 1}")
    cols, labels = _base_columns(r)
    for i in range(1, lam.m + 1):
        for k in range(1, lam.parts[i - 1] + 1):
            v = _unit(r, 0, k)
            v[i] = 1
            cols.append(v)
            labels.append("A-3")
    for i in range(1, lam.m + 1):
        for k in range(1, lam.parts[i - 1] + 1):
            for j in range(r):
                if j in (0, i):
                    continue
                v = _unit(r, 0, k)
                v[i] = 1
                v[j] = -1
                cols.append(v)
                labels.append("A-4")
    m = IntMatrix.from_cols(cols, labels)
    _check_count(m, delta, r)
    return ExtremalMatrix(m, delta, r, lam)


def build_A_lee(delta: int, r: int) -> ExtremalMatrix:
    """The ladder-block extremal matrix with columns k*e_1 - e_i."""
    if delta < 1:
        raise ValueError("delta must be positive")
    if r < 2:
        raise ValueError("rank must be at least 2")
    cols, labels = _base_columns(r)
    for i in range(1, r):
        for k in range(2, delta + 1):
            v = _unit(r, 0, k)
            v[i] = -1
            cols.append(v)
            labels.append("A-5")
    m = IntMatrix.from_cols(cols, labels)
    _check_count(m, delta, r)
    return ExtremalMatrix(m, delta, r, None)


def sporadic_rank3() -> IntMatrix:
    """The rank-3, 3-modular matrix with 11 pairwise non-parallel columns."""
    return IntMatrix.from_rows([
        [1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, -1, 0, 1, 1, 2, 1, 2, 1],
        [0, 0, 1, 0, -1, -1, -2, -3, -2, -3, -3],
    ])
