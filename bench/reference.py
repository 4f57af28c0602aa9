"""Exact arithmetic that the benchmark checks the program's outputs against.

Nothing here imports ``deltamod`` or the test suite. Determinants and ranks
use Gaussian elimination over ``Fraction``, a different algorithm from the
program's fraction-free elimination, so a fault in the program cannot hide
in the arithmetic that checks it. Matrices are sequences of columns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

Column = tuple[int, ...]


def _echelon(rows: list[list[Fraction]]) -> tuple[int, Fraction]:
    """Reduce ``rows`` in place; return (rank, signed product of the pivots)."""
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    scale = Fraction(1)
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            scale = -scale
        p = rows[r][c]
        scale *= p
        for i in range(r + 1, n_rows):
            f = rows[i][c] / p
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r, scale


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix given by rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    work = [[Fraction(v) for v in row] for row in rows]
    r, value = _echelon(work)
    if r < n:
        return 0
    if value.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix is not integral")
    return int(value)


def rank(cols: Sequence[Column]) -> int:
    """Exact rank of the matrix with these columns."""
    rows = [[Fraction(c[i]) for c in cols] for i in range(len(cols[0]))]
    return _echelon(rows)[0]


def parallel(u: Sequence[int], v: Sequence[int]) -> bool:
    """True when u and v are linearly dependent: every 2x2 minor vanishes."""
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i]
               for i in range(n) for j in range(i + 1, n))


def submatrix_rows(cols: Sequence[Column], row_idx: Sequence[int],
                   col_idx: Sequence[int]) -> list[list[int]]:
    return [[cols[j][i] for j in col_idx] for i in row_idx]


def column_count(delta: int, r: int) -> int:
    """binom(r+1, 2) + (delta-1)(r-1), the column count of the constructions."""
    return comb(r + 1, 2) + (delta - 1) * (r - 1)


def extension_value(col: Sequence[int]) -> int:
    """Largest full-rank minor of a clique plus one zero-sum column.

    It is max(1, G), where G is the largest subset sum of the column; for a
    zero-sum column G is the sum of its positive entries.
    """
    return max(1, sum(v for v in col if v > 0))


def line_profile(delta: int, r: int, parts: Sequence[int] | None) -> dict[int, int]:
    """Closed-form long-line lengths through the designated unit column.

    ``parts`` is the partition of delta - 1 behind a partition-family matrix,
    or None for the ladder. With m parts and q = r - m - 1 free rows, the
    lines through e_1 are: q plain triangles of length 3; one line of length
    3 + p per part p (through the unit column of its row); q lines of length
    2 + p per part p (through difference columns); and one line of length
    2 + p + p' per pair of parts. The ladder has r - 1 lines of length
    delta + 2: e_1, e_i and k*e_1 - e_i for k = 1..delta.
    """
    out: dict[int, int] = {}

    def add(length: int, mult: int) -> None:
        if mult:
            out[length] = out.get(length, 0) + mult

    if parts is None:
        add(delta + 2, r - 1)
        return out
    q = r - len(parts) - 1
    add(3, q)
    for p in parts:
        add(3 + p, 1)
        add(2 + p, q)
    for p, p2 in combinations(parts, 2):
        add(2 + p + p2, 1)
    return out


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def zero_sum_classes(max_entry: int, max_support: int) -> list[Column]:
    """Zero-sum nonzero columns up to row order and sign, entries bounded.

    Each class is the sorted non-increasing entry list, of the two signs the
    lexicographically greater, with at most ``max_support`` nonzero entries.
    """
    seen: set[Column] = set()
    for total in range(1, max_entry * (max_support // 2) + 1):
        for pos in _partitions(total, max_entry):
            for neg in _partitions(total, max_entry):
                if len(pos) + len(neg) > max_support:
                    continue
                fwd = tuple(sorted(pos + tuple(-v for v in neg), reverse=True))
                rev = tuple(sorted((-v for v in fwd), reverse=True))
                seen.add(max(fwd, rev))
    return sorted(seen, key=lambda c: (len(c), c))


def minor_violation(cols: Sequence[Column], delta: int
                    ) -> tuple[tuple[int, ...], int] | None:
    """Brute force over every r x r minor of an r-row matrix.

    Returns the first column set whose minor exceeds delta in absolute
    value, with that determinant, or None when all minors are within delta.
    """
    r = len(cols[0])
    rows = range(r)
    for cset in combinations(range(len(cols)), r):
        d = det(submatrix_rows(cols, rows, cset))
        if abs(d) > delta:
            return cset, d
    return None
