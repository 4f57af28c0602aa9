"""Exact integer linear algebra.

One fraction-free (Bareiss) row echelon over Python ints, ``_echelon``,
serves the determinant, the rank and the pivot columns, so results are
exact for any entry size. The naive cofactor expansion is kept as an
independent test oracle. Subdeterminant maxima are found by brute
enumeration factored through a column basis: the shared minor kernel of
``_batch`` ranks the row subsets of the basis columns and then the column
subsets of the best rows, never their product. It runs in int32 or int64
when its width rule (``_batch.scan_dtype``) allows, exact Python ints in
numpy object arrays otherwise, and refuses with ``ValueError`` a pass
that would not fit in memory. Bareiss recomputes each reported witness
(``checked_witness``).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

import numpy as np

from . import _batch
from .intmatrix import DegenerateRankError, IntMatrix, ShapeError, SubmatrixWitness


def _echelon(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon of ``a`` in place.

    Returns the pivot columns and the sign of the row swaps. The last pivot
    of a nonsingular square ``a`` is its determinant times that sign.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = prev = 1
    r = 0
    for c in range(n_cols):
        rr = a[r]
        if rr[c] == 0:
            piv = next((i for i in range(r + 1, n_rows) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], rr
            rr = a[r]
            sign = -sign
        pivot = rr[c]
        for ri in a[r + 1:]:
            aic = ri[c]
            for j in range(c + 1, n_cols):
                ri[j] = (ri[j] * pivot - aic * rr[j]) // prev
            ri[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots, sign


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square matrix; mutates ``rows``."""
    pivots, sign = _echelon(rows)
    return sign * rows[-1][-1] if len(pivots) == len(rows) else 0


def det(m: IntMatrix) -> int:
    if m.rows != m.cols:
        raise ShapeError(f"determinant of a {m.rows}x{m.cols} matrix")
    return _bareiss_det([list(r) for r in m.entries])


def det_cofactor(m: IntMatrix) -> int:
    """Cofactor-expansion determinant; independent oracle for small sizes."""
    if m.rows != m.cols:
        raise ShapeError(f"determinant of a {m.rows}x{m.cols} matrix")

    rows = m.entries

    def rec(row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> int:
        if len(row_idx) == 1:
            return rows[row_idx[0]][col_idx[0]]
        i = row_idx[0]
        rest = row_idx[1:]
        total = 0
        for pos, j in enumerate(col_idx):
            a = rows[i][j]
            if a == 0:
                continue
            sub = col_idx[:pos] + col_idx[pos + 1:]
            term = a * rec(rest, sub)
            total += term if pos % 2 == 0 else -term
        return total

    n = m.rows
    return rec(tuple(range(n)), tuple(range(n)))


def _pivot_cols(m: IntMatrix) -> list[int]:
    """Pivot columns of a fraction-free row echelon: a column basis."""
    return _echelon([list(r) for r in m.entries])[0]


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals via fraction-free row echelon."""
    return len(_pivot_cols(m))


def _first_lex(hits: np.ndarray, n: int, k: int) -> int:
    """Colex index of the lexicographically first k-subset where ``hits`` holds."""
    cands = np.flatnonzero(hits)
    for at_p in _batch.colex_tables(n, k)[0]:
        col = at_p[cands]
        cands = cands[col == col.min()]
    return int(cands[0])


def _row_pass(m: IntMatrix) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """One kernel pass over the row subsets R of the pivot columns S0.

    Returns the scan array of ``m``, |det A[R,S0]| in colex order of R, and
    R*, the lexicographically first R maximizing it; len(R*) is the rank.
    """
    basis = _pivot_cols(m)
    r = len(basis)
    if r == 0:
        raise DegenerateRankError("zero matrix has no full-rank submatrix")
    a = np.array(m.entries, dtype=_batch.scan_dtype(r, m.max_abs_entry()))
    _batch.check_scan_size(m.rows, r, a.dtype)
    row_dets = np.abs(_batch.subset_minors(a[:, basis].T))
    top = _first_lex(row_dets == row_dets.max(), m.rows, r)
    return a, row_dets, _batch.colex_unrank(r, top)


def _scan_subdets(m: IntMatrix, rows: tuple, bound: int | None) -> tuple[int, SubmatrixWitness]:
    """Max |det| over rank x rank submatrices and its first witness.

    Lexicographic, column subsets outer; with ``bound``, the first |det|
    above it instead, if any. For pivot columns S0, every minor is
    det A[R,S] = det A[R,S0] * det A[R*,S] / det A[R*,S0], where R* is the
    first row set maximizing |det A[R*,S0]|. So the row pass ``rows`` and
    one kernel pass over the column subsets of A[R*,:] rank both, and S
    has a row set above ``bound`` iff |det A[R*,S]| is above it.
    """
    a, row_dets, rset = rows
    r = len(rset)
    _batch.check_scan_size(m.cols, r, a.dtype)
    col_dets = np.abs(_batch.subset_minors(a[list(rset)]))
    if bound is not None and (col_dets > bound).any():
        c = _first_lex(col_dets > bound, m.cols, r)
        b, row_max = int(col_dets[c]), int(row_dets.max())  # their product may overflow int64
        top = _first_lex(row_dets.astype(object) * b > bound * row_max, m.rows, r)
        value = int(row_dets[top]) * b // row_max
        rset = _batch.colex_unrank(r, top)
    else:
        value = int(col_dets.max())
        c = _first_lex(col_dets == value, m.cols, r)
    return value, checked_witness(m, rset, _batch.colex_unrank(r, c), value)


def checked_witness(m: IntMatrix, rows: tuple[int, ...], cols: tuple[int, ...],
                    value: int) -> SubmatrixWitness:
    """The witness of a scanned ``value`` at ``rows`` x ``cols``, its
    determinant recomputed by Bareiss; raises when |det| is not ``value``."""
    d = det(m.submatrix(rows, cols))
    if abs(d) != value:
        raise RuntimeError(f"witness determinant {d} disagrees with the scanned value {value}")
    return SubmatrixWitness(rows, cols, d)


def max_abs_full_rank_subdet(m: IntMatrix) -> tuple[int, SubmatrixWitness]:
    """Brute-force maximum |det| over all rank x rank submatrices.

    The witness is the first maximizer in lexicographic order with column
    subsets in the outer loop, which pins the result for golden tests.
    """
    return _scan_subdets(m, _row_pass(m), None)


def is_parallel(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff u and v are linearly dependent (all 2x2 minors vanish).

    The zero vector is dependent with everything. The library groups
    columns by ``_canonical`` instead; this pairwise test is its reference.
    """
    if len(u) != len(v):
        raise ShapeError("vectors of different lengths")
    pivot = next(((a, b) for a, b in zip(u, v) if a or b), None)
    if pivot is None:
        return True
    pa, pb = pivot
    return all(pa * b - pb * a == 0 for a, b in zip(u, v))


def primitive_part(v: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("primitive part of the zero vector is undefined")
    return tuple(x // g for x in v)


def _canonical(col: Sequence[int]) -> tuple[int, ...]:
    """Primitive part with a positive leading entry: equal iff parallel."""
    c = primitive_part(col)
    lead = next(v for v in c if v)
    return c if lead > 0 else tuple(-v for v in c)


def _parallel_groups(cols: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Column indices grouped by ``_canonical``, and the zero columns.

    Groups are the parallel classes of the nonzero columns, each ascending,
    in order of their first index. Zero columns (loops) are parallel to
    every column and belong to no group.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    loops = []
    for j, c in enumerate(cols):
        if any(c):
            groups.setdefault(_canonical(c), []).append(j)
        else:
            loops.append(j)
    return list(groups.values()), loops


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def hermite_triangularize(m: IntMatrix, basis_cols: Sequence[int]
                          ) -> tuple[IntMatrix, IntMatrix]:
    """Left-multiply by a unimodular U so the basis block is upper-triangular.

    The block U*M[:, basis_cols] gets a positive diagonal with entries above
    each pivot reduced to [0, pivot); |det| of the block is preserved.
    Raises on a singular basis block.
    """
    basis = list(basis_cols)
    if len(basis) != m.rows or len(set(basis)) != len(basis):
        raise ShapeError("basis column set must index a square block")
    t = [list(r) for r in m.entries]
    n = m.rows
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def combine(i1: int, i2: int, a: int, b: int, c: int, d: int) -> None:
        # rows (i1, i2) <- (a*i1 + b*i2, c*i1 + d*i2); ad - bc = +-1
        for mat in (t, u):
            r1, r2 = mat[i1], mat[i2]
            for j in range(len(r1)):
                r1[j], r2[j] = a * r1[j] + b * r2[j], c * r1[j] + d * r2[j]

    for k, c in enumerate(basis):
        for i in range(k + 1, n):
            a, b = t[k][c], t[i][c]
            if b == 0:
                continue
            if a == 0:
                t[k], t[i] = t[i], t[k]
                u[k], u[i] = u[i], u[k]
                continue
            g, x, y = _xgcd(a, b)
            combine(k, i, x, y, -(b // g), a // g)
        if t[k][c] == 0:
            raise DegenerateRankError("singular basis block")
        if t[k][c] < 0:
            t[k] = [-v for v in t[k]]
            u[k] = [-v for v in u[k]]
        for j in range(k):
            q = t[j][c] // t[k][c]
            if q:
                t[j] = [vj - q * vk for vj, vk in zip(t[j], t[k])]
                u[j] = [vj - q * vk for vj, vk in zip(u[j], u[k])]

    return IntMatrix.from_rows(t, m.labels), IntMatrix.from_rows(u)
