"""A colex Laplace step over column subsets: the general scan's minor kernel.

The general subdeterminant scan (``exact._scan_subdets``) expands its
minors here, one row at a time. The identity-anchored scan builds its own
store of plain minors (``modularity._SubsetScan``) and shares only the
width rule, the byte rule and the colex layout (``colex_blocks``,
``colex_rank``, ``colex_unrank``) of this module. A state holds, for each
k-subset S of n columns in colexicographic order, the determinant of some
fixed k rows restricted to S. One step puts a new row on top of those rows:

    state'[S] = sum over p of (-1)**p * row[S_p] * state[S minus S_p]

so all minors of a level are shared by every subset of the next. Leading
batch axes run several row stacks at once, as ``batched_det`` does. The
general scan runs one row stack at a time.

Both scans take their dtype from ``scan_dtype``, which bounds every value
of a scan by n! * B**n: int32 below 2**31, int64 below 2**62 and exact
Python ints (``dtype=object``) otherwise; the step is the same code for
all three. Every scan prices its arrays with ``array_bytes`` and is
refused with a ``ValueError`` before any work starts when they would need
more than ``MAX_SCAN_BYTES`` (``check_scan_bytes``): the general scan its
index tables, states and step temporaries (``check_scan_size``), the
identity-anchored scan its store (``modularity._store_layout``).
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

MAX_SCAN_BYTES = 1 << 30

# k -> (combos, prev_rank) for the largest column count built so far; the
# tables for fewer columns are prefixes of these.
_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def scan_dtype(n: int, entry_bound: int) -> np.dtype:
    """The narrowest dtype of a scan of minors up to n x n whose every value
    is at most n! * entry_bound**n: int32 below 2**31, int64 below 2**62,
    else exact Python ints."""
    grow = factorial(n) * max(1, entry_bound) ** n
    return np.dtype(np.int32 if grow < 2 ** 31 else np.int64 if grow < 2 ** 62 else object)


def array_bytes(entries: int, dtype) -> int:
    """Bytes of ``entries`` entries of ``dtype``: its item size, or an object
    pointer plus a small Python int for exact ints."""
    dtype = np.dtype(dtype)
    return entries * (40 if dtype == object else dtype.itemsize)


def colex_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of one Laplace level over the k-subsets of range(n).

    Both have shape (k, C(n, k)), columns in colex order: ``combos[p, s]``
    is element p of subset s, and ``prev_rank[p, s]`` is the colex rank of
    subset s without that element. The colex k-subsets of range(t) are the
    first C(t, k) subsets of range(n), so one table per k serves every n.
    """
    size = comb(n, k)
    cached = _TABLES.get(k)
    if cached is None or cached[0].shape[1] < size:
        cached = _TABLES[k] = _build_level(n, k)
    combos, prev_rank = cached
    return combos[:, :size], prev_rank[:, :size]


def _build_level(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    if k == 1:
        return (np.arange(n, dtype=np.intp)[None, :],
                np.zeros((1, n), dtype=np.intp))
    below_combos, below_rank = colex_tables(n, k - 1)
    combos = np.empty((k, comb(n, k)), dtype=np.intp)
    prev_rank = np.empty_like(combos)
    # Dropping `top` leaves the block's (k-1)-subset itself; dropping
    # another element keeps `top`, which adds C(top, k-1) to the rank.
    for top, start, width in colex_blocks(n, k):
        block = slice(start, start + width)
        combos[:-1, block] = below_combos[:, :width]
        combos[-1, block] = top
        np.add(below_rank[:, :width], width, out=prev_rank[:-1, block])
        prev_rank[-1, block] = np.arange(width)
    return combos, prev_rank


def colex_blocks(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(top, start, width) of each block of the colex k-subsets of range(n).

    The subsets whose largest element is top, top = k-1 .. n-1, are the
    ``width`` = C(top, k-1) subsets from rank ``start`` on; without top
    they are the first C(top, k-1) colex (k-1)-subsets.
    """
    spans, start = [], 0
    for top in range(k - 1, n):
        width = comb(top, k - 1)
        spans.append((top, start, width))
        start += width
    return tuple(spans)


def colex_rank(subset) -> int:
    """The colex rank of the increasing tuple ``subset``: sum over p of
    C(element p, p + 1). Ordering k-subsets by their bitmask is their colex
    order, so the rank needs no n."""
    return sum(comb(c, p + 1) for p, c in enumerate(subset))


def colex_unrank(k: int, idx: int) -> tuple[int, ...]:
    """The k-subset with colex rank ``idx``."""
    out = []
    for kk in range(k, 0, -1):
        c = kk - 1
        while comb(c + 1, kk) <= idx:
            c += 1
        out.append(c)
        idx -= comb(c, kk)
    return tuple(reversed(out))


def check_scan_size(n: int, depth: int, dtype: np.dtype) -> None:
    """Refuse a scan of levels 1..depth over n columns that would not fit.

    Level k holds its two index tables, the previous and the new state,
    and three state-sized temporaries of the step.
    """
    need = max((array_bytes(2 * k * comb(n, k), np.intp)
                + array_bytes(comb(n, k - 1) + 4 * comb(n, k), dtype)
                for k in range(1, depth + 1)), default=0)
    check_scan_bytes(need, depth, n)


def check_scan_bytes(need: int, depth: int, n: int) -> None:
    """Refuse a scan of size ``depth`` over n columns whose arrays need
    more than ``MAX_SCAN_BYTES``."""
    if need > MAX_SCAN_BYTES:
        raise ValueError(
            f"refusing a minor scan of size {depth} over {n} columns: it needs "
            f"about {need / 2 ** 30:.1f} GiB, above the "
            f"{MAX_SCAN_BYTES / 2 ** 30:.0f} GiB limit")


def laplace_step(row: np.ndarray, state: np.ndarray, n: int, k: int) -> np.ndarray:
    """Extend level-(k-1) minors by one row on top: shape (..., C(n, k)).

    ``row`` has shape (..., n) and ``state`` (..., C(n, k-1)), both of one
    dtype; the caller guarantees that a fixed width cannot overflow.
    """
    combos, prev_rank = colex_tables(n, k)
    acc = row.take(combos[0], axis=-1)
    acc *= state.take(prev_rank[0], axis=-1)
    for p in range(1, k):
        term = row.take(combos[p], axis=-1)
        term *= state.take(prev_rank[p], axis=-1)
        if p % 2:
            acc -= term
        else:
            acc += term
    return acc


def subset_minors(a: np.ndarray) -> np.ndarray:
    """Minors of a (..., k, n) stack on every k-subset of columns, in colex order.

    The rows go through ``laplace_step`` from the last to the first.
    """
    k, n = a.shape[-2:]
    state = np.ones(a.shape[:-2] + (1,), dtype=a.dtype)
    for j in range(1, k + 1):
        state = laplace_step(a[..., k - j, :], state, n, j)
    return state


def batched_det(a: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of square matrices, shape (..., n, n)."""
    if a.shape[-2] != a.shape[-1]:
        raise ValueError("matrices must be square")
    return subset_minors(a)[..., 0]
