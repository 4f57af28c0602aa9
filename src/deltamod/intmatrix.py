"""Dense integer matrices with exact arithmetic.

Entries are Python ints (arbitrary precision) stored row-major as nested
tuples, so matrices are hashable, comparable, and safe to share across
threads. Columns may carry opaque string labels; the extremal-family
constructors use them to tag column types.

Serialization formats:

* text: first line ``rows cols``, then one line of space-separated decimal
  integers per row, optionally followed by ``labels: l1 l2 ...``.
* JSON: ``{"rows": r, "cols": n, "entries": [[...]], "labels": [...]}``
  with ``labels`` present only when the matrix is labeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class ShapeError(ValueError):
    """Raised when matrix or vector dimensions do not match an operation."""


class DegenerateRankError(ValueError):
    """Raised when an operation requires rank >= 1 but the input is zero."""


Vector = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[Vector, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ShapeError("ragged rows")
            for v in row:
                if not isinstance(v, int):
                    raise ShapeError(f"non-integer entry {v!r}")
        if self.labels is not None and len(self.labels) != width:
            raise ShapeError("labels must be in bijection with columns")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  labels: Sequence[str] | None = None) -> "IntMatrix":
        ent = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(ent, tuple(labels) if labels is not None else None)

    @classmethod
    def from_cols(cls, cols: Iterable[Iterable[int]],
                  labels: Sequence[str] | None = None) -> "IntMatrix":
        cc = [tuple(int(v) for v in c) for c in cols]
        if not cc:
            raise ShapeError("matrix must have at least one column")
        return cls.from_rows(zip(*cc), labels)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)])

    # -- basic geometry ----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise ShapeError(f"column index {j} out of range")
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vector]:
        return list(zip(*self.entries))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        ent = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        lab = tuple(self.labels[j] for j in col_idx) if self.labels else None
        return IntMatrix(ent, lab)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.rows != self.rows:
            raise ShapeError("row counts differ")
        ent = tuple(a + b for a, b in zip(self.entries, other.entries))
        if self.labels is None and other.labels is None:
            lab = None
        else:
            lab = tuple((self.labels or ("",) * self.cols)
                        + (other.labels or ("",) * other.cols))
        return IntMatrix(ent, lab)

    def max_abs_entry(self) -> int:
        return max(abs(v) for row in self.entries for v in row)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(str(v) for v in row) for row in self.entries]
        if self.labels is not None:
            lines.append("labels: " + " ".join(self.labels))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ShapeError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2:
            raise ShapeError("first line must be 'rows cols'")
        r, n = int(head[0]), int(head[1])
        if len(lines) < 1 + r:
            raise ShapeError(f"expected {r} rows of entries")
        rows = []
        for ln in lines[1:1 + r]:
            vals = [int(tok) for tok in ln.split()]
            if len(vals) != n:
                raise ShapeError(f"expected {n} entries per row, got {len(vals)}")
            rows.append(vals)
        labels = None
        rest = lines[1 + r:]
        if rest:
            if not rest[0].startswith("labels:"):
                raise ShapeError(f"unexpected trailing line {rest[0]!r}")
            labels = rest[0][len("labels:"):].split()
        return cls.from_rows(rows, labels)

    def to_json_dict(self) -> dict:
        d: dict = {"rows": self.rows, "cols": self.cols,
                   "entries": [list(r) for r in self.entries]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntMatrix":
        m = cls.from_rows(d["entries"], d.get("labels"))
        if m.rows != d.get("rows", m.rows) or m.cols != d.get("cols", m.cols):
            raise ShapeError("declared shape disagrees with entries")
        return m


@dataclass(frozen=True)
class SubmatrixWitness:
    """Addresses a square submatrix together with its exact determinant.

    The witness is re-checkable: ``check(m)`` recomputes the determinant of
    the addressed submatrix and compares it with ``det_value``.
    """

    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]
    det_value: int

    def __post_init__(self) -> None:
        if len(self.row_indices) != len(self.col_indices):
            raise ShapeError("witness must address a square submatrix")

    def check(self, m: IntMatrix) -> bool:
        from .exact import det
        return det(m.submatrix(self.row_indices, self.col_indices)) == self.det_value

    def to_json_dict(self) -> dict:
        return {"rowIndices": list(self.row_indices),
                "colIndices": list(self.col_indices),
                "detValue": self.det_value}
