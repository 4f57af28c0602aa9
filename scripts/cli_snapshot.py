#!/usr/bin/env python3
"""Print the stdout and exit code of the CLI's scans on fixed matrices.

For each matrix, ``delta --json`` and ``check --delta`` at two bounds each
print a ``$`` line naming the command, its stdout, then its exit code. The
six constructions at delta 5, rank 7 and the sporadic matrix hold a unit
basis and take the identity-anchored scan. Two wide matrices without one
take the general scan, one in int32 and one in int64; the tall clique
extension is first reduced to a row basis. ``tests/data/cli_snapshot.out``
holds this output, so a change that moves a value, a witness or the first
violator of a bound shows up as a text difference.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from deltamod import IntMatrix, build_A, build_A_lee, partitions, sporadic_rank3
from deltamod.cli import run
from deltamod.extensions import embed_single


def snapshot_matrices() -> list[tuple[str, IntMatrix, tuple[int, int]]]:
    """(name, matrix, the two bounds of ``check``) of every snapshot matrix."""
    mats = [(f"A(5, {p}, 7)", build_A(5, p, 7).matrix, (4, 2)) for p in partitions(4)]
    mats += [("A_lee(5, 7)", build_A_lee(5, 7).matrix, (4, 2)),
             ("sporadic", sporadic_rank3(), (4, 2))]
    # 4! * 5**4 < 2**31: int32
    mats.append(("general int32", IntMatrix.from_rows(
        [[2, 3, 5, 4, 2, 3, 5], [3, 5, 2, 2, 4, 5, 3],
         [5, 2, 3, 4, 3, 2, 4], [4, 4, 3, 5, 5, 2, 2]]), (198, 100)))
    # 3! * 1000**3 > 2**31: int64
    mats.append(("general int64", IntMatrix.from_rows(
        [[1000, 7, 3, 999, 2, 5], [3, 998, 11, 4, 1000, 6],
         [5, 2, 997, 8, 3, 1000]]), (999951105, 500000000)))
    # 6 rows of rank 5: the clique on 6 vertices plus a zero-sum column
    mats.append(("clique(6) + (2, 1, 0, -1, -1, -1)",
                 embed_single([2, 1, 0, -1, -1, -1]), (3, 2)))
    return mats


def cli_snapshot(tmp_dir: Path) -> str:
    out = []
    path = tmp_dir / "m.txt"
    for name, m, (hi, lo) in snapshot_matrices():
        path.write_text(m.to_text())
        for argv in (["delta", "--json"], ["check", "--delta", str(hi)],
                     ["check", "--delta", str(lo)]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run(argv + [str(path)])
            out.append(f"$ {' '.join(argv)} {name}\n{buf.getvalue()}exit {code}\n")
    return "".join(out)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print(cli_snapshot(Path(tmp)), end="")


if __name__ == "__main__":
    main()
