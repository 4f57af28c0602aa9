"""Checkers for each workload's outputs, built on ``reference`` alone.

Every checker takes the input case and the program's output as plain data
and returns a list of problems; an empty list means the output is right.
None of them uses ``assert``, so they hold under ``python -O``.

Plain outputs:

* witness: ``(row_indices, col_indices, det_value)``;
* families: ``{"level", "witness", "non_parallel", "profile"}`` with the
  profile as ``{length: multiplicity}``;
* extend: ``{"holds", "witness"}``, the witness None when the check holds;
* oracle: ``{"value", "witness"}``;
* search: ``{"count", "optimal", "nodes", "cols"}``.
"""

from __future__ import annotations

from typing import Sequence

import reference as ref


def check_witness(cols: Sequence[ref.Column], witness, size: int) -> list[str]:
    """A square witness of the given size whose determinant recomputes."""
    rows_w, cols_w, value = witness
    n_rows, n_cols = len(cols[0]), len(cols)
    if len(rows_w) != size or len(cols_w) != size:
        return [f"witness is {len(rows_w)}x{len(cols_w)}, expected {size}x{size}"]
    if len(set(rows_w)) != size or len(set(cols_w)) != size:
        return ["witness repeats a row or a column"]
    if not (all(0 <= i < n_rows for i in rows_w) and all(0 <= j < n_cols for j in cols_w)):
        return ["witness index out of range"]
    d = ref.det(ref.submatrix_rows(cols, rows_w, cols_w))
    if d != value:
        return [f"witness determinant recomputes to {d}, reported {value}"]
    return []


def _case_rank(case: dict) -> int:
    """Rank of the case's matrix, computed once per case."""
    if "ref_rank" not in case:
        case["ref_rank"] = ref.rank(case["cols"])
    return case["ref_rank"]


def pairwise_parallel(cols: Sequence[ref.Column]) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(cols)) for j in range(i + 1, len(cols))
            if ref.parallel(cols[i], cols[j])]


def check_family(case: dict, out: dict) -> list[str]:
    """Level within delta and witnessed; count, non-parallelism and profile."""
    delta, r, cols = case["delta"], case["rank"], case["cols"]
    problems = []
    if out["level"] > delta:
        problems.append(f"level {out['level']} exceeds delta {delta}")
    problems += check_witness(cols, out["witness"], r)
    if abs(out["witness"][2]) != out["level"]:
        problems.append(f"|witness det| {abs(out['witness'][2])} differs from "
                        f"level {out['level']}")
    if len(cols) != ref.column_count(delta, r):
        problems.append(f"{len(cols)} columns, formula gives "
                        f"{ref.column_count(delta, r)}")
    par = pairwise_parallel(cols)
    if par or not out["non_parallel"]:
        problems.append(f"parallel columns {par[:3]}, program reports "
                        f"non-parallel={out['non_parallel']}")
    want = ref.line_profile(delta, r, case["parts"])
    if out["profile"] != want:
        problems.append(f"profile {sorted(out['profile'].items())}, closed form "
                        f"{sorted(want.items())}")
    return problems


def check_extend(case: dict, out: dict) -> list[str]:
    """Refuted by a witness through the added column with |det| > delta."""
    delta, cols, added = case["delta"], case["cols"], case["added"]
    if out["holds"] or out["witness"] is None:
        return [f"extension by column {added} reported {delta}-modular"]
    problems = check_witness(cols, out["witness"], _case_rank(case))
    if abs(out["witness"][2]) <= delta:
        problems.append(f"|witness det| {abs(out['witness'][2])} within delta {delta}")
    if added not in out["witness"][1]:
        problems.append(f"witness columns {out['witness'][1]} miss added column {added}")
    return problems


def check_oracle(case: dict, out: dict) -> list[str]:
    """The value is the extension formula and the witness attains it."""
    cols, col = case["cols"], case["column"]
    want = ref.extension_value(col)
    problems = []
    if out["value"] != want:
        problems.append(f"value {out['value']}, formula gives {want}")
    problems += check_witness(cols, out["witness"], _case_rank(case))
    if abs(out["witness"][2]) != out["value"]:
        problems.append(f"|witness det| {abs(out['witness'][2])} differs from "
                        f"value {out['value']}")
    return problems


def check_search(case: dict, out: dict) -> list[str]:
    """A feasible certificate at least as large as the constructions."""
    delta, r, cols = case["delta"], case["rank"], out["cols"]
    problems = []
    if out["count"] != len(cols):
        problems.append(f"count {out['count']} but {len(cols)} certificate columns")
    if len(cols[0]) != r or ref.rank(cols) != r:
        problems.append(f"certificate does not have rank {r}")
        return problems
    par = pairwise_parallel(cols)
    if par:
        problems.append(f"certificate has parallel columns {par[:3]}")
    bad = ref.minor_violation(cols, delta)
    if bad is not None:
        problems.append(f"certificate minor on columns {bad[0]} has det {bad[1]}")
    if out["count"] < ref.column_count(delta, r):
        problems.append(f"count {out['count']} below the construction count "
                        f"{ref.column_count(delta, r)}")
    if case["node_limit"] is None and not out["optimal"]:
        problems.append("search without a node limit did not prove optimality")
    return problems


def check_search_pass(cases: Sequence[dict], outs: Sequence[dict | None]) -> dict[int, list[str]]:
    """Across one pass: an hnf-exhaustive optimum is at least the
    identity-anchored optimum at the same (delta, rank)."""
    ident = {(c["delta"], c["rank"]): o["count"] for c, o in zip(cases, outs)
             if o is not None and c["mode"] == "identity-anchored" and o["optimal"]}
    problems = {}
    for k, (c, o) in enumerate(zip(cases, outs)):
        key = (c["delta"], c["rank"])
        if o is not None and c["mode"] == "hnf-exhaustive" and key in ident \
                and o["count"] < ident[key]:
            problems[k] = [f"hnf-exhaustive optimum {o['count']} below the "
                           f"identity-anchored optimum {ident[key]}"]
    return problems
