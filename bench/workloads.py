"""The benchmark's four workloads: seeded inputs, timed calls and checks.

Each builder returns a fixed list of items of similar size. The seed only
rearranges work that stays the same: the item order, a column order for
each matrix (and where an added column goes), and which zero-sum classes the
oracle samples (every class costs the same brute-force scan). So every seed
gives the same mix of work, and two runs differ only by noise.

Program functions are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from deltamod import exact, extensions, families, lines, modularity, search
from deltamod.intmatrix import IntMatrix

import checks
import reference as ref

# families: the certification step at delta 5, rank 7 (six constructions).
FAMILY_DELTA, FAMILY_RANK = 5, 7
# extend: constructions at delta 4, rank 7 plus one foreign column each.
EXTEND_DELTA, EXTEND_RANK = 4, 7
EXTEND_ITEMS = 120
# oracle: clique on 7 vertices plus one sampled zero-sum class, rank 6.
ORACLE_VERTICES, ORACLE_MAX_ENTRY, ORACLE_CLASSES = 7, 4, 161
ORACLE_ITEMS = 7
# search: (delta, rank, mode, node limit); the limits give each node-limited
# search about the time of a proved (2, 3) search.
SEARCH_ITEMS = (
    (2, 3, "identity-anchored", None),
    (2, 3, "hnf-exhaustive", None),
    (2, 4, "identity-anchored", 20_000),
    (3, 3, "identity-anchored", 30_000),
)


@dataclass
class Workload:
    names: list[str]
    cases: list[dict]
    calls: list[Callable[[], object]]
    plain: Callable[[object], dict]
    check: Callable[[dict, dict], list[str]]
    check_pass: Callable[[list, list], dict[int, list[str]]] | None = None
    kernel: str = "stream"   # the speed kernel closest to where the time goes


def _witness(w) -> tuple:
    return (tuple(w.row_indices), tuple(w.col_indices), w.det_value)


def _shuffled(rng: random.Random, seq) -> list:
    out = list(seq)
    rng.shuffle(out)
    return out


def _constructions(delta: int, r: int) -> list:
    builds = [families.build_A(delta, lam, r) for lam in families.partitions(delta - 1)]
    return builds + [families.build_A_lee(delta, r)]


def build_families(seed: int) -> Workload:
    rng = random.Random(seed)
    names, cases, calls = [], [], []
    for b in _constructions(FAMILY_DELTA, FAMILY_RANK):
        orig = b.matrix.columns()
        perm = _shuffled(rng, range(len(orig)))
        cols = [orig[p] for p in perm]
        m = IntMatrix.from_cols(cols)
        e = perm.index(b.designated_element)
        names.append(b.describe)
        cases.append({"delta": b.delta, "rank": b.rank, "cols": cols,
                      "parts": b.partition.parts if b.partition else None})
        calls.append(lambda m=m, e=e: (modularity.modularity_level(m),
                                       lines.line_length_multiset(m, e)))
    order = _shuffled(rng, range(len(cases)))

    def plain(res) -> dict:
        rep, nu = res
        return {"level": rep.delta, "witness": _witness(rep.witness),
                "non_parallel": rep.pairwise_non_parallel,
                "profile": dict(nu.counts)}

    return Workload([names[k] for k in order], [cases[k] for k in order],
                    [calls[k] for k in order], plain, checks.check_family)


def build_extend(seed: int) -> Workload:
    rng = random.Random(seed)
    builds = _constructions(EXTEND_DELTA, EXTEND_RANK)
    names, cases, calls = [], [], []
    for a in builds:
        a_cols = a.matrix.columns()
        seen: set = set()
        for b in builds:
            if b is a:
                continue
            for c in b.matrix.columns():
                if c in seen or any(ref.parallel(c, x) for x in a_cols):
                    continue
                seen.add(c)
                cols = _shuffled(rng, a_cols)
                pos = rng.randrange(len(cols) + 1)
                cols.insert(pos, c)
                names.append(f"{a.describe} + {c}")
                cases.append({"delta": EXTEND_DELTA, "cols": cols, "added": pos})
                m = IntMatrix.from_cols(cols)
                calls.append(lambda m=m: modularity.is_delta_modular(m, EXTEND_DELTA))
    if len(cases) != EXTEND_ITEMS:
        raise RuntimeError(f"extend has {len(cases)} inputs, expected {EXTEND_ITEMS}")
    order = _shuffled(rng, range(len(cases)))

    def plain(res) -> dict:
        holds, w = res
        return {"holds": holds, "witness": None if w is None else _witness(w)}

    return Workload([names[k] for k in order], [cases[k] for k in order],
                    [calls[k] for k in order], plain, checks.check_extend)


def build_oracle(seed: int) -> Workload:
    rng = random.Random(seed)
    classes = ref.zero_sum_classes(ORACLE_MAX_ENTRY, ORACLE_VERTICES)
    if len(classes) != ORACLE_CLASSES:
        raise RuntimeError(f"{len(classes)} zero-sum classes, expected {ORACLE_CLASSES}")
    names, cases, calls = [], [], []
    for a in rng.sample(classes, ORACLE_ITEMS):
        col = _shuffled(rng, a + (0,) * (ORACLE_VERTICES - len(a)))
        m = extensions.embed_single(col)
        names.append(str(tuple(col)))
        cases.append({"cols": m.columns(), "column": tuple(col)})
        calls.append(lambda m=m: exact.max_abs_full_rank_subdet(m))

    def plain(res) -> dict:
        value, w = res
        return {"value": value, "witness": _witness(w)}

    return Workload(names, cases, calls, plain, checks.check_oracle)


def build_search(seed: int) -> Workload:
    rng = random.Random(seed)
    names, cases, calls = [], [], []
    for delta, r, mode, limit in _shuffled(rng, SEARCH_ITEMS):
        cfg = search.SearchConfig(delta, r, mode, **({"node_limit": limit} if limit else {}))
        names.append(f"({delta},{r}) {mode}" + (f" {limit} nodes" if limit else ""))
        cases.append({"delta": delta, "rank": r, "mode": mode, "node_limit": limit})
        calls.append(lambda cfg=cfg: search.max_columns_search(cfg))

    def plain(cert) -> dict:
        return {"count": cert.best_count, "optimal": cert.optimal,
                "nodes": cert.nodes_explored, "cols": cert.best_matrix.columns()}

    return Workload(names, cases, calls, plain, checks.check_search,
                    checks.check_search_pass, kernel="interpreter")


BUILDERS = {"families": build_families, "extend": build_extend,
            "oracle": build_oracle, "search": build_search}
