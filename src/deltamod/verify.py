"""Named verification battery behind ``deltamod verify-suite``.

Each check re-derives a published value or a structural property from
scratch and compares it against this library's output. The fast scope
finishes in well under a minute; the full scope adds the exhaustive
enumerations and searches and stays within desk-scale budgets. The
acceptance battery (``tests/test_acceptance.py``) runs the full-scope
checks by name and pins the detail each returns, so every published value
is checked here and only here.

A check fails by raising ``CheckFailure``, never by ``assert``, so the
battery works the same under ``python -O``. Any other exception a check
raises is recorded as a failure with its type, not passed up as a crash.

Timing appears in the human-readable report only; the JSON form excludes
it so output is byte-identical across runs.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from .exact import max_abs_full_rank_subdet, rank
from .extensions import (canonical_column, canonical_rows,
                         clique_extension_max_subdet, corner_det, embed_single,
                         enumerate_pair_extensions, enumerate_single_extensions,
                         refute_triple_extensions, zero_sum_classes)
from .families import (_base_columns, build_A, build_A_lee, expected_count,
                       partition_count, partitions, sporadic_rank3)
from .intmatrix import IntMatrix
from .lines import (distinguishing_report, line_length_multiset, nu_formula,
                    recover_partition)
from .modularity import (append_zero_sum_row, drop_last_row, is_delta_modular,
                         modularity_level)
from .search import SearchConfig, max_columns_search, verify_is_feasible

# Published admissible single extension columns for bound 3 and admissible
# pair blocks (each column implicitly carries a 1 in its own dedicated row).
KNOWN_SINGLE_COLUMNS_3 = (
    (-3, 2, 1), (-2, 1, 1), (-3, 1, 1, 1), (-2, 2, -1, 1), (-1, -1, 1, 1),
    (-2, -1, 1, 1, 1), (-1, -1, -1, 1, 1, 1),
)
KNOWN_PAIR_BLOCKS_3 = (
    ((-3, -2), (2, 1)),
    ((-2, 1), (1, -2)),
    ((-2, 1), (1, -1), (0, -1)),
    ((-2, -1), (1, 1), (0, -1)),
    ((-2, -1), (2, 1), (-1, -1)),
    ((-1, -1), (-1, 1), (1, -1)),
    ((-1, -1), (1, 1), (-1, 0), (0, -1)),
    ((-1, 1), (1, -1), (-1, 0), (0, -1)),
)


class CheckFailure(Exception):
    """A check re-derived a value that disagrees with the library's."""


def _require(holds: bool, detail: str) -> None:
    if not holds:
        raise CheckFailure(detail)


@dataclass(frozen=True)
class VerifySuiteReport:
    checks: tuple[tuple[str, str, int, str], ...]  # name, status, ms, detail
    all_passed: bool

    def to_json_dict(self) -> dict:
        return {"checks": [{"name": n, "status": s, "detail": d}
                           for n, s, _, d in self.checks],
                "allPassed": self.all_passed}


def _check_sporadic() -> str:
    m = sporadic_rank3()
    report = modularity_level(m)
    _require(m.cols == 11 and report.delta == 3 and report.pairwise_non_parallel,
             f"{m.cols} columns at level {report.delta}, "
             f"pairwise non-parallel {report.pairwise_non_parallel}")
    _require(rank(m) == 3, f"rank {rank(m)}, expected 3")
    _require(m.cols > expected_count(3, 3) == 10,
             f"family count {expected_count(3, 3)}, expected 10")
    return "11 non-parallel columns at level 3, one above the family count"


def _check_single_extensions() -> str:
    got = {c.reduced for c in enumerate_single_extensions(3)}
    want = {canonical_column(v).reduced for v in KNOWN_SINGLE_COLUMNS_3}
    _require(got == want and len(got) == 7,
             f"bound 3: got {sorted(got)}, published {sorted(want)}")
    _require(enumerate_single_extensions(1) == [], "bound 1 admits a column")
    got2 = {c.reduced for c in enumerate_single_extensions(2)}
    _require(got2 == {(2, -1, -1), (1, 1, -1, -1)}, f"bound 2: got {sorted(got2)}")
    return "7 canonical columns at bound 3; bounds 1 and 2 as expected"


def _check_corner_pattern() -> str:
    for args, want in (((-1, 1, -1, 1, 1), 4), ((-1, -1, -1, -1, -1), 4),
                       ((0, 0, 0, 0, 0), 0)):
        got = corner_det(*args)
        _require(got == want, f"corner_det{args} = {got}, expected {want}")
    for a in range(-2, 3):
        for b in range(-2, 3):
            for e in range(-2, 3):
                corner_det(a, b, -1, 1, e)  # raises on any disagreement
    return "closed form matches the determinant on the sampled range"


def _check_zero_sum_roundtrip() -> str:
    rng = random.Random(20240)
    for _ in range(100):
        r = rng.randint(2, 4)
        cols = _base_columns(r)[0]
        for _ in range(rng.randint(1, 4)):
            cols.append([rng.randint(-2, 2) for _ in range(r)])
        m = IntMatrix.from_cols(cols)
        z = append_zero_sum_row(m)
        _require(drop_last_row(z) == m, "dropping the zero-sum row changed the matrix")
        for delta in (1, 2, 3, 4):
            _require(is_delta_modular(m, delta)[0] == is_delta_modular(z, delta)[0],
                     f"decisions at {delta} differ on {m.entries}")
    return "100 random instances agree before and after the zero-sum row"


def _check_family(fam, delta: int, r: int) -> None:
    rep = modularity_level(fam.matrix)
    _require(rep.delta <= delta and rep.pairwise_non_parallel,
             f"{fam.describe}: level {rep.delta}, pairwise non-parallel "
             f"{rep.pairwise_non_parallel}")
    _require(fam.matrix.cols == expected_count(delta, r),
             f"{fam.describe}: {fam.matrix.cols} columns, "
             f"expected {expected_count(delta, r)}")


def _family_sweep(max_delta: int, max_rank: int) -> str:
    n = 0
    for delta in range(2, max_delta + 1):
        for lam in partitions(delta - 1):
            for r in range(lam.m + 1, max_rank + 1):
                fam = build_A(delta, lam, r)
                _check_family(fam, delta, r)
                n += 1
    return f"{n} partition-family matrices verified"


def _lee_sweep(max_delta: int, max_rank: int) -> str:
    n = 0
    for delta in range(1, max_delta + 1):
        for r in range(2, max_rank + 1):
            fam = build_A_lee(delta, r)
            _check_family(fam, delta, r)
            n += 1
    return f"{n} ladder-family matrices verified"


def _profile_sweep(max_delta: int, max_rank: int) -> str:
    n = 0
    for delta in range(2, max_delta + 1):
        for lam in partitions(delta - 1):
            for r in range(max(lam.m + 1, delta + 1), max_rank + 1):
                fam = build_A(delta, lam, r)
                measured = line_length_multiset(fam.matrix, 0)
                want = nu_formula(delta, lam, r)
                _require(measured == want, f"{fam.describe}: measured {measured}, "
                         f"formula {want}")
                n += 1
        for r in range(delta + 1, max_rank + 1):
            lee = build_A_lee(delta, r)
            measured = line_length_multiset(lee.matrix, 0)
            _require(measured.counts == ((delta + 2, r - 1),),
                     f"{lee.describe}: measured {measured}")
            n += 1
    return f"{n} line profiles match the closed formula"


def _recovery_sweep(max_delta: int) -> str:
    n = 0
    for delta in range(2, max_delta + 1):
        for lam in partitions(delta - 1):
            for r in range(delta + 1, delta + 4):
                got = recover_partition(nu_formula(delta, lam, r), delta, r)
                _require(got == lam, f"({delta},{r}): recovered {got} from {lam}")
                n += 1
    return f"{n} round trips recovered the partition"


def _distinguish_sweep(pairs) -> str:
    details = []
    for delta, r in pairs:
        certs = distinguishing_report(delta, r)
        k = partition_count(delta - 1) + 1
        _require(len(certs) == k * (k - 1) // 2,
                 f"({delta},{r}): {len(certs)} reports for {k} constructions")
        same = [(c.left_id, c.right_id) for c in certs if not c.distinct]
        _require(not same, f"({delta},{r}): equal profiles {same}")
        details.append(f"({delta},{r}):{k}")
    return "pairwise distinct profiles for " + " ".join(details)


def _check_pair_extensions() -> str:
    got = {p.rows for p in enumerate_pair_extensions(3)}
    want = {canonical_rows(*zip(*b)) for b in KNOWN_PAIR_BLOCKS_3}
    _require(got == want and len(got) == 8,
             f"got {sorted(got)}, published {sorted(want)}")
    return "8 canonical pairs, exact match with the published blocks"


def _check_triple_refutations() -> str:
    refs = refute_triple_extensions(3)
    _require(bool(refs), "candidate triples must exist")
    for t in refs:
        _require(t.witness is not None and abs(t.witness.det_value) >= 4,
                 f"triple {t.matrix.entries} not refuted")
        _require(t.witness.check(t.matrix), f"witness {t.witness} does not re-check")
    return f"all {len(refs)} candidate triples refuted with |det| >= 4"


def _check_formula(col, r: int, value: int) -> None:
    want = clique_extension_max_subdet(col, r)
    _require(value == want, f"column {tuple(col)} at rank {r}: brute force "
             f"{value}, formula {want}")


def _check_extension_oracle() -> str:
    # entries in [-4, 4], support at most 7: one side has at most 3 entries,
    # so the positive entries sum to at most 12
    classes = zero_sum_classes(12, 4, 7)
    checked = 0
    # exhaustive at every rank up to 5, for every class that fits
    for a in classes:
        for r in range(max(1, len(a) - 1), 6):
            col = a + (0,) * (r + 1 - len(a))
            value, _ = max_abs_full_rank_subdet(embed_single(col))
            _check_formula(col, r, value)
            checked += 1
    # rank 6 embeddings: all full-support classes, sampled padded classes
    rng = random.Random(60)
    seven = [a for a in classes if len(a) == 7]
    padded = rng.sample([a for a in classes if len(a) < 7], 24)
    for a in seven + padded:
        col = a + (0,) * (7 - len(a))
        value, _ = max_abs_full_rank_subdet(embed_single(col))
        _check_formula(col, 6, value)
        checked += 1
    # randomized trials
    for _ in range(1000):
        r = rng.randint(1, 5)
        while True:
            col = [rng.randint(-4, 4) for _ in range(r + 1)]
            col[-1] -= sum(col)
            if any(col) and max(abs(v) for v in col) <= 4:
                break
        value, _ = max_abs_full_rank_subdet(embed_single(col))
        _check_formula(col, r, value)
        checked += 1
    return f"{checked} formula evaluations match the brute-force oracle"


def _check_search(cert, want: int) -> None:
    _require((cert.best_count, cert.optimal) == (want, True),
             f"best {cert.best_count}, optimal {cert.optimal}; expected {want}, optimal")


def _check_search_unimodular() -> str:
    c2 = max_columns_search(SearchConfig(1, 2, "hnf-exhaustive"))
    c3 = max_columns_search(SearchConfig(1, 3, "hnf-exhaustive"))
    _check_search(c2, 3)
    _check_search(c3, 6)
    return "column numbers 3 and 6 at bound 1, both exhaustive"


def _check_search_bimodular() -> str:
    ident = max_columns_search(SearchConfig(2, 3, "identity-anchored",
                                            time_limit_seconds=1700))
    full = max_columns_search(SearchConfig(2, 3, "hnf-exhaustive",
                                           time_limit_seconds=1700))
    _check_search(ident, 9)
    _check_search(full, 9)
    return "column number 9 at bound 2, rank 3, exhaustive"


def _check_search_sporadic_optimal() -> str:
    cert = max_columns_search(SearchConfig(3, 3, "hnf-exhaustive",
                                           time_limit_seconds=1700))
    _check_search(cert, 11)
    m = sporadic_rank3()
    feasible = verify_is_feasible(m, 3)
    _require(m.cols == 11 and feasible,
             f"the sporadic matrix has {m.cols} columns, feasible at bound 3: {feasible}")
    return "column number 11 at bound 3, rank 3, over every class; the sporadic matrix attains it"


def _check_search_greedy() -> str:
    cert = max_columns_search(SearchConfig(3, 3, "greedy-seeded",
                                           seed_matrix=sporadic_rank3()))
    _require(cert.best_count >= 11 and not cert.optimal,
             f"best {cert.best_count}, optimal {cert.optimal}")
    return f"greedy extension of the sporadic matrix reaches {cert.best_count}"


_FAST_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("sporadic-extremal-matrix", _check_sporadic),
    ("single-extensions-bound3", _check_single_extensions),
    ("corner-pattern-identity", _check_corner_pattern),
    ("zero-sum-row-equivalence", _check_zero_sum_roundtrip),
    ("partition-families-small", lambda: _family_sweep(3, 6)),
    ("ladder-families-small", lambda: _lee_sweep(3, 6)),
    ("line-profiles-small", lambda: _profile_sweep(3, 5)),
    ("partition-recovery", lambda: _recovery_sweep(6)),
    ("distinguish-small", lambda: _distinguish_sweep([(2, 3), (3, 4)])),
    ("search-unimodular", _check_search_unimodular),
)

_FULL_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = _FAST_CHECKS + (
    ("partition-families-full", lambda: _family_sweep(5, 7)),
    ("ladder-families-full", lambda: _lee_sweep(5, 7)),
    ("extension-formula-oracle", _check_extension_oracle),
    ("pair-extensions-bound3", _check_pair_extensions),
    ("triple-refutations-bound3", _check_triple_refutations),
    ("line-profiles-full", lambda: _profile_sweep(5, 7)),
    ("partition-recovery-full", lambda: _recovery_sweep(8)),
    ("distinguish-full", lambda: _distinguish_sweep([(2, 3), (3, 4), (4, 5), (5, 6)])),
    ("search-bimodular", _check_search_bimodular),
    ("search-greedy-sporadic", _check_search_greedy),
    ("search-sporadic-optimal", _check_search_sporadic_optimal),
)


def run_verify_suite(scope: str = "fast") -> VerifySuiteReport:
    if scope not in ("fast", "full"):
        raise ValueError("scope must be 'fast' or 'full'")
    checks = _FAST_CHECKS if scope == "fast" else _FULL_CHECKS
    rows = []
    ok = True
    for name, fn in checks:
        t0 = time.monotonic()
        try:
            detail = fn()
            status = "pass"
        except CheckFailure as exc:
            detail = str(exc)
            status = "FAIL"
        except Exception as exc:  # a crashing check is a failed check
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = (f"{type(exc).__name__}: {exc} "
                      f"({os.path.basename(where.filename)}:{where.lineno})")
            status = "FAIL"
        ok = ok and status == "pass"
        elapsed = int((time.monotonic() - t0) * 1000)
        rows.append((name, status, elapsed, detail))
    return VerifySuiteReport(tuple(rows), ok)
