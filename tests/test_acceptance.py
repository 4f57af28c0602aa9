"""Acceptance battery: one test per criterion, each printing a pass line.

Criteria 01-10 run the named checks of ``deltamod verify-suite`` inside
their time budgets, so each published value is checked in one place
(``deltamod/verify.py``). A check raises ``CheckFailure`` on a wrong value,
and its returned detail must equal the expected string, so a sweep that
checked less than it should cannot pass. Every expected value is either
trivially forced, published, or was computed with the independent
brute-force oracles in this repository.
"""

import json
import time
from contextlib import contextmanager

from deltamod.cli import run as cli_run
from deltamod.verify import _FULL_CHECKS

CHECKS = dict(_FULL_CHECKS)


@contextmanager
def budget(name: str, seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget"
    print(f"PASS {name} ({elapsed:.2f}s)")


def run_checks(*expected: tuple[str, str]) -> None:
    """Run verify-suite checks by name; each must return its expected detail."""
    for name, detail in expected:
        assert CHECKS[name]() == detail, name


def test_criterion_01_sporadic_matrix():
    with budget("criterion-01 sporadic matrix", 1.0):
        run_checks(("sporadic-extremal-matrix",
                    "11 non-parallel columns at level 3, one above the family count"))


def test_criterion_02_extremal_families():
    with budget("criterion-02 extremal families", 300.0):
        run_checks(("partition-families-full", "55 partition-family matrices verified"),
                   ("ladder-families-full", "30 ladder-family matrices verified"))


def test_criterion_03_extension_formula_oracle():
    # Exhaustive over canonical zero-sum columns with entries in [-4, 4]:
    # every class at every rank up to 5, full-support classes at rank 6,
    # a fixed sample of padded classes at rank 6 (zero padding changes
    # neither side), plus 1000 randomized trials.
    with budget("criterion-03 formula vs oracle", 120.0):
        run_checks(("extension-formula-oracle",
                    "1263 formula evaluations match the brute-force oracle"))


def test_criterion_04_single_extension_catalog():
    with budget("criterion-04 single extensions", 1.0):
        run_checks(("single-extensions-bound3",
                    "7 canonical columns at bound 3; bounds 1 and 2 as expected"))


def test_criterion_05_pair_extension_catalog():
    with budget("criterion-05 pair extensions", 600.0):
        run_checks(("pair-extensions-bound3",
                    "8 canonical pairs, exact match with the published blocks"))


def test_criterion_06_triple_refutation():
    with budget("criterion-06 triple refutation", 600.0):
        run_checks(("triple-refutations-bound3",
                    "all 10 candidate triples refuted with |det| >= 4"))


def test_criterion_07_line_profile_consistency():
    with budget("criterion-07 line profiles", 120.0):
        run_checks(("line-profiles-full", "46 line profiles match the closed formula"))


def test_criterion_08_partition_recovery():
    with budget("criterion-08 partition recovery", 10.0):
        run_checks(("partition-recovery-full", "132 round trips recovered the partition"))


def test_criterion_09_distinguishing_reports():
    # (3,4):3 pins the three constructions at bound 3
    with budget("criterion-09 distinguishing reports", 60.0):
        run_checks(("distinguish-full",
                    "pairwise distinct profiles for (2,3):2 (3,4):3 (4,5):4 (5,6):6"))


def test_criterion_10_search_values():
    with budget("criterion-10 column number searches", 1800.0):
        run_checks(("search-unimodular",
                    "column numbers 3 and 6 at bound 1, both exhaustive"),
                   ("search-bimodular",
                    "column number 9 at bound 2, rank 3, exhaustive"),
                   ("search-greedy-sporadic",
                    "greedy extension of the sporadic matrix reaches 11"),
                   ("search-sporadic-optimal",
                    "column number 11 at bound 3, rank 3, over every class; "
                    "the sporadic matrix attains it"))


def test_criterion_11_verify_suite_determinism(capsys):
    with budget("criterion-11 verify-suite determinism", 120.0):
        outputs = []
        for argv in (["verify-suite", "--scope", "fast", "--json"],
                     ["--threads", "1", "verify-suite", "--scope", "fast", "--json"],
                     ["--threads", "4", "verify-suite", "--scope", "fast", "--json"]):
            code = cli_run(list(argv))
            out = capsys.readouterr().out
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        report = json.loads(outputs[0])
        assert report["allPassed"] is True
