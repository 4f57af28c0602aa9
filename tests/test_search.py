import random
import time
from itertools import combinations

import pytest

from deltamod.exact import is_parallel, primitive_part
from deltamod.families import build_A, build_A_lee, expected_count, sporadic_rank3
from deltamod.intmatrix import IntMatrix
from deltamod.modularity import is_delta_modular
from deltamod.search import (SearchConfig, column_universe, hermite_bases,
                             max_columns_search, verify_is_feasible, _canonical,
                             _Budget, _CLOCK_EVERY, _grid_candidates, _PairRows)


class TestUniverse:
    def test_rank2_unimodular(self):
        assert set(column_universe(1, 2, "identity-anchored")) == {
            (1, 0), (0, 1), (1, 1), (1, -1)}

    def test_rank2_bimodular_count(self):
        assert len(column_universe(2, 2, "identity-anchored")) == 8

    def test_columns_are_canonical(self):
        for col in column_universe(3, 3, "identity-anchored"):
            assert col == primitive_part(col)
            assert next(v for v in col if v) > 0

    def test_pairwise_non_parallel(self):
        cols = column_universe(2, 3, "identity-anchored")
        assert not any(is_parallel(a, b) for a, b in combinations(cols, 2))

    def test_contains_ladder_columns(self):
        for delta, r in [(2, 3), (3, 4)]:
            universe = set(column_universe(delta, r, "identity-anchored"))
            for col in build_A_lee(delta, r).matrix.columns():
                assert _canonical(col) in universe

    def test_sorted_by_entry_size_then_lex(self):
        cols = column_universe(2, 2, "identity-anchored")
        keys = [(max(abs(v) for v in c), c) for c in cols]
        assert keys == sorted(keys)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            column_universe(1, 2, "bogus")


class TestHermiteBases:
    def test_unimodular_only_identity(self):
        assert hermite_bases(1, 3) == [IntMatrix.identity(3)]

    def test_bimodular_rank3_count(self):
        assert len(hermite_bases(2, 3)) == 5

    def test_properties(self):
        for h in hermite_bases(3, 3):
            d = 1
            for k in range(3):
                assert h.entries[k][k] > 0
                d *= h.entries[k][k]
                for j in range(k):
                    assert h.entries[k][j] == 0
                for i in range(k):
                    assert 0 <= h.entries[i][k] < h.entries[k][k]
            assert d <= 3
            for j in range(3):
                assert primitive_part(h.column(j)) == h.column(j)


class TestSearchValues:
    def test_unimodular_rank2(self):
        cert = max_columns_search(SearchConfig(1, 2, "hnf-exhaustive"))
        assert cert.best_count == 3 and cert.optimal

    def test_unimodular_rank3(self):
        cert = max_columns_search(SearchConfig(1, 3, "hnf-exhaustive"))
        assert cert.best_count == 6 and cert.optimal

    def test_beats_general_lower_bound(self):
        cert = max_columns_search(SearchConfig(2, 3, "identity-anchored"))
        assert cert.best_count >= expected_count(2, 3)

    def test_identity_matches_naive_subset_search(self):
        # exhaust every subset of the rank-2 universes directly
        for delta in (1, 2, 3):
            seed = [(1, 0), (0, 1)]
            cands = [c for c in column_universe(delta, 2, "identity-anchored")
                     if not any(is_parallel(c, s) for s in seed)]
            best = 2
            for k in range(1, len(cands) + 1):
                for pick in combinations(cands, k):
                    m = IntMatrix.from_cols([list(c) for c in seed + list(pick)])
                    if is_delta_modular(m, delta)[0]:
                        best = max(best, 2 + k)
            cert = max_columns_search(SearchConfig(delta, 2, "identity-anchored"))
            assert cert.best_count == best

    def test_greedy_seeded_sporadic(self):
        cert = max_columns_search(SearchConfig(
            3, 3, "greedy-seeded", seed_matrix=sporadic_rank3()))
        assert cert.best_count >= 11
        assert not cert.optimal

    def test_greedy_requires_seed(self):
        with pytest.raises(ValueError):
            max_columns_search(SearchConfig(3, 3, "greedy-seeded"))

    def test_greedy_rejects_infeasible_seed(self):
        bad = IntMatrix.from_cols([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            max_columns_search(SearchConfig(3, 3, "greedy-seeded", seed_matrix=bad))


class TestCertificates:
    def test_certificate_is_reverifiable(self):
        cert = max_columns_search(SearchConfig(2, 3, "identity-anchored"))
        assert verify_is_feasible(cert.best_matrix, 2)
        assert cert.best_matrix.cols == cert.best_count
        assert cert.best_count <= cert.ceiling_used

    def test_deterministic(self):
        a = max_columns_search(SearchConfig(2, 3, "identity-anchored"))
        b = max_columns_search(SearchConfig(2, 3, "identity-anchored"))
        assert a == b

    def test_unimodular_hnf_reduces_to_identity_mode(self):
        # only the identity basis exists at bound 1
        assert hermite_bases(1, 3) == [IntMatrix.identity(3)]
        full = max_columns_search(SearchConfig(1, 3, "hnf-exhaustive"))
        ident = max_columns_search(SearchConfig(1, 3, "identity-anchored"))
        assert full.best_count == ident.best_count
        assert full.best_matrix == ident.best_matrix

    def test_node_limit_downgrades_optimality(self):
        cert = max_columns_search(SearchConfig(2, 3, "identity-anchored",
                                               node_limit=5))
        assert not cert.optimal
        assert verify_is_feasible(cert.best_matrix, 2)

    def test_time_limit_downgrades_optimality(self):
        cert = max_columns_search(SearchConfig(2, 4, "identity-anchored",
                                               time_limit_seconds=0.01))
        assert not cert.optimal
        assert verify_is_feasible(cert.best_matrix, 2)

    def test_budget_counts_nodes_exactly_and_reads_clock_in_blocks(self):
        by_nodes = _Budget(node_limit=5, time_limit=600.0)
        assert [by_nodes.tick() for _ in range(6)] == [True] * 5 + [False]
        by_time = _Budget(node_limit=10 ** 8, time_limit=1e-9)
        time.sleep(0.001)
        assert all(by_time.tick() for _ in range(_CLOCK_EVERY - 1))
        assert not by_time.tick()
        assert by_time.nodes == _CLOCK_EVERY and by_time.exceeded

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(0, 3, "identity-anchored")
        with pytest.raises(ValueError):
            SearchConfig(1, 3, "bogus")
        with pytest.raises(ValueError):
            SearchConfig(1, 3, "identity-anchored", node_limit=0)


class TestVerifyFeasible:
    def test_family_matrices(self):
        assert verify_is_feasible(build_A(3, (2,), 5).matrix, 3)

    def test_duplicate_column_rejected(self):
        sp = sporadic_rank3()
        doubled = IntMatrix.from_cols(
            [list(c) for c in sp.columns()] + [list(sp.column(0))])
        assert not verify_is_feasible(doubled, 3)

    def test_entry_too_large_rejected(self):
        m = IntMatrix.from_cols([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 2, 2]])
        assert not verify_is_feasible(m, 1)

    def test_rank_deficient_rejected(self):
        m = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
        assert not verify_is_feasible(m, 3)


def _pair_feasible(h: IntMatrix, a, b, delta: int) -> bool:
    return is_delta_modular(IntMatrix.from_cols(
        [list(c) for c in h.columns()] + [list(a), list(b)]), delta)[0]


class TestPairFilter:
    """Bit j of row i is set iff the basis plus candidates i and j is
    delta-modular, checked against the full modularity decision."""

    def _check(self, h: IntMatrix, delta: int, pairs=None, cands=None) -> _PairRows:
        if cands is None:
            cands = _grid_candidates(h, delta)
        rows = _PairRows(h.columns(), cands, delta)
        if pairs is None:
            pairs = combinations(range(len(cands)), 2)
        for i, j in pairs:
            got = bool(rows[i] >> j & 1)
            assert got == _pair_feasible(h, cands[i], cands[j], delta), (i, j)
        for i in range(len(cands)):
            assert rows[i] >> (i + 1) << (i + 1) == rows[i]  # only j > i
        return rows

    def test_every_pair_every_basis_bimodular_rank3(self):
        bases = hermite_bases(2, 3)
        assert IntMatrix.identity(3) in bases
        for h in bases:
            self._check(h, 2)

    @pytest.mark.parametrize("delta, r", [(3, 3), (2, 4)])
    def test_sampled_pairs_identity_basis(self, delta, r):
        rng = random.Random(1000 * delta + r)
        n = len(_grid_candidates(IntMatrix.identity(r), delta))
        pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(300)]
        self._check(IntMatrix.identity(r), delta, pairs)

    def test_exact_rows_for_entries_beyond_int64(self):
        # entries too large for the int64 guard take the Python-int path
        rng = random.Random(77)
        cands = [tuple(rng.randint(-2 ** 40, 2 ** 40) for _ in range(3))
                 for _ in range(12)]
        rows = self._check(IntMatrix.identity(3), 2 ** 80, cands=cands)
        assert rows.forms.dtype == object

    def test_identity_candidates_match_identity_mode(self):
        r, delta = 3, 2
        seed = [tuple(int(i == k) for i in range(r)) for k in range(r)]
        mode_cands = [c for c in column_universe(delta, r, "identity-anchored")
                      if not any(is_parallel(c, s) for s in seed)]
        assert mode_cands == _grid_candidates(IntMatrix.identity(r), delta)


# Outputs of the benchmark's four search configurations; the pair filter
# and the budget must leave every node, count and certificate unchanged.
PINNED_SEARCHES = [
    (SearchConfig(2, 3, "identity-anchored"), 9, True, 43087,
     [[1, 0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 1, -1, -1, -1, -2],
      [0, 0, 1, -1, 1, -1, 0, 1, 0]]),
    (SearchConfig(2, 3, "hnf-exhaustive"), 9, True, 44822,
     [[1, 0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 1, -1, -1, -1, -2],
      [0, 0, 1, -1, 1, -1, 0, 1, 0]]),
    (SearchConfig(2, 4, "identity-anchored", node_limit=20000), 13, False, 20001,
     [[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
      [0, 1, 0, 0, 0, 0, 1, 1, 1, -1, -1, -1, -1],
      [0, 0, 1, 0, 1, 1, -1, -1, -1, 0, 1, 1, 1],
      [0, 0, 0, 1, -1, 1, -1, 0, 1, 0, -1, 0, 1]]),
    (SearchConfig(3, 3, "identity-anchored", node_limit=30000), 11, False, 30001,
     [[1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1], [0, 1, 0, 1, 1, -1, -1, -1, 1, -2, -1],
      [0, 0, 1, -1, 1, -1, 0, 1, -2, 1, 2]]),
    (SearchConfig(1, 3, "identity-anchored"), 6, True, 124,
     [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, -1, -1], [0, 0, 1, -1, 0, 1]]),
    (SearchConfig(2, 2, "identity-anchored"), 4, True, 24,
     [[1, 0, 1, 1], [0, 1, -1, 1]]),
    (SearchConfig(3, 2, "identity-anchored"), 6, True, 312,
     [[1, 0, 1, 1, 1, 2], [0, 1, -1, 1, -2, -1]]),
    (SearchConfig(4, 2, "identity-anchored"), 6, True, 1513,
     [[1, 0, 1, 1, 1, 1], [0, 1, -1, 1, -2, 2]]),
]


@pytest.mark.parametrize("config, count, optimal, nodes, entries", PINNED_SEARCHES,
                         ids=["2-3-identity", "2-3-hnf", "2-4-identity-20k",
                              "3-3-identity-30k", "1-3-identity", "2-2-identity",
                              "3-2-identity", "4-2-identity"])
def test_pinned_search_outputs(config, count, optimal, nodes, entries):
    cert = max_columns_search(config)
    assert (cert.best_count, cert.optimal, cert.nodes_explored) == (count, optimal, nodes)
    assert cert.best_matrix == IntMatrix.from_rows(entries)
