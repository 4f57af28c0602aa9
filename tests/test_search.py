import random
import time
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from deltamod import search
from deltamod.exact import (_pivot_cols, det, hermite_triangularize, is_parallel,
                            primitive_part, rank)
from deltamod.families import (build_A, build_A_lee, expected_count, partitions,
                               sporadic_rank3)
from deltamod.intmatrix import IntMatrix, ShapeError
from deltamod.modularity import is_delta_modular
from deltamod.search import (SearchConfig, column_universe, hermite_bases,
                             max_columns_search, verify_is_feasible, _canonical,
                             _basis_coords, _Budget, _CLOCK_EVERY, _coords,
                             _GeneralChecker, _grid_candidates, _PairRows)


def _grid_by_loop(h: IntMatrix, delta: int) -> list[tuple[int, ...]]:
    """Every y in [-delta, delta]^r in Python ints: the canonical columns
    H y / det H, deduplicated, without H's own, in search order."""
    r = h.rows
    d = prod(h.entries[k][k] for k in range(r))
    cols = set()
    for y in product(range(-delta, delta + 1), repeat=r):
        v = [sum(h.entries[i][j] * y[j] for j in range(r)) for i in range(r)]
        if any(y) and not any(x % d for x in v):
            cols.add(_canonical([x // d for x in v]))
    cols = {c for c in cols if not any(is_parallel(c, s) for s in h.columns())}
    return sorted(cols, key=lambda c: (max(abs(v) for v in c), c))


class TestUniverse:
    def test_rank2_unimodular(self):
        assert set(column_universe(1, 2)) == {
            (1, 0), (0, 1), (1, 1), (1, -1)}

    def test_rank2_bimodular_count(self):
        assert len(column_universe(2, 2)) == 8

    def test_columns_are_canonical(self):
        for col in column_universe(3, 3):
            assert col == primitive_part(col)
            assert next(v for v in col if v) > 0

    def test_pairwise_non_parallel(self):
        cols = column_universe(2, 3)
        assert not any(is_parallel(a, b) for a, b in combinations(cols, 2))

    def test_contains_ladder_columns(self):
        for delta, r in [(2, 3), (3, 4)]:
            universe = set(column_universe(delta, r))
            for col in build_A_lee(delta, r).matrix.columns():
                assert _canonical(col) in universe

    def test_sorted_by_entry_size_then_lex(self):
        cols = column_universe(2, 2)
        keys = [(max(abs(v) for v in c), c) for c in cols]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("delta, r", [(1, 3), (2, 3), (3, 3), (5, 2), (2, 4), (1, 5)])
    def test_grid_matches_loop_reference(self, delta, r):
        for h in hermite_bases(delta, r):
            cs, ys = _grid_candidates(h, delta)
            assert cs.dtype == ys.dtype == np.int64 and cs.shape == ys.shape
            assert list(map(tuple, cs.tolist())) == _grid_by_loop(h, delta)
            hm = np.array(h.entries, dtype=np.int64)
            assert (ys @ hm.T == det(h) * cs).all()
            adj = _basis_coords(h.columns())[0]
            assert [_coords(adj, c) for c in cs.tolist()] == list(map(tuple, ys.tolist()))


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

    def test_every_class_is_covered(self):
        # a basis with primitive columns and 0 < |det| <= delta is
        # unimodularly equivalent to a Hermite basis: what makes
        # hnf-exhaustive exact
        rng = random.Random(7)
        hermite = {}
        checked = 0
        while checked < 300:
            r = rng.randint(2, 4)
            b = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(r)]
                                     for _ in range(r)])
            d = abs(det(b))
            if not 0 < d <= 5 or any(primitive_part(c) != c for c in b.columns()):
                continue
            delta = rng.randint(d, 5)
            if (delta, r) not in hermite:
                hermite[delta, r] = {h.entries for h in hermite_bases(delta, r)}
            assert hermite_triangularize(b, range(r))[0].entries in hermite[delta, r]
            checked += 1

    @pytest.mark.parametrize("delta, r", [(1, 3), (2, 3), (3, 2), (4, 3), (5, 2)])
    def test_search_takes_the_bases_in_order_unit_basis_first(self, delta, r):
        bases = hermite_bases(delta, r)
        assert bases[0] == IntMatrix.identity(r)
        assert list(search._seed_bases(delta, r, "hnf-exhaustive")) == bases


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
            cands = [c for c in column_universe(delta, 2)
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


def _greedy_from_scratch(seed: IntMatrix, delta: int) -> IntMatrix:
    """Greedy extension that rechecks the whole matrix for every column."""
    cols = [list(c) for c in seed.columns()]
    for c in column_universe(delta, seed.rows):
        if any(is_parallel(c, s) for s in cols):
            continue
        if is_delta_modular(IntMatrix.from_cols(cols + [list(c)]), delta)[0]:
            cols.append(list(c))
    return IntMatrix.from_cols(cols)


class TestGreedy:
    """Greedy extends in basis coordinates of the seed's pivot columns; it
    must equal the from-scratch loop, also when the seed has no unit basis."""

    @staticmethod
    def _seeds():
        rng = random.Random(9090)
        for delta, r in [(2, 3), (3, 3), (2, 4)]:
            family = [build_A(delta, p, r).matrix for p in partitions(delta - 1)
                      if len(p.parts) < r] + [build_A_lee(delta, r).matrix]
            if (delta, r) == (3, 3):
                family.append(sporadic_rank3())
            for m in family:
                yield delta, m
                cols = m.columns()
                # random subsets in random order; all columns, and those after
                # the unit basis, in reverse
                picks = [rng.sample(range(len(cols)), rng.randint(r, len(cols) - 1))
                         for _ in range(2)]
                picks += [range(len(cols) - 1, -1, -1), range(len(cols) - 1, r - 1, -1)]
                for pick in picks:
                    sub = IntMatrix.from_cols([list(cols[k]) for k in pick])
                    if rank(sub) == r:
                        yield delta, sub

    def test_matches_from_scratch_greedy(self):
        seeds = list(self._seeds())
        dets = [abs(det(m.submatrix(range(m.rows), _pivot_cols(m)))) for _, m in seeds]
        assert sum(d > 1 for d in dets) >= 5
        for delta, seed in seeds:
            cert = max_columns_search(SearchConfig(delta, seed.rows, "greedy-seeded",
                                                   seed_matrix=seed))
            assert cert.best_matrix == _greedy_from_scratch(seed, delta)
            assert not cert.optimal and cert.stats["checkers"] == {}

    def test_rejected_seed_column_raises(self, monkeypatch):
        monkeypatch.setattr(_GeneralChecker, "try_add", lambda self, col: False)
        with pytest.raises(RuntimeError):
            max_columns_search(SearchConfig(3, 3, "greedy-seeded",
                                            seed_matrix=sporadic_rank3()))

    def test_seed_rows_must_equal_rank(self):
        with pytest.raises(ShapeError):
            max_columns_search(SearchConfig(3, 4, "greedy-seeded",
                                            seed_matrix=sporadic_rank3()))


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
        assert not cert.optimal and cert.stats["stop"] == "time-limit"
        # the search stops at the clock reading that saw the deadline pass
        assert cert.nodes_explored % _CLOCK_EVERY == 0
        assert verify_is_feasible(cert.best_matrix, 2)

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_time_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError, match="limits must be positive"):
            SearchConfig(2, 3, "identity-anchored", time_limit_seconds=limit)

    def test_budget_counts_nodes_exactly_and_reads_clock_in_blocks(self):
        by_nodes = _Budget(node_limit=5, time_limit=600.0)
        assert [by_nodes.charge(1) for _ in range(6)] == [True] * 5 + [False]
        by_time = _Budget(node_limit=10 ** 8, time_limit=1e-9)
        time.sleep(0.001)
        assert all(by_time.charge(1) for _ in range(_CLOCK_EVERY - 1))
        assert not by_time.charge(1)
        assert by_time.nodes == _CLOCK_EVERY and by_time.exceeded

    def test_charge_straddling_the_node_limit_stops_one_past_it(self):
        budget = _Budget(node_limit=10, time_limit=600.0)
        assert budget.charge(7)
        assert not budget.charge(7)
        assert budget.nodes == 11 and budget.stop_reason() == "node-limit"

    def test_charge_past_the_deadline_stops_at_the_clock_multiple(self):
        budget = _Budget(node_limit=10 ** 8, time_limit=1e-9)
        time.sleep(0.001)
        assert budget.charge(_CLOCK_EVERY - 3)
        assert not budget.charge(3 * _CLOCK_EVERY)
        assert budget.nodes == _CLOCK_EVERY and budget.stop_reason() == "time-limit"
        # the multiple comes before the node limit that the same block crosses
        both = _Budget(node_limit=_CLOCK_EVERY + 5, time_limit=1e-9)
        time.sleep(0.001)
        assert not both.charge(3 * _CLOCK_EVERY)
        assert both.nodes == _CLOCK_EVERY and both.stop_reason() == "time-limit"

    def test_charge_before_the_deadline_counts_the_whole_block(self):
        budget = _Budget(node_limit=10 ** 8, time_limit=600.0)
        assert budget.charge(5 * _CLOCK_EVERY + 7)
        assert budget.nodes == 5 * _CLOCK_EVERY + 7 and budget.stop_reason() == "exhausted"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(0, 3, "identity-anchored")
        with pytest.raises(ValueError):
            SearchConfig(1, 3, "bogus")
        with pytest.raises(ValueError):
            SearchConfig(1, 3, "identity-anchored", node_limit=0)

    @pytest.mark.parametrize("mode", ["identity-anchored", "hnf-exhaustive"])
    def test_seed_matrix_outside_greedy_is_refused(self, mode):
        with pytest.raises(ValueError, match="greedy-seeded"):
            SearchConfig(3, 3, mode, seed_matrix=sporadic_rank3())

    def test_grid_too_large_to_build_is_refused(self):
        with pytest.raises(ValueError, match=r"\[-2, 2\]\^13 needs 236.5 GiB"):
            max_columns_search(SearchConfig(2, 13, "identity-anchored"))

    def test_grid_and_image_over_the_limit_are_refused(self):
        # the (2, 10) grid alone is 781 MB, under the limit; with its image
        # it is 1.5 GB
        with pytest.raises(ValueError, match=r"\[-2, 2\]\^10 needs 1.5 GiB"):
            max_columns_search(SearchConfig(2, 10, "identity-anchored"))

    def test_oversize_hnf_grid_is_refused_before_the_bases(self, monkeypatch):
        # (2, 16) has 65,520 Hermite bases; every one has the same grid size
        def enumerate_bases(delta, r):
            raise AssertionError("the Hermite bases were enumerated")

        monkeypatch.setattr(search, "hermite_bases", enumerate_bases)
        with pytest.raises(ValueError, match=r"\[-2, 2\]\^16 needs"):
            max_columns_search(SearchConfig(2, 16, "hnf-exhaustive"))

    def test_grid_refusal_is_at_the_scan_byte_limit(self, monkeypatch):
        # the (2, 3) grid is 125 vectors of 3 int64 entries, 3000 bytes, and
        # its image as many again
        monkeypatch.setattr(search, "MAX_SCAN_BYTES", 6000)
        assert len(_grid_candidates(IntMatrix.identity(3), 2)[0]) == 46
        monkeypatch.setattr(search, "MAX_SCAN_BYTES", 5999)
        with pytest.raises(ValueError, match="over the"):
            _grid_candidates(IntMatrix.identity(3), 2)


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


class TestBasisCoordinates:
    """Over a basis B with d = |det B| > 1 the checker holds each k x k minor
    of the basis coordinates to delta * d**(k-1); every decision of a
    seeded add/pop walk must equal a full recheck of [B | accepted | c]."""

    @staticmethod
    def _column(rng, b: IntMatrix, delta: int):
        """B y / det B for an integral choice of y: a grid vector, an edge
        e_i - e_j, or (as c itself) a small random column."""
        r, big = b.rows, det(b)
        kind = rng.random()
        if kind < 0.2:
            return tuple(rng.randint(-2, 2) for _ in range(r))
        if kind < 0.5:
            i, j = rng.sample(range(r), 2)
            y = [int(k == i) - int(k == j) for k in range(r)]
        else:
            y = [rng.randint(-delta, delta) for _ in range(r)]
        v = [sum(b.entries[i][j] * y[j] for j in range(r)) for i in range(r)]
        if any(x % big for x in v):
            return None
        return tuple(x // big for x in v)

    def _walk(self, rng, b: IntMatrix, delta: int, steps: int) -> int:
        checker = _GeneralChecker(b.columns(), delta)
        basis = [list(c) for c in b.columns()]
        accepted: list[list[int]] = []
        edges = 0
        for _ in range(steps):
            if accepted and rng.random() < 0.25:
                checker.pop()
                accepted.pop()
                continue
            c = self._column(rng, b, delta)
            if c is None or not any(c):
                continue
            want = is_delta_modular(
                IntMatrix.from_cols(basis + accepted + [list(c)]), delta)[0]
            bits = sum(a.bit_count() for a in checker.adj)
            assert checker.try_add(c) == want, (b, accepted, c)
            if want:
                accepted.append(list(c))
                edges += sum(a.bit_count() for a in checker.adj) > bits
        return edges

    def test_every_hermite_basis(self):
        rng = random.Random(4242)
        edges = 0
        for delta, r in [(2, 3), (3, 3), (2, 4)]:
            for h in hermite_bases(delta, r):
                for _ in range(4):
                    walk_edges = self._walk(rng, h, delta, 40)
                    edges += walk_edges if det(h) > 1 else 0
        assert edges >= 20

    @pytest.mark.parametrize("basis, extras, edge, holds", [
        # B = [[1, 0, 1], [0, 1, 0], [0, 0, 2]], d = 2: the extras have
        # y = (1, 2, 1) and (-1, 2, -1), the edge y = e0 - e2. The minors
        # over the parts ({0}, {1}) and ({2}, {1}) are 4, at the cap 2 * 2;
        # merged through the edge, over ({0, 2}, {1}), they sum to 8, at the
        # cap 2 * 2**2
        ([[1, 0, 0], [0, 1, 0], [1, 0, 2]], [(1, 1, 1), (-1, 1, -1)], (0, 0, -1), True),
        # the unit basis, d = 1: the same two minors are 2, at the cap 2,
        # and merged they sum to 4, above it
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [(1, 0, 1), (1, 2, -1)], (1, 0, -1), False),
    ])
    def test_edge_merging_two_parts_with_extras(self, basis, extras, edge, holds):
        """An edge is checked as an extra over the parts held before it. A
        minor that merges parts A and B through it is the sum of a minor
        over A and one over B, each over |B| or |A| fewer rows, so at
        d > 1 it stays within 2 * delta * d**(k-2) <= delta * d**(k-1):
        there it reaches its cap at most, and at d = 1 it can exceed it."""
        checker = _GeneralChecker(basis, 2)
        assert all(checker.try_add(c) for c in extras)
        assert is_delta_modular(IntMatrix.from_cols(basis + extras), 2)[0]
        assert checker.try_add(edge) == holds
        assert is_delta_modular(IntMatrix.from_cols(basis + extras + [edge]), 2)[0] == holds
        assert (checker.adj[0] == 0b100) == holds and len(checker.extras) == 2

    def test_random_bases(self):
        rng = random.Random(2424)
        walks = 0
        while walks < 60:
            r = rng.randint(2, 4)
            b = IntMatrix.from_cols([[rng.randint(-2, 2) for _ in range(r)]
                                     for _ in range(r)])
            if not 0 < abs(det(b)) <= 6:
                continue
            self._walk(rng, b, abs(det(b)) + rng.randint(0, 2), 40)
            walks += 1


def _pair_feasible(h: IntMatrix, a, b, delta: int) -> bool:
    return is_delta_modular(IntMatrix.from_cols(
        [list(c) for c in h.columns()] + [list(a), list(b)]), delta)[0]


class TestPairFilter:
    """Bit j of row i is set iff the basis plus candidates i and j is
    delta-modular, checked against the full modularity decision."""

    def _check(self, h: IntMatrix, delta: int, pairs=None) -> None:
        cs, ys = _grid_candidates(h, delta)
        rows = _PairRows(ys, delta * det(h))
        cands = list(map(tuple, cs.tolist()))
        if pairs is None:
            pairs = combinations(range(len(cands)), 2)
        for i, j in pairs:
            got = bool(rows[i] >> j & 1)
            assert got == _pair_feasible(h, cands[i], cands[j], delta), (i, j)
        for i in range(len(cands)):
            assert rows[i] >> (i + 1) << (i + 1) == rows[i]  # only j > i

    def test_every_pair_every_basis_bimodular_rank3(self):
        bases = hermite_bases(2, 3)
        assert IntMatrix.identity(3) in bases
        for h in bases:
            self._check(h, 2)

    @pytest.mark.parametrize("delta, r", [(3, 3), (2, 4)])
    def test_sampled_pairs_identity_basis(self, delta, r):
        rng = random.Random(1000 * delta + r)
        n = len(_grid_candidates(IntMatrix.identity(r), delta)[0])
        pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(300)]
        self._check(IntMatrix.identity(r), delta, pairs)

    def test_sampled_pairs_every_basis_delta3_rank3(self):
        rng = random.Random(3303)
        bases = hermite_bases(3, 3)
        assert len(bases) == 15
        for h in bases:
            n = len(_grid_candidates(h, 3)[0])
            pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(200)]
            self._check(h, 3, pairs)

    def test_identity_candidates_match_identity_mode(self):
        r, delta = 3, 2
        seed = [tuple(int(i == k) for i in range(r)) for k in range(r)]
        mode_cands = [c for c in column_universe(delta, r)
                      if not any(is_parallel(c, s) for s in seed)]
        assert mode_cands == list(map(tuple, _grid_candidates(
            IntMatrix.identity(r), delta)[0].tolist()))


# Outputs of the benchmark's four search configurations and of small proved
# searches; the pair filter, the budget and the checkers must leave every
# node, count and certificate unchanged.
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
    (SearchConfig(3, 2, "hnf-exhaustive"), 6, True, 336,
     [[1, 0, 1, 1, 1, 2], [0, 1, -1, 1, -2, -1]]),
    (SearchConfig(4, 2, "hnf-exhaustive"), 6, True, 1708,
     [[1, 0, 1, 1, 1, 1], [0, 1, -1, 1, -2, 2]]),
    (SearchConfig(5, 2, "hnf-exhaustive"), 8, True, 19335,
     [[1, 0, 1, 1, 1, 1, 2, 2], [0, 1, -1, 1, -2, 2, -1, 1]]),
]


_M24 = PINNED_SEARCHES[2][4]
_M33 = [[1, 0, 0, 0, 0, 1, 1, 1, 1, 1], [0, 1, 0, 1, 1, -1, -1, -1, 0, 0],
        [0, 0, 1, -1, 1, -1, 0, 1, -1, 1]]
_M33_SPORADIC = PINNED_SEARCHES[3][4]
_M23 = PINNED_SEARCHES[1][4]
_FIRST_NODE = {4: [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, -1]],
               3: [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, -1]]}

# Node-limited runs whose limit falls on a clock multiple (1024) or next to
# it, or whose last node lies inside a run of pair-filter skips (the last
# two limits of each configuration); the skipped candidates are charged in
# blocks, and each block must stop on the same node as one charge per node.
NODE_LIMITED = [
    ((2, 4, "identity-anchored"), 1, 5, 2, 0, _FIRST_NODE[4]),
    ((2, 4, "identity-anchored"), 1023, 13, 1024, 890, _M24),
    ((2, 4, "identity-anchored"), 1024, 13, 1025, 891, _M24),
    ((2, 4, "identity-anchored"), 1025, 13, 1026, 892, _M24),
    ((2, 4, "identity-anchored"), 150, 13, 151, 107, _M24),
    ((2, 4, "identity-anchored"), 31226, 13, 31227, 29342, _M24),
    ((3, 3, "identity-anchored"), 1, 4, 2, 0, _FIRST_NODE[3]),
    ((3, 3, "identity-anchored"), 1023, 10, 1024, 895, _M33),
    ((3, 3, "identity-anchored"), 1024, 10, 1025, 896, _M33),
    ((3, 3, "identity-anchored"), 1025, 10, 1026, 897, _M33),
    ((3, 3, "identity-anchored"), 200, 10, 201, 149, _M33),
    ((3, 3, "identity-anchored"), 29375, 11, 29376, 27517, _M33_SPORADIC),
    ((2, 3, "hnf-exhaustive"), 1, 4, 2, 0, _FIRST_NODE[3]),
    ((2, 3, "hnf-exhaustive"), 1023, 9, 1024, 880, _M23),
    ((2, 3, "hnf-exhaustive"), 1024, 9, 1025, 881, _M23),
    ((2, 3, "hnf-exhaustive"), 1025, 9, 1026, 882, _M23),
    ((2, 3, "hnf-exhaustive"), 40, 9, 41, 29, _M23),
    ((2, 3, "hnf-exhaustive"), 22585, 9, 22586, 20525, _M23),
]


@pytest.mark.parametrize("case, limit, count, nodes, skips, entries", NODE_LIMITED,
                         ids=[f"{d}-{r}-{mode.split('-')[0]}-{limit}"
                              for (d, r, mode), limit, *_ in NODE_LIMITED])
def test_node_limited_search_outputs(case, limit, count, nodes, skips, entries):
    cert = max_columns_search(SearchConfig(*case, node_limit=limit))
    assert (cert.best_count, cert.optimal, cert.nodes_explored) == (count, False, nodes)
    assert cert.stats["pairFilterSkips"] == skips and cert.stats["stop"] == "node-limit"
    assert cert.best_matrix == IntMatrix.from_rows(entries)


@pytest.mark.parametrize("config, count, optimal, nodes, entries", PINNED_SEARCHES,
                         ids=["2-3-identity", "2-3-hnf", "2-4-identity-20k",
                              "3-3-identity-30k", "1-3-identity", "2-2-identity",
                              "3-2-identity", "4-2-identity", "3-2-hnf", "4-2-hnf",
                              "5-2-hnf"])
def test_pinned_search_outputs(config, count, optimal, nodes, entries):
    cert = max_columns_search(config)
    assert (cert.best_count, cert.optimal, cert.nodes_explored) == (count, optimal, nodes)
    assert cert.best_matrix == IntMatrix.from_rows(entries)


# Whole ``stats`` of searches that run both checkers, of one that stops on
# the node limit, and of the greedy mode.
PINNED_STATS = [
    (SearchConfig(2, 3, "hnf-exhaustive"),
     {"nodes": 44822, "pairFilterSkips": 40526, "stop": "exhausted", "checkers": {
         "identity-anchored": {"tryAdd": 3723, "accepted": 2327,
                               "minorHits": 5384, "minorFills": 3721},
         "general": {"tryAdd": 573, "accepted": 538,
                     "minorHits": 1244, "minorFills": 1047}}}),
    (SearchConfig(5, 2, "hnf-exhaustive"),
     {"nodes": 19335, "pairFilterSkips": 17557, "stop": "exhausted", "checkers": {
         "identity-anchored": {"tryAdd": 1050, "accepted": 1050,
                               "minorHits": 0, "minorFills": 0},
         "general": {"tryAdd": 728, "accepted": 728,
                     "minorHits": 0, "minorFills": 0}}}),
    (SearchConfig(2, 4, "identity-anchored", node_limit=3000),
     {"nodes": 3001, "pairFilterSkips": 2738, "stop": "node-limit", "checkers": {
         "identity-anchored": {"tryAdd": 262, "accepted": 20,
                               "minorHits": 2904, "minorFills": 395}}}),
    (SearchConfig(3, 3, "greedy-seeded", seed_matrix=sporadic_rank3()),
     {"nodes": 145, "pairFilterSkips": 0, "stop": "exhausted", "checkers": {}}),
]


@pytest.mark.parametrize("config, stats", PINNED_STATS,
                         ids=["2-3-hnf", "5-2-hnf", "2-4-identity-3000", "3-3-greedy"])
def test_pinned_search_stats(config, stats):
    assert max_columns_search(config).stats == stats
