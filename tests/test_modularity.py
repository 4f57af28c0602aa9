import gc
import random
import tracemalloc
from itertools import combinations

import pytest

from deltamod import modularity
from deltamod.exact import det_cofactor, is_parallel, rank
from deltamod.extensions import clique_matrix
from deltamod.families import build_A, sporadic_rank3
from deltamod.intmatrix import DegenerateRankError, IntMatrix
from deltamod.modularity import (IdentityAnchoredChecker, append_zero_sum_row,
                                 drop_last_row, is_delta_modular,
                                 modularity_level, parallel_violations)
from tests._oracles import (naive_max_rank_subdet, naive_max_subdet_all_sizes,
                            naive_parallel_pairs, random_columns_with_parallels)

I3D3 = IntMatrix.from_cols(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]])


def random_anchored(rng, max_rank=5, extra_range=3):
    r = rng.randint(2, max_rank)
    cols = [[int(i == k) for i in range(r)] for k in range(r)]
    for _ in range(rng.randint(0, 6)):
        i, j = rng.sample(range(r), 2)
        v = [0] * r
        v[i], v[j] = 1, -1
        cols.append(v)
    for _ in range(rng.randint(0, 5)):
        cols.append([rng.randint(-extra_range, extra_range) for _ in range(r)])
    return IntMatrix.from_cols(cols)


class TestDecision:
    def test_unimodular_block(self):
        assert is_delta_modular(I3D3, 1) == (True, None)

    def test_sporadic_levels(self):
        sp = sporadic_rank3()
        assert is_delta_modular(sp, 3) == (True, None)
        ok, witness = is_delta_modular(sp, 2)
        assert not ok
        assert abs(witness.det_value) == 3
        assert witness.check(sp)

    def test_delta_below_one_rejected(self):
        with pytest.raises(ValueError):
            is_delta_modular(I3D3, 0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateRankError):
            is_delta_modular(IntMatrix.from_rows([[0, 0]]), 1)

    def test_decision_matches_level(self):
        rng = random.Random(555)
        for _ in range(60):
            m = random_anchored(rng, max_rank=4)
            level = modularity_level(m).delta
            for d in range(1, 5):
                ok, witness = is_delta_modular(m, d)
                assert ok == (level <= d)
                if not ok:
                    assert abs(witness.det_value) > d
                    assert witness.check(m)


class TestLevel:
    def test_partition_family_example(self):
        report = modularity_level(build_A(3, (2,), 4).matrix)
        assert report.delta == 3
        assert report.pairwise_non_parallel

    def test_small_examples(self):
        assert modularity_level(IntMatrix.identity(2)).delta == 1
        assert modularity_level(IntMatrix.from_rows([[2, 0], [0, 1]])).delta == 2

    def test_parallel_audit(self):
        m = IntMatrix.from_cols([[1, 0], [2, 0], [0, 1]])
        report = modularity_level(m)
        assert not report.pairwise_non_parallel
        assert report.parallel_violations == ((0, 1),)

    def test_witness_abs_equals_delta(self):
        rng = random.Random(321)
        for _ in range(40):
            m = random_anchored(rng, max_rank=4)
            report = modularity_level(m)
            assert abs(report.witness.det_value) == report.delta
            assert report.witness.check(m)


class TestEngineAgainstOracle:
    """The identity-anchored fast path versus exhaustive enumeration."""

    def test_anchored_random(self):
        rng = random.Random(2024)
        for _ in range(250):
            m = random_anchored(rng)
            assert modularity_level(m).delta == naive_max_rank_subdet(m)

    def test_anchored_equals_all_size_of_complement(self):
        rng = random.Random(99)
        for _ in range(60):
            r = rng.randint(2, 4)
            cols = [[int(i == k) for i in range(r)] for k in range(r)]
            extras = []
            for _ in range(rng.randint(1, 4)):
                extras.append([rng.randint(-3, 3) for _ in range(r)])
            m = IntMatrix.from_cols(cols + extras)
            if all(not any(c) for c in extras):
                continue
            complement = IntMatrix.from_cols(extras)
            if rank(complement) == 0:
                continue
            assert (modularity_level(m).delta
                    == max(1, naive_max_subdet_all_sizes(complement)))

    def test_general_path_random(self):
        rng = random.Random(31415)
        for _ in range(120):
            r, n = rng.randint(1, 3), rng.randint(2, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
            if rank(m) == 0:
                continue
            assert modularity_level(m).delta == naive_max_rank_subdet(m)

    def test_rank_deficient(self):
        m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
        assert rank(m) == 2
        assert modularity_level(m).delta == naive_max_rank_subdet(m)


class TestZeroSumRow:
    def test_forced_arithmetic(self):
        m = IntMatrix.from_cols([[1, 0], [0, 1], [1, -1]])
        z = append_zero_sum_row(m)
        assert z.entries[-1] == (-1, -1, 0)

    def test_already_zero_sum(self):
        d3 = clique_matrix(3)
        assert append_zero_sum_row(d3).entries[-1] == (0, 0, 0)

    def test_single_column(self):
        z = append_zero_sum_row(IntMatrix.from_cols([[2, 3]]))
        assert z.entries[-1] == (-5,)

    def test_round_trips(self):
        rng = random.Random(8)
        for _ in range(30):
            m = random_anchored(rng, max_rank=4)
            assert drop_last_row(append_zero_sum_row(m)) == m
        z = clique_matrix(4)
        assert append_zero_sum_row(drop_last_row(z)) == z

    def test_drop_single_row_rejected(self):
        with pytest.raises(DegenerateRankError):
            drop_last_row(IntMatrix.from_rows([[1, 2]]))

    def test_drop_clique_gives_anchored_block(self):
        # deleting the last clique row turns it into units plus differences
        dropped = drop_last_row(clique_matrix(4))
        want = IntMatrix.from_cols(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]])
        assert sorted(dropped.columns()) == sorted(want.columns())

    def test_equivalence_on_random_extensions(self):
        # the appended-row transform preserves the modularity decision
        rng = random.Random(7777)
        trials = 0
        while trials < 100:
            r = rng.randint(2, 5)
            base = [[int(i == k) for i in range(r)] for k in range(r)]
            for i in range(r):
                for j in range(i + 1, r):
                    v = [0] * r
                    v[i], v[j] = 1, -1
                    base.append(v)
            for _ in range(rng.randint(1, 3)):
                base.append([rng.randint(-3, 3) for _ in range(r)])
            m = IntMatrix.from_cols(base)
            z = append_zero_sum_row(m)
            for delta in range(1, 5):
                assert (is_delta_modular(m, delta)[0]
                        == is_delta_modular(z, delta)[0])
            trials += 1

    def test_equivalence_against_oracle(self):
        rng = random.Random(24601)
        for _ in range(40):
            r = rng.randint(2, 3)
            cols = [[int(i == k) for i in range(r)] for k in range(r)]
            cols.append([rng.randint(-3, 3) for _ in range(r)])
            m = IntMatrix.from_cols(cols)
            z = append_zero_sum_row(m)
            assert naive_max_rank_subdet(z) == modularity_level(z).delta


class TestInvariance:
    def test_row_col_permutation_and_negation(self):
        rng = random.Random(161)
        for _ in range(40):
            m = random_anchored(rng, max_rank=4)
            base = modularity_level(m).delta
            cols = list(m.columns())
            rng.shuffle(cols)
            j = rng.randrange(len(cols))
            cols[j] = tuple(-v for v in cols[j])
            m2 = IntMatrix.from_cols(cols)
            rows = [list(t) for t in m2.entries]
            rng.shuffle(rows)
            assert modularity_level(IntMatrix.from_rows(rows)).delta == base

    def test_unimodular_row_operation(self):
        rng = random.Random(171)
        for _ in range(30):
            m = random_anchored(rng, max_rank=4)
            base = modularity_level(m).delta
            rows = [list(t) for t in m.entries]
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] = [a + 2 * b for a, b in zip(rows[i], rows[j])]
            assert modularity_level(IntMatrix.from_rows(rows)).delta == base


class TestIncrementalChecker:
    def test_matches_batch_decision(self):
        rng = random.Random(5150)
        for _ in range(120):
            r = rng.randint(2, 4)
            delta = rng.randint(1, 3)
            checker = IdentityAnchoredChecker(r, delta)
            cols = [[int(i == k) for i in range(r)] for k in range(r)]
            for _ in range(rng.randint(1, 6)):
                c = tuple(rng.randint(-2, 2) for _ in range(r))
                if not any(c):
                    continue
                before = IntMatrix.from_cols(cols)
                candidate = IntMatrix.from_cols(cols + [list(c)])
                want = is_delta_modular(candidate, delta)[0]
                # incremental adds only to feasible states
                if is_delta_modular(before, delta)[0]:
                    got = checker.try_add(c)
                    assert got == want
                    if got:
                        cols.append(list(c))

    def test_trail_part_sums_under_add_and_pop(self):
        # random add/pop walks: the trail's part sums stay those of the
        # current extras, and every decision matches a full recheck
        rng = random.Random(6262)
        for _ in range(60):
            r = rng.randint(2, 4)
            delta = rng.randint(1, 3)
            checker = IdentityAnchoredChecker(r, delta)
            units = [[int(i == k) for i in range(r)] for k in range(r)]
            accepted: list[list[int]] = []
            for _ in range(rng.randint(4, 14)):
                if accepted and rng.random() < 0.35:
                    checker.pop()
                    accepted.pop()
                else:
                    c = tuple(rng.randint(-2, 2) for _ in range(r))
                    if not any(c):
                        continue
                    want = is_delta_modular(
                        IntMatrix.from_cols(units + accepted + [list(c)]), delta)[0]
                    assert checker.try_add(c) == want
                    if want:
                        accepted.append(list(c))
                assert checker.sums == [
                    tuple(sum(c[i] for i in range(r) if mask >> i & 1)
                          for mask in range(1 << r))
                    for c in checker.extras]

    def test_trail_minor_tables_under_add_and_pop(self):
        # random add/pop walks with edges among the extras: every held minor
        # is the cofactor determinant of its part-sum submatrix, names only
        # extras on the trail, and every decision matches a full recheck
        rng = random.Random(7171)
        edges_after_extras = 0
        for _ in range(150):
            r = rng.choice((2, 3, 4))
            delta = rng.choice((1, 2, 3))
            checker = IdentityAnchoredChecker(r, delta)
            units = [[int(i == k) for i in range(r)] for k in range(r)]
            accepted: list[list[int]] = []
            for _ in range(rng.randint(10, 30)):
                if accepted and rng.random() < 0.2:
                    checker.pop()
                    accepted.pop()
                else:
                    if rng.random() < 0.3:
                        i, j = rng.sample(range(r), 2)
                        c = tuple(1 if k == i else -1 if k == j else 0 for k in range(r))
                    else:
                        c = tuple(rng.choices(range(-3, 4), (1, 2, 6, 8, 6, 2, 1), k=r))
                    if not any(c) or any(is_parallel(c, a) for a in accepted):
                        continue
                    want = is_delta_modular(
                        IntMatrix.from_cols(units + accepted + [list(c)]), delta)[0]
                    assert checker.try_add(c) == want
                    if want:
                        accepted.append(list(c))
                        if sum(map(abs, c)) == 2 and checker.extras:
                            edges_after_extras += 1
                self._assert_held_minors(checker)
        assert edges_after_extras >= 20

    @staticmethod
    def _assert_held_minors(checker):
        assert len(checker.minors) == len(checker.extras) == len(checker.sums)
        for k, table in enumerate(checker.minors):
            for rest, held in table.items():
                ks = rest + (k,)
                assert list(ks) == sorted(set(ks))
                for fam, value in held.items():
                    assert len(fam) == len(ks) >= 2
                    assert list(fam) == sorted(fam)
                    assert all(not a & b for a, b in combinations(fam, 2))
                    sub = IntMatrix.from_rows(
                        [[checker.sums[c][mask] for c in ks] for mask in fam])
                    assert value == det_cofactor(sub)

    def test_violation_through_part_connected_after_extras(self):
        # the only violating minor uses the part {0, 1}, which the edge
        # connects after both earlier extras are on the trail
        checker = IdentityAnchoredChecker(4, 2)
        assert checker.try_add((1, 1, -1, -1))
        assert checker.try_add((0, 0, -1, -1))
        assert checker.try_add((1, -1, 0, 0))
        assert not checker.try_add((1, -1, 1, -1))
        assert any(0b0011 in fam for held in checker.minors[1].values() for fam in held)
        self._assert_held_minors(checker)
        checker.pop()
        assert checker.try_add((1, -1, 1, -1))

    def test_pop_keeps_an_edge_added_twice(self):
        checker = IdentityAnchoredChecker(3, 1)
        assert checker.try_add((1, -1, 0))
        assert checker.try_add((1, -1, 0))
        checker.pop()
        assert checker.adj == [0b010, 0b001, 0]
        units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert not is_delta_modular(IntMatrix.from_cols(units + [[1, -1, 0], [1, 1, 0]]), 1)[0]
        assert not checker.try_add((1, 1, 0))
        checker.pop()
        assert checker.adj == [0, 0, 0]

    def test_pop_restores_state(self):
        checker = IdentityAnchoredChecker(3, 3)
        assert checker.try_add((2, 1, 0))
        assert checker.try_add((1, -1, 0))
        checker.pop()
        checker.pop()
        assert checker.extras == [] and checker.sums == [] and checker.adj == [0, 0, 0]
        assert checker.minors == []


def test_parallel_violations_listing():
    m = IntMatrix.from_cols([[1, 1], [2, 2], [-1, -1], [1, 0]])
    assert parallel_violations(m) == ((0, 1), (0, 2), (1, 2))
    # a zero column is parallel to every column
    m = IntMatrix.from_cols([[0, 0], [1, 2], [0, 0], [-2, -4], [1, 0]])
    assert parallel_violations(m) == ((0, 1), (0, 2), (0, 3), (0, 4),
                                      (1, 2), (1, 3), (2, 3), (2, 4))
    rng = random.Random(365)
    for _ in range(300):
        m = random_columns_with_parallels(rng)
        assert parallel_violations(m) == naive_parallel_pairs(m)


def test_scan_frees_its_store():
    # with the cycle collector off, a scan object caught in a reference
    # cycle would live on; its minor store (about 0.4 MiB here) must not
    m = build_A(4, (3,), 6).matrix
    gc.disable()
    tracemalloc.start()
    try:
        want = modularity_level(m)
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            assert modularity_level(m) == want
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 64 * 1024


def test_family_count_of_a_construction_scan(monkeypatch):
    # one _extend per DFS node: the families that the scan of the (4)
    # construction at delta 5, rank 7 visits, zero families included
    calls = []
    extend = modularity._SubsetScan._extend

    def counted(self, *args):
        calls.append(None)
        return extend(self, *args)

    monkeypatch.setattr(modularity._SubsetScan, "_extend", counted)
    assert modularity_level(build_A(5, (4,), 7).matrix).delta == 5
    assert len(calls) == 4139
