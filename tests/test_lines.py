import random

import pytest

from deltamod.exact import rank
from deltamod.families import Partition, build_A, build_A_lee, partitions
from deltamod.intmatrix import IntMatrix
from deltamod.lines import (LineMultiset, distinguishing_report,
                            line_length_multiset, long_lines_through, nu_formula,
                            parallel_classes, recover_partition)
from tests._oracles import (naive_long_lines, naive_parallel_classes,
                            random_columns_with_parallels)

I3D3 = IntMatrix.from_cols(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]])


class TestParallelClasses:
    def test_scaled_pair(self):
        pc = parallel_classes(IntMatrix.from_cols([[1, 0], [2, 0], [0, 1]]))
        assert pc.classes == ((0, 1), (2,))
        assert pc.point_count == 2

    def test_family_all_singletons(self):
        pc = parallel_classes(build_A(3, (2,), 4).matrix)
        assert pc.point_count == 16
        assert all(len(c) == 1 for c in pc.classes)

    def test_unimodular_block(self):
        pc = parallel_classes(IntMatrix.from_cols([[1, 0], [0, 1], [1, -1]]))
        assert pc.point_count == 3

    def test_loops_flagged(self):
        pc = parallel_classes(IntMatrix.from_cols([[0, 0], [1, 0]]))
        assert pc.loops == (0,)
        assert pc.classes == ((1,),)

    def test_random_against_pairwise_reference(self):
        rng = random.Random(88)
        for _ in range(300):
            m = random_columns_with_parallels(rng)
            pc = parallel_classes(m)
            assert pc.classes == naive_parallel_classes(m)
            assert pc.loops == tuple(j for j, c in enumerate(m.columns()) if not any(c))


class TestLongLines:
    def test_unimodular_block_lines(self):
        lines = long_lines_through(I3D3, 0)
        assert lines == [(0, 1, 3), (0, 2, 4)]

    def test_partition_family_line_count(self):
        assert len(long_lines_through(build_A(3, (2,), 4).matrix, 0)) == 5

    def test_identity_has_no_long_lines(self):
        assert long_lines_through(IntMatrix.identity(3), 0) == []

    def test_zero_designated_column_rejected(self):
        with pytest.raises(ValueError):
            long_lines_through(IntMatrix.from_cols([[0, 0], [1, 0]]), 0)

    def test_matches_naive_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            r = rng.randint(2, 4)
            cols = [[rng.randint(-1, 1) for _ in range(r)]
                    for _ in range(rng.randint(2, 9))]
            cols += [[2 * v for v in rng.choice(cols)], [0] * r]
            rng.shuffle(cols)
            m = IntMatrix.from_cols(cols)
            for e in range(m.cols):
                if not any(cols[e]):
                    continue
                want = naive_long_lines(m, e)
                assert long_lines_through(m, e) == [line for line, _ in want]
                assert line_length_multiset(m, e) == \
                    LineMultiset.from_lengths(points for _, points in want)

    def test_lines_count_points_not_elements(self):
        # a scaled copy on a line must not inflate its length
        m = IntMatrix.from_cols(
            [[1, 0], [0, 1], [1, 1], [2, 2]])
        profile = line_length_multiset(m, 0)
        assert profile == LineMultiset.parse("3:1")


class TestProfiles:
    def test_measured_examples(self):
        assert line_length_multiset(build_A(3, (2,), 4).matrix, 0) == \
            LineMultiset.parse("3:2,4:2,5:1")
        assert line_length_multiset(build_A(3, (1, 1), 4).matrix, 0) == \
            LineMultiset.parse("3:3,4:3")
        assert line_length_multiset(build_A_lee(3, 4).matrix, 0) == \
            LineMultiset.parse("5:3")

    def test_formula_examples(self):
        assert nu_formula(3, Partition((2,)), 4) == LineMultiset.parse("3:2,4:2,5:1")
        assert nu_formula(3, Partition((1, 1)), 4) == LineMultiset.parse("3:3,4:3")
        for r in (3, 4, 6):
            want = {3: 2 * (r - 2), 4: 1}
            got = dict(nu_formula(2, Partition((1,)), r).counts)
            assert got == want

    def test_formula_matches_measurement(self):
        for delta in (2, 3, 4):
            for lam in partitions(delta - 1):
                for r in range(max(lam.m + 1, delta + 1), 7):
                    fam = build_A(delta, lam, r)
                    assert line_length_multiset(fam.matrix, 0) == \
                        nu_formula(delta, lam, r)

    def test_ladder_profile_shape(self):
        for delta in (1, 2, 3, 4):
            for r in range(delta + 1, 7):
                profile = line_length_multiset(build_A_lee(delta, r).matrix, 0)
                assert profile.counts == ((delta + 2, r - 1),)

    def test_element_count_consistency(self):
        # long lines through the designated column partition the columns
        # they cover; everything else spans a short line with it
        for (delta, lam, r) in [(3, (2,), 4), (3, (1, 1), 5), (4, (2, 1), 5)]:
            fam = build_A(delta, lam, r)
            cols = fam.matrix.columns()
            lines = long_lines_through(fam.matrix, 0)
            seen: set[int] = set()
            for line in lines:
                assert 0 in line
                others = set(line) - {0}
                assert not (others & seen)
                seen |= others
            off_line = [j for j in range(1, fam.matrix.cols) if j not in seen]
            assert 1 + sum(len(line) - 1 for line in lines) + len(off_line) \
                == fam.matrix.cols
            for j in off_line:
                span = [k for k in range(fam.matrix.cols)
                        if rank(IntMatrix.from_cols([cols[0], cols[j], cols[k]])) <= 2]
                assert len(span) == 2  # the short line {designated, j}

    def test_invariance_under_column_permutation_and_scaling(self):
        rng = random.Random(97)
        m = build_A(3, (2,), 4).matrix
        base = line_length_multiset(m, 0)
        order = list(range(m.cols))
        rng.shuffle(order)
        cols = [list(m.column(j)) for j in order]
        k = order.index(0)
        cols[k] = [3 * v for v in cols[k]]
        assert line_length_multiset(IntMatrix.from_cols(cols), k) == base

    def test_invariance_under_unimodular_row_ops(self):
        m = build_A(3, (1, 1), 4).matrix
        base = line_length_multiset(m, 0)
        rows = [list(r) for r in m.entries]
        rows[1] = [a + 2 * b for a, b in zip(rows[1], rows[3])]
        rows[0], rows[2] = rows[2], rows[0]
        assert line_length_multiset(IntMatrix.from_rows(rows), 0) == base


class TestLineMultisetType:
    def test_parse_and_format_round_trip(self):
        s = "3:2,4:2,5:1"
        assert str(LineMultiset.parse(s)) == s

    def test_rejects_short_lines(self):
        with pytest.raises(ValueError):
            LineMultiset(((2, 1),))

    def test_total(self):
        assert LineMultiset.parse("3:3,4:3").total == 6


class TestRecovery:
    def test_examples(self):
        assert recover_partition(LineMultiset.parse("3:2,4:2,5:1"), 3, 4) == \
            Partition((2,))
        assert recover_partition(LineMultiset.parse("3:3,4:3"), 3, 4) == \
            Partition((1, 1))

    def test_round_trip(self):
        for delta in range(2, 9):
            for lam in partitions(delta - 1):
                for r in range(delta + 1, delta + 4):
                    assert recover_partition(
                        nu_formula(delta, lam, r), delta, r) == lam

    def test_profile_size_strictly_monotone(self):
        # uniqueness of the part count rests on strict growth on [1, r-2]
        from deltamod.lines import _profile_size
        for r in range(4, 12):
            sizes = [_profile_size(r, m) for m in range(1, r - 1)]
            assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            recover_partition(LineMultiset.parse("3:1"), 3, 4)
        with pytest.raises(ValueError):
            recover_partition(LineMultiset.parse("3:2,4:2,5:1"), 3, 6)
        with pytest.raises(ValueError):
            recover_partition(LineMultiset.parse("7:1"), 2, 5)


class TestDistinguish:
    def test_counts(self):
        assert len(distinguishing_report(2, 3)) == 1
        assert len(distinguishing_report(3, 4)) == 3
        assert len(distinguishing_report(4, 5)) == 6

    def test_all_distinct(self):
        for delta, r in [(2, 3), (3, 4), (4, 5)]:
            assert all(c.distinct for c in distinguishing_report(delta, r))

    def test_ladder_profile_never_matched(self):
        certs = distinguishing_report(3, 4)
        lee_profiles = [c.right_nu for c in certs if "lee" in c.right_id]
        assert lee_profiles
        for c in certs:
            if "lee" in c.right_id and "lee" not in c.left_id:
                assert c.left_nu != c.right_nu

    def test_rank_too_small_rejected(self):
        with pytest.raises(ValueError):
            distinguishing_report(3, 3)
