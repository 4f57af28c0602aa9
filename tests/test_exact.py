import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamod.exact import (det, det_cofactor, hermite_triangularize, is_parallel,
                            max_abs_full_rank_subdet, primitive_part, rank)
from deltamod.intmatrix import DegenerateRankError, IntMatrix, ShapeError

I3 = IntMatrix.identity(3)


def refutation_block_5(w, x, y):
    return IntMatrix.from_rows([
        [0, 0, -2, 1, x],
        [1, 0, w, -1, y],
        [0, 1, 1, 0, 0],
        [0, -1, 0, 1, 0],
        [-1, 0, 0, 0, 1]])


def refutation_block_6(w, x, y):
    return IntMatrix.from_rows([
        [1 - y, 0, 0, -1, -1, y],
        [0, 1 - x, 0, -1, x, -1],
        [0, 0, 1 - w, w, -1, -1],
        [0, 0, -1, 1, 0, 0],
        [0, -1, 0, 0, 1, 0],
        [-1, 0, 0, 0, 0, 1]])


class TestDet:
    def test_identity(self):
        assert det(I3) == 1

    def test_refutation_block_values(self):
        assert abs(det(refutation_block_5(0, 1, 0))) == 4
        assert abs(det(refutation_block_6(1, 1, 1))) == 4

    def test_block5_closed_form(self):
        for w in range(-2, 3):
            for x in range(-2, 3):
                for y in range(-2, 3):
                    assert abs(det(refutation_block_5(w, x, y))) == abs(
                        w * x + x + 3 * (y + 1))

    def test_non_square(self):
        with pytest.raises(ShapeError):
            det(IntMatrix.from_rows([[1, 2]]))

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert det(m) == det_cofactor(m)

    def test_large_entries_stay_exact(self):
        big = 10 ** 30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert det(m) == big * big - 1


class TestRank:
    def test_identity(self):
        assert rank(I3) == 3

    def test_clique_on_four(self):
        cols = []
        for i in range(4):
            for j in range(i + 1, 4):
                v = [0] * 4
                v[i], v[j] = 1, -1
                cols.append(v)
        assert rank(IntMatrix.from_cols(cols)) == 3

    def test_zero(self):
        assert rank(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0


class TestMaxSubdet:
    def test_unimodular_block(self):
        m = IntMatrix.from_cols(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]])
        value, witness = max_abs_full_rank_subdet(m)
        assert value == 1
        assert witness.check(m)

    def test_single_extension_example(self):
        from deltamod.extensions import embed_single
        value, _ = max_abs_full_rank_subdet(embed_single((-3, 2, 1, 0)))
        assert value == 3

    def test_witness_is_first_in_column_major_order(self):
        m = IntMatrix.from_cols([[1, 0], [0, 1], [2, 0]])
        value, witness = max_abs_full_rank_subdet(m)
        assert value == 2
        assert witness.col_indices == (1, 2)
        assert witness.row_indices == (0, 1)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateRankError):
            max_abs_full_rank_subdet(IntMatrix.from_rows([[0, 0]]))

    def test_invariances(self):
        rng = random.Random(77)
        for _ in range(40):
            r, n = rng.randint(2, 3), rng.randint(3, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
            if rank(m) == 0:
                continue
            base, _ = max_abs_full_rank_subdet(m)
            cols = m.columns()
            rng.shuffle(cols)
            j = rng.randrange(n)
            cols[j] = tuple(-v for v in cols[j])
            perm_m = IntMatrix.from_cols(cols)
            assert max_abs_full_rank_subdet(perm_m)[0] == base
            rows = [list(t) for t in m.entries]
            rng.shuffle(rows)
            rows[0] = [a + b for a, b in zip(rows[0], rows[-1])]  # unimodular op
            assert max_abs_full_rank_subdet(IntMatrix.from_rows(rows))[0] == base

    def test_unit_block_equals_all_size_max(self):
        from tests._oracles import naive_max_subdet_all_sizes
        rng = random.Random(13)
        for _ in range(25):
            r = rng.randint(2, 4)
            cols = [[int(i == k) for i in range(r)] for k in range(r)]
            for _ in range(rng.randint(1, 4)):
                cols.append([rng.randint(-3, 3) for _ in range(r)])
            m = IntMatrix.from_cols(cols)
            assert max_abs_full_rank_subdet(m)[0] == naive_max_subdet_all_sizes(m)


class TestParallel:
    def test_examples(self):
        assert is_parallel((1, 2), (2, 4))
        assert not is_parallel((1, 0), (0, 1))
        assert is_parallel((0, 0), (5, 7))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            is_parallel((1,), (1, 2))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_reflexive(self, v):
        assert is_parallel(v, v)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
           st.integers(-5, 5).filter(bool))
    def test_scaling(self, v, c):
        assert is_parallel(v, [c * x for x in v])

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_symmetric(self, u, v):
        v = (v + [0] * len(u))[:len(u)]
        assert is_parallel(u, v) == is_parallel(v, u)

    @settings(max_examples=200)
    @given(st.data())
    def test_transitive_on_nonzero(self, data):
        n = data.draw(st.integers(2, 4))
        vec = st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any)
        u, v, w = data.draw(vec), data.draw(vec), data.draw(vec)
        if is_parallel(u, v) and is_parallel(v, w):
            assert is_parallel(u, w)


class TestPrimitivePart:
    def test_examples(self):
        assert primitive_part((2, 4, 6)) == (1, 2, 3)
        assert primitive_part((-3, 0, 3)) == (-1, 0, 1)
        assert primitive_part((5,)) == (1,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_part((0, 0))


class TestHermite:
    def test_identity_fixed(self):
        t, u = hermite_triangularize(I3, (0, 1, 2))
        assert t == I3 and u == I3

    def test_row_swap_case(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        t, u = hermite_triangularize(m, (0, 1))
        assert t.entries[0][0] > 0 and t.entries[1][1] > 0
        assert t.entries[1][0] == 0
        assert abs(det(t)) == abs(det(m)) == 1

    def test_already_triangular(self):
        m = IntMatrix.from_rows([[2, 1], [0, 3]])
        t, u = hermite_triangularize(m, (0, 1))
        assert t == m and u == IntMatrix.identity(2)

    def test_random_properties(self):
        rng = random.Random(31)
        done = 0
        while done < 30:
            r = rng.randint(2, 4)
            n = r + rng.randint(0, 2)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)])
            basis = tuple(range(r))
            block = m.submatrix(tuple(range(r)), basis)
            if det(block) == 0:
                continue
            t, u = hermite_triangularize(m, basis)
            assert abs(det(u)) == 1
            tb = t.submatrix(tuple(range(r)), basis)
            for i in range(r):
                assert tb.entries[i][i] > 0
                for j in range(i):
                    assert tb.entries[i][j] == 0
            for j in range(r):
                for i in range(j):
                    assert 0 <= tb.entries[i][j] < tb.entries[j][j]
            assert abs(det(tb)) == abs(det(block))
            done += 1

    def test_singular_block_rejected(self):
        m = IntMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(DegenerateRankError):
            hermite_triangularize(m, (0, 1))
