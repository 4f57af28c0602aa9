import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltamod.exact import is_parallel, max_abs_full_rank_subdet
from deltamod.extensions import (canonical_column, canonical_rows,
                                 clique_extension_max_subdet, clique_matrix,
                                 corner_det, embed_anchored, embed_single,
                                 enumerate_pair_extensions,
                                 enumerate_single_extensions, max_subset_sum,
                                 refute_triple_extensions, zero_sum_classes,
                                 _anchored_shapes)
from deltamod.intmatrix import IntMatrix, ShapeError
from deltamod.modularity import is_delta_modular, modularity_level
from deltamod.verify import KNOWN_PAIR_BLOCKS_3, KNOWN_SINGLE_COLUMNS_3
from tests._oracles import naive_max_subset_sum


def zero_sum_vectors(min_size=2, max_size=6, bound=4):
    def fix(v):
        return tuple(v[:-1]) + (-sum(v[:-1]),)
    return (st.lists(st.integers(-bound, bound), min_size=min_size,
                     max_size=max_size)
            .map(fix)
            .filter(lambda v: any(v) and max(abs(x) for x in v) <= bound))


class TestMaxSubsetSum:
    def test_examples(self):
        assert max_subset_sum((-3, 2, 1, 0)) == 3
        assert max_subset_sum((1, -1)) == 1
        assert max_subset_sum((-2, -1, 1, 1, 1)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            max_subset_sum((1, 1))
        with pytest.raises(ValueError):
            max_subset_sum((0, 0))

    @given(zero_sum_vectors())
    def test_equals_exhaustive_subset_maximum(self, v):
        assert max_subset_sum(v) == naive_max_subset_sum(v)

    @given(zero_sum_vectors(), st.randoms(use_true_random=False))
    def test_permutation_and_negation_invariant(self, v, rng):
        shuffled = list(v)
        rng.shuffle(shuffled)
        assert max_subset_sum(shuffled) == max_subset_sum(v)
        assert max_subset_sum([-x for x in v]) == max_subset_sum(v)


class TestCliqueExtension:
    def test_examples(self):
        assert clique_extension_max_subdet((-3, 2, 1, 0), 3) == 3
        assert clique_extension_max_subdet((1, -1, 0, 0), 3) == 1

    def test_length_checked(self):
        with pytest.raises(ShapeError):
            clique_extension_max_subdet((1, -1), 3)

    def test_matches_brute_force_small(self):
        rng = random.Random(606)
        for _ in range(60):
            r = rng.randint(1, 4)
            v = [rng.randint(-4, 4) for _ in range(r)]
            col = v + [-sum(v)]
            if not any(col) or max(abs(x) for x in col) > 4:
                continue
            value, _ = max_abs_full_rank_subdet(embed_single(col))
            assert value == clique_extension_max_subdet(col, r)


class TestCanonicalColumn:
    def test_drops_zeros_and_sorts(self):
        assert canonical_column((0, -3, 2, 0, 1)).reduced == (3, -1, -2)

    def test_prefers_lexicographically_greater_sign(self):
        c = canonical_column((-2, 1, 1))
        assert c.reduced == (2, -1, -1)
        assert c.sign_flag
        d = canonical_column((2, -1, -1))
        assert d.reduced == (2, -1, -1)
        assert not d.sign_flag

    def test_self_symmetric_class(self):
        assert canonical_column((1, -1, 1, -1)).reduced == (1, 1, -1, -1)


class TestSingleEnumeration:
    def test_bound3_matches_published_list(self):
        got = {c.reduced for c in enumerate_single_extensions(3)}
        want = {canonical_column(v).reduced for v in KNOWN_SINGLE_COLUMNS_3}
        assert got == want
        assert len(got) == 7

    def test_bound1_empty(self):
        assert enumerate_single_extensions(1) == []

    def test_bound2(self):
        got = {c.reduced for c in enumerate_single_extensions(2)}
        assert got == {(2, -1, -1), (1, 1, -1, -1)}

    def test_members_embed_delta_modular(self):
        for c in enumerate_single_extensions(3):
            assert is_delta_modular(embed_single(c.reduced), 3)[0]

    def test_completeness_over_canonical_classes(self):
        # every canonical zero-sum class over [-4, 4] not parallel to a
        # difference column embeds delta-modular at bound 3 exactly when
        # the enumeration contains it
        admitted = {c.reduced for c in enumerate_single_extensions(3)}
        for a in zero_sum_classes(12, 4, 7):
            if len(a) == 2:
                continue  # parallel to a difference column, excluded
            ok, _ = is_delta_modular(embed_single(a), 3)
            assert ok == (a in admitted), a

    def test_completeness_random_embeddings(self):
        # same statement on randomly permuted, padded, sign-flipped columns
        admitted = {c.reduced for c in enumerate_single_extensions(3)}
        rng = random.Random(4094)
        for _ in range(200):
            size = rng.randint(2, 6)
            v = [rng.randint(-4, 4) for _ in range(size - 1)]
            col = v + [-sum(v)]
            if not any(col) or max(abs(x) for x in col) > 4:
                continue
            canon = canonical_column(col)
            if len(canon.reduced) == 2:
                continue
            ok, _ = is_delta_modular(embed_single(col), 3)
            assert ok == (canon.reduced in admitted)


class TestAnchoredShapes:
    def test_eight_shapes_at_bound3(self):
        shapes = _anchored_shapes(3)
        assert len(shapes) == 8
        # each shape plus its unit entry is an admissible single column
        singles = {c.reduced for c in enumerate_single_extensions(3)}
        for s in shapes:
            assert canonical_column(s + (1,)).reduced in singles
            assert sum(s) == -1


class TestPairEnumeration:
    def test_exactly_published_blocks(self):
        got = {p.rows for p in enumerate_pair_extensions(3)}
        want = {canonical_rows(*zip(*b)) for b in KNOWN_PAIR_BLOCKS_3}
        assert got == want
        assert len(got) == 8

    def test_specific_pair_present(self):
        got = {p.rows for p in enumerate_pair_extensions(3)}
        assert canonical_rows([-3, 2], [-2, 1]) in got

    def test_widest_column_has_unique_partner(self):
        hits = []
        for p in enumerate_pair_extensions(3):
            for k in (0, 1):
                col = tuple(sorted((v for v in p.column(k) if v), reverse=True))
                if col == (2, -3):
                    other = tuple(sorted((v for v in p.column(1 - k) if v),
                                         reverse=True))
                    hits.append(other)
        assert hits == [(1, -2)]

    def test_pairs_embed_delta_modular(self):
        for p in enumerate_pair_extensions(3):
            m = embed_anchored(p.column(0), p.column(1))
            assert is_delta_modular(m, 3)[0]
            cols = m.columns()
            assert not any(is_parallel(cols[i], cols[j])
                           for i in range(len(cols))
                           for j in range(i + 1, len(cols)))

    def test_residual_support_is_unit_or_difference(self):
        # outside the other column's support, a member has a single -+1
        # entry or a +1/-1 pair (its dedicated row always contributes one)
        for p in enumerate_pair_extensions(3):
            t = p.support_rows
            full_a = p.column(0) + (1, 0)
            full_b = p.column(1) + (0, 1)
            for u, v in ((full_a, full_b), (full_b, full_a)):
                outside = [v[i] for i in range(t + 2) if u[i] == 0 and v[i] != 0]
                assert sorted(outside) in ([1], [-1], [-1, 1])

    def test_canonical_pair_rows_quotient(self):
        rows = canonical_rows([-3, 2, 0], [-2, 1, 0])
        again = canonical_rows([2, -3], [1, -2])  # permuted, zero row gone
        assert rows == again
        swapped = canonical_rows([-2, 1], [-3, 2])
        assert rows == swapped
        # against the pair form: the lesser of the sorted rows and the
        # sorted swapped rows
        rng = random.Random(2002)
        for _ in range(500):
            t = rng.randint(1, 5)
            a = [rng.randint(-3, 3) for _ in range(t)]
            b = [rng.randint(-3, 3) for _ in range(t)]
            nz = [(x, y) for x, y in zip(a, b) if x or y]
            want = min(tuple(sorted(nz)), tuple(sorted((y, x) for x, y in nz)))
            assert canonical_rows(a, b) == want

    def test_embedding_gives_each_column_its_unit_row(self):
        m = embed_anchored([-1, 2], [1, 0], [0, -1])
        assert m == clique_matrix(5).hstack(IntMatrix.from_cols(
            [[-1, 2, 1, 0, 0], [1, 0, 0, 1, 0], [0, -1, 0, 0, 1]]))
        with pytest.raises(ShapeError):
            embed_anchored([1, 2], [1])


class TestPerturbedCornerBound:
    def test_shifted_blocks_stay_within_level(self):
        # shifting the 2x2 corner by column multiples of the two anchored
        # unit patterns never exceeds the level of the 4-row host matrix
        rng = random.Random(512)
        base = clique_matrix(4)
        i4 = IntMatrix.identity(4)
        for _ in range(200):
            a1, a2, a3, a4 = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4))
            x = rng.choice([-3, -2, -1, 1, 2, 3])
            y = rng.choice([-3, -2, -1, 1, 2, 3])
            host = i4.hstack(base).hstack(
                IntMatrix.from_cols([[a1, a3, x, 0], [a2, a4, 0, y]]))
            level = modularity_level(host).delta
            for s1, s3 in ((0, 0), (x, 0), (0, x)):
                for s2, s4 in ((0, 0), (y, 0), (0, y)):
                    block = IntMatrix.from_rows([[a1 + s1, a2 + s2],
                                                 [a3 + s3, a4 + s4]])
                    from deltamod.exact import det
                    assert abs(det(block)) <= level


@pytest.fixture(scope="module")
def refutations():
    return refute_triple_extensions(3)


class TestTriples:
    def test_candidates_exist_and_all_refuted(self, refutations):
        assert refutations
        for t in refutations:
            assert t.witness is not None
            assert abs(t.witness.det_value) >= 4
            assert t.witness.check(t.matrix)

    def test_no_triple_is_delta_modular(self, refutations):
        for t in refutations:
            assert not is_delta_modular(t.matrix, 3)[0]

    def test_published_first_family_present(self, refutations):
        keys = {t.columns for t in refutations}
        assert canonical_rows([1, -2, 0], [-2, 1, 0], [-1, 1, -1]) in keys

    def test_pairwise_compatibility(self, refutations):
        pair_keys = {p.rows for p in enumerate_pair_extensions(3)}
        for t in refutations:
            for u, v in combinations(zip(*t.columns), 2):
                assert canonical_rows(u, v) in pair_keys


class TestCornerDet:
    def test_examples(self):
        assert corner_det(-1, 1, -1, 1, 1) == 4
        assert corner_det(0, 0, 0, 0, 0) == 0
        assert corner_det(-1, -1, -1, -1, -1) == 4

    def test_formula_consistency_sweep(self):
        rng = random.Random(2718)
        for _ in range(300):
            args = [rng.randint(-4, 4) for _ in range(5)]
            corner_det(*args)  # raises if the closed form ever disagrees


class TestCliqueMatrix:
    def test_shape_and_order(self):
        d3 = clique_matrix(3)
        assert d3.columns() == [(1, -1, 0), (1, 0, -1), (0, 1, -1)]

    def test_rows_sum_to_zero(self):
        d5 = clique_matrix(5)
        assert all(sum(col) == 0 for col in d5.columns())
