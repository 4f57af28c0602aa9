"""Cross-checks between the modularity engine's strategies.

The identity-anchored DFS on a row basis and the brute-force enumeration
must agree exactly on shared inputs, including witness bookkeeping and the
big-int fallback of the minor kernel.
"""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from deltamod import _batch, exact, families, modularity
from deltamod._batch import batched_det, colex_rank, colex_tables, colex_unrank, scan_dtype
from deltamod.cli import run
from deltamod.exact import det, det_cofactor, max_abs_full_rank_subdet, rank
from deltamod.extensions import clique_matrix
from deltamod.intmatrix import IntMatrix
from deltamod.modularity import (_MAX_FAST_ROWS, _connected_masks, _split_identity_anchored,
                                 _tree, append_zero_sum_row, drop_last_row, is_delta_modular,
                                 modularity_level)
from tests._oracles import (_naive_components, naive_anchored_split, naive_first_max_rank_subdet,
                            naive_identity_scan, naive_identity_witness,
                            naive_max_rank_subdet, naive_row_basis, naive_witness_parts)


def anchored_row_basis(m):
    """True when A[R*,:], with R* from the cofactor oracle, has at most
    ``_MAX_FAST_ROWS`` rows and a unit column for each of them: the
    matrices that the identity-anchored scan takes."""
    top = naive_row_basis(m)
    return (len(top) <= _MAX_FAST_ROWS
            and _split_identity_anchored(m.submatrix(top, range(m.cols))) is not None)


def adversarial_matrix(rng):
    """Random anchored matrix with disconnected edge graphs, scaled units,
    duplicate and zero columns mixed in."""
    r = rng.randint(2, 5)
    cols = []
    for k in range(r):
        v = [0] * r
        v[k] = rng.choice([1, -1])
        cols.append(v)
    n_edges = rng.randint(0, r)
    for _ in range(n_edges):
        i, j = rng.sample(range(r), 2)
        v = [0] * r
        v[i], v[j] = rng.choice([(1, -1), (-1, 1)])
        cols.append(v)
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.2:
            v = [0] * r
            v[rng.randrange(r)] = rng.choice([2, -2, 3])
        elif kind < 0.35:
            v = [0] * r
            i, j = rng.sample(range(r), 2)
            s = rng.choice([2, -2])
            v[i], v[j] = s, -s
        elif kind < 0.45 and len(cols) > r:
            v = list(rng.choice(cols[r:]))
        elif kind < 0.5:
            v = [0] * r
        else:
            v = [rng.randint(-3, 3) for _ in range(r)]
        cols.append(v)
    rng.shuffle(cols)
    return IntMatrix.from_cols(cols)


class TestStrategiesAgree:
    def test_adversarial_inputs(self):
        rng = random.Random(987654)
        for _ in range(300):
            m = adversarial_matrix(rng)
            if rank(m) == 0:
                continue
            want = naive_max_rank_subdet(m)
            report = modularity_level(m)
            assert report.delta == want
            assert abs(report.witness.det_value) == want
            assert report.witness.check(m)

    def test_zero_sum_reduction_path(self):
        rng = random.Random(13579)
        for _ in range(100):
            m = adversarial_matrix(rng)
            if rank(m) == 0:
                continue
            z = append_zero_sum_row(m)
            assert modularity_level(z).delta == naive_max_rank_subdet(z)

    def test_zero_sum_with_row_slack_not_reduced(self):
        # zero-sum but rank two below the row count: dropping the last row
        # would change the maximum, since a minor through it is a sum of
        # several minors of the rest; the row basis R* must find 96
        m = IntMatrix.from_rows([
            (1, 0, 1), (0, -3, 4), (3, -4, -3),
            (0, -1, 4), (-1, 3, 3), (-3, 5, -9)])
        assert all(sum(m.column(j)) == 0 for j in range(3))
        assert rank(m) == 3
        assert modularity_level(m).delta == naive_max_rank_subdet(m) == 96

    def test_big_entries_fall_back_exactly(self):
        big = 1 << 45
        m = IntMatrix.from_cols(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1],
             [big, big - 1, 1], [big, big, -big]])
        level = modularity_level(m)
        assert level.delta == naive_max_rank_subdet(m)
        assert level.witness.check(m)


class TestDecisionWitnessOrder:
    def test_brute_path_first_violator_is_lexicographic(self):
        # no unit anchor, so the decision runs the brute scan: first
        # violating column set in lexicographic order, columns outer
        m = IntMatrix.from_rows([[2, 0, 5, 3], [0, 2, 0, 3]])
        ok, witness = is_delta_modular(m, 3)
        assert not ok
        assert witness.col_indices == (0, 1)  # det 4 beats bound first
        assert witness.row_indices == (0, 1)

    @staticmethod
    def _matches_naive_first_hit(m):
        """False if m does not take the general strategy, else checks it."""
        if rank(m) == 0 or anchored_row_basis(m):
            return False
        value, witness = max_abs_full_rank_subdet(m)
        assert (value, witness.col_indices, witness.row_indices) == \
            naive_first_max_rank_subdet(m)
        for bound in {1, max(1, value // 2), max(1, value - 1), value}:
            ok, hit = is_delta_modular(m, bound)
            want = naive_first_max_rank_subdet(m, bound)
            assert ok == (want[0] <= bound)
            if not ok:
                assert (abs(hit.det_value), hit.col_indices, hit.row_indices) == want
        return True

    def test_general_scan_matches_naive_first_hit(self):
        # value and witness of the maximum, and the first violator of each
        # bound, against cofactor determinants in the same order; small
        # entries give ties, a dependent row gives rows > rank
        rng = random.Random(2 ** 40)
        checked = 0
        while checked < 80:
            n_rows = rng.randint(2, 4)
            big = rng.choice([1, 2, 5, 2 ** 40])
            ent = [[rng.randint(-big, big) for _ in range(rng.randint(n_rows, 6))]]
            ent += [[rng.randint(-big, big) for _ in ent[0]] for _ in range(n_rows - 1)]
            if rng.random() < 0.5:
                ent[-1] = [a - 2 * b for a, b in zip(ent[0], ent[1])]
            checked += self._matches_naive_first_hit(IntMatrix.from_rows(ent))
        # rows = rank + 2: the first violating rows come from the row factor,
        # whose product of two minors overflows int64 at rank 1 and entries
        # near 2**40 although each minor fits
        checked = 0
        while checked < 60:
            r = rng.randint(1, 3)
            big = rng.choice([2, 5, 2 ** 30, 2 ** 40])
            n_cols = rng.randint(r, 5)
            ent = [[rng.randint(-big, big) for _ in range(n_cols)] for _ in range(r)]
            for _ in range(2):
                coef = [rng.randint(-2, 2) for _ in range(r)]
                ent.append([sum(c * row[j] for c, row in zip(coef, ent))
                            for j in range(n_cols)])
            rng.shuffle(ent)
            m = IntMatrix.from_rows(ent)
            if rank(m) == r:
                checked += self._matches_naive_first_hit(m)

    @staticmethod
    def _matches_naive_identity_scan(m):
        """The level, the maximum's witness and the first violator of every
        bound, against the scan order of ``naive_identity_scan``."""
        scan = naive_identity_scan(m)
        value, parts, s = naive_identity_witness(scan)
        report = modularity_level(m)
        wit = report.witness
        assert report.delta == abs(wit.det_value) == value
        assert wit.row_indices == tuple(range(m.rows))
        assert naive_witness_parts(m, wit.col_indices) == (parts, s)
        # the first violator changes only where the bound passes a minor,
        # so the distinct minors below the level (and 1) cover every bound
        bounds = {1} | {d for _, minors in scan for _, d in minors if 0 < d < value}
        for bound in sorted(bounds) + [value]:
            ok, hit = is_delta_modular(m, bound)
            want = naive_identity_witness(scan, bound)
            assert ok == (want is None)
            if want is not None:
                assert abs(hit.det_value) == want[0]
                assert hit.row_indices == tuple(range(m.rows))
                assert naive_witness_parts(m, hit.col_indices) == want[1:]

    @staticmethod
    def _anchored_inputs(rng, count):
        """Seeded anchored inputs up to 5 rows, then the first third again
        with every extra scaled by 2**40 (the exact-int path), then
        disconnected edge graphs with several extras."""
        mats = [adversarial_matrix(rng) for _ in range(count)]
        for m in mats[:count // 3]:
            extras = naive_anchored_split(m)[2]
            mats.append(IntMatrix.from_cols([[v << 40 for v in c] if j in extras else list(c)
                                             for j, c in enumerate(m.columns())]))
        for _ in range(count // 4):
            r = rng.randint(4, 5)
            cols = [[int(i == k) for i in range(r)] for k in range(r)]
            for i, j in [(0, 1), (2, 3), (3, 4)][:r - 2]:
                cols.append([1 if k == i else -1 if k == j else 0 for k in range(r)])
            cols += [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rng.randint(1, 5))]
            rng.shuffle(cols)
            mats.append(IntMatrix.from_cols(cols))
        return mats

    def test_identity_scan_matches_naive_scan_order(self):
        for m in self._anchored_inputs(random.Random(4040), 120):
            self._matches_naive_identity_scan(m)

    def test_identity_scan_row_by_row_matches_naive_scan_order(self, monkeypatch):
        # with no room for a batch, every batch holds one row, and its matrix
        # products, one per block, write straight into its store row
        caches = (modularity._blocks, modularity._store_layout)
        monkeypatch.setattr(modularity, "_BATCH_ENTRIES", 0)
        for f in caches:
            f.cache_clear()
        try:
            for m in self._anchored_inputs(random.Random(4041), 45):
                self._matches_naive_identity_scan(m)
        finally:
            for f in caches:
                f.cache_clear()

    @staticmethod
    def _taken_stores(monkeypatch):
        """The store levels 2.. of each identity-anchored scan, in order."""
        taken = []
        scan = modularity._SubsetScan

        def spy(*args):
            s = scan(*args)
            taken.append(s.levels[2:])
            return s

        monkeypatch.setattr(modularity, "_SubsetScan", spy)
        return taken

    @staticmethod
    def _tiered(rng, big):
        """Three unit columns, the edge e0 - e1 and four extras, the last
        of l1 norm ``big``, the largest: families of up to three parts."""
        cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0]]
        cols += [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        cols.append([big - 7, 3, -4])
        return IntMatrix.from_cols(cols)

    def test_store_dtype_on_both_sides_of_the_int32_bound(self, monkeypatch):
        # 3! * 710**3 < 2**31 <= 3! * 711**3, and 3! * 2**63 > 2**62
        taken = self._taken_stores(monkeypatch)
        rng = random.Random(3232)
        for big, dtype in [(710, np.int32), (711, np.int64), (2 ** 21, object)]:
            for _ in range(4):
                del taken[:]
                self._matches_naive_identity_scan(self._tiered(rng, big))
                assert taken and all(levels and all(a.dtype == dtype for a in levels)
                                     for levels in taken)

    def test_wide_store_blocks_in_every_dtype(self, monkeypatch):
        # _tiered's shape with 26 small extras, each with an entry of +-2
        # so that none is a unit or an edge column: the last colex blocks
        # of level 3 are C(24, 2) = 276 to C(26, 2) = 325 wide, built by
        # the einsum kernel in int32 and by matmul in the other tiers, like
        # the narrower ones. Small entries keep the distinct minors, and so
        # the bounds checked, few. A scan reads the top level only through
        # |minor|, so the whole store is also checked with its signs
        taken = self._taken_stores(monkeypatch)
        wide = []
        einsum = np.einsum

        def spy(spec, a, b, **kw):
            wide.append(b.shape[-1])
            return einsum(spec, a, b, **kw)

        monkeypatch.setattr(np, "einsum", spy)
        rng = random.Random(3236)
        for big, dtype in [(20, np.int32), (711, np.int64), (2 ** 21, object)]:
            del taken[:], wide[:]
            cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [big - 7, 3, -4]]
            cols += [[rng.randint(-1, 1), rng.randint(-1, 1), rng.choice((-2, 2))]
                     for _ in range(26)]
            self._matches_naive_identity_scan(IntMatrix.from_cols(cols))
            assert taken and all(levels and all(a.dtype == dtype for a in levels)
                                 for levels in taken)
            assert sorted(set(wide)) == ([276, 300, 325] if dtype == np.int32 else [])
            extras = cols[4:]
            store = modularity._SubsetScan(np.array(extras, dtype=dtype).T, (), None, 3)
            store._build([0b111], 3)
            for t in (2, 3):
                subsets = sorted(combinations(range(len(extras)), t), key=lambda s: s[::-1])
                for rows in combinations(range(3), t):
                    want = [det_cofactor(IntMatrix.from_rows([[extras[k][i] for k in s]
                                                              for i in rows]))
                            for s in subsets]
                    assert store.levels[t][colex_rank(rows)].tolist() == want

    def test_general_scan_dtype_on_both_sides_of_the_int32_bound(self, monkeypatch):
        # no unit basis, so the general scan runs in scan_dtype(3, B) for
        # the largest |entry| B: 3! * 710**3 < 2**31 <= 3! * 711**3. Wide
        # matrices, then tall ones whose last row repeats the first
        dtypes = []
        size = _batch.check_scan_size

        def spy(n, depth, dtype):
            dtypes.append(dtype)
            size(n, depth, dtype)

        monkeypatch.setattr(_batch, "check_scan_size", spy)
        rng = random.Random(3234)
        for big, dtype in [(710, np.int32), (711, np.int64)]:
            for tall in (False, False, True, True):
                ent = [[rng.randint(-big, big) for _ in range(5)] for _ in range(3)]
                ent[rng.randrange(3)][rng.randrange(5)] = rng.choice([big, -big])
                m = IntMatrix.from_rows(ent + ent[:1] if tall else ent)
                assert rank(m) == 3 and not anchored_row_basis(m)
                del dtypes[:]
                value = naive_max_rank_subdet(m)
                assert max_abs_full_rank_subdet(m)[0] == value
                assert is_delta_modular(m, value) == (True, None)
                ok, hit = is_delta_modular(m, value - 1)
                assert not ok and hit.check(m) and abs(hit.det_value) == value
                assert dtypes and all(d == dtype for d in dtypes)
                assert self._matches_naive_first_hit(m)

    def test_scans_of_mixed_dtypes_take_their_own_buffers(self, monkeypatch):
        taken = self._taken_stores(monkeypatch)
        rng = random.Random(3233)
        runs = [(self._tiered(rng, big), dtype) for big, dtype in
                [(20, np.int32), (800, np.int64), (2 ** 21, object), (20, np.int32)]]
        for m, dtype in runs + runs[-1:]:
            scan = naive_identity_scan(m)
            assert modularity_level(m).delta == naive_identity_witness(scan)[0]
            assert taken[-1] and all(a.dtype == dtype for a in taken[-1])
            self._matches_naive_identity_scan(m)

    def test_ties_and_bound_hits_take_the_first_subset(self):
        # one row: the minors of the part {0} are the extras themselves; two
        # rows joined by an edge: the part {0, 1} sums two transversals, and
        # the 2 x 2 minors vanish. A maximum m taken as -m and as +m is
        # witnessed at its first subset, and a bound hit reports |v| at the
        # first minor above the bound, not the family's maximum.
        for extras, first in [([[-3], [1], [3]], -3), ([[3], [1], [-3]], 3),
                              ([[-1, -2], [1, 2]], -3), ([[1, 2], [-1, -2]], 3),
                              ([[3], [-5]], -5), ([[-3], [5]], 5)]:
            r = len(extras[0])
            units = [[int(i == k) for i in range(r)] for k in range(r)]
            edges = [[1, -1]] if r == 2 else []
            m = IntMatrix.from_cols(units + edges + extras)
            self._matches_naive_identity_scan(m)
            assert modularity_level(m).witness.det_value == first
            ok, hit = is_delta_modular(m, 2)
            assert not ok and abs(hit.det_value) == 3

    def test_decision_and_measure_agree_on_flag(self):
        rng = random.Random(1122)
        for _ in range(80):
            m = adversarial_matrix(rng)
            if rank(m) == 0:
                continue
            level = modularity_level(m).delta
            for d in (1, 2, 3, 4, 5):
                assert is_delta_modular(m, d)[0] == (level <= d)


class TestRowBasisDispatch:
    @staticmethod
    def _tall_matrix(rng):
        """Units, edges and general columns over r rows, then one or two
        rows dependent on them, rows shuffled."""
        r = rng.randint(2, 4)
        cols = [[int(i == k) for i in range(r)] for k in range(r)]
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(r), 2)
            v = [0] * r
            v[i], v[j] = 1, -1
            cols.append(v)
        cols += [[rng.randint(-3, 3) for _ in range(r)]
                 for _ in range(rng.randint(1, 3))]
        rng.shuffle(cols)
        rows = [list(t) for t in IntMatrix.from_cols(cols).entries]
        for _ in range(rng.randint(1, 2)):
            coef = [rng.randint(-1, 1) for _ in range(r)]
            rows.append([sum(c * row[j] for c, row in zip(coef, rows[:r]))
                         for j in range(len(cols))])
        rng.shuffle(rows)
        return IntMatrix.from_rows(rows)

    def test_anchored_row_basis_gives_the_witness_rows(self):
        # tall, not zero-sum, and A[R*,:] holds a unit column for each row:
        # the identity-anchored scan runs on R*, for the level and for
        # every bound below it
        rng = random.Random(4242)
        checked = general = 0
        while checked < 40:
            m = self._tall_matrix(rng)
            top = naive_row_basis(m)
            units = {tuple(int(i == k) for i in range(len(top))) for k in range(len(top))}
            cols = {tuple(abs(v) for v in col)
                    for col in m.submatrix(top, range(m.cols)).columns()}
            if (all(sum(m.column(j)) == 0 for j in range(m.cols))
                    or not units <= cols):
                # the general scan's witnesses, against the naive first hit
                general += TestDecisionWitnessOrder._matches_naive_first_hit(m)
                continue
            assert anchored_row_basis(m)
            value = naive_max_rank_subdet(m)
            report = modularity_level(m)
            assert report.delta == value
            assert report.witness.check(m) and report.witness.row_indices == top
            for bound in range(1, value + 1):
                ok, hit = is_delta_modular(m, bound)
                assert ok == (value <= bound)
                if not ok:
                    assert hit.check(m) and abs(hit.det_value) > bound
                    assert hit.row_indices == top
            checked += 1
        assert general > 0

    def test_one_echelon_and_one_row_pass(self, monkeypatch):
        # the dispatch hands its pivot columns and row pass to the general
        # scan; a matrix with a unit column for each row is its own R* and
        # needs neither
        tall = IntMatrix.from_rows([[2, 1, 0, 3, -1], [1, -2, 2, 0, 3],
                                    [0, 3, -1, 2, 2], [3, -1, 2, 3, 2],
                                    [1, 1, 1, 1, 1]])
        anchored = IntMatrix.from_cols([[1, 0, 0], [0, -1, 0], [0, 0, 1], [2, 1, -1]])
        assert rank(tall) == 4 and not anchored_row_basis(tall)
        calls = {"_pivot_cols": 0, "_row_pass": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for mod in (exact, modularity):
            for name in calls:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        for m, echelons, row_passes in ((tall, 1, 1), (anchored, 0, 0)):
            for scan in (modularity_level, lambda m: is_delta_modular(m, 1)):
                calls.update(_pivot_cols=0, _row_pass=0)
                scan(m)
                assert (calls["_pivot_cols"], calls["_row_pass"]) == (echelons, row_passes)


class TestSubsetMachinery:
    def test_colex_order(self):
        combos = colex_tables(5, 3)[0].T
        as_tuples = [tuple(row) for row in combos.tolist()]
        want = sorted((tuple(sorted(c)) for c in combinations(range(5), 3)),
                      key=lambda s: tuple(reversed(s)))
        assert as_tuples == want

    def test_unrank_inverts_order(self):
        combos = colex_tables(7, 4)[0].T
        for idx, row in enumerate(combos.tolist()):
            assert colex_unrank(4, idx) == tuple(row)
            assert colex_rank(tuple(row)) == idx

    def test_tree_spans_exactly_the_connected_masks(self):
        rng = random.Random(2424)
        for r in range(1, 7):
            for density in (0.2, 0.4, 0.7) * 4:
                pairs = [p for p in combinations(range(r), 2) if rng.random() < density]
                adj = [0] * r
                for i, j in pairs:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                adj = tuple(adj)
                conn = set(_connected_masks(r, adj))
                for mask in range(1, 1 << r):
                    rows = [i for i in range(r) if mask >> i & 1]
                    inside = [(i, j) for i, j in pairs if {i, j} <= set(rows)]
                    connected = len(_naive_components(rows, inside)) == 1
                    tree = _tree(mask, adj)
                    # edges of adj inside the mask, i < j, with no cycle
                    assert set(tree) <= set(inside)
                    parts = len(_naive_components(rows, tree))
                    assert len(tree) == len(rows) - parts
                    assert (parts == 1) == connected == (mask in conn)

    def test_connected_masks_complete_graph(self):
        adj = tuple((1 << 4) - 1 ^ (1 << i) for i in range(4))
        assert len(_connected_masks(4, adj)) == 15

    def test_connected_masks_no_edges(self):
        adj = (0, 0, 0, 0)
        masks = _connected_masks(4, adj)
        assert all(mask & (mask - 1) == 0 for mask in masks)
        assert len(masks) == 4


class TestBatchedDet:
    def test_matches_cofactor_up_to_seven(self):
        rng = np.random.default_rng(31337)
        for n in range(1, 8):
            mats = rng.integers(-5, 6, size=(64, n, n)).astype(np.int64)
            got = batched_det(mats)
            for i in range(64):
                assert got[i] == det_cofactor(IntMatrix.from_rows(mats[i].tolist()))

    def test_growth_guard(self):
        # n! * B**n against 2**31 and 2**62: 1 * (2**31 - 1) < 2**31,
        # 3! * 710**3 < 2**31 <= 3! * 711**3, 3! * 916015**3 < 2**62 <=
        # 3! * 916016**3, and B = 0 counts as 1
        assert scan_dtype(1, 2 ** 31 - 1) == scan_dtype(3, 710) == scan_dtype(7, 0) == np.int32
        assert scan_dtype(1, 2 ** 31) == scan_dtype(3, 711) == np.int64
        assert scan_dtype(1, 2 ** 62 - 1) == scan_dtype(3, 916015) == np.int64
        assert scan_dtype(1, 2 ** 62) == scan_dtype(3, 916016) == object


class TestScanLimit:
    def test_general_scan_refused_before_it_starts(self, tmp_path, capsys):
        # C(40, 10) column sets with no identity anchor: about 8.5e8 minors
        rng = random.Random(1040)
        m = IntMatrix.from_rows([[rng.randint(2, 5) for _ in range(40)]
                                 for _ in range(10)])
        assert _split_identity_anchored(m) is None
        with pytest.raises(ValueError, match="refusing a minor scan"):
            max_abs_full_rank_subdet(m)
        path = tmp_path / "wide.mat"
        path.write_text(m.to_text())
        assert run(["check", "--delta", "3", str(path)]) == 2
        assert "refusing a minor scan" in capsys.readouterr().err

    def test_tall_general_scan_is_scanned(self, tmp_path, capsys):
        # 19 rows of rank 14: the row subsets are ranked on a column basis
        # apart from the column subsets, so C(19, 14) never multiplies them
        rng = random.Random(1914)
        m = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(14)]
                                 for _ in range(19)])
        assert rank(m) == 14
        value, witness = max_abs_full_rank_subdet(m)
        assert witness.col_indices == tuple(range(14))
        assert abs(det(m.submatrix(witness.row_indices, witness.col_indices))) \
            == abs(witness.det_value) == value
        for _ in range(200):
            rows = sorted(rng.sample(range(19), 14))
            assert abs(det(m.submatrix(rows, range(14)))) <= value
        path = tmp_path / "tall.mat"
        path.write_text(m.to_text())
        assert run(["delta", str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(value)

    def test_tall_scan_through_an_anchored_row_basis(self, tmp_path, capsys):
        # an 8-row clique block plus two columns, then a zero-sum row and a
        # copy of row 0: rank 8 over 10 rows, not zero-sum. The general
        # column pass over C(38, 8) sets is refused; rows 0-7 are R* and
        # carry a unit basis, so the identity-anchored scan runs on them
        block = drop_last_row(clique_matrix(9)).hstack(IntMatrix.from_cols(
            [[2, 1, -1, 0, 1, 0, -1, 1], [0, 1, 1, -1, 2, 1, 0, -2]]))
        z = append_zero_sum_row(block)
        m = IntMatrix(z.entries + (z.entries[0],))
        assert rank(m) == 8
        assert not all(sum(m.column(j)) == 0 for j in range(m.cols))
        with pytest.raises(ValueError, match="refusing a minor scan"):
            max_abs_full_rank_subdet(m)
        report = modularity_level(m)
        assert report.delta == modularity_level(block).delta
        assert report.witness.row_indices == tuple(range(8))
        assert report.witness.check(m)
        ok, hit = is_delta_modular(m, report.delta - 1)
        assert not ok and hit.check(m) and hit.row_indices == tuple(range(8))
        path = tmp_path / "tall.mat"
        path.write_text(m.to_text())
        assert run(["delta", str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(report.delta)

    def test_identity_anchored_scan_refused(self):
        rng = random.Random(1240)
        cols = [[int(i == k) for i in range(12)] for k in range(12)]
        cols += [[rng.randint(-3, 3) for _ in range(12)] for _ in range(40)]
        with pytest.raises(ValueError, match="refusing a minor scan"):
            modularity_level(IntMatrix.from_cols(cols))

    @staticmethod
    def _refused_at(monkeypatch, last, limit):
        # 3 rows and 4 extras: the store holds 3*4 + 3*6 + 1*4 = 34 minors.
        # The larger scratch is level 2's batch of all three rows, each
        # gathering 2 * (4 + 4) entries with an output row of C(4, 2) = 6:
        # 3 * 22 = 66 entries, above a family's sum, 2 * 6 = 12, and level
        # 3's one row, 3 * (4 + 6) = 30. 100 entries of the store's dtype
        m = IntMatrix.from_cols([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 1],
                                 [1, 2, 1], [1, 1, 2], last])
        monkeypatch.setattr(_batch, "MAX_SCAN_BYTES", limit)
        assert modularity_level(m).delta == naive_max_rank_subdet(m)
        monkeypatch.setattr(_batch, "MAX_SCAN_BYTES", limit - 1)
        with pytest.raises(ValueError, match="refusing a minor scan of size 3 over 4"):
            modularity_level(m)

    def test_identity_refusal_is_at_the_scan_byte_limit(self, monkeypatch):
        # B = 5 and 3! * 5**3 = 750 < 2**31: int32, 100 * 4 = 400 bytes
        self._refused_at(monkeypatch, [1, -1, 3], 400)

    def test_int64_identity_refusal_is_at_the_scan_byte_limit(self, monkeypatch):
        # B = 1002 and 3! * 1002**3 > 2**31: int64, 100 * 8 = 800 bytes
        self._refused_at(monkeypatch, [1, -1, 1000], 800)

    # A scan's Python objects (transversal lists, the set of built rows,
    # array headers) are not priced: about 8 KiB for the tiered matrices
    # and 19 KiB at rank 7.
    UNPRICED_BYTES = 64 * 1024

    def _peaks_within_price(self, monkeypatch, mats):
        prices = []
        check = _batch.check_scan_bytes

        def spy(need, depth, n):
            prices.append(need)
            check(need, depth, n)

        monkeypatch.setattr(_batch, "check_scan_bytes", spy)
        for m in mats:
            del prices[:]
            want = modularity_level(m)  # fills the caches shared between scans
            tracemalloc.start()
            try:
                got = modularity_level(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert len(prices) == 2 and prices[0] == prices[1]
            assert peak <= prices[1] + self.UNPRICED_BYTES

    def _priced_inputs(self):
        """The three dtype tiers, then the six delta 5, rank 7 constructions."""
        rng = random.Random(3235)
        yield from (TestDecisionWitnessOrder._tiered(rng, big) for big in (20, 800, 2 ** 21))
        for lam in families.partitions(4):
            yield families.build_A(5, lam, 7).matrix
        yield families.build_A_lee(5, 7).matrix

    def test_price_covers_what_a_scan_allocates(self, monkeypatch):
        self._peaks_within_price(monkeypatch, self._priced_inputs())

    def test_price_covers_a_scan_row_by_row(self, monkeypatch):
        caches = (modularity._blocks, modularity._store_layout)
        monkeypatch.setattr(modularity, "_BATCH_ENTRIES", 0)
        for f in caches:
            f.cache_clear()
        try:
            self._peaks_within_price(monkeypatch, list(self._priced_inputs())[:4])
        finally:
            for f in caches:
                f.cache_clear()
