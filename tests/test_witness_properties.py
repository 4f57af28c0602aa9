"""Property tests: every reported witness re-checks and carries the level.

Matrices are drawn small and in three shapes, so that each strategy of the
modularity engine is reached: plain (general scan), with a signed unit
column per row prepended (identity-anchored scan), and with a negated
column-sum row appended (zero-sum reduction).
"""

from hypothesis import assume, given, settings, strategies as st

from deltamod.exact import rank
from deltamod.intmatrix import IntMatrix
from deltamod.modularity import append_zero_sum_row, is_delta_modular, modularity_level

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def small_matrices(draw) -> IntMatrix:
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    m = IntMatrix.from_rows(
        [[draw(entries) for _ in range(cols)] for _ in range(rows)])
    shape = draw(st.sampled_from(["plain", "anchored", "zero-sum"]))
    if shape == "anchored":
        signs = [draw(st.sampled_from([1, -1])) for _ in range(rows)]
        units = [[signs[k] * int(i == k) for i in range(rows)] for k in range(rows)]
        m = IntMatrix.from_cols(units + [list(c) for c in m.columns()])
    elif shape == "zero-sum":
        m = append_zero_sum_row(m)
    assume(rank(m) > 0)
    return m


def _is_rank_sized(witness, m: IntMatrix) -> bool:
    r = rank(m)
    return len(witness.row_indices) == r and len(witness.col_indices) == r


@PROPERTY_SETTINGS
@given(small_matrices())
def test_level_witness_checks_and_equals_level(m):
    report = modularity_level(m)
    assert report.witness.check(m)
    assert _is_rank_sized(report.witness, m)
    assert abs(report.witness.det_value) == report.delta


@PROPERTY_SETTINGS
@given(small_matrices(), st.integers(1, 6))
def test_violation_witness_checks_and_exceeds_bound(m, delta):
    ok, witness = is_delta_modular(m, delta)
    level = modularity_level(m).delta
    assert ok == (level <= delta)
    if ok:
        assert witness is None
    else:
        assert witness.check(m)
        assert _is_rank_sized(witness, m)
        assert delta < abs(witness.det_value) <= level
