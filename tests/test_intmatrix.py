import json

import pytest

from deltamod.families import build_A
from deltamod.intmatrix import UNLABELED, IntMatrix, ShapeError, SubmatrixWitness


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ShapeError):
            IntMatrix(())
        with pytest.raises(ShapeError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ShapeError):
            IntMatrix.from_rows([[1, 2]], labels=["only-one"])

    def test_identity(self):
        assert IntMatrix.identity(2).entries == ((1, 0), (0, 1))

    def test_from_cols(self):
        m = IntMatrix.from_cols([[1, 2], [3, 4]])
        assert m.entries == ((1, 3), (2, 4))
        assert m.column(1) == (3, 4)


class TestTextFormat:
    def test_round_trip(self):
        m = IntMatrix.from_rows([[1, -2, 3], [0, 5, -6]], labels=["a", "b", "c"])
        assert IntMatrix.from_text(m.to_text()) == m

    def test_plain_round_trip(self):
        m = IntMatrix.from_rows([[7]])
        assert IntMatrix.from_text(m.to_text()) == m

    def test_parse_example(self):
        m = IntMatrix.from_text("2 3\n1 0 -1\n0 2 5\nlabels: A-1 A-1 A-2\n")
        assert m.rows == 2 and m.cols == 3
        assert m.labels == ("A-1", "A-1", "A-2")

    def test_bad_header(self):
        with pytest.raises(ShapeError):
            IntMatrix.from_text("2\n1 2\n")

    def test_wrong_width(self):
        with pytest.raises(ShapeError):
            IntMatrix.from_text("2 2\n1 2 3\n4 5 6\n")


class TestJsonFormat:
    def test_round_trip(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]], labels=["x", "y"])
        assert IntMatrix.from_json_dict(m.to_json_dict()) == m

    def test_labels_omitted_when_absent(self):
        d = IntMatrix.identity(2).to_json_dict()
        assert "labels" not in d
        assert d == {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            IntMatrix.from_json_dict({"rows": 3, "cols": 2,
                                      "entries": [[1, 0], [0, 1]]})


class TestWitness:
    def test_recheck(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert SubmatrixWitness((0, 1), (0, 1), -2).check(m)
        assert not SubmatrixWitness((0, 1), (0, 1), 2).check(m)

    def test_square_required(self):
        with pytest.raises(ShapeError):
            SubmatrixWitness((0,), (0, 1), 0)

    def test_hstack_and_labels(self):
        a = IntMatrix.identity(2)
        b = IntMatrix.from_cols([[5, 6]], labels=["extra"])
        assert a.hstack(b).labels == (UNLABELED, UNLABELED, "extra")
        assert a.hstack(b).column(2) == (5, 6)

    def test_padded_labels_round_trip(self):
        m = build_A(3, (2,), 3).matrix.hstack(IntMatrix.from_cols([[1, 1, 1]]))
        assert m.labels[-1] == UNLABELED
        assert IntMatrix.from_text(m.to_text()) == m
        assert IntMatrix.from_json_dict(json.loads(json.dumps(m.to_json_dict()))) == m

    @pytest.mark.parametrize("label", ["", "a b", "tab\there", " lead", "end\n", None])
    def test_unwritable_label_refused(self, label):
        with pytest.raises(ShapeError):
            IntMatrix.from_rows([[1, 2]], labels=["ok", label])
