import json
from fractions import Fraction

import pytest

from qvl.extensions import zero_blocks
from qvl.families import family_a, family_lambda
from qvl.linalg import GF, Matrix, QQ
from qvl.reps import Representation, hom_basis
from qvl.serialize import (SerializationError, blocks_from_json,
                           blocks_to_json, field_from_json, field_to_json,
                           matrix_from_json, matrix_to_json,
                           morphism_from_json, morphism_to_json,
                           rep_from_json, rep_to_json)

F2 = GF(2)
F5 = GF(5)


class TestFieldCoding:
    def test_round_trip(self):
        assert field_from_json(field_to_json(F5)) == F5
        assert field_from_json(field_to_json(QQ)) == QQ

    def test_shape(self):
        assert field_to_json(F5) == {"type": "Fp", "p": 5}
        assert field_to_json(QQ) == {"type": "Q"}

    def test_bad_input(self):
        with pytest.raises(SerializationError):
            field_from_json({"type": "R"})
        with pytest.raises(SerializationError):
            field_from_json("F5")


class TestMatrixCoding:
    def test_prime_field_round_trip(self):
        m = Matrix(F5, 2, 3, [[0, 1, 2], [3, 4, 0]])
        data = matrix_to_json(m)
        assert data == [[0, 1, 2], [3, 4, 0]]
        assert matrix_from_json(F5, data, 2, 3) == m

    def test_rational_round_trip(self):
        m = Matrix(QQ, 2, 2, [[Fraction(1, 2), -1], [3, Fraction(-5, 7)]])
        data = matrix_to_json(m)
        assert data == [["1/2", "-1"], ["3", "-5/7"]]
        assert matrix_from_json(QQ, data, 2, 2) == m

    def test_rational_entry_text(self):
        entries = (Fraction(0), Fraction(-3), Fraction(7, 2), Fraction(-1, 6),
                   4)     # a plain int entry, as trusted Q rows may hold
        m = Matrix._trusted(QQ, 1, 5, (entries,))
        assert json.dumps(matrix_to_json(m)) == \
            '[["0", "-3", "7/2", "-1/6", "4"]]'
        assert matrix_to_json(m) == [[str(Fraction(x)) for x in entries]]

    def test_rational_accepts_plain_ints(self):
        m = matrix_from_json(QQ, [[1, 2]], 1, 2)
        assert m[0, 0] == 1

    def test_zero_dims(self):
        m = Matrix(F2, 0, 3)
        assert matrix_to_json(m) == []
        assert matrix_from_json(F2, [], 0, 3) == m
        tall = Matrix(F2, 2, 0)
        assert matrix_to_json(tall) == [[], []]
        assert matrix_from_json(F2, [[], []], 2, 0) == tall

    def test_entries_read_once_in_normal_form(self):
        """Each entry is read by ``_entry_from_json`` alone and lands in
        the field's normal form, as ``Matrix(...)`` would coerce it."""
        data = [["2/4", -3, "6"], ["0", "-10/4", 7]]
        m = matrix_from_json(QQ, data, 2, 3)
        assert m.rows == Matrix(QQ, 2, 3, data).rows == (
            (Fraction(1, 2), Fraction(-3), Fraction(6)),
            (Fraction(0), Fraction(-5, 2), Fraction(7)))
        assert all(type(x) is Fraction for row in m.rows for x in row)
        m5 = matrix_from_json(F5, [[7, -1, 5]], 1, 3)
        assert m5.rows == ((2, 4, 0),) and type(m5.rows) is tuple

    def test_shape_mismatch(self):
        with pytest.raises(SerializationError, match="shape 2x2"):
            matrix_from_json(F2, [[1, 0]], 2, 2)
        with pytest.raises(SerializationError, match="shape 1x2"):
            matrix_from_json(F2, [[1]], 1, 2)
        with pytest.raises(SerializationError, match="list of rows"):
            matrix_from_json(F2, {"0": [1]}, 1, 1)

    def test_fp_rejects_strings(self):
        with pytest.raises(SerializationError):
            matrix_from_json(F2, [["1"]], 1, 1)


class TestRepCoding:
    def test_round_trip(self):
        pres = family_a(1, 2, 1)
        rep = Representation(pres, F5, {0: 1, 1: 2}, {
            "e0": Matrix(F5, 1, 1, [[0]]),
            "e1": Matrix(F5, 2, 2, [[0, 1], [0, 0]]),
            "a1": Matrix(F5, 1, 2, [[2, 3]]),
        })
        data = rep_to_json(rep)
        assert data["dims"] == {"0": 1, "1": 2}
        text = json.dumps(data)
        back = rep_from_json(pres, json.loads(text))
        assert back == rep

    def test_degenerate_dims_round_trip(self):
        pres = family_a(1, 2, 1)
        rep = Representation.zero(pres, F2, {0: 1, 1: 0})
        back = rep_from_json(pres, rep_to_json(rep))
        assert back == rep
        assert back.mats["a1"].shape == (1, 0)

    def test_missing_pieces_rejected(self):
        pres = family_lambda(2)
        with pytest.raises(SerializationError):
            rep_from_json(pres, {"field": {"type": "Q"}, "dims": {"0": 1}})
        with pytest.raises(SerializationError):
            rep_from_json(pres, {"field": {"type": "Q"}, "dims": {"0": 1},
                                 "mats": {}})

    def test_unknown_names_rejected(self):
        pres = family_lambda(2)
        good = {"field": {"type": "Fp", "p": 2}, "dims": {"0": 1},
                "mats": {"e": [[0]]}}
        bad_vertex = dict(good, dims={"7": 1})
        with pytest.raises(SerializationError):
            rep_from_json(pres, bad_vertex)
        bad_arrow = dict(good, mats={"e": [[0]], "zz": [[0]]})
        with pytest.raises(SerializationError):
            rep_from_json(pres, bad_arrow)

    def test_negative_dim_rejected(self):
        pres = family_lambda(2)
        with pytest.raises(SerializationError):
            rep_from_json(pres, {"field": {"type": "Q"}, "dims": {"0": -1},
                                 "mats": {"e": []}})


class TestMorphismAndBlocks:
    def test_morphism_round_trip(self):
        pres = family_lambda(2)
        one = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        two = Representation(pres, F2, {0: 2},
                             {"e": Matrix(F2, 2, 2, [[0, 1], [0, 0]])})
        mor = hom_basis(one, two)[0]
        back = morphism_from_json(one, two, morphism_to_json(mor))
        assert back == mor

    def test_morphism_field_mismatch(self):
        pres = family_lambda(2)
        one = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        data = {"field": {"type": "Fp", "p": 3}, "maps": {"0": [[0]]}}
        with pytest.raises(SerializationError):
            morphism_from_json(one, one, data)

    def test_blocks_round_trip(self):
        pres = family_a(1, 2, 1)
        sub_dims = {0: 2, 1: 1}
        quo_dims = {0: 1, 1: 1}
        blocks = zero_blocks(pres, F5, sub_dims, quo_dims)
        blocks["a1"] = Matrix(F5, 2, 1, [[4], [1]])
        data = blocks_to_json(F5, blocks)
        back = blocks_from_json(pres, sub_dims, quo_dims, data)
        assert back == blocks

    def test_blocks_missing_arrow(self):
        pres = family_a(1, 2, 1)
        with pytest.raises(SerializationError):
            blocks_from_json(pres, {0: 1, 1: 1}, {0: 1, 1: 1},
                             {"field": {"type": "Fp", "p": 5},
                              "blocks": {"a1": [[0]]}})


    def test_blocks_unknown_arrow(self):
        # the same check as for a representation's mats
        with pytest.raises(SerializationError,
                           match=r"unknown arrows in blocks: \['zz'\]"):
            blocks_from_json(family_lambda(2), {0: 1}, {0: 1},
                             {"field": {"type": "Fp", "p": 5},
                              "blocks": {"e": [[0]], "zz": [[1]]}})
        with pytest.raises(SerializationError,
                           match=r"unknown arrows in mats: \['zz'\]"):
            rep_from_json(family_lambda(2),
                          {"field": {"type": "Fp", "p": 5},
                           "dims": {"0": 1},
                           "mats": {"e": [[0]], "zz": [[1]]}})


class TestMalformedShapes:
    """JSON of the wrong shape raises SerializationError, never a bare
    AttributeError, KeyError or TypeError."""

    def test_maps_not_an_object(self):
        pres = family_lambda(2)
        one = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
        with pytest.raises(SerializationError, match="'maps' object"):
            morphism_from_json(one, one, {"field": {"type": "Fp", "p": 2},
                                          "maps": [1]})

    def test_blocks_without_field(self):
        with pytest.raises(SerializationError, match="'field'"):
            blocks_from_json(family_lambda(2), {0: 1}, {0: 1},
                             {"blocks": {"e": [[0]]}})

    def test_blocks_not_an_object(self):
        with pytest.raises(SerializationError, match="'blocks' object"):
            blocks_from_json(family_lambda(2), {0: 1}, {0: 1},
                             {"field": {"type": "Fp", "p": 2}, "blocks": 1})

    def test_boolean_dim_rejected(self):
        # JSON true must not read as dimension 1
        with pytest.raises(SerializationError, match="nonnegative integer"):
            rep_from_json(family_lambda(2),
                          {"field": {"type": "Fp", "p": 2},
                           "dims": {"0": True}, "mats": {"e": [[0]]}})
