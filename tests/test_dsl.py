import pytest

from qvl.dsl import (DslSemanticError, DslSyntaxError, derive_truncation_bound,
                     parse_quiver_spec, print_quiver_spec)
from qvl.families import (family_a, family_a_prime, family_a_prime_commuting,
                          family_b, family_lambda)

# ten varied presentations: every family shape, fractions, comments,
# leading minus, identifiers as vertex names, multi-vertex chains
CORPUS = [
    "quiver L2 { vertex 0; loop e at 0; rel e^2; }",
    "quiver L4 { vertex 0; loop e at 0; rel e^4; }",
    """quiver A121 {
      vertex 0; vertex 1;
      loop e0 at 0; loop e1 at 1;
      arrow a1: 1 -> 0;
      rel e0^2; rel e1^2;
      rel e0*a1 + a1*e1;
    }""",
    """quiver A132 {
      vertex 0; vertex 1;
      loop e0 at 0; loop e1 at 1;
      arrow a1: 1 -> 0;
      rel e0^3; rel e1^3;
      rel e0^2*a1 + e0*a1*e1 + a1*e1^2;
    }""",
    """quiver Comm2 {
      vertex 0; vertex 1;
      loop e0 at 0; loop e1 at 1;
      arrow a1: 1 -> 0;
      rel e0^2; rel e1^2;
      rel e0*a1 - a1*e1;
    }""",
    """quiver TwoArrows {
      vertex 0; vertex 1;
      loop e0 at 0; loop e1 at 1;
      arrow a1: 1 -> 0; arrow a2: 1 -> 0;
      rel e0^2; rel e1^2;
      rel e0*a1 + a1*e1;
      rel e0*a2 - a2*e1;
    }""",
    """quiver Fractions {
      vertex 0;
      loop e at 0;
      rel e^2;
      rel e^2 + 1/2*e^3;  # mixed orders with a rational weight
    }""",
    """quiver Chain {
      vertex x; vertex y; vertex z;
      arrow f: x -> y; arrow g: y -> z;
      rel g*f;
    }""",
    """quiver LoopsOnly {
      vertex 0; vertex 1;
      loop e0 at 0; loop e1 at 1;
      rel e0^3; rel e1^2;
    }""",
    """quiver LeadingMinus {
      vertex 0; vertex 1;
      loop e0 at 0; loop e1 at 1;
      arrow a1: 1 -> 0;
      rel e0^2; rel e1^2;
      rel - a1*e1 + e0*a1;
    }""",
]


class TestRoundTrip:
    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_print_parse_identity(self, idx):
        pres = parse_quiver_spec(CORPUS[idx])
        printed = print_quiver_spec(pres)
        again = parse_quiver_spec(printed)
        assert again == pres
        # printing is idempotent on the canonical form
        assert print_quiver_spec(again) == printed

    def test_families_round_trip_through_text(self):
        for pres in (family_a(1, 2, 1), family_a(2, 3, 2),
                     family_a_prime(1, 2, 3), family_a_prime_commuting(2),
                     family_lambda(3), family_b(2, 2)):
            assert parse_quiver_spec(print_quiver_spec(pres)) == pres


class TestParsedStructure:
    def test_matches_family_constructor(self):
        pres = parse_quiver_spec(CORPUS[3])
        ref = family_a(1, 3, 2)
        assert pres.quiver == ref.quiver
        assert pres.relations == ref.relations
        assert pres.truncation_bound == ref.truncation_bound

    def test_commuting_matches_family(self):
        pres = parse_quiver_spec(CORPUS[4])
        ref = family_a_prime_commuting(2)
        assert pres.relations == ref.relations

    def test_identifier_vertices(self):
        pres = parse_quiver_spec(CORPUS[7])
        assert pres.quiver.vertices == ("x", "y", "z")
        assert pres.truncation_bound == 3

    def test_composition_order(self):
        # e0*a1 applies a1 first: the sequence is (e0, a1)
        pres = parse_quiver_spec(CORPUS[2])
        crossing = pres.relations[2]
        assert [p.arrows for p in crossing.paths()] == \
            [("a1", "e1"), ("e0", "a1")]

    def test_derived_bounds(self):
        assert parse_quiver_spec(CORPUS[0]).truncation_bound == 2
        assert parse_quiver_spec(CORPUS[2]).truncation_bound == 4
        # loops of orders 3 and 2, no connecting arrows: (3-1)+(2-1)+0+1
        assert parse_quiver_spec(CORPUS[8]).truncation_bound == 4


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_quiver_spec("quiver X {\n vertex 0\n}")
        assert exc.value.line == 3

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError):
            parse_quiver_spec("quiver X { vertex 0; loop e at 0; rel e@2; }")

    def test_zero_denominator(self):
        with pytest.raises(DslSyntaxError, match="zero denominator") as exc:
            parse_quiver_spec("quiver X { vertex 0; loop e at 0;\n"
                              "  rel e^3; rel e^2 - 2/00*e^3; }")
        assert (exc.value.line, exc.value.col) == (2, 22)

    def test_zero_numerator_parses(self):
        pres = parse_quiver_spec("quiver X { vertex 0; loop e at 0; "
                                 "rel e^2 + 0/5*e^3; }")
        assert len(pres.relations) == 1

    def test_unknown_arrow(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec("quiver X { vertex 0; loop e at 0; "
                              "rel e^2; rel f^2; }")

    def test_unknown_vertex(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec("quiver X { vertex 0; arrow a: 0 -> 1; }")

    def test_non_composable_relation(self):
        with pytest.raises(DslSemanticError) as exc:
            parse_quiver_spec(
                "quiver X { vertex 0; vertex 1; loop e0 at 0; "
                "arrow a1: 1 -> 0; rel e0^2; rel e0*a1 - a1*e0; }")
        assert "compose" in str(exc.value)

    def test_short_relation(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec("quiver X { vertex 0; loop e at 0; rel e; }")

    def test_non_parallel_terms(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec(
                "quiver X { vertex 0; vertex 1; loop e0 at 0; loop e1 at 1; "
                "rel e0^2; rel e1^2; rel e0^2 + e1^2; }")

    def test_duplicate_declarations(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec("quiver X { vertex 0; vertex 0; }")
        with pytest.raises(DslSemanticError):
            parse_quiver_spec(
                "quiver X { vertex 0; loop e at 0; loop e at 0; rel e^2; }")

    def test_cancelling_relation(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec(
                "quiver X { vertex 0; loop e at 0; rel e^2 - e^2; }")

    def test_underivable_bound_no_power(self):
        with pytest.raises(DslSemanticError) as exc:
            parse_quiver_spec("quiver X { vertex 0; loop e at 0; rel e^2 "
                              "+ e^3; }")
        assert "truncation bound" in str(exc.value)

    def test_underivable_bound_cycle(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec(
                "quiver X { vertex 0; vertex 1; arrow a: 0 -> 1; "
                "arrow b: 1 -> 0; rel a*b; }")

    def test_two_loops_at_vertex(self):
        with pytest.raises(DslSemanticError):
            parse_quiver_spec(
                "quiver X { vertex 0; loop e at 0; loop f at 0; "
                "rel e^2; rel f^2; }")


class TestDerivedBound:
    def test_formula(self):
        pres = family_a_prime(1, 2, 3)
        bound = derive_truncation_bound(pres.quiver, list(pres.relations))
        # (2-1) + (3-1) + longest loop-free path (1) + 1
        assert bound == 5

    def test_no_loops_acyclic(self):
        pres = parse_quiver_spec(CORPUS[7])
        bound = derive_truncation_bound(pres.quiver, list(pres.relations))
        assert bound == 3  # longest chain has length 2
