import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qvl.dsl
import qvl.quiver
from qvl.cli import EXIT_SEMANTIC, run_command
from qvl.dsl import parse_quiver_spec, print_quiver_spec
from qvl.families import (crossing_relation, family_a, family_a_prime,
                          family_a_prime_commuting, family_b, family_lambda,
                          two_vertex_quiver)
from qvl.linalg import GF, QQ
from qvl.quiver import (AlgebraElement, BoundQuiver, PathBasis, Quiver,
                        QuiverError, Relation, decompose_by_support, degree,
                        ext2_dimension, ideal_membership, ideal_subspace,
                        is_minimal_relation_set, is_normalized_relation_set,
                        is_simple_loop_extension, is_weakly_triangular,
                        loop_nilpotency_index, monomial_relation, power)


def one_loop_quiver():
    return Quiver([0], [("e", 0, 0)])


def lambda_pres(m, bound=None):
    q = one_loop_quiver()
    return BoundQuiver(q, [monomial_relation(q, "e", m)], bound or m)


class TestQuiverStructure:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(QuiverError):
            Quiver([0, 0], [])
        with pytest.raises(QuiverError):
            Quiver([0], [("e", 0, 0), ("e", 0, 0)])

    def test_unknown_endpoint(self):
        with pytest.raises(QuiverError):
            Quiver([0], [("a", 0, 1)])

    def test_path_composability(self):
        q = family_a(1, 2, 1).quiver
        with pytest.raises(QuiverError):
            q.path(["a1", "e0"])  # e0 ends at 0, a1 starts at 1
        p = q.path(["e0", "a1", "e1"])
        assert p.source == 1 and p.target == 0 and p.length == 3

    def test_paths_up_to_sorted_and_complete(self):
        q = family_lambda(3).quiver
        paths = q.paths_up_to(2)
        assert [str(p) for p in paths] == ["1_0", "e", "e*e"]


class TestDegree:
    def test_loop_degree_zero(self):
        q = family_a(1, 2, 1).quiver
        assert q.arrow_degree("e0") == 0

    def test_arrow_degree_one(self):
        q = family_a(1, 2, 1).quiver
        assert q.arrow_degree("a1") == 1

    def test_path_degree_sums(self):
        q = family_a(1, 2, 1).quiver
        assert degree(q.path(["e0", "a1", "e1"])) == 1
        assert degree(q.trivial_path(0)) == 0

    def test_relation_degree_is_min(self):
        q = family_a(1, 3, 2).quiver
        rel = Relation([(1, q.path(["e0", "e0"])),
                        (1, q.path(["e0", "e0", "e0"]))])
        assert degree(rel) == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    def test_degree_additive_on_composition(self, i, j, k):
        q = family_a(2, 3, 1).quiver
        left = power(q, "e0", i)
        mid = q.path(["a1"]) if k == 0 else q.path(["a2"]) if k == 1 \
            else q.path(["a1"])
        right = power(q, "e1", j)
        total = q.compose(left, q.compose(mid, right))
        assert total.degree == left.degree + mid.degree + right.degree
        assert total.length == i + j + 1


class TestWeakTriangularity:
    def test_families_are_weakly_triangular(self):
        for pres in (family_a(2, 3, 2), family_a_prime(1, 2, 2),
                     family_lambda(4)):
            assert is_weakly_triangular(pres.quiver)

    def test_two_cycle_is_not(self):
        q = Quiver([0, 1], [("a", 0, 1), ("b", 1, 0)])
        assert not is_weakly_triangular(q)

    def test_single_loop_is(self):
        assert is_weakly_triangular(one_loop_quiver())

    def _bounded_path_oracle(self, q):
        # any oriented cycle of positive degree shrinks to one in the
        # loop-free subquiver with at most |Q_0| arrows
        arcs = [(a, s, t) for a, s, t in q.arrows if s != t]
        frontier = [(s, t) for _, s, t in arcs]
        for _ in range(len(q.vertices)):
            if any(s == t for s, t in frontier):
                return False
            frontier = [(s, t2) for s, t in frontier
                        for _, s2, t2 in arcs if s2 == t]
        return True

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_matches_bounded_path_search(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(1, 4)
        vertices = list(range(nv))
        arrows = []
        for i in range(rng.randint(0, 5)):
            s, t = rng.randrange(nv), rng.randrange(nv)
            arrows.append((f"x{i}", s, t))
        q = Quiver(vertices, arrows)
        assert is_weakly_triangular(q) == self._bounded_path_oracle(q)


class TestRelationNormalization:
    def test_terms_sorted_and_merged(self):
        q = family_a(1, 3, 2).quiver
        r1 = Relation([(1, q.path(["a1", "e1", "e1"])),
                       (1, q.path(["e0", "e0", "a1"])),
                       (1, q.path(["e0", "a1", "e1"]))])
        r2 = Relation([(1, q.path(["e0", "a1", "e1"])),
                       (Fraction(1, 2), q.path(["e0", "e0", "a1"])),
                       (Fraction(1, 2), q.path(["e0", "e0", "a1"])),
                       (1, q.path(["a1", "e1", "e1"]))])
        assert r1 == r2

    def test_zero_relation_rejected(self):
        q = one_loop_quiver()
        with pytest.raises(QuiverError):
            Relation([(1, q.path(["e", "e"])), (-1, q.path(["e", "e"]))])

    def test_short_terms_rejected(self):
        q = one_loop_quiver()
        with pytest.raises(QuiverError):
            Relation([(1, q.path(["e"]))])

    def test_non_parallel_rejected(self):
        q = family_a(1, 2, 1).quiver
        with pytest.raises(QuiverError):
            Relation([(1, q.path(["e0", "e0"])), (1, q.path(["e1", "e1"]))])


class TestIdealSubspace:
    def test_truncation_bound_validated(self):
        # building checks nothing; every ideal query checks N again
        q = one_loop_quiver()
        pres = BoundQuiver(q, [monomial_relation(q, "e", 3)], 2)
        before = qvl.quiver._checked.cache_info()
        for query in (
                pres.ideal_span,
                lambda: is_minimal_relation_set(pres.relations, pres),
                lambda: is_normalized_relation_set(pres.relations, pres),
                lambda: loop_nilpotency_index(pres, "e"),
                lambda: ideal_membership(pres.element({}), pres)):
            for _ in range(2):
                with pytest.raises(QuiverError, match="N=2 is not a trunc"):
                    query()
        # every query checked N again, and none found a kept entry
        after = qvl.quiver._checked.cache_info()
        assert after.misses == before.misses + 10
        assert (after.hits, after.currsize) == (before.hits, before.currsize)

    def test_one_loop_spans(self):
        assert ideal_subspace(lambda_pres(2, bound=2)).dim == 0
        sp = ideal_subspace(lambda_pres(2, bound=3))
        assert sp.dim == 1
        basis = PathBasis(one_loop_quiver(), 3)
        q = one_loop_quiver()
        vec = basis.vector(AlgebraElement.from_path(q, 3, q.path(["e", "e"])),
                           QQ)
        assert sp.contains(vec)

    def test_hereditary_zero(self):
        q = Quiver([0, 1], [("a", 1, 0)])
        pres = BoundQuiver(q, [], 2)
        assert ideal_subspace(pres).dim == 0

    def test_commuting_generator_in_span(self):
        pres = family_a_prime_commuting(2)
        span = ideal_subspace(pres)
        basis = pres.path_basis()
        comm = AlgebraElement(pres.quiver, pres.truncation_bound,
                              {pres.quiver.path(["e0", "a1"]): 1,
                               pres.quiver.path(["a1", "e1"]): -1})
        assert span.contains(basis.vector(comm, QQ))

    def _monomial_ideal_dim_oracle(self, pres, bound):
        # for monomial relations the ideal is spanned by the basis paths
        # containing some generator as a contiguous subword
        gens = [rel.paths()[0] for rel in pres.relations]
        hits = 0
        for path in pres.quiver.paths_up_to(bound - 1):
            if any(path.contains_subpath(g) for g in gens):
                hits += 1
        return hits

    @pytest.mark.parametrize("pres,bound", [
        (family_lambda(2), 4),
        (family_lambda(3), 5),
        (family_a_prime(1, 2, 2), 4),
        (family_a_prime(2, 2, 3), 6),
    ])
    def test_monomial_ideal_dimension_oracle(self, pres, bound):
        got = ideal_subspace(pres, bound=bound).dim
        assert got == self._monomial_ideal_dim_oracle(pres, bound)

    def test_monotone_in_relations(self):
        pres = family_a(1, 3, 2)
        partial = ideal_subspace(pres, relations=pres.relations[:2])
        full = ideal_subspace(pres)
        assert partial.dim <= full.dim
        assert partial <= full


class TestIdealMembership:
    def test_powers_of_loop(self):
        pres = lambda_pres(2, bound=2)
        q = pres.quiver
        cube = AlgebraElement.from_path(q, 4, q.path(["e"] * 3))
        assert ideal_membership(cube, pres)
        lin = AlgebraElement.from_path(q, 2, q.path(["e"]))
        assert not ideal_membership(lin, pres)

    def test_commuting_negated_generator(self):
        pres = family_a_prime_commuting(2)
        q = pres.quiver
        elem = AlgebraElement(q, 4, {q.path(["a1", "e1"]): 1,
                                     q.path(["e0", "a1"]): -1})
        assert ideal_membership(elem, pres)

    def test_over_prime_field(self):
        pres = family_a_prime_commuting(3)
        q = pres.quiver
        # over F_2 the commuting generator equals its own negation
        elem = AlgebraElement(q, 6, {q.path(["a1", "e1"]): 1,
                                     q.path(["e0", "a1"]): 1})
        assert ideal_membership(elem, pres, field=GF(2))
        assert not ideal_membership(elem, pres, field=GF(3))


class TestLoopNilpotency:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_one_loop(self, m):
        assert loop_nilpotency_index(lambda_pres(m), "e") == m

    def test_family_a(self):
        pres = family_a(1, 3, 1)
        assert loop_nilpotency_index(pres, "e0") == 3
        assert loop_nilpotency_index(pres, "e1") == 3

    def test_family_a_prime_asymmetric(self):
        pres = family_a_prime(1, 2, 3)
        assert loop_nilpotency_index(pres, "e0") == 2
        assert loop_nilpotency_index(pres, "e1") == 3

    def test_mixed_generator_still_order_two(self):
        q = one_loop_quiver()
        rel = Relation([(1, q.path(["e", "e"])), (1, q.path(["e", "e", "e"]))])
        pres = BoundQuiver(q, [rel], 2)
        assert loop_nilpotency_index(pres, "e") == 2

    def test_non_loop_rejected(self):
        pres = family_a(1, 2, 1)
        with pytest.raises(QuiverError):
            loop_nilpotency_index(pres, "a1")

    def test_unknown_arrow_rejected(self):
        with pytest.raises(QuiverError, match="unknown arrow 'zz'"):
            loop_nilpotency_index(family_a(1, 3, 1), "zz")


class TestBoundOverField:
    """N = 2 holds for the relation 2*e^2 over Q and F_3, but over F_2 the
    relation is 0 and e^2 leaves the ideal."""

    @staticmethod
    def doubled_square():
        q = one_loop_quiver()
        return BoundQuiver(q, [Relation([(2, q.path(["e", "e"]))])], 2)

    def test_rejected_over_f2(self):
        pres = self.doubled_square()
        with pytest.raises(QuiverError,
                           match="N=2 is not a truncation bound over F2"):
            loop_nilpotency_index(pres, "e", GF(2))
        with pytest.raises(QuiverError, match="over F2"):
            is_normalized_relation_set(pres.relations, pres, GF(2))
        with pytest.raises(QuiverError, match="over F2"):
            ideal_membership(pres.element({pres.quiver.path(["e"]): 1}),
                             pres, GF(2))

    def test_accepted_over_f3_and_q(self):
        pres = self.doubled_square()
        assert loop_nilpotency_index(pres, "e", GF(3)) == 2
        assert loop_nilpotency_index(pres, "e") == 2
        assert is_normalized_relation_set(pres.relations, pres, GF(3))

    def test_counting_over_f2_is_unaffected(self):
        from qvl.counting import count_rep_points
        # over F_2 the relation vanishes: every 2 x 2 matrix is a point
        assert count_rep_points(self.doubled_square(), GF(2), {0: 2}) == 16


def _kept(*keys) -> bool:
    """Whether ``quiver._checked`` holds exactly these (presentation, field)
    keys: as many entries, each found without a check."""
    info = qvl.quiver._checked.cache_info()
    for pres, field in keys:
        qvl.quiver._checked(pres, field)
    after = qvl.quiver._checked.cache_info()
    return (info.currsize == len(keys) and after.misses == info.misses
            and after.hits == info.hits + len(keys))


class TestSpanTable:
    """N is checked once for each presentation value and field while its
    span is among the last 64 kept; a failed check is never stored."""

    @pytest.fixture
    def spans(self):
        qvl.quiver._checked.cache_clear()
        yield
        qvl.quiver._checked.cache_clear()

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []
        inner = BoundQuiver._check_truncation_bound

        def counted(pres, field):
            seen.append(field)
            return inner(pres, field)

        monkeypatch.setattr(BoundQuiver, "_check_truncation_bound", counted)
        return seen

    def test_equal_presentations_share_one_check(self, spans, checks):
        pres = family_a(1, 4, 2)
        reparsed = parse_quiver_spec(print_quiver_spec(pres))
        renamed = BoundQuiver(pres.quiver, pres.relations,
                              pres.truncation_bound, name="renamed")
        assert reparsed == pres == renamed
        assert renamed.name != pres.name
        assert checks == [] and _kept()
        assert (reparsed.ideal_span() is renamed.ideal_span()
                is pres.ideal_span())
        assert checks == [QQ]
        assert _kept((pres, QQ))

    def test_wrong_bound_fails_on_every_query(self, spans):
        q = one_loop_quiver()
        pres = BoundQuiver(q, [monomial_relation(q, "e", 3)], 2)
        for field in (QQ, GF(2)):
            for _ in range(2):
                with pytest.raises(QuiverError,
                                   match="N=2 is not a truncation"):
                    pres.ideal_span(field)
        assert _kept()

    def test_wrong_dsl_bound_exits_4_on_every_run(self, tmp_path,
                                                   monkeypatch):
        # the DSL derives a bound that always holds over Q, so lower it:
        # e0*a1 is a path of length 2 outside the ideal
        path = tmp_path / "t.qv"
        path.write_text("quiver T { vertex 0; vertex 1; loop e0 at 0; "
                        "arrow a1: 1 -> 0; rel e0^2; }\n")
        derive = qvl.dsl.derive_truncation_bound
        monkeypatch.setattr(qvl.dsl, "derive_truncation_bound",
                            lambda quiver, rels: derive(quiver, rels) - 1)
        for _ in range(2):
            code, report = run_command(["ext2", "--quiver", str(path),
                                        "--x", "1", "--y", "0"])
            error = report["error"]
            assert (code, error["type"]) == (EXIT_SEMANTIC, "semantic")
            assert "N=2 is not a truncation bound" in error["message"]
        # a count never reads N
        code, report = run_command(["count", "--quiver", str(path),
                                    "--dim", "1,1", "--q", "2"])
        assert (code, report["result"]["count"]) == (0, 2)

    def test_prime_fields_are_separate_entries(self, spans, checks):
        pres = lambda_pres(2)
        f2, f3 = pres.ideal_span(GF(2)), pres.ideal_span(GF(3))
        assert (f2.field, f3.field) == (GF(2), GF(3))
        assert pres.ideal_span(GF(2)) is f2
        assert _kept((pres, GF(2)), (pres, GF(3)))
        assert checks == [GF(2), GF(3)]

    def test_failed_prime_field_check_is_not_stored(self, spans, checks):
        pres = TestBoundOverField.doubled_square()
        for _ in range(2):
            with pytest.raises(QuiverError, match="over F2"):
                pres.ideal_span(GF(2))
        assert _kept()
        assert checks == [GF(2), GF(2)]

    def test_unchecked_build_stores_nothing_until_queried(self, spans):
        q = one_loop_quiver()
        pres = BoundQuiver(q, [monomial_relation(q, "e", 2)], 2)
        assert _kept()
        assert loop_nilpotency_index(pres, "e") == 2
        assert _kept((pres, QQ))

    def test_last_64_spans_are_kept(self, spans, checks):
        # the 65th presentation evicts the first, the least recently used,
        # which is checked again and gives an equal span
        assert qvl.quiver._checked.cache_info().maxsize == 64
        first, *rest = [lambda_pres(m) for m in range(2, 67)]
        span = first.ideal_span()
        for pres in rest:
            pres.ideal_span()
        assert len(checks) == 65
        assert qvl.quiver._checked.cache_info().currsize == 64
        again = first.ideal_span()
        assert again is not span and again == span
        assert len(checks) == 66
        assert rest[-1].ideal_span() is rest[-1].ideal_span()
        assert len(checks) == 66


class TestMinimalRelationSets:
    @pytest.mark.parametrize("n,m,l", [(1, 2, 1), (1, 3, 2), (2, 3, 1)])
    def test_family_relations_minimal(self, n, m, l):
        pres = family_a(n, m, l)
        assert is_minimal_relation_set(pres.relations, pres)

    def test_redundant_power_detected(self):
        pres = family_a(1, 2, 1)
        extra = list(pres.relations) + [monomial_relation(pres.quiver,
                                                          "e0", 3)]
        assert not is_minimal_relation_set(extra, pres)

    def test_vacuous_for_hereditary(self):
        q = Quiver([0, 1], [("a", 1, 0)])
        pres = BoundQuiver(q, [], 2)
        assert is_minimal_relation_set([], pres)

    def test_single_generator_minimal_even_when_cut_by_bound(self):
        # with the bound at the relation's own length, naive truncation
        # would hide the generator; the computation must still see it
        pres = lambda_pres(3)
        assert pres.truncation_bound == 3
        assert is_minimal_relation_set(pres.relations, pres)

    def test_wrong_ideal_raises(self):
        pres = lambda_pres(2)
        q = pres.quiver
        with pytest.raises(QuiverError):
            is_minimal_relation_set([monomial_relation(q, "e", 3)], pres)

    def test_crossing_relation_of_high_degree_is_redundant(self):
        # every term of the order-3 crossing relation on order-2 loops
        # already contains a loop power, so dropping it changes nothing;
        # family A refuses l >= m, so the presentation is built here
        q = two_vertex_quiver(1)
        pres = BoundQuiver(q, [monomial_relation(q, "e0", 2),
                               monomial_relation(q, "e1", 2),
                               crossing_relation(q, 3)], 4)
        assert not is_minimal_relation_set(pres.relations, pres)


class TestNormalizedRelationSets:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_corner_family_normalized(self, m):
        pres = family_b(1, m)
        assert is_normalized_relation_set(pres.relations, pres)

    def test_mixed_power_not_normalized(self):
        q = one_loop_quiver()
        rel = Relation([(1, q.path(["e", "e"])), (1, q.path(["e", "e", "e"]))])
        pres = BoundQuiver(q, [rel], 2)
        assert not is_normalized_relation_set([rel], pres)

    def test_hereditary_vacuous(self):
        q = Quiver([0, 1], [("a", 1, 0)])
        pres = BoundQuiver(q, [], 2)
        assert is_normalized_relation_set([], pres)

    def test_non_minimal_raises(self):
        pres = family_a(1, 2, 1)
        extra = list(pres.relations) + [monomial_relation(pres.quiver,
                                                          "e0", 3)]
        with pytest.raises(QuiverError):
            is_normalized_relation_set(extra, pres)


class TestExtSquared:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m,l", [(2, 1), (3, 1), (3, 2)])
    def test_family_a_corner(self, n, m, l):
        pres = family_a(n, m, l)
        assert ext2_dimension(pres, pres.relations, 1, 0) == (1, 1)

    @pytest.mark.parametrize("n,m0,m1", [(1, 2, 2), (2, 3, 2), (1, 1, 2)])
    def test_loop_only_families_vanish(self, n, m0, m1):
        pres = family_a_prime(n, m0, m1)
        assert ext2_dimension(pres, pres.relations, 1, 0) == (0, 0)

    def test_hereditary_zero(self):
        q = Quiver([0, 1], [("a", 1, 0)])
        pres = BoundQuiver(q, [], 2)
        assert ext2_dimension(pres, [], 1, 0) == (0, 0)

    def test_same_vertex_rejected(self):
        pres = family_a(1, 2, 1)
        with pytest.raises(QuiverError):
            ext2_dimension(pres, pres.relations, 0, 0)

    @pytest.mark.parametrize("x", [7, "1"])
    def test_unknown_vertex_rejected(self, x):
        pres = family_a(1, 3, 1)
        with pytest.raises(QuiverError, match=f"unknown vertex {x!r}"):
            ext2_dimension(pres, pres.relations, x, 0)

    def test_other_direction_is_zero(self):
        pres = family_a(1, 3, 2)
        assert ext2_dimension(pres, pres.relations, 0, 1) == (0, 0)

    def test_two_crossing_relations_counted(self):
        # two independent degree-one relations from 1 to 0
        base = family_a(2, 2, 1)
        q = base.quiver
        second = Relation([(1, q.path(["e0", "a2"])),
                           (1, q.path(["a2", "e1"]))])
        pres = BoundQuiver(q, list(base.relations) + [second], 4)
        assert ext2_dimension(pres, pres.relations, 1, 0) == (2, 2)

    def test_products_built_once(self, monkeypatch):
        """A warm ext2 or minimality check on the presentation's own
        relations builds no rows and no span; another set builds its rows
        and spans them once."""
        pres = family_a(3, 5, 2)
        pres.ideal_span()
        built = []
        rows, subspace = qvl.quiver._ideal_rows, qvl.quiver.Subspace
        monkeypatch.setattr(qvl.quiver, "_ideal_rows",
                            lambda *a: built.append("rows") or rows(*a))
        monkeypatch.setattr(qvl.quiver, "Subspace",
                            lambda *a: built.append("span") or subspace(*a))
        assert ext2_dimension(pres, pres.relations, 1, 0) == (1, 1)
        assert is_minimal_relation_set(pres.relations, pres)
        assert built == []
        turned = pres.relations[1:] + pres.relations[:1]
        assert ext2_dimension(pres, turned, 1, 0) == (1, 1)
        assert built == ["rows", "span"]

    def test_zero_composite_on_a_chain(self):
        # loop-free three-vertex chain with the composite killed
        q = Quiver(["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z")])
        rel = Relation([(1, q.path(["g", "f"]))])
        pres = BoundQuiver(q, [rel], 2)
        assert ext2_dimension(pres, pres.relations, "x", "z") == (1, 1)
        assert ext2_dimension(pres, pres.relations, "x", "y") == (0, 0)


class TestSupportDecomposition:
    def test_crossing_relation_single_group(self):
        pres = family_a(1, 2, 1)
        rel = pres.relations[2]
        groups = decompose_by_support(rel, pres.quiver)
        assert set(groups) == {frozenset({0, 1})}
        assert groups[frozenset({0, 1})] == rel

    def test_monomial_single_group(self):
        pres = family_lambda(3)
        groups = decompose_by_support(pres.relations[0], pres.quiver)
        assert set(groups) == {frozenset({0})}

    def test_parallel_terms_with_distinct_supports_split_and_sum(self):
        # both terms run 2 -> 0, but only one passes through vertex 1
        q = Quiver([0, 1, 2], [("e0", 0, 0), ("a", 1, 0), ("b", 2, 1),
                               ("c", 2, 0)])
        rel = Relation([(1, q.path(["a", "b"])), (2, q.path(["e0", "c"]))])
        groups = decompose_by_support(rel, q)
        assert set(groups) == {frozenset({0, 1, 2}), frozenset({0, 2})}
        merged = []
        for part in groups.values():
            merged.extend((c, p) for c, p in part.terms)
        assert Relation(merged) == rel


class TestSimpleLoopExtension:
    @pytest.mark.parametrize("pres,expected", [
        (family_a_prime(2, 3, 2), True),
        (family_a_prime(0, 2, 2), True),
        (family_a(1, 2, 1), False),
        (family_a(2, 3, 2), False),
        (family_lambda(3), True),
    ])
    def test_families(self, pres, expected):
        assert is_simple_loop_extension(pres) == expected

    def test_two_loops_at_vertex_fails(self):
        q = Quiver([0], [("e", 0, 0), ("f", 0, 0)])
        rels = [monomial_relation(q, "e", 2), monomial_relation(q, "f", 2),
                Relation([(1, q.path(["e", "f"]))]),
                Relation([(1, q.path(["f", "e"]))])]
        pres = BoundQuiver(q, rels, 3)
        assert not is_simple_loop_extension(pres)

    def test_hereditary_with_power_bound_loops(self):
        q = Quiver([0, 1], [("e0", 0, 0), ("e1", 1, 1), ("a1", 1, 0)])
        rels = [monomial_relation(q, "e0", 2), monomial_relation(q, "e1", 3)]
        pres = BoundQuiver(q, rels, 5)
        assert is_simple_loop_extension(pres)
