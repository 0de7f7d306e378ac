"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria with stated runtime limits assert them via a monotonic clock.
"""

import json
import random
import time
from contextlib import contextmanager

import jsonschema

from helpers import cocycle_value, ext_triple_of, hom_triple_of, inverse, \
    iter_rep_points_odometer, random_cocycle, random_gl, random_lambda_rep, \
    random_two_vertex_rep
from qvl.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_PARSE,
                     EXIT_SEMANTIC, run_command)
from qvl.certificates import (hom_counterexample_census,
                              mono_reducibility_witness)
from qvl.counting import (count_ext_points, count_hom_points,
                          count_rep_points, iter_ext_points, iter_hom_points,
                          iter_rep_points)
from qvl.dsl import parse_quiver_spec, print_quiver_spec
from qvl.extensions import (ExtensionTriple, build_extension,
                            mono_triple_from_extension, splitting_from_mono)
from qvl.families import (EXT_LAMBDA, HOM_LAMBDA, FamilyDescriptor,
                          family_a, family_a_prime, family_a_prime_commuting,
                          family_b, family_lambda,
                          is_geometrically_irreducible_family)
from qvl.linalg import GF, Matrix, QQ, random_matrix
from qvl.quiver import (ext2_dimension, ext_quiver, hom_quiver,
                        is_isomorphism, is_simple_loop_extension,
                        is_weakly_triangular)
from qvl.reps import gl_action, is_monomorphism, relabel

F5 = GF(5)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        print(f"FAIL criterion {number}: {description} "
              f"(too slow: {elapsed:.1f}s > {limit_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit_seconds}s limit "
            f"({elapsed:.1f}s)")
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_cocycle_closed_form():
    with criterion(1, "loop-power cocycle values match the telescoped "
                      "closed form (100 samples over F5, 20 over Q)",
                   limit_seconds=10.0):
        rng = random.Random(20260810)
        plans = [(F5, 100), (QQ, 20)]
        for field, samples in plans:
            for i in range(samples):
                m = (2, 3, 4)[i % 3]
                pres = family_lambda(m)
                d, e = rng.randint(1, 4), rng.randint(1, 4)
                sub = random_lambda_rep(m, field, d, rng)
                quo = random_lambda_rep(m, field, e, rng)
                assert sub.is_valid() and quo.is_valid()
                blocks = {"e": random_matrix(field, d, e, rng)}
                got = cocycle_value(quo, sub, blocks, pres.relations[0])
                v, u = sub.mats["e"], quo.mats["e"]
                expected = Matrix.zeros(field, d, e)
                for j in range(m):
                    expected = expected \
                        + (v ** (m - 1 - j)) @ blocks["e"] @ (u ** j)
                assert got == expected


DIM_GRID = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _doubled_variety_correspondence(pres, lam, doubled, iso, split,
                                    count, iterate):
    """The two steps of criteria 2 and 3: ``iso`` proves ``doubled`` (the
    Hom or Ext quiver of ``lam``) isomorphic to ``pres`` over Q and over
    each F_q of the grid; then every point of ``pres`` on the grid,
    relabeled onto ``doubled`` and split, is a triple of ``iterate``, the
    images are distinct and they are all of them."""
    fields = [GF(q) for q in (2, 3)]
    assert is_isomorphism(doubled, pres, *iso, fields=[QQ, *fields])
    back = inverse(*iso)
    for field in fields:
        for d, e in DIM_GRID:
            rep_count = count_rep_points(pres, field, {0: d, 1: e})
            assert rep_count == count(lam, field, {0: e}, {0: d}), \
                (field, d, e)
            images = set()
            for rep in iter_rep_points(pres, field, {0: d, 1: e}):
                point = relabel(rep, doubled, *iso)
                images.add(split(point, lam).key())
                assert relabel(point, pres, *back) == rep
            assert len(images) == rep_count
            assert images == {t.key() for t in iterate(
                lam, field, {0: e}, {0: d})}


def test_criterion_2_hom_variety_correspondence():
    with criterion(2, "commuting-family points match homomorphism triples "
                      "(an isomorphism of presentations, then m=2, four "
                      "dimension vectors, q in {2,3}, pointwise)",
                   limit_seconds=60.0):
        lam = family_lambda(2)
        _doubled_variety_correspondence(
            family_a_prime_commuting(2), lam, hom_quiver(lam), HOM_LAMBDA,
            hom_triple_of, count_hom_points, iter_hom_points)


def test_criterion_3_ext_variety_correspondence():
    with criterion(3, "corner-family points match extension triples "
                      "(an isomorphism of presentations, then m=2, four "
                      "dimension vectors, q in {2,3}, pointwise)",
                   limit_seconds=60.0):
        lam = family_lambda(2)
        _doubled_variety_correspondence(
            family_b(1, 2), lam, ext_quiver(lam), EXT_LAMBDA,
            ext_triple_of, count_ext_points, iter_ext_points)


def test_criterion_4_extension_round_trips():
    with criterion(4, "200 seeded extensions: exact sequences plus "
                      "splitting/embedding round trips, entrywise"):
        rng = random.Random(41)
        fields = [GF(2), GF(3), F5, QQ]
        trials = 0
        while trials < 200:
            field = fields[trials % len(fields)]
            pick = trials % 5
            if pick in (0, 1):
                m = rng.choice([2, 3, 4])
                pres = family_lambda(m)
                sub = random_lambda_rep(m, field, rng.randint(1, 2), rng)
                quo = random_lambda_rep(m, field, rng.randint(1, 2), rng)
            else:
                pres = (family_a(1, 2, 1), family_a_prime_commuting(2),
                        family_b(1, 3))[pick - 2]
                if not hasattr(field, "p"):
                    pres = family_a(1, 2, 1)
                sub = random_two_vertex_rep(pres, field, rng.randint(0, 2),
                                            rng.randint(1, 2), rng) \
                    if hasattr(field, "p") else \
                    _rational_two_vertex_point(pres, field, rng)
                quo = random_two_vertex_rep(pres, field, rng.randint(1, 2),
                                            rng.randint(0, 2), rng) \
                    if hasattr(field, "p") else \
                    _rational_two_vertex_point(pres, field, rng)
            blocks = random_cocycle(quo, sub, rng)
            middle, incl, proj = build_extension(quo, sub, blocks)
            assert middle.is_valid()
            assert is_monomorphism(incl)
            assert proj.intertwines()
            for x in pres.quiver.vertices:
                assert (proj.maps[x] @ incl.maps[x]).is_zero()
                assert proj.maps[x].rank() == quo.dims[x]
                assert incl.maps[x].rank() == sub.dims[x]
                assert sub.dims[x] + quo.dims[x] == middle.dims[x]
            g = random_gl(field, middle.dims, rng)
            homt = mono_triple_from_extension(
                g, ExtensionTriple(quo, sub, blocks, check=False))
            assert homt.morphism.maps == {
                x: g[x] @ incl.maps[x] for x in g}
            g2, blocks2, quo2 = splitting_from_mono(homt.morphism)
            rebuilt, incl2, _ = build_extension(quo2, sub, blocks2)
            assert gl_action(g2, rebuilt) == homt.target
            assert {x: g2[x] @ incl2.maps[x] for x in g2} \
                == homt.morphism.maps
            trials += 1


def _rational_two_vertex_point(pres, field, rng):
    # over Q use zero loops and a free arrow: always valid for these families
    from qvl.reps import Representation
    d0, d1 = rng.randint(1, 2), rng.randint(1, 2)
    mats = {"e0": Matrix.zeros(field, d0, d0),
            "e1": Matrix.zeros(field, d1, d1)}
    for a, s, t in pres.quiver.arrows:
        if not pres.quiver.is_loop(a):
            mats[a] = random_matrix(field, d0 if t == 0 else d1,
                                    d0 if s == 0 else d1, rng)
    return Representation(pres, field, {0: d0, 1: d1}, mats)


WITNESS_GRID = [(m, l, n, q)
                for m, l in ((2, 2), (3, 2), (3, 3))
                for n in (1, 2)
                for q in (2, 3)]


def test_criterion_5_mono_reducibility_witness():
    with criterion(5, "monomorphism-variety reducibility witness on the "
                      "12-cell grid: open sets nonempty, disjoint, "
                      "rank implication pointwise", limit_seconds=120.0):
        for m, l, n, q in WITNESS_GRID:
            report = mono_reducibility_witness(m, l, n, q)
            assert report.both_nonempty(), (m, l, n, q)
            assert report.disjoint(), (m, l, n, q)
            assert report.implication_verified, (m, l, n, q)
            assert report.kernel_image_match_verified, (m, l, n, q)
            assert report.samples_verified, (m, l, n, q)


def test_criterion_6_hom_counterexample_census():
    with criterion(6, "split-or-vanish census: total = q^n + q - 1 and the "
                      "point set is exactly the union of the two pieces"):
        for n in (1, 2, 3):
            for q in (2, 3, 5):
                res = hom_counterexample_census(n, q)
                assert res.total == q ** n + q - 1, (n, q)
                assert res.count_b_zero == q ** n
                assert res.count_a_zero == q
                assert res.union_verified
                assert res.hom_bijection_verified


def test_criterion_7_ext2_formula():
    with criterion(7, "relation count equals the bimodule corner dimension: "
                      "(1,1) for the crossing families, (0,0) for loop-only"):
        seen = set()
        for n in (1, 2):
            for m in (2, 3):
                for l in {1, m - 1}:
                    if (n, m, l) in seen:
                        continue
                    seen.add((n, m, l))
                    pres = family_a(n, m, l)
                    assert ext2_dimension(pres, pres.relations, 1, 0) \
                        == (1, 1), (n, m, l)
        for n in (0, 1, 2):
            for m0, m1 in ((1, 1), (2, 2), (3, 2), (1, 3)):
                pres = family_a_prime(n, m0, m1)
                assert ext2_dimension(pres, pres.relations, 1, 0) \
                    == (0, 0), (n, m0, m1)


def test_criterion_8_product_split_counts():
    with criterion(8, "corner-family counts factor as core times free "
                      "matrix space across n, m, dims, q"):
        for n in (1, 2, 3):
            for m in (2, 3):
                for d, e in ((1, 1), (2, 1)):
                    for q in (2, 3):
                        field = GF(q)
                        full = count_rep_points(family_b(n, m), field,
                                                {0: d, 1: e})
                        core = count_rep_points(family_b(1, m), field,
                                                {0: d, 1: e})
                        assert full == core * q ** ((n - 1) * d * e), \
                            (n, m, d, e, q)


def test_criterion_9_nilpotent_count_sanity():
    with criterion(9, "nilpotent matrix counts by raw odometer match "
                      "q^(n^2 - n)"):
        for n in (1, 2, 3):
            for q in (2, 3):
                pres = family_lambda(n)
                field = GF(q)
                by_odometer = sum(1 for _ in iter_rep_points_odometer(
                    pres, field, {0: n}))
                assert by_odometer == q ** (n * n - n), (n, q)


CLASSIFY_TABLE = [
    (FamilyDescriptor("A", n=1, m=2, l=1), True),
    (FamilyDescriptor("A", n=1, m=5, l=2), False),
    (FamilyDescriptor("A", n=1, m=3, l=1), True),
    (FamilyDescriptor("A", n=1, m=3, l=2), True),
    (FamilyDescriptor("A", n=1, m=5, l=3), False),
    (FamilyDescriptor("A", n=1, m=4, l=2), False),
    (FamilyDescriptor("A", n=1, m=4, l=3), True),
    (FamilyDescriptor("A", n=2, m=2, l=1), True),
    (FamilyDescriptor("A", n=2, m=6, l=3), False),
    (FamilyDescriptor("A", n=2, m=5, l=4), True),
    (FamilyDescriptor("A", n=3, m=6, l=2), False),
    (FamilyDescriptor("A", n=2, m=6, l=5), True),
    (FamilyDescriptor("Aprime", n=0, m0=1, m1=1), True),
    (FamilyDescriptor("Aprime", n=1, m0=1, m1=2), True),
    (FamilyDescriptor("Aprime", n=2, m0=3, m1=3), True),
    (FamilyDescriptor("Aprime", n=5, m0=2, m1=4), True),
    (FamilyDescriptor("B", n=1, m=2), True),
    (FamilyDescriptor("B", n=2, m=3), True),
    (FamilyDescriptor("Lambda", m=1), True),
    (FamilyDescriptor("Lambda", m=4), True),
]


def test_criterion_10_structural_predicates():
    with criterion(10, "weak triangularity, simple-loop-extension split, "
                       "and the 20-case classification table"):
        for n, m, l in ((1, 2, 1), (2, 3, 2), (1, 4, 3)):
            pres = family_a(n, m, l)
            assert is_weakly_triangular(pres.quiver)
            assert not is_simple_loop_extension(pres)
        for n, m0, m1 in ((0, 1, 1), (1, 2, 2), (2, 3, 1)):
            pres = family_a_prime(n, m0, m1)
            assert is_weakly_triangular(pres.quiver)
            assert is_simple_loop_extension(pres)
        for pres in (family_lambda(1), family_lambda(3),
                     family_a_prime_commuting(2), family_b(2, 2)):
            assert is_weakly_triangular(pres.quiver)
        assert len(CLASSIFY_TABLE) == 20
        for desc, expected in CLASSIFY_TABLE:
            assert is_geometrically_irreducible_family(desc) == expected, \
                desc.label()


def test_criterion_11_cli_round_trip_schema_exit_codes(tmp_path):
    with criterion(11, "DSL corpus round-trips, JSON reports validate "
                       "against the shipped schema, exit codes stable"):
        from test_dsl import CORPUS
        assert len(CORPUS) == 10
        for text in CORPUS:
            pres = parse_quiver_spec(text)
            printed = print_quiver_spec(pres)
            assert parse_quiver_spec(printed) == pres
            assert print_quiver_spec(parse_quiver_spec(printed)) == printed

        import importlib.resources as resources
        schema = json.loads(resources.files("qvl")
                            .joinpath("data/report.schema.json").read_text())
        sample_commands = [
            ["count", "--family", "Lambda", "--m", "2", "--dim", "2",
             "--q", "2"],
            ["classify", "--family", "A", "--n", "1", "--m", "4", "--l", "2"],
            ["census-hom", "--n", "1", "--q", "3"],
            ["witness-mono", "--m", "2", "--l", "2", "--n", "1", "--q", "2"],
            ["ext2", "--family", "A", "--n", "1", "--m", "2", "--l", "1",
             "--x", "1", "--y", "0"],
            ["product-check", "--n", "2", "--m", "2", "--dim", "1,1",
             "--q", "2"],
        ]
        for argv in sample_commands:
            code, report = run_command(argv)
            report.pop("_text", None)
            jsonschema.validate(report, schema)
            assert code == EXIT_OK, argv

        # exit-code table
        bad_rep = tmp_path / "bad.json"
        bad_rep.write_text(json.dumps({"field": {"type": "Fp", "p": 2},
                                       "dims": {"0": 1},
                                       "mats": {"e": [[1]]}}))
        good_q = tmp_path / "lam.qv"
        good_q.write_text("quiver L { vertex 0; loop e at 0; rel e^2; }")
        broken_q = tmp_path / "broken.qv"
        broken_q.write_text("quiver L { vertex 0; loop e at 0 }")
        short_q = tmp_path / "short.qv"
        short_q.write_text("quiver L { vertex 0; loop e at 0; rel e; }")
        cases = [
            (["check", "--quiver", str(good_q), "--rep", str(bad_rep)],
             EXIT_FAIL),
            (["check", "--quiver", str(broken_q), "--rep", str(bad_rep)],
             EXIT_PARSE),
            (["check", "--quiver", str(short_q), "--rep", str(bad_rep)],
             EXIT_SEMANTIC),
            (["classify", "--family", "A", "--n", "0", "--m", "2",
              "--l", "1"], EXIT_SEMANTIC),
            (["count", "--family", "Lambda", "--m", "8", "--dim", "8",
              "--q", "2", "--budget", "9"], EXIT_BUDGET),
        ]
        for argv, expected in cases:
            code, report = run_command(argv)
            report.pop("_text", None)
            jsonschema.validate(report, schema)
            assert code == expected, argv
