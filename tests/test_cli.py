import argparse
import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qvl.cli
from qvl.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_PARSE,
                     EXIT_SEMANTIC, main, run_command)
from qvl.dsl import print_quiver_spec
from qvl.families import FAMILY_KINDS, family_a, family_lambda
from qvl.linalg import GF, QQ, Matrix
from qvl.reps import Representation
from qvl.serialize import blocks_to_json, rep_to_json

import importlib.resources as resources

F2 = GF(2)

SCHEMA = json.loads(
    resources.files("qvl").joinpath("data/report.schema.json").read_text())


def run(args):
    code, report = run_command(args)
    report.pop("_text", None)
    jsonschema.validate(report, SCHEMA)
    return code, report


@pytest.fixture
def lam2_file(tmp_path):
    path = tmp_path / "lam2.qv"
    path.write_text("quiver L2 { vertex 0; loop e at 0; rel e^2; }\n")
    return str(path)


@pytest.fixture
def rep_files(tmp_path):
    pres = family_lambda(2)
    one = Representation(pres, F2, {0: 1}, {"e": Matrix(F2, 1, 1, [[0]])})
    two = Representation(pres, F2, {0: 2},
                         {"e": Matrix(F2, 2, 2, [[0, 1], [0, 0]])})
    paths = {}
    for name, rep in [("one", one), ("two", two)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(rep_to_json(rep)))
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"type": "Fp", "p": 2},
                               "dims": {"0": 1}, "mats": {"e": [[1]]}}))
    paths["bad"] = str(bad)
    return paths


class TestCheck:
    def test_valid(self, lam2_file, rep_files):
        code, report = run(["check", "--quiver", lam2_file,
                            "--rep", rep_files["one"]])
        assert code == EXIT_OK
        assert report["result"]["valid"]

    def test_invalid_fails(self, lam2_file, rep_files):
        code, report = run(["check", "--quiver", lam2_file,
                            "--rep", rep_files["bad"]])
        assert code == EXIT_FAIL
        assert report["result"]["failing_relations"] == ["e*e"]

    def test_family_source(self, tmp_path):
        pres = family_a(1, 2, 1)
        rep = Representation.zero(pres, F2, {0: 1, 1: 1})
        p = tmp_path / "r.json"
        p.write_text(json.dumps(rep_to_json(rep)))
        code, report = run(["check", "--family", "A", "--n", "1", "--m", "2",
                            "--l", "1", "--rep", str(p)])
        assert code == EXIT_OK


class TestExitCodes:
    def test_parse_error(self, tmp_path, rep_files):
        bad = tmp_path / "broken.qv"
        bad.write_text("quiver X { vertex 0 loop e at 0; }")
        code, report = run(["check", "--quiver", str(bad),
                            "--rep", rep_files["one"]])
        assert code == EXIT_PARSE
        assert report["error"]["type"] == "syntax"

    def test_semantic_error(self, tmp_path, rep_files):
        bad = tmp_path / "short.qv"
        bad.write_text("quiver X { vertex 0; loop e at 0; rel e; }")
        code, report = run(["check", "--quiver", str(bad),
                            "--rep", rep_files["one"]])
        assert code == EXIT_SEMANTIC
        assert report["error"]["type"] == "semantic"

    @pytest.mark.parametrize("flag", ["--quiver", "--rep"])
    def test_non_utf8_file_is_semantic(self, tmp_path, lam2_file, rep_files,
                                       flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfequiver")
        files = {"--quiver": lam2_file, "--rep": rep_files["one"],
                 flag: str(bad)}
        code, report = run(["check", *(token for pair in files.items()
                                       for token in pair)])
        assert code == EXIT_SEMANTIC
        assert report["error"]["message"].startswith(f"cannot read {bad}: ")

    def test_deeply_nested_json_is_semantic(self, tmp_path, lam2_file):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, report = run(["check", "--quiver", lam2_file,
                            "--rep", str(deep)])
        assert code == EXIT_SEMANTIC
        assert report["error"]["message"].startswith(
            f"{deep} is not valid JSON: ")

    def test_family_range_error(self):
        code, report = run(["classify", "--family", "A", "--n", "0",
                            "--m", "2", "--l", "1"])
        assert code == EXIT_SEMANTIC

    def test_budget_error(self):
        # 22 Jordan strata to count, more than the budget of 9
        code, report = run(["count", "--family", "Lambda", "--m", "8",
                            "--dim", "8", "--q", "2", "--budget", "9"])
        assert code == EXIT_BUDGET
        assert report["error"]["type"] == "budget"

    @pytest.mark.parametrize("argv", [
        ["census-hom", "--n", "2", "--q", "4"],
        ["witness-mono", "--m", "3", "--l", "3", "--n", "1", "--q", "4"],
        ["probe", "--family", "Lambda", "--m", "2", "--kind", "rep",
         "--dim", "2", "--q", "2,4"],
        ["probe", "--family", "Lambda", "--m", "2", "--kind", "rep",
         "--dim", "2", "--q", "2,x"],
        ["probe", "--family", "Lambda", "--m", "2", "--kind", "rep",
         "--dim", "x", "--q", "2,3"],
        ["probe", "--family", "Lambda", "--m", "2", "--kind", "rep",
         "--dim", "2", "--q", "3,3"],
        ["product-check", "--n", "3", "--m", "2", "--dim", "1,1",
         "--q", "4"],
        ["product-check", "--n", "3", "--m", "2", "--dim", "1,x",
         "--q", "3"],
        ["product-check", "--n", "3", "--m", "2", "--dim", "1", "--q", "3"],
        ["census-hom", "--n", "0", "--q", "3"],
        ["witness-mono", "--m", "3", "--l", "4", "--n", "1", "--q", "3"],
        ["witness-mono", "--m", "1", "--l", "2", "--n", "1", "--q", "3"],
        ["count", "--family", "Lambda", "--m", "2", "--dim", "2", "--q", "3",
         "--budget", "-3"],
        ["classify", "--family", "A", "--n", "1", "--m", "3", "--l", "3"],
        ["count", "--family", "A", "--n", "1", "--m", "2", "--l", "2",
         "--dim", "1,1", "--q", "2"],
    ])
    def test_bad_field_or_dims_is_semantic(self, argv):
        code, report = run(argv)
        assert code == EXIT_SEMANTIC
        assert report["error"]["type"] == "semantic"

    @pytest.mark.parametrize("argv", [
        ["count", "--family", "B", "--n", "0", "--m", "3", "--dim", "1,1",
         "--q", "2"],
        ["witness-mono", "--m", "3", "--l", "3", "--n", "0", "--q", "2"],
        ["product-check", "--n", "0", "--m", "2", "--dim", "1,1",
         "--q", "3"],
    ])
    def test_family_b_range_error_names_family_b(self, argv):
        code, report = run(argv)
        assert code == EXIT_SEMANTIC
        assert "family B needs n >= 1" in report["error"]["message"]

    @pytest.mark.parametrize("argv,message", [
        # "-1" starts with "-", so the full parser reads it
        ("count --family Lambda --m 2 --dim -1 --q 3",
         "dimensions must be nonnegative"),
        ("ext2 --family A --n 1 --m 3 --l 1 --x 7 --y 0",
         "unknown vertex '7'"),
    ])
    def test_bad_dims_and_vertex_messages(self, argv, message):
        code, report = run(argv.split())
        assert code == EXIT_SEMANTIC
        assert report["error"] == {"type": "semantic", "message": message}

    def test_missing_source(self, rep_files):
        code, report = run(["check", "--rep", rep_files["one"]])
        assert code == EXIT_SEMANTIC


# Every subcommand with each bad input it takes: a non-prime q, malformed
# dims, an out-of-range family parameter and, for the file subcommands, a
# file that is not JSON.  "{quiver}", "{rep}" and "{bad}" stand for a
# Lambda(2) DSL file, a valid representation file and a malformed one.
BAD_FAMILY = "--family Lambda --m 0"
SWEEP = {
    "check": {"family": f"check {BAD_FAMILY} --rep {{rep}}",
              "json": "check --quiver {quiver} --rep {bad}"},
    "hom": {"family": f"hom {BAD_FAMILY} --source {{rep}} --target {{rep}}",
            "json": "hom --quiver {quiver} --source {rep} --target {bad}"},
    "cocycles": {
        "family": f"cocycles {BAD_FAMILY} --quo {{rep}} --sub {{rep}}",
        "json": "cocycles --quiver {quiver} --quo {rep} --sub {bad}"},
    "extend": {
        "family": f"extend {BAD_FAMILY} --quo {{rep}} --sub {{rep}} "
                  "--blocks {rep}",
        "json": "extend --quiver {quiver} --quo {rep} --sub {rep} "
                "--blocks {bad}"},
    "split": {
        "family": f"split {BAD_FAMILY} --sub {{rep}} --middle {{rep}} "
                  "--map {rep}",
        "json": "split --quiver {quiver} --sub {rep} --middle {rep} "
                "--map {bad}"},
    "count": {"q": "count --family Lambda --m 2 --dim 2 --q 4",
              "dims": "count --family Lambda --m 2 --dim x --q 3",
              "empty_dim": "count --family A --n 1 --m 3 --l 1 --dim 1,,1 "
                           "--q 2",
              "trailing_comma": "count --family A --n 1 --m 3 --l 1 "
                                "--dim 1,1, --q 2",
              "family": f"count {BAD_FAMILY} --dim 2 --q 3"},
    "census-hom": {"q": "census-hom --n 2 --q 4",
                   "family": "census-hom --n 0 --q 3"},
    "witness-mono": {"q": "witness-mono --m 3 --l 2 --n 1 --q 4",
                     "family": "witness-mono --m 1 --l 2 --n 1 --q 3"},
    "product-check": {"q": "product-check --n 2 --m 2 --dim 1,1 --q 4",
                      "dims": "product-check --n 2 --m 2 --dim 1,x --q 3",
                      "family": "product-check --n 2 --m 1 --dim 1,1 --q 3"},
    "ext2": {"family": f"ext2 {BAD_FAMILY} --x 0 --y 0"},
    "classify": {"family": f"classify {BAD_FAMILY}"},
    "probe": {"q": "probe --family Lambda --m 2 --dim 2 --q 3,4",
              "dims": "probe --family Lambda --m 2 --dim 2,2 --q 3",
              "family": f"probe {BAD_FAMILY} --dim 2 --q 3"},
}

# Files that are JSON but no representation: a Q entry that is no rational,
# a boolean entry (JSON true must not read as 1) and an F_p field whose p is
# no prime integer.  Each goes where a file subcommand reads a
# representation, and every other file is valid: "{blocks}" and "{map}"
# stand for zero blocks and the identity map of the "{rep}" point.
MALFORMED_REPS = {
    "zero_denominator": ({"type": "Q"}, "1/0"),
    "text_entry": ({"type": "Q"}, "abc"),
    "bool_entry": ({"type": "Q"}, True),
    "bool_entry_fp": ({"type": "Fp", "p": 2}, True),
    "nonprime_p": ({"type": "Fp", "p": 4}, 0),
    "text_p": ({"type": "Fp", "p": "x"}, 0),
}
for _command, _argv in {
        "check": "check --family Lambda --m 2 --rep {%s}",
        "hom": "hom --family Lambda --m 2 --source {%s} --target {rep}",
        "cocycles": "cocycles --family Lambda --m 2 --quo {%s} --sub {rep}",
        "extend": "extend --family Lambda --m 2 --quo {%s} --sub {rep} "
                  "--blocks {blocks}",
        "split": "split --family Lambda --m 2 --sub {rep} --middle {%s} "
                 "--map {map}"}.items():
    SWEEP[_command].update({name: _argv % name for name in MALFORMED_REPS})


# Files of the wrong shape where a file subcommand reads maps, blocks or
# dims: a list of maps, blocks without a field, blocks that are no object,
# and a boolean dimension (JSON true must not read as dimension 1).  Then a
# point off the variety, e = [[1]] with e^2 != 0, which hom must refuse as
# its source, cocycles and extend as their quotient, and split as its middle
# term, under a dim-0 sub and the 1 x 0 map.
MALFORMED_FILES = {
    "maps_list": {"field": {"type": "Fp", "p": 2}, "maps": [1]},
    "blocks_no_field": {"blocks": {"e": [[0]]}},
    "blocks_scalar": {"field": {"type": "Fp", "p": 2}, "blocks": 1},
    "bool_dim": {"field": {"type": "Fp", "p": 2}, "dims": {"0": True},
                 "mats": {"e": [[0]]}},
    "off_variety": {"field": {"type": "Fp", "p": 2}, "dims": {"0": 1},
                    "mats": {"e": [[1]]}},
    "dim_zero": {"field": {"type": "Fp", "p": 2}, "dims": {"0": 0},
                 "mats": {"e": []}},
    "map_1x0": {"field": {"type": "Fp", "p": 2}, "maps": {"0": [[]]}},
}
SWEEP["split"]["maps_list"] = ("split --family Lambda --m 2 --sub {rep} "
                               "--middle {rep} --map {maps_list}")
for _name in ("blocks_no_field", "blocks_scalar"):
    SWEEP["extend"][_name] = ("extend --family Lambda --m 2 --quo {rep} "
                              "--sub {rep} --blocks {%s}" % _name)
SWEEP["check"]["bool_dim"] = "check --family Lambda --m 2 --rep {bool_dim}"
SWEEP["hom"]["off_variety"] = ("hom --family Lambda --m 2 "
                               "--source {off_variety} --target {rep}")
SWEEP["cocycles"]["off_variety"] = ("cocycles --family Lambda --m 2 "
                                    "--quo {off_variety} --sub {rep}")
SWEEP["extend"]["off_variety"] = ("extend --family Lambda --m 2 "
                                  "--quo {off_variety} --sub {rep} "
                                  "--blocks {blocks}")
SWEEP["split"]["off_variety"] = ("split --family Lambda --m 2 "
                                 "--sub {dim_zero} --middle {off_variety} "
                                 "--map {map_1x0}")

# A DSL file and a family at once name two presentations: every subcommand
# that takes a source refuses the pair, whatever else it is given.
for _command, _tail in {
        "check": "--rep {rep}", "hom": "--source {rep} --target {rep}",
        "cocycles": "--quo {rep} --sub {rep}",
        "extend": "--quo {rep} --sub {rep} --blocks {blocks}",
        "split": "--sub {rep} --middle {rep} --map {map}",
        "count": "--dim 2 --q 2", "ext2": "--x 0 --y 0",
        "probe": "--dim 2 --q 2,3"}.items():
    SWEEP[_command]["both_sources"] = (
        f"{_command} --quiver {{quiver}} --family Lambda --m 3 {_tail}")


def test_both_sources_cover_every_source_subcommand():
    takes_source = {name for name, (_, _, specs) in qvl.cli._COMMANDS.items()
                    if "--quiver" in dict(specs)}
    assert takes_source == {command for command, cases in SWEEP.items()
                            if "both_sources" in cases}


@pytest.mark.parametrize("command", ["count", "ext2", "probe"])
def test_both_sources_name_both_flags(command, lam2_file):
    # the file holds Lambda(2): its count at dim 2 over F_2 (4 points) or
    # its refusal of ext2 at x = y must not stand in for the refusal
    argv = SWEEP[command]["both_sources"].format(quiver=lam2_file).split()
    code, report = run(argv)
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    message = report["error"]["message"]
    assert "--quiver" in message and "--family" in message


def test_quiver_takes_no_family_parameter(lam2_file):
    code, report = run(["count", "--quiver", lam2_file, "--m", "3",
                        "--dim", "2", "--q", "2"])
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    assert "--quiver" in report["error"]["message"]
    assert "--m 3" in report["error"]["message"]


def test_sweep_covers_every_subcommand():
    assert set(SWEEP) == set(qvl.cli._COMMANDS)


def test_schema_names_every_subcommand():
    enum = SCHEMA["properties"]["command"]["enum"]
    assert enum == list(qvl.cli._COMMANDS)


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"{command}-{case}")
    for command, cases in SWEEP.items() for case, argv in cases.items()])
def test_bad_input_sweep_is_semantic(argv, lam2_file, rep_files, tmp_path):
    bad = tmp_path / "malformed.json"
    bad.write_text("{not json")
    files = {"blocks": tmp_path / "blocks.json", "map": tmp_path / "map.json"}
    files["blocks"].write_text(json.dumps(
        {"field": {"type": "Fp", "p": 2}, "blocks": {"e": [[0]]}}))
    files["map"].write_text(json.dumps(
        {"field": {"type": "Fp", "p": 2}, "maps": {"0": [[1]]}}))
    for name, (field, entry) in MALFORMED_REPS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(
            {"field": field, "dims": {"0": 1}, "mats": {"e": [[entry]]}}))
    for name, data in MALFORMED_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    code, report = run(argv.format(quiver=lam2_file, rep=rep_files["one"],
                                   bad=bad, **files).split())
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")


class TestCount:
    def test_rep_count(self):
        code, report = run(["count", "--family", "Lambda", "--m", "2",
                            "--dim", "2", "--q", "2"])
        assert code == EXIT_OK
        assert report["result"]["count"] == 4

    def test_two_vertex_dims(self):
        code, report = run(["count", "--family", "A", "--n", "1", "--m", "2",
                            "--l", "1", "--dim", "1,1", "--q", "3"])
        assert code == EXIT_OK
        assert report["result"]["count"] == 3

    def test_hom_kind(self):
        code, report = run(["count", "--family", "Lambda", "--m", "2",
                            "--kind", "hom", "--source-dim", "1",
                            "--target-dim", "1", "--q", "3"])
        assert code == EXIT_OK
        assert report["result"]["count"] == 3

    def test_ext_kind(self):
        code, report = run(["count", "--family", "Lambda", "--m", "2",
                            "--kind", "ext", "--quo-dim", "1",
                            "--sub-dim", "1", "--q", "5"])
        assert code == EXIT_OK
        assert report["result"]["count"] == 5

    def test_dim_arity_checked(self):
        code, report = run(["count", "--family", "A", "--n", "1", "--m", "2",
                            "--l", "1", "--dim", "2", "--q", "2"])
        assert code == EXIT_SEMANTIC

    def test_dsl_file_with_named_vertices(self, tmp_path):
        chain = tmp_path / "chain.qv"
        chain.write_text("quiver C { vertex x; vertex y; vertex z; "
                         "arrow f: x -> y; arrow g: y -> z; rel g*f; }")
        code, report = run(["count", "--quiver", str(chain),
                            "--dim", "1,1,1", "--q", "3"])
        assert code == EXIT_OK
        # maps (f, g) with g f = 0: 2q - 1 points
        assert report["result"]["count"] == 5
        code, report = run(["ext2", "--quiver", str(chain),
                            "--x", "x", "--y", "z"])
        assert code == EXIT_OK
        assert report["result"]["agree"]


class TestMathCommands:
    def test_census(self):
        code, report = run(["census-hom", "--n", "2", "--q", "2"])
        assert code == EXIT_OK
        assert report["result"]["total"] == 5

    def test_witness(self):
        code, report = run(["witness-mono", "--m", "2", "--l", "2",
                            "--n", "1", "--q", "2"])
        assert code == EXIT_OK
        res = report["result"]
        assert res["count_intersection"] == 0
        assert res["both_nonempty"] and res["disjoint"]

    def test_product_check(self):
        code, report = run(["product-check", "--n", "3", "--m", "2",
                            "--dim", "1,1", "--q", "3"])
        assert code == EXIT_OK
        assert report["result"]["holds"]

    def test_ext2(self):
        code, report = run(["ext2", "--family", "A", "--n", "1", "--m", "3",
                            "--l", "2", "--x", "1", "--y", "0"])
        assert code == EXIT_OK
        assert report["result"] == {"x": "1", "y": "0", "relation_count": 1,
                                    "bimodule_dimension": 1, "agree": True}

    def test_classify_negative_case(self):
        code, report = run(["classify", "--family", "A", "--n", "1",
                            "--m", "4", "--l", "2"])
        assert code == EXIT_OK
        assert report["result"]["geometrically_irreducible"] is False

    def test_probe(self):
        code, report = run(["probe", "--family", "Lambda", "--m", "2",
                            "--kind", "rep", "--dim", "1", "--q", "2,3,5"])
        assert code == EXIT_OK
        assert report["result"]["degree"] == 0

    def test_probe_ext_kind(self):
        code, report = run(["probe", "--family", "Lambda", "--m", "2",
                            "--kind", "ext", "--quo-dim", "1",
                            "--sub-dim", "1", "--q", "2,3"])
        assert code == EXIT_OK
        # one free block coordinate: q points, a line
        assert report["result"]["degree"] == 1
        assert report["result"]["looks_affine"]

    def test_count_mono_kind(self):
        code, report = run(["count", "--family", "Lambda", "--m", "2",
                            "--kind", "mono", "--source-dim", "1",
                            "--target-dim", "2", "--q", "2"])
        assert code == EXIT_OK
        # f embeds the 1-dim zero module into a square-zero 2x2 point
        assert report["result"]["count"] > 0


# The full result of each certificate command: every field of its result
# dataclass, plus the verdicts its methods compute.
CERTIFICATE_REPORTS = {
    "census-hom --n 3 --q 3": {
        "n": 3, "q": 3, "total": 29, "count_b_zero": 27, "count_a_zero": 3,
        "identity_holds": True, "union_verified": True,
        "hom_bijection_verified": True},
    "witness-mono --m 3 --l 2 --n 1 --q 3": {
        "family": "A(1,3,1)", "m": 3, "l": 2, "n": 1, "q": 3, "total": 240,
        "count_full_rank": 96, "count_mu1": 96, "count_intersection": 0,
        "disjoint": True, "both_nonempty": True,
        "implication_verified": True, "kernel_image_match_verified": True,
        "samples_verified": True,
        "sample_full_rank": {"mu": [0], "lambda": 1,
                             "loop_matrix": [[0, 1], [0, 0]],
                             "arrow_rows": [[0, 0]],
                             "embedding_column": [1, 0]},
        "sample_mu1": {"mu": [1], "lambda": 1,
                       "loop_matrix": [[0, 0], [0, 0]],
                       "arrow_rows": [[0, 1]], "embedding_column": [0, 1]}},
    "product-check --n 3 --m 2 --dim 2,2 --q 3": {
        "n": 3, "m": 2, "d": 2, "e": 2, "q": 3, "count_full": 5255361,
        "count_core": 801, "free_factor": 6561, "holds": True},
}


@pytest.mark.parametrize("query", CERTIFICATE_REPORTS)
def test_certificate_report_pinned(query):
    code, report = run(query.split())
    assert code == EXIT_OK
    assert report["result"] == CERTIFICATE_REPORTS[query]


# Every parameter of each family kind, with a value in range; dropping any
# one of them must exit 4, not raise.
FAMILY_FLAGS = {"A": {"n": 1, "m": 3, "l": 1},
                "Aprime": {"n": 1, "m0": 2, "m1": 2},
                "AprimeCommuting": {"m": 2}, "Lambda": {"m": 2},
                "B": {"n": 1, "m": 2}}


def test_family_flags_cover_every_kind():
    assert tuple(FAMILY_FLAGS) == FAMILY_KINDS


# One parameter set per kind, with the label and the verdict its classify
# report gives.
CLASSIFY_LABELS = {
    "classify --family A --n 1 --m 4 --l 2": ("A(1,4,2)", False),
    "classify --family Aprime --n 1 --m0 2 --m1 2": ("A'(1,2,2)", True),
    "classify --family AprimeCommuting --m 3": ("A'comm(3)", True),
    "classify --family Lambda --m 3": ("Lambda(3)", True),
    "classify --family B --n 1 --m 3": ("B(1,m=3)", True),
}


def test_classify_labels_cover_every_kind():
    assert tuple(query.split()[2] for query in CLASSIFY_LABELS) == \
        FAMILY_KINDS


@pytest.mark.parametrize("query", CLASSIFY_LABELS)
def test_classify_label_pinned(query):
    label, flag = CLASSIFY_LABELS[query]
    code, report = run_command(query.split())
    assert code == EXIT_OK
    assert report["result"] == {"family": label,
                                "geometrically_irreducible": flag}
    verdict = "geometrically irreducible" if flag \
        else "not geometrically irreducible"
    assert report["_text"] == f"{label}: {verdict}"


@pytest.mark.parametrize("kind,dropped", [
    (kind, param) for kind, flags in FAMILY_FLAGS.items() for param in flags])
def test_missing_family_parameter_is_semantic(kind, dropped):
    flags = [token for param, value in FAMILY_FLAGS[kind].items()
             if param != dropped for token in (f"--{param}", str(value))]
    code, report = run(["count", "--family", kind, *flags, "--dim", "1",
                        "--q", "2"])
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    assert f"needs {dropped} >= " in report["error"]["message"]


# Each --kind with the dims flags its count needs; dropping any one of them,
# from a count or a probe, must exit 4 with a message naming them all.
KIND_DIMS = {"rep": "--dim", "hom": "--source-dim and --target-dim",
             "mono": "--source-dim and --target-dim",
             "ext": "--quo-dim and --sub-dim"}


def test_kind_choices_are_the_count_table():
    assert tuple(KIND_DIMS) == tuple(qvl.cli._KINDS)
    for command in ("count", "probe"):
        specs = dict(qvl.cli._COMMANDS[command][2])
        assert specs["--kind"]["choices"] == tuple(qvl.cli._KINDS)


@pytest.mark.parametrize("command,q", [("count", "2"), ("probe", "2,3")])
@pytest.mark.parametrize("kind,dropped", [
    (kind, flag) for kind, flags in KIND_DIMS.items()
    for flag in flags.split(" and ")])
def test_missing_dims_is_semantic(command, q, kind, dropped):
    flags = [token for flag in KIND_DIMS[kind].split(" and ")
             if flag != dropped for token in (flag, "1")]
    code, report = run([command, "--family", "Lambda", "--m", "2",
                        "--kind", kind, *flags, "--q", q])
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    assert report["error"]["message"] == \
        f"{kind} counting needs {KIND_DIMS[kind]}"


# Each file subcommand given files over two fields: "{r5}" and "{r7}" are
# Lambda(2) points over F_5 and F_7, "{b7}" zero blocks and "{m7}" an
# identity map over F_7.
MIXED_FIELDS = {
    "hom": "hom --source {r5} --target {r7}",
    "cocycles": "cocycles --quo {r5} --sub {r7}",
    "extend-reps": "extend --quo {r5} --sub {r7} --blocks {b7}",
    "extend-blocks": "extend --quo {r5} --sub {r5} --blocks {b7}",
    "split-reps": "split --sub {r5} --middle {r7} --map {m7}",
    "split-map": "split --sub {r5} --middle {r5} --map {m7}",
}


@pytest.mark.parametrize("case", MIXED_FIELDS)
def test_files_over_different_fields_are_semantic(case, tmp_path):
    files = {}
    for name, data in {
            "r5": rep_to_json(Representation.zero(family_lambda(2), GF(5),
                                                  {0: 1})),
            "r7": rep_to_json(Representation.zero(family_lambda(2), GF(7),
                                                  {0: 1})),
            "b7": {"field": {"type": "Fp", "p": 7}, "blocks": {"e": [[0]]}},
            "m7": {"field": {"type": "Fp", "p": 7},
                   "maps": {"0": [[1]]}}}.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    command, *rest = MIXED_FIELDS[case].format(**files).split()
    code, report = run([command, "--family", "Lambda", "--m", "2", *rest])
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    assert "F5" in report["error"]["message"]
    assert "F7" in report["error"]["message"]


# Each command that reads relations, on a presentation whose coefficient
# 1/3 has no value in F_3: "{r3}", "{b3}" and "{m3}" are a point, zero
# blocks and an identity map over F_3.  Over F_2 the same file counts.
THIRDS = "quiver F { vertex 0; loop e at 0; rel 1/3*e^2; }\n"
OVER_F3 = {
    "count": "count --dim 1 --q 3",
    "probe": "probe --dim 1 --q 2,3",
    "check": "check --rep {r3}",
    "hom": "hom --source {r3} --target {r3}",
    "cocycles": "cocycles --quo {r3} --sub {r3}",
    "extend": "extend --quo {r3} --sub {r3} --blocks {b3}",
    "split": "split --sub {r3} --middle {r3} --map {m3}",
}


@pytest.fixture
def thirds_file(tmp_path):
    path = tmp_path / "thirds.qv"
    path.write_text(THIRDS)
    return str(path)


@pytest.mark.parametrize("case", OVER_F3)
def test_vanishing_denominator_is_semantic(case, thirds_file, tmp_path):
    files = {}
    for name, data in {
            "r3": {"field": {"type": "Fp", "p": 3}, "dims": {"0": 1},
                   "mats": {"e": [[0]]}},
            "b3": {"field": {"type": "Fp", "p": 3}, "blocks": {"e": [[0]]}},
            "m3": {"field": {"type": "Fp", "p": 3},
                   "maps": {"0": [[1]]}}}.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    command, *rest = OVER_F3[case].format(**files).split()
    code, report = run([command, "--quiver", thirds_file, *rest])
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    assert "denominator 3 vanishes in F_3" in report["error"]["message"]


def test_vanishing_denominator_elsewhere_counts(thirds_file):
    code, report = run(["count", "--quiver", thirds_file, "--dim", "1",
                        "--q", "2"])
    assert code == EXIT_OK
    assert report["result"]["count"] == 1


def test_zero_denominator_is_syntax(tmp_path):
    # 1/0 is no coefficient in any field: a syntax error, not exit 1
    path = tmp_path / "zero.qv"
    path.write_text("quiver F { vertex 0; loop e at 0; rel 1/0*e^2; }\n")
    code, report = run(["count", "--quiver", str(path), "--dim", "1",
                        "--q", "3"])
    assert (code, report["error"]["type"]) == (EXIT_PARSE, "syntax")
    assert "zero denominator" in report["error"]["message"]


class TestFileCommands:
    def test_hom(self, lam2_file, rep_files):
        code, report = run(["hom", "--quiver", lam2_file,
                            "--source", rep_files["one"],
                            "--target", rep_files["two"]])
        assert code == EXIT_OK
        assert report["result"]["dim"] == 1

    def test_cocycles(self, lam2_file, rep_files):
        code, report = run(["cocycles", "--quiver", lam2_file,
                            "--quo", rep_files["one"],
                            "--sub", rep_files["one"]])
        assert code == EXIT_OK
        assert report["result"]["dim"] == 1

    def test_extend_and_split_round_trip(self, tmp_path, lam2_file,
                                         rep_files):
        blocks = tmp_path / "z.json"
        blocks.write_text(json.dumps(
            blocks_to_json(F2, {"e": Matrix(F2, 1, 1, [[1]])})))
        code, report = run(["extend", "--quiver", lam2_file,
                            "--quo", rep_files["one"],
                            "--sub", rep_files["one"],
                            "--blocks", str(blocks)])
        assert code == EXIT_OK
        middle = report["result"]["middle"]
        assert middle["mats"]["e"] == [[0, 1], [0, 0]]

        middle_path = tmp_path / "middle.json"
        middle_path.write_text(json.dumps(middle))
        map_path = tmp_path / "incl.json"
        map_path.write_text(json.dumps(report["result"]["inclusion"]))
        code, report = run(["split", "--quiver", lam2_file,
                            "--sub", rep_files["one"],
                            "--middle", str(middle_path),
                            "--map", str(map_path)])
        assert code == EXIT_OK
        assert report["result"]["blocks"]["blocks"]["e"] == [[1]]

    def test_extend_rejects_non_cocycle(self, tmp_path, rep_files):
        pres = family_lambda(2)
        two = tmp_path / "two.json"
        n = Matrix(F2, 2, 2, [[0, 1], [0, 0]])
        two.write_text(json.dumps(rep_to_json(
            Representation(pres, F2, {0: 2}, {"e": n}))))
        blocks = tmp_path / "z.json"
        blocks.write_text(json.dumps(blocks_to_json(
            F2, {"e": Matrix(F2, 2, 2, [[1, 0], [0, 0]])})))
        code, report = run(["extend", "--family", "Lambda", "--m", "2",
                            "--quo", str(two), "--sub", str(two),
                            "--blocks", str(blocks)])
        assert code == EXIT_SEMANTIC
        assert report["error"]["type"] == "semantic"
        assert report["error"]["message"] == (
            f"--blocks {blocks}: blocks violate the cocycle equation of e*e")

    def test_extend_names_the_failing_relation(self, tmp_path):
        # over Q, with two relations and blocks that fail only the second:
        # the message names that relation
        quiver = tmp_path / "e2.qv"
        quiver.write_text("quiver E { vertex 0; vertex 1; loop e at 0; "
                          "loop f at 1; rel e^2; rel f^2; }\n")
        n, zero = [["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]
        point, blocks = tmp_path / "n.json", tmp_path / "x.json"
        point.write_text(json.dumps({
            "field": {"type": "Q"}, "dims": {"0": 2, "1": 2},
            "mats": {"e": n, "f": n}}))
        blocks.write_text(json.dumps({
            "field": {"type": "Q"},
            "blocks": {"e": zero, "f": [["1", "0"], ["0", "0"]]}}))
        code, report = run(["extend", "--quiver", str(quiver),
                            "--quo", str(point), "--sub", str(point),
                            "--blocks", str(blocks)])
        assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
        assert report["error"]["message"] == (
            f"--blocks {blocks}: blocks violate the cocycle equation of f*f")

    @pytest.mark.parametrize("field", [{"type": "Fp", "p": 5}, {"type": "Q"}],
                             ids=["F5", "Q"])
    @pytest.mark.parametrize("entries,message", [
        ([[0], [0]], "splitting requires a monomorphism"),
        ([[0], [1]], "not a homomorphism of representations")])
    def test_split_rejects_bad_map(self, tmp_path, field, entries, message):
        # sub e = [[0]] and middle e = [[0, 1], [0, 0]] are points; the zero
        # map is not injective, and the map onto the second basis vector
        # does not intertwine: bad input, not a failed check
        files = {}
        for name, data in {
                "sub": {"dims": {"0": 1}, "mats": {"e": [[0]]}},
                "middle": {"dims": {"0": 2}, "mats": {"e": [[0, 1], [0, 0]]}},
                "map": {"maps": {"0": entries}}}.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps({"field": field, **data}))
        code, report = run(["split", "--family", "Lambda", "--m", "2",
                            "--sub", str(files["sub"]),
                            "--middle", str(files["middle"]),
                            "--map", str(files["map"])])
        assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
        assert report["error"]["message"] == f"--map {files['map']}: {message}"


# Lambda(2) files over Q with fractional entries: two points of dim 2, a
# cocycle of the pair (a, b), a point of dim 1 with an embedding into a,
# and the point e = [["1/2"]] off the variety with a zero point, zero
# blocks, a dim-0 point and the 1 x 0 map to go with it.
Q_FILES = {
    "a": {"dims": {"0": 2}, "mats": {"e": [[0, "1/2"], [0, 0]]}},
    "b": {"dims": {"0": 2}, "mats": {"e": [["1/2", "1/4"], ["-1", "-1/2"]]}},
    "blocks": {"blocks": {"e": [["-1/2", "0"], ["1", "1"]]}},
    "one": {"dims": {"0": 1}, "mats": {"e": [["0"]]}},
    "map": {"maps": {"0": [["1/3"], ["0"]]}},
    "off": {"dims": {"0": 1}, "mats": {"e": [["1/2"]]}},
    "zero": {"dims": {"0": 1}, "mats": {"e": [["0"]]}},
    "zero_blocks": {"blocks": {"e": [["0"]]}},
    "dim_zero": {"dims": {"0": 0}, "mats": {"e": []}},
    "map_1x0": {"maps": {"0": [[]]}},
}


@pytest.fixture
def q_files(tmp_path):
    paths = {}
    for name, data in Q_FILES.items():
        paths[name] = tmp_path / f"q-{name}.json"
        paths[name].write_text(json.dumps({"field": {"type": "Q"}, **data}))
    return paths


@pytest.mark.parametrize("argv,result", [
    ("hom --source {a} --target {b}", {"dim": 2}),
    ("cocycles --quo {a} --sub {b}", {"dim": 2}),
    ("extend --quo {a} --sub {b} --blocks {blocks}",
     {"middle": {"field": {"type": "Q"}, "dims": {"0": 4}, "mats": {"e": [
         ["1/2", "1/4", "-1/2", "0"], ["-1", "-1/2", "1", "1"],
         ["0", "0", "0", "1/2"], ["0", "0", "0", "0"]]}}}),
    ("split --sub {one} --middle {a} --map {map}",
     {"quotient": {"field": {"type": "Q"}, "dims": {"0": 1},
                   "mats": {"e": [["0"]]}}}),
], ids=["hom", "cocycles", "extend", "split"])
def test_rational_points_with_fractions(argv, result, q_files):
    code, report = run(f"{argv} --family Lambda --m 2".format(
        **q_files).split())
    assert code == EXIT_OK
    assert {k: report["result"][k] for k in result} == result


@pytest.mark.parametrize("argv,flag", [
    ("hom --source {off} --target {zero}", "source"),
    ("cocycles --quo {off} --sub {zero}", "quo"),
    ("extend --quo {off} --sub {zero} --blocks {zero_blocks}", "quo"),
    ("split --sub {dim_zero} --middle {off} --map {map_1x0}", "middle"),
], ids=["hom", "cocycles", "extend", "split"])
def test_rational_point_off_the_variety_is_semantic(argv, flag, q_files):
    code, report = run(f"{argv} --family Lambda --m 2".format(
        **q_files).split())
    assert (code, report["error"]["type"]) == (EXIT_SEMANTIC, "semantic")
    assert report["error"]["message"] == (
        f"--{flag} {q_files['off']} is not a point of the variety: the "
        f"relation e*e is nonzero there")


def test_check_names_the_relation_a_rational_point_fails(q_files):
    code, report = run(["check", "--family", "Lambda", "--m", "2",
                        "--rep", str(q_files["off"])])
    assert code == EXIT_FAIL
    assert report["result"]["failing_relations"] == ["e*e"]


class TestMainEntry:
    def test_json_flag_prints_schema_valid_report(self, capsys):
        code = main(["count", "--family", "Lambda", "--m", "2", "--dim", "2",
                     "--q", "2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["result"]["count"] == 4

    def test_abbreviated_json_flag(self, capsys):
        code = main(["count", "--family", "Lambda", "--m", "2", "--dim", "2",
                     "--q", "3", "--js"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["result"]["count"] == 9

    def test_text_output(self, capsys):
        code = main(["classify", "--family", "Aprime", "--n", "1",
                     "--m0", "2", "--m1", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "geometrically irreducible" in out

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--family", "Lambda", "--m", "2", "--dim", "2"])
        assert exc.value.code == 2

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("QVL_BUDGET", "9")
        code, report = run(["count", "--family", "Lambda", "--m", "8",
                            "--dim", "8", "--q", "2"])
        assert code == EXIT_BUDGET
        monkeypatch.setenv("QVL_BUDGET", "100000")
        code, report = run(["count", "--family", "Lambda", "--m", "3",
                            "--dim", "3", "--q", "2"])
        assert code == EXIT_OK
        assert report["result"]["count"] == 2 ** 6


class TestParserReuse:
    """One parser serves every call of a process; no call may leave
    anything behind for the next."""

    LAMBDA8 = ["count", "--family", "Lambda", "--m", "8", "--dim", "8",
               "--q", "2"]

    def test_flags_do_not_carry_over(self, monkeypatch):
        monkeypatch.delenv("QVL_BUDGET", raising=False)
        seen = []
        inner = qvl.cli._run
        monkeypatch.setattr(qvl.cli, "_run",
                            lambda args: seen.append(args) or inner(args))
        calls = [(self.LAMBDA8 + ["--json", "--budget", "5"], EXIT_BUDGET),
                 (["classify", "--family", "Aprime", "--n", "1",
                   "--m0", "2", "--m1", "2"], EXIT_OK),
                 (self.LAMBDA8, EXIT_OK)]
        assert [run(argv)[0] for argv, _ in calls] == [c for _, c in calls]
        assert [(a.command, a.json, a.budget) for a in seen] == [
            ("count", True, 5), ("classify", False, None),
            ("count", False, None)]
        for args, (argv, _) in zip(seen, calls):
            assert vars(args) == vars(qvl.cli.build_parser().parse_args(argv))

    def test_usage_error_then_valid_call(self, rep_files, lam2_file):
        with pytest.raises(SystemExit) as exc:
            run_command(["count", "--family", "Lambda", "--m", "2",
                         "--dim", "2"])
        assert exc.value.code == 2
        code, report = run(["check", "--quiver", lam2_file,
                            "--rep", rep_files["one"]])
        assert code == EXIT_OK
        assert report["result"]["valid"]

    def test_bad_input_then_good_input(self):
        code, report = run(["census-hom", "--n", "2", "--q", "4"])
        assert code == EXIT_SEMANTIC
        code, report = run(["census-hom", "--n", "2", "--q", "3"])
        assert code == EXIT_OK
        assert report["ok"]


class TestParsedOnce:
    """A DSL text is parsed once per process: a ``--quiver`` file is read
    on every query and its presentation kept by its text, so an edited
    file is parsed again and a file that fails to parse fails every time."""

    COUNT = ["count", "--dim", "3", "--q", "3"]

    @pytest.fixture(autouse=True)
    def _cleared(self):
        qvl.cli._parsed.cache_clear()
        yield
        qvl.cli._parsed.cache_clear()

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The texts the CLI parses."""
        texts = []
        inner = qvl.cli.parse_quiver_spec
        monkeypatch.setattr(qvl.cli, "parse_quiver_spec",
                            lambda text: texts.append(text) or inner(text))
        return texts

    def test_a_repeated_query_parses_once(self, lam2_file, parsed):
        argv = self.COUNT + ["--quiver", lam2_file]
        reports = [_comparable(*run(argv)) for _ in range(3)]
        assert reports == [_comparable(*run(
            self.COUNT + ["--family", "Lambda", "--m", "2"]))] * 3
        assert reports[0][0] == EXIT_OK
        assert parsed == [Path(lam2_file).read_text()]

    def test_an_edited_file_is_parsed_again(self, tmp_path, parsed):
        path = tmp_path / "edited.qv"
        counts = []
        for m in (2, 3, 2):
            path.write_text(
                f"quiver L {{ vertex 0; loop e at 0; rel e^{m}; }}\n")
            counts.append(run(self.COUNT + ["--quiver", str(path)])[1]
                          ["result"]["count"])
            assert counts[-1] == run(self.COUNT + [
                "--family", "Lambda", "--m", str(m)])[1]["result"]["count"]
        assert counts[0] != counts[1]
        assert len(parsed) == 2

    @pytest.mark.parametrize("text, code", [
        ("quiver X { vertex 0 loop e at 0; }", EXIT_PARSE),
        ("quiver X { vertex 0; loop e at 0; rel f^2; }", EXIT_SEMANTIC)],
        ids=["syntax", "unknown_arrow"])
    def test_a_bad_file_fails_on_every_query(self, tmp_path, lam2_file,
                                             parsed, text, code):
        bad = tmp_path / "bad.qv"
        bad.write_text(text)
        reports = [run(self.COUNT + ["--quiver", str(bad)]) for _ in range(3)]
        assert reports == [reports[0]] * 3
        assert reports[0][0] == code
        assert len(parsed) == 3
        assert qvl.cli._parsed.cache_info().currsize == 0
        assert run(self.COUNT + ["--quiver", lam2_file])[0] == EXIT_OK

    def test_equal_texts_share_one_presentation(self, tmp_path, lam2_file,
                                                parsed):
        copy = tmp_path / "copy.qv"
        copy.write_text(Path(lam2_file).read_text())
        argvs = [self.COUNT + ["--quiver", path] for path in
                 (lam2_file, str(copy))]
        first, second = (qvl.cli._load_pres(qvl.cli._parse(argv))
                         for argv in argvs)
        assert second is first
        assert _comparable(*run(argvs[0])) == _comparable(*run(argvs[1]))
        assert len(parsed) == 1


class TestCommandParsers:
    """A well-formed query is read off the command table and builds no
    parser; everything else goes to the full parser.  What a query prints,
    exits with and parses to equals the full parser's either way."""

    WELL_FORMED = {
        "check": "check --family Lambda --m 2 --rep r.json",
        "hom": "hom --quiver q.qv --source a.json --target b.json --json",
        "cocycles": "cocycles --family Lambda --m 2 --quo a.json --sub b.json",
        "extend": "extend --family Lambda --m 2 --quo a.json --sub b.json "
                  "--blocks c.json",
        "split": "split --family Lambda --m 2 --sub a.json --middle b.json "
                 "--map c.json",
        "count": "count --family Lambda --m 2 --kind hom --source-dim 1 "
                 "--target-dim 2 --q 3",
        "census-hom": "census-hom --budget 100 --n 2 --q 3",
        "witness-mono": "witness-mono --m 2 --l 2 --n 1 --q 2",
        "product-check": "product-check --n 3 --m 2 --dim 2,2 --q 3",
        "ext2": "ext2 --family A --n 1 --m 3 --l 1 --x 1 --y 0",
        "classify": "classify --family A --n 1 --m 4 --l 2",
        "probe": "probe --family Lambda --m 2 --dim 2 --q 2,3",
    }

    USAGE_ERRORS = {
        "missing_flag": "count --family Lambda --m 2 --dim 2",
        "unknown_flag": "count --bogus 1 --family Lambda --m 2 --dim 2 --q 2",
        "bad_family": "count --family Nope --m 2 --dim 2 --q 2",
        "bad_q": "count --family Lambda --m 2 --dim 2 --q x",
        "stray_positional": "count --family Lambda --m 2 --dim 2 --q 2 x",
        "json_first": "--json count --family Lambda --m 2 --dim 2 --q 2",
        "no_arguments": "",
        "unknown_command": "nosuch --q 2",
    }

    @staticmethod
    def _exit(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", list(qvl.cli._COMMANDS))
    def test_help_equals_the_full_parsers(self, command, capsys):
        argv = [command, "--help"]
        mine = self._exit(run_command, argv, capsys)
        full = self._exit(qvl.cli.build_parser().parse_args, argv, capsys)
        assert mine == full
        assert mine[0] == 0 and mine[1].startswith(f"usage: qvl {command} ")

    @pytest.mark.parametrize("case", list(USAGE_ERRORS))
    def test_usage_errors_equal_the_full_parsers(self, case, capsys):
        argv = self.USAGE_ERRORS[case].split()
        mine = self._exit(run_command, argv, capsys)
        full = self._exit(qvl.cli.build_parser().parse_args, argv, capsys)
        assert mine == full
        assert mine[0] == 2 and "error:" in mine[2]

    def test_sweep_parses_as_the_full_parser_does(self):
        names = ["quiver", "rep", "bad", "blocks", "map",
                 *MALFORMED_REPS, *MALFORMED_FILES]
        files = {name: f"{name}.json" for name in names}
        parser = qvl.cli.build_parser()
        for cases in SWEEP.values():
            for argv in cases.values():
                argv = argv.format(**files).split()
                assert vars(qvl.cli._parse(argv)) == \
                    vars(parser.parse_args(argv)), argv

    def test_a_query_builds_only_its_parser(self, monkeypatch):
        qvl.cli._parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(1)
                            or init(self, *a, **k))
        code, report = run(["count", "--family", "Lambda", "--m", "2",
                            "--dim", "2", "--q", "2"])
        assert (code, report["result"]["count"]) == (EXIT_OK, 4)
        parsed = {command: qvl.cli._parse(argv.split())
                  for command, argv in self.WELL_FORMED.items()}
        assert list(parsed) == list(qvl.cli._COMMANDS)
        assert len(built) == 0
        parser = qvl.cli.build_parser()
        for command, argv in self.WELL_FORMED.items():
            assert vars(parsed[command]) == \
                vars(parser.parse_args(argv.split())), argv
        # abbreviations, --flag=value and values starting with "-" still
        # parse, through the full parser
        count = "count --family Lambda --m 2 --dim 2"
        for argv, name, value, exit_code in [
                (f"{count} --q 2 --js", "json", True, EXIT_OK),
                (f"{count} --q=2", "q", 2, EXIT_OK),
                (f"{count} --q 2 --budget -3", "budget", -3, EXIT_SEMANTIC)]:
            argv = argv.split()
            assert qvl.cli._read(argv) is None
            assert getattr(qvl.cli._parse(argv), name) == value
            assert run_command(argv)[0] == exit_code
        assert built

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_every_argv_parses_as_the_full_parser_does(self, capsys, data):
        argv, well_formed = data.draw(_argvs())
        if well_formed:
            assert qvl.cli._read(argv) is not None, argv
        try:
            mine = vars(qvl.cli._parse(argv))
        except SystemExit as exc:
            out = capsys.readouterr()
            mine = exc.code, out.out, out.err
        try:
            full = vars(_full_parser().parse_args(argv))
        except SystemExit as exc:
            out = capsys.readouterr()
            full = exc.code, out.out, out.err
        assert mine == full, argv


@functools.cache
def _full_parser():
    return qvl.cli.build_parser()


def _value(spec):
    """A value the spec accepts, never starting with "-"."""
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.integers(0, 12).map(str)
    return st.sampled_from(["2", " 2", "1,2", "r.json", "a b", ""])


@st.composite
def _argvs(draw):
    """An argv of one command built from its specs and the common flags,
    each flag given at most once and every required flag given, in any
    order; then, unless the argv stays well formed, one off-table form:
    an abbreviated or unknown flag, --flag=value, a repeated flag, a value
    starting with "-" or none, an int written " 3", "+3", "1_0" or "x", a
    bad choice, a missing required flag, a stray token or a help flag.
    Returns the argv and whether it stayed well formed."""
    command = draw(st.sampled_from(list(qvl.cli._COMMANDS)))
    specs = qvl.cli._COMMON + qvl.cli._COMMANDS[command][2]

    def tokens(flag, spec):
        if spec.get("action") == "store_true":
            return [flag]
        return [flag, draw(_value(spec))]

    pairs = draw(st.permutations([tokens(flag, spec) for flag, spec in specs
                                  if spec.get("required")
                                  or draw(st.booleans())]))
    form = draw(st.sampled_from([None] * 6 + [
        "abbreviated", "unknown", "equals", "repeated", "dash", "no value",
        "int", "choice", "missing", "stray", "help"]))
    extra = []
    if form == "abbreviated":
        flag, spec = draw(st.sampled_from(specs))
        extra = tokens(flag[:draw(st.integers(3, max(3, len(flag) - 1)))],
                       spec)
    elif form == "unknown":
        extra = draw(st.sampled_from([["--bogus"], ["--bogus", "1"]]))
    elif form == "equals":
        extra = ["=".join(tokens(*draw(st.sampled_from(specs[1:]))))]
    elif form == "repeated" and pairs:
        extra = draw(st.sampled_from(pairs))
    elif form == "dash":
        extra = [draw(st.sampled_from(specs[1:]))[0],
                 draw(st.sampled_from(["-3", "-x", "--", "-"]))]
    elif form == "no value":
        extra = [draw(st.sampled_from(specs[1:]))[0]]
    elif form == "int":
        extra = ["--budget",
                 draw(st.sampled_from([" 3", "+3", "1_0", "x", "3.0"]))]
    elif form == "choice":
        extra = draw(st.sampled_from([["--family", "Nope"],
                                      ["--kind", "nope"]]))
    elif form == "missing":
        required = [pair for pair in pairs
                    if dict(specs)[pair[0]].get("required")]
        if required:
            pairs.remove(draw(st.sampled_from(required)))
    elif form == "stray":
        extra = ["x"]
    elif form == "help":
        extra = [draw(st.sampled_from(["-h", "--help"]))]
    if form in ("dash", "no value", "int", "choice"):
        # the flag given once, with the off-table value or none
        pairs = [pair for pair in pairs if pair[0] != extra[0]]
    pairs.insert(draw(st.integers(0, len(pairs))), extra)
    return [command, *(token for pair in pairs for token in pair)], \
        form is None


# Each command's report, run in one process after any other queries, must
# equal its report in a fresh process: presentations, spans and parsers are
# shared per process, answers are not.  The DSL file spells out A(1,3,1),
# so it and the family share one presentation value.
FRESH_RUN = """
import json, sys
from qvl.cli import run_command
print(json.dumps(run_command(sys.argv[1:])))
"""
QUERIES = [
    "count --quiver {a131} --dim 1,1 --q 3",
    "ext2 --family A --n 1 --m 3 --l 1 --x 1 --y 0",
    "classify --family A --n 1 --m 4 --l 2",
    "hom --quiver {lam2} --source {q_two} --target {q_two}",
    "hom --family Lambda --m 2 --source {f5_two} --target {f5_one}",
    "cocycles --quiver {lam2} --quo {q_two} --sub {q_one}",
    "cocycles --family Lambda --m 2 --quo {f5_one} --sub {f5_two}",
    "witness-mono --m 2 --l 2 --n 1 --q 2",
    "census-hom --n 2 --q 3",
]


def _comparable(code, report) -> tuple:
    report = json.loads(json.dumps(report))
    report.pop("_text", None)
    report.pop("elapsed_seconds", None)
    return code, report


def test_reports_carry_no_state_across_queries(tmp_path, lam2_file):
    files = {"lam2": lam2_file, "a131": tmp_path / "a131.qv"}
    files["a131"].write_text(print_quiver_spec(family_a(1, 3, 1)))
    pres = family_lambda(2)
    for field, name, a in [(QQ, "q", Fraction(-1, 6)), (GF(5), "f5", 3)]:
        points = {"one": Representation(pres, field, {0: 1},
                                        {"e": Matrix(field, 1, 1, [[0]])}),
                  "two": Representation(pres, field, {0: 2}, {
                      "e": Matrix(field, 2, 2, [[0, a], [0, 0]])})}
        for size, rep in points.items():
            files[f"{name}_{size}"] = tmp_path / f"{name}_{size}.json"
            files[f"{name}_{size}"].write_text(json.dumps(rep_to_json(rep)))
    argvs = [query.format(**files).split() for query in QUERIES]
    src = str(Path(qvl.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = [_comparable(*json.loads(subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *argv], env=env, check=True,
        capture_output=True, text=True).stdout)) for argv in argvs]
    assert all(code == EXIT_OK for code, _ in fresh)
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for i in order:
            assert _comparable(*run(argvs[i])) == fresh[i], QUERIES[i]
