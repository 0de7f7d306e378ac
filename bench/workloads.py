"""The benchmark's workloads: qvl queries on fixed parameters, each with the
check its answer must pass.

A workload's setup builds every presentation its queries use, writes their
input files and returns the queries.  Queries go through
``qvl.cli.run_command(argv)``, as a user's ``qvl`` invocation does; the one
library-level query is the DSL round trip.  Checks run after the timed
passes and compare against ``oracle`` (closed forms that share no code with
qvl), against stated properties, against another query of the same pass
computed by a different method, or against the regenerable reference file.
qvl is imported inside the setup functions, after the caller has put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

REFERENCE = Path(__file__).resolve().parent / "reference" / "witness_mono.json"

# Bad input that must exit 4 (semantic error).  run_command maps every
# ValueError to exit 1, so these queries fail until that is fixed.
EXIT_CODE_FAULTS = [
    "census-hom --n 2 --q 4",
    "witness-mono --m 3 --l 3 --n 1 --q 4",
    "probe --family Lambda --m 2 --kind rep --dim 2 --q 2,4",
    "product-check --n 3 --m 2 --dim 1,x --q 3",
]


@dataclass
class Query:
    name: str
    run: Callable[[], tuple[int, dict]]
    # (payload, payloads of the same pass by query name) -> problems
    check: Callable[[dict, dict], list[str]]
    expect_exit: int = 0


@dataclass
class Context:
    seed: int
    workdir: Path

    def write(self, name: str, text: str) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _cli(name: str, argv: str | list, check, expect_exit: int = 0) -> Query:
    from qvl import cli
    args = argv.split() if isinstance(argv, str) else argv
    # looked up on every call, so a tracer that rebinds it sees the call
    return Query(name, lambda: cli.run_command(args), check, expect_exit)


def _expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def _count(name: str, argv: str, want: Callable[[], int]) -> Query:
    return _cli(name, "count " + argv,
                lambda r, _: _expect(name, r.get("count"), want()))


def _build(kind: str, **params):
    from qvl import families
    return families.build_family(families.FamilyDescriptor(kind=kind, **params))


# --- rep-count ----------------------------------------------------------------

PATH3 = """quiver P3 {
  vertex 0; vertex 1; vertex 2;
  arrow a: 0 -> 1;
  arrow b: 1 -> 2;
  rel b*a;
}
"""


def rep_count(ctx: Context) -> list[Query]:
    from qvl import dsl
    for kind, params in (("Lambda", {"m": 2}), ("B", {"n": 2, "m": 3}),
                         ("AprimeCommuting", {"m": 2}),
                         ("B", {"n": 3, "m": 2}), ("B", {"n": 1, "m": 2})):
        _build(kind, **params)
    path3 = ctx.write("path3.qvl",
                      dsl.print_quiver_spec(dsl.parse_quiver_spec(PATH3)))

    def product(r, _):
        n, m, d, e, q = 3, 2, 2, 2, 3
        return (_expect("product core", r.get("count_core"),
                        oracle.corner_rep_count(1, m, d, e, q))
                + _expect("product free factor", r.get("free_factor"),
                          q ** ((n - 1) * d * e))
                + _expect("product full", r.get("count_full"),
                          r.get("count_core", 0) * q ** ((n - 1) * d * e))
                + _expect("product holds", r.get("holds"), True))

    return [
        _count("rep Lambda(2) d=3 q=3", "--family Lambda --m 2 --dim 3 --q 3",
               lambda: oracle.lambda_rep_count(2, 3, 3)),
        _count("rep B(2,3) dims 2,2 q=3",
               "--family B --n 2 --m 3 --dim 2,2 --q 3",
               lambda: oracle.corner_rep_count(2, 3, 2, 2, 3)),
        _count("rep A'comm(2) dims 2,2 q=3",
               "--family AprimeCommuting --m 2 --dim 2,2 --q 3",
               lambda: oracle.lambda_hom_count(2, 2, 2, 3)),
        _count("rep path b*a=0 dims 2,2,2 q=3",
               f"--quiver {path3} --dim 2,2,2 --q 3",
               lambda: oracle.path_rep_count(2, 2, 2, 3)),
        _cli("product-check B(3,2) dims 2,2 q=3",
             "product-check --n 3 --m 2 --dim 2,2 --q 3", product),
    ]


# --- fiber-count --------------------------------------------------------------


def fiber_count(ctx: Context) -> list[Query]:
    _build("Lambda", m=2)
    _build("Lambda", m=3)
    out = []
    for kind, m, a, b, q in (("hom", 2, 2, 3, 3), ("ext", 2, 3, 3, 2),
                             ("hom", 2, 3, 3, 2), ("ext", 3, 2, 3, 2)):
        if kind == "ext":
            flags = f"--quo-dim {a} --sub-dim {b}"
            want = (lambda m=m, a=a, b=b, q=q:
                    oracle.lambda_ext_count(m, a, b, q))
        else:
            flags = f"--source-dim {a} --target-dim {b}"
            want = (lambda m=m, a=a, b=b, q=q:
                    oracle.lambda_hom_count(m, a, b, q))
        out.append(_count(f"{kind} Lambda({m}) {a},{b} q={q}",
                          f"--family Lambda --m {m} --kind {kind} {flags} "
                          f"--q {q}", want))
    return out


# --- certify ------------------------------------------------------------------


def _witness_check(total_from: Callable[[dict], object]):
    def check(r, answers):
        problems = []
        for flag in ("both_nonempty", "disjoint", "implication_verified",
                     "kernel_image_match_verified", "samples_verified"):
            problems += _expect(f"witness {flag}", r.get(flag), True)
        problems += _expect("witness intersection", r.get("count_intersection"),
                            0)
        if not (r.get("count_full_rank", 0) > 0 and r.get("count_mu1", 0) > 0):
            problems.append("witness: an open set is empty")
        problems += _expect("witness total = mono count", r.get("total"),
                            total_from(answers))
        return problems
    return check


def mono_argv(m: int, l: int, n: int, q: int) -> str:
    """The monomorphism count of the variety the witness walks."""
    family = (f"--family A --n {n} --m {m} --l 1" if l == 2
              else f"--family B --n {n} --m {m}")
    return (f"count {family} --kind mono --source-dim 1,1 "
            f"--target-dim 1,{l} --q {q}")


def _census_check(n: int, q: int):
    def check(r, _):
        return (_expect("census total", r.get("total"), q ** n + q - 1)
                + _expect("census b=0 part", r.get("count_b_zero"), q ** n)
                + _expect("census a=0 part", r.get("count_a_zero"), q)
                + _expect("census identity", r.get("identity_holds"), True)
                + _expect("census union", r.get("union_verified"), True)
                + _expect("census bijection", r.get("hom_bijection_verified"),
                          True))
    return check


def certify(ctx: Context) -> list[Query]:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    big = reference["witness"]
    _build("A", n=1, m=3, l=1)
    _build("B", n=1, m=3)
    _build("Aprime", n=7, m0=2, m1=2)
    out = [_cli(f"witness {big}",
                "witness-mono --m {m} --l {l} --n {n} --q {q}".format(**big),
                _witness_check(lambda _: reference["count"]))]
    for m, l, n, q in ((3, 2, 1, 3), (3, 3, 1, 2)):
        mono = f"mono m={m} l={l} n={n} q={q}"
        out.append(_cli(mono, mono_argv(m, l, n, q),
                        lambda r, _: [] if r.get("count", 0) > 0
                        else ["mono count is empty"]))
        out.append(_cli(f"witness m={m} l={l} n={n} q={q}",
                        f"witness-mono --m {m} --l {l} --n {n} --q {q}",
                        _witness_check(lambda a, mono=mono:
                                       a.get(mono, {}).get("count"))))
    out.append(_cli("census n=7 q=3", "census-hom --n 7 --q 3",
                    _census_check(7, 3)))
    return out


# --- presentation -------------------------------------------------------------

# (kind, parameters, expected ext2 pair for x=1, y=0); A(n, m, l) is
# geometrically irreducible exactly for l = 1 or l = m - 1, the others are.
PRESENTATIONS = [
    ("A", {"n": 1, "m": 4, "l": 2}, (1, 1)),
    ("A", {"n": 1, "m": 3, "l": 1}, (1, 1)),
    ("B", {"n": 1, "m": 3}, (1, 1)),
    ("Aprime", {"n": 1, "m0": 3, "m1": 3}, (0, 0)),
]

# Lambda(M) inputs: sub of Jordan type SUB, quotient of type QUO, and an
# invalid point of type BAD (a block longer than M).
M, SUB, QUO, BAD = 4, (3, 2), (4, 1, 1), (5,)


def _irreducible(kind: str, params: dict) -> bool:
    if kind == "A":
        return params["l"] in (1, params["m"] - 1)
    return True


def _flags(params: dict) -> str:
    return " ".join(f"--{k} {v}" for k, v in params.items())


def _entry_json(x, p):
    return int(x) if p else str(x)


def _matrix_json(a, p) -> list:
    return [[_entry_json(x, p) for x in row] for row in a]


def _matrix_from(data, p) -> list:
    return [[x % p if p else Fraction(x) for x in row] for row in data]


def _field_json(p) -> dict:
    return {"type": "Fp", "p": p} if p else {"type": "Q"}


def _rep_json(mat, p) -> str:
    return json.dumps({"field": _field_json(p), "dims": {"0": len(mat)},
                       "mats": {"e": _matrix_json(mat, p)}})


def _conjugate(lam, rng, p):
    g = oracle.random_invertible(sum(lam), rng, p)
    return oracle.mat_mul(oracle.mat_mul(g, oracle.jordan(lam, p), p),
                          oracle.inverse(g, p), p)


def _cocycle_map(sub, quo, p) -> list[list]:
    """Matrix of C -> sum_j sub^j C quo^(M-1-j) on row-major d x e blocks."""
    d, e = len(sub), len(quo)
    sub_pows = [oracle.mat_pow(sub, j, p) for j in range(M)]
    quo_pows = [oracle.mat_pow(quo, j, p) for j in range(M)]
    columns = []
    for i in range(d):
        for j in range(e):
            value = [[0] * e for _ in range(d)]
            for k in range(M):
                left = [[row[i]] for row in sub_pows[k]]       # column i
                right = [quo_pows[M - 1 - k][j]]               # row j
                term = oracle.mat_mul(left, right, p)
                value = [[x + y for x, y in zip(a, b)]
                         for a, b in zip(value, term)]
            columns.append([x % p if p else x for row in value for x in row])
    return [list(col) for col in zip(*columns)]


def _file_queries(ctx: Context, p) -> list[Query]:
    """check/hom/cocycles/extend/split on seeded Lambda(M) inputs over F_p
    (or Q when p is None): Jordan forms conjugated by seeded invertible
    matrices, a seeded cocycle, and a seeded base change of the middle."""
    rng = random.Random(f"{ctx.seed}:{p}")
    tag = f"F{p}" if p else "Q"
    d, e = sum(SUB), sum(QUO)
    sub, quo = _conjugate(SUB, rng, p), _conjugate(QUO, rng, p)
    bad = _conjugate(BAD, rng, p)
    cocycle_map = _cocycle_map(sub, quo, p)
    kernel = oracle.kernel(cocycle_map, d * e, p)
    coeffs = [rng.randrange(p) if p else rng.randint(-2, 2) for _ in kernel]
    flat = [sum(c * v[i] for c, v in zip(coeffs, kernel)) for i in range(d * e)]
    block = [[x % p if p else x for x in flat[i * e:(i + 1) * e]]
             for i in range(d)]
    middle0 = [row_s + row_c for row_s, row_c in zip(sub, block)] + \
        [[0] * d + row_q for row_q in quo]
    middle0 = [[x % p if p else Fraction(x) for x in row] for row in middle0]
    g = oracle.random_invertible(d + e, rng, p)
    middle = oracle.mat_mul(oracle.mat_mul(g, middle0, p),
                            oracle.inverse(g, p), p)
    embedding = [row[:d] for row in g]

    files = {name: ctx.write(f"{tag}-{name}.json", text) for name, text in (
        ("sub", _rep_json(sub, p)), ("quo", _rep_json(quo, p)),
        ("bad", _rep_json(bad, p)), ("middle", _rep_json(middle, p)),
        ("blocks", json.dumps({"field": _field_json(p),
                               "blocks": {"e": _matrix_json(block, p)}})),
        ("map", json.dumps({"field": _field_json(p),
                            "maps": {"0": _matrix_json(embedding, p)}})))}
    lam = f"--family Lambda --m {M}"

    def hom(r, _):
        maps = [_matrix_from(b["maps"]["0"], p) for b in r.get("basis", [])]
        problems = _expect(f"hom dim {tag}", r.get("dim"),
                           oracle.hom_dim(SUB, QUO))
        if any(oracle.mat_mul(quo, f, p) != oracle.mat_mul(f, sub, p)
               for f in maps):
            problems.append(f"hom {tag}: a basis map does not intertwine")
        flat_maps = [[x for row in f for x in row] for f in maps]
        return problems + _expect(f"hom {tag} basis rank",
                                  oracle.rank(flat_maps, p), len(maps))

    def cocycles(r, _):
        blocks = [_matrix_from(b["blocks"]["e"], p) for b in r.get("basis", [])]
        problems = _expect(f"cocycle dim {tag}", r.get("dim"),
                           oracle.cocycle_dim(SUB, QUO, M))
        flat_blocks = [[x for row in b for x in row] for b in blocks]
        if any(not oracle.is_zero(oracle.mat_mul(cocycle_map, [[x] for x in f],
                                                 p)) for f in flat_blocks):
            problems.append(f"cocycles {tag}: a basis element is no cocycle")
        return problems + _expect(f"cocycles {tag} basis rank",
                                  oracle.rank(flat_blocks, p), len(blocks))

    def extend(r, _):
        mid = r.get("middle", {})
        got = _matrix_from(mid.get("mats", {}).get("e", []), p)
        return (_expect(f"extend {tag} dims", mid.get("dims"), {"0": d + e})
                + _expect(f"extend {tag} middle", got, middle0)
                + _expect(f"extend {tag} middle valid",
                          oracle.is_zero(oracle.mat_pow(got, M, p)), True))

    def split(r, _):
        quotient = r.get("quotient", {})
        got = _matrix_from(quotient.get("mats", {}).get("e", []), p)
        return (_expect(f"split {tag} dims", quotient.get("dims"), {"0": e})
                + _expect(f"split {tag} quotient type",
                          oracle.rank_profile(got, M, p),
                          oracle.jordan_rank_profile(QUO, M)))

    return [
        _cli(f"check valid {tag}", f"check {lam} --rep {files['sub']}",
             lambda r, _: _expect(f"check valid {tag}", r.get("valid"), True)),
        _cli(f"check invalid {tag}", f"check {lam} --rep {files['bad']}",
             lambda r, _: _expect(f"check invalid {tag}", r.get("valid"),
                                  False), expect_exit=1),
        _cli(f"hom {tag}", f"hom {lam} --source {files['sub']} "
             f"--target {files['quo']}", hom),
        _cli(f"cocycles {tag}", f"cocycles {lam} --quo {files['quo']} "
             f"--sub {files['sub']}", cocycles),
        _cli(f"extend {tag}", f"extend {lam} --quo {files['quo']} "
             f"--sub {files['sub']} --blocks {files['blocks']}", extend),
        _cli(f"split {tag}", f"split {lam} --sub {files['sub']} "
             f"--middle {files['middle']} --map {files['map']}", split),
    ]


def presentation(ctx: Context) -> list[Query]:
    from qvl import dsl
    out = []
    for kind, params, pair in PRESENTATIONS:
        pres = _build(kind, **params)
        label = f"{kind}({','.join(str(v) for v in params.values())})"
        spec = ctx.write(f"{label}.qvl", dsl.print_quiver_spec(pres))
        out += [
            Query(f"dsl round trip {label}",
                  lambda pres=pres: (0, {"result": {
                      "equal": dsl.parse_quiver_spec(
                          dsl.print_quiver_spec(pres)) == pres}}),
                  lambda r, _, label=label:
                      _expect(f"round trip {label}", r.get("equal"), True)),
            _cli(f"ext2 {label}", f"ext2 --quiver {spec} --x 1 --y 0",
                 lambda r, _, label=label, pair=pair: _expect(
                     f"ext2 {label}", (r.get("relation_count"),
                                       r.get("bimodule_dimension"),
                                       r.get("agree")), (*pair, True))),
            _cli(f"classify {label}", f"classify --family {kind} "
                 f"{_flags(params)}",
                 lambda r, _, label=label, want=_irreducible(kind, params):
                     _expect(f"classify {label}",
                             r.get("geometrically_irreducible"), want)),
        ]
    _build("Lambda", m=M)
    out += _file_queries(ctx, 5) + _file_queries(ctx, None)
    out += [_cli(f"exit code: {argv}", argv,
                 lambda r, _, argv=argv: _expect(argv, r.get("type"),
                                                 "semantic"),
                 expect_exit=4)
            for argv in EXIT_CODE_FAULTS]
    return out


WORKLOADS = {
    "rep-count": rep_count,
    "fiber-count": fiber_count,
    "certify": certify,
    "presentation": presentation,
}
