"""Command line front end.

Every subcommand prints a human-readable report, or a single JSON object
with ``--json``.  Exit codes are stable per error class:

    0  success (and: the checked property holds)
    1  the computation ran but the checked property failed
    2  usage errors (argparse)
    3  DSL syntax errors
    4  semantic errors (unknown names, bad parameters, malformed files)
    5  enumeration budget exceeded

The enumeration budget defaults to 10**8 steps; override with ``--budget``
or the QVL_BUDGET environment variable.

Every subcommand is one entry of ``_COMMANDS``: its handler, its help and
its argument specs.  A well-formed query is read off that table, and
builds no parser; help, abbreviations, ``--flag=value``, repeated flags
and every usage error go to the full parser, built once per process, so
every message reads as the full parser writes it.  Each command's flag
table is built once per process too (``_flags``).

A ``--quiver`` file is read on every query, and the presentation its text
parses to is kept by ``_parsed``, keyed by that text: an edited file is
parsed again, and a file that fails to parse fails on every query.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .certificates import (hom_counterexample_census,
                           mono_reducibility_witness, product_count_check)
from .counting import (BudgetExceededError, ambient_dimension,
                       count_ext_points, count_hom_points, count_mono_points,
                       count_rep_points, default_budget,
                       leading_coefficient_probe)
from .dsl import DslSemanticError, DslSyntaxError, parse_quiver_spec
from .extensions import build_extension, cocycle_space_basis, splitting_from_mono
from .families import (FAMILY_KINDS, FamilyDescriptor, FamilyParameterError,
                       build_family, is_geometrically_irreducible_family)
from .linalg import PrimeField
from .quiver import BoundQuiver, QuiverError, ext2_dimension
from .reps import hom_basis
from .serialize import (SerializationError, blocks_from_json, blocks_to_json,
                        field_from_json, matrix_to_json, morphism_from_json,
                        morphism_to_json, rep_from_json, rep_to_json)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SEMANTIC = 4
EXIT_BUDGET = 5


class CliSemanticError(ValueError):
    pass


def _text_of(path: str) -> str:
    """The UTF-8 text of a file; a file that cannot be read or is not
    UTF-8 is bad input, named in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliSemanticError(f"cannot read {path}: {exc}") from exc


def _load_json_file(path: str):
    try:
        return json.loads(_text_of(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliSemanticError(f"{path} is not valid JSON: {exc}") from exc


@functools.lru_cache(maxsize=64)
def _parsed(text: str) -> BoundQuiver:
    """The presentation a DSL text parses to, kept for the last 64 texts,
    so a repeated ``--quiver`` query parses nothing and gets the object the
    caches keyed by presentation find by identity; a text that fails to
    parse is not kept, and fails again on every query."""
    return parse_quiver_spec(text)


def _load_pres(args):
    family = [f"{flag} {value}" for flag, _ in _FAMILY
              if (value := getattr(args, flag[2:])) is not None]
    if args.quiver and family:
        raise CliSemanticError(
            f"give --quiver FILE or --family KIND, not both: got --quiver "
            f"{args.quiver} and {' '.join(family)}")
    if args.quiver:
        return _parsed(_text_of(args.quiver))
    if args.family:
        return build_family(_descriptor(args))
    raise CliSemanticError("provide --quiver FILE or --family KIND")


def _load_files(args, pres, *reps: str, data: str | None = None) -> list:
    """The representation in the file of each argument in ``reps``, then,
    when ``data`` names one more argument, the JSON of its file.  Every
    file must be over one field; a JSON file that names no field is left
    to its reader."""
    loaded = [rep_from_json(pres, _load_json_file(getattr(args, name)))
              for name in reps]
    fields = [(name, rep.field) for name, rep in zip(reps, loaded)]
    if data is not None:
        loaded.append(_load_json_file(getattr(args, data)))
        if isinstance(loaded[-1], dict) and "field" in loaded[-1]:
            fields.append((data, field_from_json(loaded[-1]["field"])))
    first, field = fields[0]
    for name, other in fields[1:]:
        if other != field:
            raise CliSemanticError(
                f"--{first} is over {field} but --{name} over {other}")
    _coerce_relations(pres, field)
    return loaded


def _require_points(args, **reps) -> None:
    """Raise unless the representation read from each named file is a
    point of the variety, naming the file and its first nonzero relation:
    a file off the variety is bad input, not a failed check."""
    for name, rep in reps.items():
        failure = next(rep.failures(), None)
        if failure is not None:
            raise CliSemanticError(
                f"--{name} {getattr(args, name)} is not a point of the "
                f"variety: the relation {failure} is nonzero there")


def _coerce_relations(pres, field) -> None:
    """Coerce every relation coefficient into ``field``: a coefficient
    whose denominator vanishes there is bad input, not a failed check."""
    for rel in pres.relations:
        for coeff, _ in rel.terms:
            try:
                field.coerce(coeff)
            except ZeroDivisionError as exc:
                raise CliSemanticError(f"relation {rel}: {exc}") from exc


def _descriptor(args) -> FamilyDescriptor:
    return FamilyDescriptor(kind=args.family, n=args.n, m=args.m, l=args.l,
                            m0=args.m0, m1=args.m1)


def _parse_dim_values(text: str, vertices) -> list[int]:
    """One nonnegative integer per vertex, from a comma separated list."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if "" in parts:
        raise CliSemanticError(f"empty dimension entry in {text!r}")
    if len(parts) != len(vertices):
        raise CliSemanticError(
            f"expected {len(vertices)} dimensions (vertex order "
            f"{list(vertices)}), got {len(parts)}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise CliSemanticError(f"dimensions must be integers: {text!r}") from exc
    if any(v < 0 for v in values):
        raise CliSemanticError("dimensions must be nonnegative")
    return values


def _parse_dims(pres, text: str) -> dict:
    vertices = pres.quiver.vertices
    return dict(zip(vertices, _parse_dim_values(text, vertices)))


def _parse_vertex(pres, token: str):
    for v in pres.quiver.vertices:
        if str(v) == token:
            return v
    raise CliSemanticError(f"unknown vertex {token!r}")


def _prime_field(q: int) -> PrimeField:
    try:
        return PrimeField(q)
    except ValueError as exc:
        raise CliSemanticError(str(exc)) from exc


def _field(args) -> PrimeField:
    if args.q is None:
        raise CliSemanticError("this command needs --q (a prime field size)")
    return _prime_field(args.q)


def _budget(args) -> int:
    """--budget, else QVL_BUDGET, else the default; positive either way."""
    if args.budget is None:
        try:
            return default_budget()
        except ValueError as exc:
            raise CliSemanticError(str(exc)) from exc
    if args.budget <= 0:
        raise CliSemanticError(f"--budget must be positive, got {args.budget}")
    return args.budget


def _parse_q_list(text: str) -> list[int]:
    """Comma separated distinct prime field sizes."""
    try:
        qs = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliSemanticError(
            f"--q must list integers separated by commas: {text!r}") from exc
    for i, q in enumerate(qs):
        if q in qs[:i]:
            raise CliSemanticError(f"--q lists the field size {q} twice")
    return [_prime_field(q).p for q in qs]


# --- subcommand handlers -------------------------------------------------


def _cmd_check(args):
    pres = _load_pres(args)
    rep, = _load_files(args, pres, "rep")
    failures = [str(rel) for rel in rep.failures()]
    valid = not failures
    result = {"valid": valid, "failing_relations": failures,
              "dims": {str(v): rep.dims[v] for v in pres.quiver.vertices}}
    text = "valid point of the representation variety" if valid else \
        "INVALID: nonzero on " + "; ".join(failures)
    return valid, result, text


def _cmd_hom(args):
    pres = _load_pres(args)
    src, dst = _load_files(args, pres, "source", "target")
    _require_points(args, source=src, target=dst)
    basis = hom_basis(src, dst)
    result = {"dim": len(basis),
              "basis": [morphism_to_json(m) for m in basis]}
    return True, result, f"dim Hom = {len(basis)}"


def _cmd_cocycles(args):
    pres = _load_pres(args)
    quo, sub = _load_files(args, pres, "quo", "sub")
    _require_points(args, quo=quo, sub=sub)
    basis = cocycle_space_basis(quo, sub)
    result = {"dim": len(basis),
              "basis": [blocks_to_json(quo.field, fam) for fam in basis]}
    return True, result, f"dim of the cocycle space = {len(basis)}"


def _cmd_extend(args):
    pres = _load_pres(args)
    quo, sub, data = _load_files(args, pres, "quo", "sub", data="blocks")
    _require_points(args, quo=quo, sub=sub)
    blocks = blocks_from_json(pres, sub.dims, quo.dims, data)
    try:
        middle, incl, proj = build_extension(quo, sub, blocks)
    except ValueError as exc:
        # both sides are points and the blocks have their shapes and field,
        # so what fails is a cocycle equation: bad input, not a failed check
        raise CliSemanticError(f"--blocks {args.blocks}: {exc}") from exc
    result = {"middle": rep_to_json(middle),
              "inclusion": morphism_to_json(incl),
              "projection": morphism_to_json(proj)}
    return True, result, (
        f"built the middle term, dims "
        f"{[middle.dims[v] for v in pres.quiver.vertices]}")


def _cmd_split(args):
    pres = _load_pres(args)
    sub, middle, data = _load_files(args, pres, "sub", "middle", data="map")
    _require_points(args, sub=sub, middle=middle)
    mor = morphism_from_json(sub, middle, data)
    try:
        g, blocks, quo = splitting_from_mono(mor)
    except ValueError as exc:
        # both ends are points and the maps have their shapes and field, so
        # what fails is the map: not a homomorphism or not injective, which
        # is bad input, not a failed check
        raise CliSemanticError(f"--map {args.map}: {exc}") from exc
    result = {
        "base_change": {str(x): matrix_to_json(g[x]) for x in g},
        "blocks": blocks_to_json(sub.field, blocks),
        "quotient": rep_to_json(quo),
    }
    return True, result, (
        f"split off a quotient of dims "
        f"{[quo.dims[v] for v in pres.quiver.vertices]}")


# Each --kind: its count function, and the dest of the dims flag of each
# factor variety, in the order the function takes them.
_KINDS = {"rep": (count_rep_points, ("dim",)),
          "hom": (count_hom_points, ("source_dim", "target_dim")),
          "mono": (count_mono_points, ("source_dim", "target_dim")),
          "ext": (count_ext_points, ("quo_dim", "sub_dim"))}


def _count_kind(args, pres, field) -> tuple[int, list]:
    """The count of the variety of --kind over ``field``, and the dims of
    each of its factors, read from their flags; --budget, the relation
    coefficients and the dims flags are checked in that order."""
    budget = _budget(args)
    _coerce_relations(pres, field)
    count, dests = _KINDS[args.kind]
    texts = [getattr(args, dest) for dest in dests]
    if None in texts:
        raise CliSemanticError(
            f"{args.kind} counting needs "
            + " and ".join("--" + dest.replace("_", "-") for dest in dests))
    dims = [_parse_dims(pres, text) for text in texts]
    return count(pres, field, *dims, budget=budget), dims


def _cmd_count(args):
    pres = _load_pres(args)
    field = _field(args)
    count, dims = _count_kind(args, pres, field)
    result = {"count": count, "kind": args.kind, "q": field.p,
              "ambient_dim": ambient_dimension(args.kind, pres, *dims)}
    return True, result, f"{count} points over F_{field.p}"


def _cmd_census_hom(args):
    res = hom_counterexample_census(args.n, _field(args).p,
                                    budget=_budget(args))
    ok = res.identity_holds() and res.union_verified \
        and res.hom_bijection_verified
    result = {**vars(res),
              "identity_holds": res.identity_holds()}
    text = (f"total {res.total} = q^n + q - 1 "
            f"({'holds' if ok else 'FAILS'}); "
            f"b=0 part {res.count_b_zero}, a=0 part {res.count_a_zero}")
    return ok, result, text


def _witness_point_json(pt):
    if pt is None:
        return None
    return {"mu": list(pt.mu), "lambda": pt.lam,
            "loop_matrix": [list(r) for r in pt.loop_mat],
            "arrow_rows": [list(r) for r in pt.arrow_rows],
            "embedding_column": list(pt.emb_col)}


def _cmd_witness_mono(args):
    rep = mono_reducibility_witness(args.m, args.l, args.n, _field(args).p,
                                    budget=_budget(args))
    ok = (rep.both_nonempty() and rep.disjoint()
          and rep.implication_verified and rep.kernel_image_match_verified
          and rep.samples_verified)
    result = {**vars(rep),
              "disjoint": rep.disjoint(),
              "both_nonempty": rep.both_nonempty(),
              "sample_full_rank": _witness_point_json(rep.sample_full_rank),
              "sample_mu1": _witness_point_json(rep.sample_mu1)}
    text = (f"{rep.family}: |U1| = {rep.count_full_rank}, "
            f"|U2| = {rep.count_mu1}, |U1 n U2| = {rep.count_intersection} "
            f"-> {'reducibility witnessed' if ok else 'WITNESS FAILED'}")
    return ok, result, text


def _cmd_product_check(args):
    d, e = _parse_dim_values(args.dim, (0, 1))
    res = product_count_check(args.n, args.m, (d, e), _field(args).p,
                              budget=_budget(args))
    result = {**vars(res), "holds": res.ok}
    text = (f"{res.count_full} "
            f"{'==' if res.ok else '!='} {res.count_core} * {res.free_factor}")
    return res.ok, result, text


def _cmd_ext2(args):
    pres = _load_pres(args)
    x = _parse_vertex(pres, args.x)
    y = _parse_vertex(pres, args.y)
    count, dim = ext2_dimension(pres, pres.relations, x, y)
    agree = count == dim
    result = {"x": str(x), "y": str(y), "relation_count": count,
              "bimodule_dimension": dim, "agree": agree}
    text = (f"relations {x} -> {y}: {count}; bimodule corner dim: {dim} "
            f"({'agree' if agree else 'DISAGREE'})")
    return agree, result, text


def _cmd_classify(args):
    desc = _descriptor(args)
    flag = is_geometrically_irreducible_family(desc)
    verdict = ("geometrically irreducible" if flag
               else "not geometrically irreducible")
    result = {"family": desc.label(), "geometrically_irreducible": flag}
    return True, result, f"{desc.label()}: {verdict}"


def _cmd_probe(args):
    qs = _parse_q_list(args.q_list)
    pres = _load_pres(args)
    report = leading_coefficient_probe(
        lambda q: _count_kind(args, pres, PrimeField(q))[0], qs)
    result = {
        "counts": {str(q): c for q, c in report.counts.items()},
        "degree": report.degree,
        "coefficients": {str(q): str(c)
                         for q, c in report.coefficients.items()},
        "looks_affine": report.looks_affine,
        "note": report.note,
    }
    lines = [f"q={q}: {c} points" for q, c in report.counts.items()]
    lines.append(f"best degree {report.degree}; {report.note}")
    return True, result, "\n".join(lines)


# Argument specs, (flag, add_argument keywords), in the order of --help;
# ``_COMMON`` holds the flags every subcommand takes.
_COMMON = (("--json", {"action": "store_true",
                       "help": "emit a machine-readable JSON report"}),
           ("--budget", {"type": int,
                         "help": "enumeration step budget "
                                 "(default 10^8, or QVL_BUDGET)"}))
_FAMILY = (("--family", {"choices": FAMILY_KINDS, "help": "built-in family"}),
           *((flag, {"type": int})
             for flag in ("--n", "--m", "--l", "--m0", "--m1")))
_SOURCE = (("--quiver", {"metavar": "FILE",
                         "help": "presentation in the quiver DSL"}), *_FAMILY)
_DIMS = (("--kind", {"choices": tuple(_KINDS), "default": "rep"}),
         ("--dim", {"help": "dimension vector, comma separated"}),
         *((flag, {}) for flag in ("--source-dim", "--target-dim",
                                   "--quo-dim", "--sub-dim")))


def _files(*flags):
    return tuple((flag, {"required": True, "metavar": "FILE"})
                 for flag in flags)


def _ints(*flags):
    return tuple((flag, {"type": int, "required": True}) for flag in flags)


# The subcommands: name -> (handler, help, argument specs).
_COMMANDS = {
    "check": (_cmd_check, "validate a representation file",
              _SOURCE + _files("--rep")),
    "hom": (_cmd_hom, "basis of the homomorphism space",
            _SOURCE + _files("--source", "--target")),
    "cocycles": (_cmd_cocycles, "basis of the cocycle space of a pair",
                 _SOURCE + _files("--quo", "--sub")),
    "extend": (_cmd_extend, "assemble the extension of a cocycle",
               _SOURCE + _files("--quo", "--sub", "--blocks")),
    "split": (_cmd_split, "split a monomorphism into cocycle normal form",
              _SOURCE + _files("--sub", "--middle", "--map")),
    "count": (_cmd_count, "exact point count of a variety over F_q",
              _SOURCE + _DIMS + _ints("--q")),
    "census-hom": (_cmd_census_hom, "census of the split-or-vanish variety",
                   _ints("--n", "--q")),
    "witness-mono": (_cmd_witness_mono,
                     "reducibility witness in a monomorphism variety",
                     _ints("--m", "--l", "--n", "--q")),
    "product-check": (_cmd_product_check,
                      "product identity for the corner families",
                      _ints("--n", "--m")
                      + (("--dim", {"required": True, "help": "d,e"}),)
                      + _ints("--q")),
    "ext2": (_cmd_ext2, "relation count vs bimodule corner dimension",
             _SOURCE + (("--x", {"required": True}),
                        ("--y", {"required": True}))),
    "classify": (_cmd_classify, "geometric irreducibility of a named family",
                 _FAMILY),
    "probe": (_cmd_probe,
              "leading-coefficient fit of counts over several q",
              _SOURCE + _DIMS + (("--q", {
                  "dest": "q_list", "required": True,
                  "help": "comma separated prime field sizes"}),)),
}


def _add_specs(parser: argparse.ArgumentParser, specs) -> None:
    for flag, kwargs in specs:
        parser.add_argument(flag, **kwargs)


@functools.cache
def _common() -> argparse.ArgumentParser:
    """The parent parser of every subcommand, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    _add_specs(common, _COMMON)
    return common


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand of the table under ``qvl``."""
    parser = argparse.ArgumentParser(
        prog="qvl",
        description="exact computations on bound quiver representation "
                    "varieties over small exact fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, specs) in _COMMANDS.items():
        _add_specs(sub.add_parser(name, parents=[_common()], help=help_text),
                   specs)
    return parser


# The full parser, built on first use; ``parse_args`` leaves it unchanged,
# so every call of the process can share it.
_parser = functools.cache(build_parser)


@functools.cache
def _flags(command: str):
    """The flag table of a command, built once per process: each flag's
    spec, the required flags, and each flag with its dest and default."""
    specs = dict(_COMMON + _COMMANDS[command][2])
    required = frozenset(flag for flag, spec in specs.items()
                         if spec.get("required"))
    defaults = tuple(
        (flag, spec.get("dest", flag[2:].replace("-", "_")),
         spec.get("default",
                  False if spec.get("action") == "store_true" else None))
        for flag, spec in specs.items())
    return specs, required, defaults


def _read(argv) -> argparse.Namespace | None:
    """The namespace the full parser returns for ``argv``, read off the
    table, or None unless ``argv`` names a command, then gives only flags
    of it by their exact names, each flag that takes a value followed by
    one that does not start with "-" and that its spec converts and
    accepts, and gives every required flag.  A flag given twice keeps its
    last value, as in argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    specs, required, defaults = _flags(argv[0])
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            values[flag] = True
            continue
        value = next(tokens, "-")       # a missing value reads as "-"
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[flag] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(command=argv[0], **{
        dest: values.get(flag, default) for flag, dest, default in defaults})


def _parse(argv) -> argparse.Namespace:
    """Read ``argv`` off the table; what the table read does not take
    exactly goes to the full parser, which prints help and usage errors."""
    args = _read(argv)
    return _parser().parse_args(argv) if args is None else args


def run_command(argv) -> tuple[int, dict]:
    """Run one subcommand; returns (exit code, report envelope)."""
    return _run(_parse(argv))


def _run(args) -> tuple[int, dict]:
    command = args.command
    start = time.monotonic()
    try:
        ok, result, text = _COMMANDS[command][0](args)
        report = {"command": command, "ok": ok, "result": result,
                  "elapsed_seconds": round(time.monotonic() - start, 3)}
        report["_text"] = text
        return (EXIT_OK if ok else EXIT_FAIL), report
    except DslSyntaxError as exc:
        return EXIT_PARSE, _error_report(command, "syntax", exc)
    except DslSemanticError as exc:
        return EXIT_SEMANTIC, _error_report(command, "semantic", exc)
    except (CliSemanticError, SerializationError, FamilyParameterError,
            QuiverError) as exc:
        return EXIT_SEMANTIC, _error_report(command, "semantic", exc)
    except BudgetExceededError as exc:
        return EXIT_BUDGET, _error_report(command, "budget", exc)
    except (ValueError, ZeroDivisionError, AssertionError) as exc:
        return EXIT_FAIL, _error_report(command, "validation", exc)


def _error_report(command: str, kind: str, exc: Exception) -> dict:
    return {"command": command, "ok": False,
            "error": {"type": kind, "message": str(exc)},
            "_text": f"error ({kind}): {exc}"}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    code, report = _run(args)
    text = report.pop("_text", "")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
