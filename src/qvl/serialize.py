"""JSON interchange for fields, matrices, representations, and morphisms.

Prime field entries travel as integers in [0, p); rational entries as
strings like "2/3" or "-5" (plain integers are also accepted on input).
Shapes are never inferred from the data: dimension vectors fix them, so
zero-row and zero-column matrices survive a round trip.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .linalg import Field, Matrix, PrimeField, QQ, RationalField
from .quiver import BoundQuiver, Vertex
from .reps import Morphism, Representation


class SerializationError(ValueError):
    pass


def field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "Fp", "p": field.p}
    if isinstance(field, RationalField):
        return {"type": "Q"}
    raise SerializationError(f"unknown field {field!r}")


def field_from_json(data) -> Field:
    if not isinstance(data, Mapping) or "type" not in data:
        raise SerializationError("field must be an object with a 'type'")
    if data["type"] == "Fp":
        p = data.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise SerializationError(
                f"Fp field needs an integer 'p', got {p!r}")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise SerializationError(str(exc)) from None
    if data["type"] == "Q":
        return QQ
    raise SerializationError(f"unknown field type {data['type']!r}")


def _entry_to_json(field: Field, value):
    if isinstance(field, PrimeField):
        return int(value)
    return str(value)


def _entry_from_json(field: Field, value):
    """An entry read from JSON.  A boolean is no entry: JSON ``true`` would
    otherwise read as 1."""
    if isinstance(field, PrimeField):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerializationError(
                f"prime field entries must be integers, got {value!r}")
        return field.coerce(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SerializationError(
        f"rational entries must be ints or 'a/b' strings, got {value!r}")


def matrix_to_json(mat: Matrix) -> list:
    return [[_entry_to_json(mat.field, x) for x in row] for row in mat.rows]


def matrix_from_json(field: Field, data, nrows: int, ncols: int) -> Matrix:
    if not isinstance(data, list):
        raise SerializationError("matrix must be a list of rows")
    if len(data) != nrows or any(not isinstance(r, list) or len(r) != ncols
                                 for r in data):
        raise SerializationError(
            f"matrix data does not have shape {nrows}x{ncols}")
    return Matrix._trusted(field, nrows, ncols, tuple(
        [tuple([_entry_from_json(field, x) for x in row]) for row in data]))


def _vertex_map(pres: BoundQuiver) -> dict[str, Vertex]:
    return {str(v): v for v in pres.quiver.vertices}


def _dims_from_json(pres: BoundQuiver, data) -> dict:
    lookup = _vertex_map(pres)
    dims = {v: 0 for v in pres.quiver.vertices}
    if not isinstance(data, Mapping):
        raise SerializationError("'dims' must be an object")
    for key, value in data.items():
        if key not in lookup:
            raise SerializationError(f"unknown vertex {key!r} in dims")
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            raise SerializationError(
                f"dimension at {key!r} must be a nonnegative integer")
        dims[lookup[key]] = value
    return dims


def _arrow_matrices(pres: BoundQuiver, field: Field, data: Mapping,
                    name: str, noun: str, rows: Mapping, cols: Mapping
                    ) -> dict[str, Matrix]:
    """One matrix per arrow s -> t, rows[t] x cols[s], from the JSON object
    ``name``; a key that names no arrow is rejected."""
    mats = {}
    for a, s, t in pres.quiver.arrows:
        if a not in data:
            raise SerializationError(f"missing {noun} for arrow {a!r}")
        mats[a] = matrix_from_json(field, data[a], rows.get(t, 0),
                                   cols.get(s, 0))
    extra = set(data) - set(pres.quiver.arrow_names())
    if extra:
        raise SerializationError(f"unknown arrows in {name}: {sorted(extra)}")
    return mats


def rep_to_json(rep: Representation) -> dict:
    return {
        "field": field_to_json(rep.field),
        "dims": {str(v): rep.dims[v] for v in rep.pres.quiver.vertices},
        "mats": {a: matrix_to_json(rep.mats[a])
                 for a in rep.pres.quiver.arrow_names()},
    }


def rep_from_json(pres: BoundQuiver, data) -> Representation:
    if not isinstance(data, Mapping):
        raise SerializationError("representation must be a JSON object")
    for key in ("field", "dims", "mats"):
        if key not in data:
            raise SerializationError(f"representation is missing {key!r}")
    field = field_from_json(data["field"])
    dims = _dims_from_json(pres, data["dims"])
    if not isinstance(data["mats"], Mapping):
        raise SerializationError("'mats' must be an object")
    return Representation(pres, field, dims, _arrow_matrices(
        pres, field, data["mats"], "mats", "matrix", dims, dims))


def morphism_to_json(mor: Morphism) -> dict:
    return {
        "field": field_to_json(mor.field),
        "maps": {str(x): matrix_to_json(mor.maps[x])
                 for x in mor.source.pres.quiver.vertices},
    }


def morphism_from_json(source: Representation, target: Representation,
                       data) -> Morphism:
    if not isinstance(data, Mapping) or \
            not isinstance(data.get("maps"), Mapping):
        raise SerializationError("morphism must be an object with a 'maps' "
                                 "object")
    field = field_from_json(data.get("field", field_to_json(source.field)))
    if field != source.field:
        raise SerializationError("morphism field differs from the endpoints")
    lookup = _vertex_map(source.pres)
    maps = {}
    for key, value in data["maps"].items():
        if key not in lookup:
            raise SerializationError(f"unknown vertex {key!r} in maps")
        x = lookup[key]
        maps[x] = matrix_from_json(field, value, target.dims[x],
                                   source.dims[x])
    for x in source.pres.quiver.vertices:
        if x not in maps:
            raise SerializationError(f"missing map at vertex {x!r}")
    return Morphism(source, target, maps)


def blocks_to_json(field: Field, blocks: Mapping[str, Matrix]) -> dict:
    return {
        "field": field_to_json(field),
        "blocks": {a: matrix_to_json(m) for a, m in blocks.items()},
    }


def blocks_from_json(pres: BoundQuiver, sub_dims: Mapping, quo_dims: Mapping,
                     data) -> dict[str, Matrix]:
    if not isinstance(data, Mapping) or "field" not in data or \
            not isinstance(data.get("blocks"), Mapping):
        raise SerializationError("blocks must be an object with a 'field' "
                                 "and a 'blocks' object")
    return _arrow_matrices(pres, field_from_json(data["field"]),
                           data["blocks"], "blocks", "block", sub_dims,
                           quo_dims)
