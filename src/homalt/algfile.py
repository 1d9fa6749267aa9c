"""JSON documents: algebras and morphisms.

An algebra document looks like::

    {
      "dimension": 2,
      "basis": ["e1", "e2"],
      "parameters": ["t"],
      "products": [
        {"left": 0, "right": 1,
         "result": [{"index": 0, "coeff": "1/2"}]}
      ],
      "alpha": [
        {"from": 0,
         "to": [{"index": 0, "coeff": {"poly": [{"coeff": "1", "exps": {"t": 1}}]}}]}
      ]
    }

A morphism document gives a linear map by its rows, in the same shape with
a ``matrix`` list of ``{"from", "to"}`` rows instead of products and a
twist (one row codec serves both)::

    {"dimension": 2, "parameters": [],
     "matrix": [{"from": 0, "to": [{"index": 1, "coeff": "1"}]}]}

Indices are 0-based; omitted product pairs and rows are zero.
Coefficients use the scalar text encoding from :mod:`homalt.scalars` and may
only mention declared parameters; element expressions are read by
:mod:`homalt.text`.  Parsing reports the offending field path on malformed
input.  Basis names that element expressions cannot refer to, dimensions
above 64, polynomial exponents above 1000 and numbers of more than 4300
digits are refused, to keep basis sweeps, polynomial arithmetic and parsing
tractable.  The parsers hold every rule of the format: each writer emits a
canonical, byte-stable text and returns it only once the matching parser
reads it back, so every document written reads back, parse and serialize
are mutually inverse on canonical documents, and a writer refuses with the
parser's own message.
"""

from __future__ import annotations

import json
import re
from typing import Callable, NamedTuple, Sequence

from .homalgebra import HomAlgebra, MuTable, RowTable, default_basis_names
from .scalars import Poly, Scalar, decode_scalar, encode_sparse, variables

DIMENSION_CAP = 64
EXPONENT_CAP = 1000
DIGIT_CAP = 4300  # digits in one run of a document: a coefficient's p or q, or a number
# The leftmost match starts a run, so no lookbehind is needed; only ASCII
# digits make numbers (:func:`homalt.scalars.parse_rational`).
_OVER_DIGIT_CAP = re.compile(r"[0-9]{%d,}" % (DIGIT_CAP + 1))


class AlgebraFormatError(ValueError):
    """Malformed document; the message starts with the offending field path."""

    def __init__(self, where: str, problem: str):
        self.where = where
        self.problem = problem
        super().__init__(f"{where}: {problem}")


class AlgebraDocument(NamedTuple):
    algebra: HomAlgebra
    basis_names: list[str]


def _load_json(text: str) -> object:
    long_run = _OVER_DIGIT_CAP.search(text)
    if long_run:
        pos = long_run.start()
        line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        raise AlgebraFormatError(f"line {line}, column {column}", f"number of {len(long_run[0])} "
                                 f"digits exceeds the supported cap of {DIGIT_CAP}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"line {exc.lineno}, column {exc.colno}", f"invalid JSON: {exc.msg}")
    except RecursionError:
        raise AlgebraFormatError("document", "invalid JSON: nested too deeply")


def _expect_int(value: object, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise AlgebraFormatError(where, f"expected an integer, got {type(value).__name__}")
    return value


def _expect_index(value: object, dim: int, where: str) -> int:
    idx = _expect_int(value, where)
    if not 0 <= idx < dim:
        raise AlgebraFormatError(where, f"index {idx} out of range for dimension {dim}")
    return idx


def _expect_list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise AlgebraFormatError(where, f"expected a list, got {type(value).__name__}")
    return value


def _expect_obj(value: object, where: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(value, dict):
        raise AlgebraFormatError(where, f"expected an object, got {type(value).__name__}")
    extra = set(value) - allowed
    if extra:
        raise AlgebraFormatError(where, f"unknown keys {sorted(extra)}")
    missing = required - set(value)
    if missing:
        raise AlgebraFormatError(where, f"missing keys {sorted(missing)}")
    return value


def _decode_coeff(obj: object, params: set[str], where: str) -> Scalar:
    try:
        value = decode_scalar(obj)
    except ValueError as exc:
        raise AlgebraFormatError(where, f"bad scalar encoding: {exc}")
    stray = variables(value) - params
    if stray:
        raise AlgebraFormatError(where, f"undeclared parameters {sorted(stray)}")
    top = max(e for m in value.terms for _, e in m) if isinstance(value, Poly) else 0
    if top > EXPONENT_CAP:
        raise AlgebraFormatError(where, f"exponent {top} exceeds the supported cap of {EXPONENT_CAP}")
    return value


def _decode_sparse(items: object, dim: int, params: set[str], where: str) -> tuple:
    out = []
    for pos, item in enumerate(_expect_list(items, where)):
        entry = _expect_obj(item, f"{where}[{pos}]", {"index", "coeff"}, {"index", "coeff"})
        idx = _expect_index(entry["index"], dim, f"{where}[{pos}].index")
        coeff = _decode_coeff(entry["coeff"], params, f"{where}[{pos}].coeff")
        out.append((idx, coeff))
    return tuple(out)


def _decode_rows(items: object, dim: int, params: set[str], where: str, what: str) -> RowTable:
    """Rows ``{"from": i, "to": [...]}`` of a linear map, keyed by ``i``."""
    rows: RowTable = {}
    for pos, item in enumerate(_expect_list(items, where)):
        at = f"{where}[{pos}]"
        entry = _expect_obj(item, at, {"from", "to"}, {"from", "to"})
        i = _expect_index(entry["from"], dim, f"{at}.from")
        if i in rows:
            raise AlgebraFormatError(at, f"duplicate {what} row for index {i}")
        rows[i] = _decode_sparse(entry["to"], dim, params, f"{at}.to")
    return rows


def _encode_rows(rows: RowTable) -> list[dict]:
    return [{"from": i, "to": encode_sparse(row)} for i, row in sorted(rows.items())]


def _written(doc: dict, parse: Callable[[str], object]) -> str:
    """Canonical text of ``doc``, returned once ``parse`` reads it back: the
    parser is the writer's only check, so its refusal is the writer's."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    parse(text)
    return text


def _decode_params(value: object, where: str) -> tuple[str, ...]:
    names: dict[str, None] = {}  # ordered, with constant-time membership
    for pos, name in enumerate(_expect_list(value, where)):
        if not isinstance(name, str) or not name.isidentifier():
            raise AlgebraFormatError(f"{where}[{pos}]", f"bad parameter name {name!r}")
        if name in names:
            raise AlgebraFormatError(f"{where}[{pos}]", f"duplicate parameter {name!r}")
        names[name] = None
    return tuple(names)


def _decode_dimension(doc: dict) -> int:
    dim = _expect_int(doc.get("dimension"), "dimension")
    if dim < 0:
        raise AlgebraFormatError("dimension", "must be nonnegative")
    if dim > DIMENSION_CAP:
        raise AlgebraFormatError("dimension", f"{dim} exceeds the supported cap of {DIMENSION_CAP}")
    return dim


def parse_document(text: str) -> AlgebraDocument:
    """Parse an algebra document, returning the algebra and its basis names."""
    doc = _expect_obj(
        _load_json(text), "document",
        {"dimension", "basis", "parameters", "products", "alpha"},
        {"dimension", "products", "alpha"},
    )
    dim = _decode_dimension(doc)
    if "basis" in doc:
        names = _expect_list(doc["basis"], "basis")
        if len(names) != dim or not all(isinstance(n, str) and n for n in names):
            raise AlgebraFormatError("basis", f"expected {dim} nonempty names")
        for pos, name in enumerate(names):
            if name in names[:pos]:
                raise AlgebraFormatError(f"basis[{pos}]", f"duplicate basis name {name!r}")
            # Element expressions split terms at + and -, a coefficient at *,
            # and strip names.
            if name != name.strip() or any(c in name for c in "+-*"):
                raise AlgebraFormatError(f"basis[{pos}]", f"basis name {name!r} must be nonempty "
                                         "and stripped, without '+', '-' or '*'")
        basis_names = list(names)
    else:
        basis_names = default_basis_names(dim)
    params = _decode_params(doc.get("parameters", []), "parameters")
    param_set = set(params)

    mu: MuTable = {}
    for pos, item in enumerate(_expect_list(doc["products"], "products")):
        where = f"products[{pos}]"
        entry = _expect_obj(item, where, {"left", "right", "result"}, {"left", "right", "result"})
        i = _expect_index(entry["left"], dim, f"{where}.left")
        j = _expect_index(entry["right"], dim, f"{where}.right")
        if (i, j) in mu:
            raise AlgebraFormatError(where, f"duplicate product entry for pair ({i}, {j})")
        mu[(i, j)] = _decode_sparse(entry["result"], dim, param_set, f"{where}.result")

    alpha = _decode_rows(doc["alpha"], dim, param_set, "alpha", "twist")
    return AlgebraDocument(HomAlgebra(dim, mu, alpha, params), basis_names)


def parse_morphism(text: str) -> tuple[RowTable, int, tuple[str, ...]]:
    """Parse a morphism document into (rows, dimension, parameters)."""
    doc = _expect_obj(
        _load_json(text), "document",
        {"dimension", "parameters", "matrix"},
        {"dimension", "matrix"},
    )
    dim = _decode_dimension(doc)
    params = _decode_params(doc.get("parameters", []), "parameters")
    return _decode_rows(doc["matrix"], dim, set(params), "matrix", "matrix"), dim, params


def serialize_algebra(A: HomAlgebra, basis_names: Sequence[str] | None = None) -> str:
    """Canonical JSON text for an algebra (sorted entries, stable bytes);
    raises :func:`parse_document`'s :class:`AlgebraFormatError` on what it
    would not read back."""
    doc = {
        "dimension": A.dim,
        "basis": list(basis_names) if basis_names is not None else default_basis_names(A.dim),
        "parameters": list(A.params),
        "products": [{"left": i, "right": j, "result": encode_sparse(row)}
                     for (i, j), row in sorted(A.mu.items())],
        "alpha": _encode_rows(A.alpha),
    }
    return _written(doc, parse_document)


def serialize_morphism(rows: RowTable, dim: int, params: Sequence[str] = ()) -> str:
    """Canonical JSON text for a morphism; raises :func:`parse_morphism`'s
    :class:`AlgebraFormatError` on what it would not read back."""
    return _written({"dimension": dim, "parameters": list(params), "matrix": _encode_rows(rows)},
                    parse_morphism)
