"""JSON file format for algebras.

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

Indices are 0-based; omitted product pairs and twist rows are zero.
Coefficients use the scalar text encoding from :mod:`homalt.scalars` and may
only mention declared parameters.  Morphism documents, which have the same
shape with a ``matrix`` list of ``{"from", "to"}`` rows instead of
products/alpha, are read and written by :mod:`homalt.morphfile` with the
helpers here (one row codec serves both), and element expressions by
:mod:`homalt.text`.  Parsing reports the offending field path on malformed
input, and serialization emits a canonical, byte-stable form, so parse and
serialize are mutually inverse on canonical documents; both refuse basis
names that element expressions cannot refer to.  Dimensions above 64,
polynomial exponents above 1000 and numbers of more than 4300 digits are
rejected at load time, to keep basis sweeps, polynomial arithmetic and
parsing tractable, and refused when writing, so that every document
written reads back.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple, Sequence

from .homalgebra import HomAlgebra, MuTable, RowTable, SparseRow
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


def _check_digits(text: str) -> None:
    """Refuse, at its line and column, a run of digits in ``text`` over the cap."""
    long_run = _OVER_DIGIT_CAP.search(text)
    if long_run:
        pos = long_run.start()
        line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        raise AlgebraFormatError(f"line {line}, column {column}", f"number of {len(long_run[0])} "
                                 f"digits exceeds the supported cap of {DIGIT_CAP}")


def _check_exponent(value: Scalar, where: str) -> None:
    """Refuse, at ``where``, a polynomial with an exponent over the cap."""
    top = max((e for m in value.terms for _, e in m), default=0) if isinstance(value, Poly) else 0
    if top > EXPONENT_CAP:
        raise AlgebraFormatError(where, f"exponent {top} exceeds the supported cap of {EXPONENT_CAP}")


def _load_json(text: str) -> object:
    _check_digits(text)
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
    _check_exponent(value, where)
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


def _encode_sparse(row: SparseRow, where: str) -> list[dict]:
    """:func:`encode_sparse` of a row written at ``where``, refusing an
    exponent that parsing refuses."""
    for pos, (_, c) in enumerate(row):
        _check_exponent(c, f"{where}[{pos}].coeff")
    return encode_sparse(row)


def _encode_rows(rows: RowTable, where: str) -> list[dict]:
    return [{"from": i, "to": _encode_sparse(row, f"{where}[{pos}].to")}
            for pos, (i, row) in enumerate(sorted(rows.items()))]


def _dump(doc: dict) -> str:
    """Canonical text of a document, refusing a dimension or a number that
    parsing refuses, so that what is written reads back."""
    _decode_dimension(doc)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _check_digits(text)
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


def _check_basis_name(name: str, pos: int) -> None:
    """Refuse, at ``basis[pos]``, a name no element expression can refer to:
    expressions split terms at ``+`` and ``-`` and a coefficient at ``*``,
    and strip names."""
    if not name or name != name.strip() or any(c in name for c in "+-*"):
        raise AlgebraFormatError(f"basis[{pos}]", f"basis name {name!r} must be nonempty "
                                 "and stripped, without '+', '-' or '*'")


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
            _check_basis_name(name, pos)
        basis_names = list(names)
    else:
        basis_names = [f"e{i + 1}" for i in range(dim)]
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


def parse_algebra(text: str) -> HomAlgebra:
    return parse_document(text).algebra


def serialize_algebra(A: HomAlgebra, basis_names: Sequence[str] | None = None) -> str:
    """Canonical JSON text for an algebra (sorted entries, stable bytes).
    Raises :class:`AlgebraFormatError` on what :func:`parse_document` would
    refuse to read back: a basis name, a dimension, an exponent or a number
    over its cap."""
    if basis_names is not None and len(basis_names) != A.dim:
        raise ValueError(f"expected {A.dim} basis names, got {len(basis_names)}")
    if basis_names is not None and len(set(basis_names)) != A.dim:
        raise ValueError(f"duplicate basis names in {list(basis_names)}")
    names = list(basis_names) if basis_names is not None else [f"e{i + 1}" for i in range(A.dim)]
    for pos, name in enumerate(names):
        _check_basis_name(name, pos)
    doc = {
        "dimension": A.dim,
        "basis": names,
        "parameters": list(A.params),
        "products": [
            {
                "left": i,
                "right": j,
                "result": _encode_sparse(row, f"products[{pos}].result"),
            }
            for pos, ((i, j), row) in enumerate(sorted(A.mu.items()))
        ],
        "alpha": _encode_rows(A.alpha, "alpha"),
    }
    return _dump(doc)
