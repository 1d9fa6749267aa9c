"""JSON morphism documents.

A morphism document gives a linear map by its rows, in the algebra
document's shape (see :mod:`homalt.algfile`) with a ``matrix`` list of
``{"from", "to"}`` rows instead of products and a twist::

    {"dimension": 2, "parameters": [],
     "matrix": [{"from": 0, "to": [{"index": 1, "coeff": "1"}]}]}

Only the calls that read or write a morphism import this module:
``homalt check --identity morphism --morphism FILE`` and ``homalt twist``.
"""

from __future__ import annotations

from typing import Sequence

from .algfile import (
    _decode_dimension, _decode_params, _decode_rows, _dump, _encode_rows, _expect_obj, _load_json,
)
from .homalgebra import RowTable


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


def serialize_morphism(rows: RowTable, dim: int, params: Sequence[str] = ()) -> str:
    """Canonical JSON text for a morphism; refuses, as
    :func:`homalt.algfile.serialize_algebra` does, what parsing would."""
    doc = {
        "dimension": dim,
        "parameters": list(params),
        "matrix": _encode_rows(rows, "matrix"),
    }
    return _dump(doc)
