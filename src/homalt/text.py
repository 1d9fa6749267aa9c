"""Text forms of scalars and elements.

Rendering: :func:`scalar_str` writes a scalar as ``5/6`` or
``lambda^2 - xi`` (terms in graded lexicographic order, highest first), and
:func:`element_str` a vector as ``e7 - e8``, parenthesizing polynomial
coefficients.  Parsing: :func:`parse_element_expr` reads a linear
combination of basis names such as ``3/2*e1 + e4``.  An element's JSON
encoding is :func:`homalt.scalars.encode_sparse`.

Only the calls that print a scalar or an element, or read one, import this
module: ``str()`` of a ``Poly`` or an ``Element``, a report's witness, and
``homalt power``.
"""

from __future__ import annotations

import re
from typing import Sequence

from .homalgebra import Element
from .scalars import UNIT_MONO, Mono, Poly, Scalar, _norm_rational, parse_rational


def _mono_str(m: Mono) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


def _poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for m, c in p.sorted_terms():
        neg = c < 0
        mag = -c if neg else c
        if m == UNIT_MONO:
            body = str(_norm_rational(mag))
        elif mag == 1:
            body = _mono_str(m)
        else:
            body = f"{_norm_rational(mag)}*{_mono_str(m)}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def scalar_str(s: Scalar) -> str:
    """Human-readable canonical form, e.g. ``5/6`` or ``lambda^2 - xi``."""
    if isinstance(s, Poly):
        return _poly_str(s)
    return str(_norm_rational(s))


def element_str(x: Element, names: Sequence[str] | None = None) -> str:
    """Render ``e7 - e8`` style text, parenthesizing polynomial coefficients."""
    pieces: list[str] = []
    for i, c in enumerate(x.coords):
        if c == 0:
            continue
        name = names[i] if names is not None else f"e{i + 1}"
        neg, body = _coeff_parts(c)
        text = name if body is None else f"{body}*{name}"
        if not pieces:
            pieces.append(f"-{text}" if neg else text)
        else:
            pieces.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(pieces) if pieces else "0"


def _coeff_parts(c: Scalar) -> tuple[bool, str | None]:
    """Split a coefficient into (negative?, printable body or None for 1)."""
    if isinstance(c, Poly):
        if len(c.terms) == 1:
            ((m, coeff),) = c.terms.items()
            neg, body = _coeff_parts(coeff)
            head = scalar_str(Poly({m: 1}))
            return neg, head if body is None else f"{body}*{head}"
        return False, f"({scalar_str(c)})"
    neg = c < 0
    mag = -c if neg else c
    return neg, None if mag == 1 else scalar_str(mag)


_TERM_RE = re.compile(r"([+-]?)\s*([^+-]+)")


def parse_element_expr(expr: str, basis_names: Sequence[str]) -> Element:
    """Parse a linear combination such as ``e7 - e8`` or ``3/2*e1 + e4``.

    Basis vectors are referred to by the given names; coefficients are
    rationals written ``p`` or ``p/q``.
    """
    positions = {name: i for i, name in enumerate(basis_names)}
    coords: list[Scalar] = [0] * len(basis_names)
    rest = expr.strip()
    if not rest:
        raise ValueError("empty element expression")
    matched_to = 0
    for m in _TERM_RE.finditer(rest):
        if m.start() != matched_to:
            raise ValueError(f"cannot parse element expression near {rest[matched_to:]!r}")
        matched_to = m.end()
        sign = -1 if m.group(1) == "-" else 1
        body = m.group(2).strip()
        if "*" in body:
            coeff_text, _, name = body.partition("*")
            coeff = parse_rational(coeff_text)
            name = name.strip()
        else:
            coeff, name = 1, body
        if name not in positions:
            raise ValueError(f"unknown basis element {name!r}")
        idx = positions[name]
        coords[idx] = coords[idx] + sign * coeff
    if matched_to != len(rest):
        raise ValueError(f"cannot parse element expression near {rest[matched_to:]!r}")
    return Element(tuple(coords))
