"""Text forms of scalars and elements.

Rendering: :func:`scalar_str` writes a scalar as ``5/6`` or
``lambda^2 - xi`` (terms in graded lexicographic order, highest first), and
:func:`element_str` a vector as ``e7 - e8``, parenthesizing polynomial
coefficients.  Parsing: :func:`parse_element_expr` reads a linear
combination of basis names such as ``3/2*e1 + e4``, or ``0``, the zero
element as :func:`element_str` writes it.  An element's JSON
encoding is :func:`homalt.scalars.encode_sparse`.

Only the calls that print a scalar or an element, or read one, import this
module: ``str()`` of a ``Poly`` or an ``Element``, a report's witness, and
``homalt power``.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .homalgebra import Element, default_basis_names
from .scalars import Mono, Poly, Rational, Scalar, encode_scalar, parse_rational


def _mono_str(m: Mono) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


def _signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """``a - b + c`` from (negative?, body) pairs; ``0`` from none."""
    out = ""
    for neg, body in terms:
        if out:
            out += f" - {body}" if neg else f" + {body}"
        else:
            out = f"-{body}" if neg else body
    return out or "0"


def _term(c: Rational, unit: str) -> tuple[bool, str]:
    """(negative?, body) of the term ``c * unit``; an empty ``unit`` is 1."""
    mag = encode_scalar(abs(c))
    if not unit:
        return c < 0, mag
    return c < 0, unit if mag == "1" else f"{mag}*{unit}"


def scalar_str(s: Scalar) -> str:
    """Human-readable canonical form, e.g. ``5/6`` or ``lambda^2 - xi``."""
    if isinstance(s, Poly):
        return _signed_sum(_term(c, _mono_str(m)) for m, c in s.sorted_terms())
    return encode_scalar(s)


def element_str(x: Element, names: Sequence[str] | None = None) -> str:
    """Render ``e7 - e8`` style text, parenthesizing polynomial coefficients."""
    names = default_basis_names(len(x.coords)) if names is None else names
    terms = []
    for i, c in enumerate(x.coords):
        if c == 0:
            continue
        name = names[i]
        if not isinstance(c, Poly):
            terms.append(_term(c, name))
        elif len(c.terms) == 1:
            ((m, coeff),) = c.terms.items()
            terms.append(_term(coeff, f"{_mono_str(m)}*{name}"))
        else:
            terms.append((False, f"({scalar_str(c)})*{name}"))
    return _signed_sum(terms)


_TERM_RE = re.compile(r"([+-]?)\s*([^+-]+)")


def parse_element_expr(expr: str, basis_names: Sequence[str]) -> Element:
    """Parse a linear combination such as ``e7 - e8`` or ``3/2*e1 + e4``.

    Basis vectors are referred to by the given names; coefficients are
    rationals written ``p`` or ``p/q``.  ``0`` is the zero element, the
    text :func:`element_str` writes for it.
    """
    positions = {name: i for i, name in enumerate(basis_names)}
    coords: list[Scalar] = [0] * len(basis_names)
    rest = expr.strip()
    if not rest:
        raise ValueError("empty element expression")
    if rest == "0":
        return Element(tuple(coords))
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
