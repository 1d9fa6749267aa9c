"""Exact coefficient arithmetic.

A *scalar* is either a rational number or a sparse multivariate polynomial
with rational coefficients.  Rationals are plain ``int`` or
``fractions.Fraction`` values; a ``Fraction`` whose denominator is 1 is
normalized back to ``int``.  Polynomials are maps from monomials to nonzero
rational coefficients, where a monomial is a sorted tuple of
``(variable_name, exponent)`` pairs with strictly positive exponents:

    lambda^4 * xi^2   ->   (("lambda", 4), ("xi", 2))
    1 (unit monomial) ->   ()

A scalar has one form, made by ``Poly(...)``: it drops zero terms and
returns a plain rational when no non-unit monomial is left, so a ``Poly``
always has at least one non-unit monomial and no zero or integral-Fraction
coefficient, and every operation builds its result that way.  Mixed
arithmetic works through the usual operators, so code elsewhere can write
``x * y + z`` without caring which branch of the union each value is in.
Everything here is immutable by convention and uses exact arithmetic only;
no floats appear anywhere.  The scalar text encoding of documents is
defined here; the form ``str()`` prints, such as ``lambda^2 - xi``, is
:func:`homalt.algfile.scalar_str`, imported when it is called, since
:mod:`homalt.algfile` imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

Rational = Union[int, Fraction]
Mono = tuple[tuple[str, int], ...]

UNIT_MONO: Mono = ()


def _norm_rational(value: Rational) -> Rational:
    """Collapse integral Fractions to int."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items()))

def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_sort_key(m: Mono) -> tuple:
    # Graded lexicographic by variable name, descending when sorted ascending
    # on this key: total degree first, then the exponent sequence.
    return (-mono_degree(m), tuple((n, -e) for n, e in m))


class Poly:
    """Sparse multivariate polynomial over the rationals.

    ``Poly(terms)`` is the one way to turn raw terms into a scalar: it drops
    zero coefficients, normalizes the rest, and returns the plain rational
    (0 when no term is left) when no non-unit monomial is left.  So
    ``terms`` maps canonical monomials to nonzero rationals, at least one of
    them not the unit monomial.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms: Mapping[Mono, Rational]) -> "Scalar":
        clean = {m: _norm_rational(c) for m, c in terms.items() if c != 0}
        if not clean or (len(clean) == 1 and UNIT_MONO in clean):
            return clean.get(UNIT_MONO, 0)
        self = object.__new__(cls)
        self.terms = clean
        return self

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through __new__
        return (self.terms,)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if not name.isidentifier():
            raise ValueError(f"variable name {name!r} is not an identifier")
        return cls({((name, 1),): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if isinstance(other, Poly):
            out = dict(self.terms)
            for m, c in other.terms.items():
                out[m] = out.get(m, 0) + c
            return Poly(out)
        if isinstance(other, (int, Fraction)):
            out = dict(self.terms)
            out[UNIT_MONO] = out.get(UNIT_MONO, 0) + other
            return Poly(out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        rhs = -other
        return self.__add__(rhs)

    def __rsub__(self, other: "Scalar") -> "Scalar":
        return (-self).__add__(other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if isinstance(other, Poly):
            out: dict[Mono, Rational] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    key = mono_mul(m1, m2)
                    out[key] = out.get(key, 0) + c1 * c2
            return Poly(out)
        if isinstance(other, (int, Fraction)):
            return Poly({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result: Scalar = 1
        for _ in range(exponent):
            result = result * self
        return result

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def degree(self) -> int:
        return max(mono_degree(m) for m in self.terms)

    def variables(self) -> set[str]:
        return {name for m in self.terms for name, _ in m}

    def substitute(self, assignment: Mapping[str, Rational]) -> "Scalar":
        out: dict[Mono, Rational] = {}
        for m, c in self.terms.items():
            value: Rational = c
            residual: list[tuple[str, int]] = []
            for name, e in m:
                if name in assignment:
                    value = value * assignment[name] ** e
                else:
                    residual.append((name, e))
            key = tuple(residual)
            out[key] = out.get(key, 0) + value
        return Poly(out)

    def sorted_terms(self) -> Iterator[tuple[Mono, Rational]]:
        """Terms in canonical print order (graded lex, highest first)."""
        for m in sorted(self.terms, key=_mono_sort_key):
            yield m, self.terms[m]

    def __str__(self) -> str:
        from .algfile import scalar_str

        return scalar_str(self)

    def __repr__(self) -> str:
        return f"Poly({self})"


Scalar = Union[int, Fraction, Poly]


def normalize(s: Scalar) -> Scalar:
    """Collapse an integral Fraction to int; a ``Poly`` is canonical already."""
    return s if type(s) is int else _norm_rational(s)

def substitute(s: Scalar, assignment: Mapping[str, Rational]) -> Scalar:
    if isinstance(s, Poly):
        return s.substitute(assignment)
    return _norm_rational(s)

def variables(s: Scalar) -> set[str]:
    if isinstance(s, Poly):
        return s.variables()
    return set()

def degree(s: Scalar) -> int:
    if isinstance(s, Poly):
        return s.degree()
    return 0


# -- text encoding ---------------------------------------------------------

def _int_str(n: int) -> str:
    """``str(n)`` at any size: past the interpreter's limit on int-to-str
    digits, through :mod:`decimal`, which that limit does not cover."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _parse_int(digits: str) -> int:
    """``int(digits)`` of ASCII digits at any size, as :func:`_int_str`
    writes it."""
    try:
        return int(digits)
    except ValueError:  # more digits than ``int`` converts
        from decimal import Decimal

        return int(Decimal(digits))


def encode_scalar(s: Scalar) -> str | dict:
    """JSON-friendly encoding: rationals as ``"p/q"`` (or ``"p"``) strings,
    exact at any size, polynomials as
    ``{"poly": [{"coeff": "p/q", "exps": {name: exponent}}, ...]}``."""
    if isinstance(s, Poly):
        items = [
            {"coeff": encode_scalar(c), "exps": {n: e for n, e in m}}
            for m, c in s.sorted_terms()
        ]
        return {"poly": items}
    q = Fraction(s)
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def encode_sparse(vector) -> list[dict]:
    """``[{"index": k, "coeff": encode_scalar(c)}, ...]`` over the nonzero
    coordinates of an element, or over the ``(k, c)`` pairs of a sparse row."""
    if hasattr(vector, "coords"):
        vector = [(k, c) for k, c in enumerate(vector.coords) if c != 0]
    return [{"index": k, "coeff": encode_scalar(c)} for k, c in vector]


def parse_rational(text: str) -> Rational:
    """Parse ``"p"`` or ``"p/q"`` exactly, in ASCII digits; floats and other
    forms are rejected with a ``bad rational`` ValueError."""
    body = text.strip()
    sign = 1
    if body.startswith(("+", "-")):
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    num, slash, den = body.partition("/")
    if not body.isascii() or not num.isdigit() or (slash and not den.isdigit()):
        raise ValueError(f"bad rational {text!r} (expected p or p/q)")
    if slash and _parse_int(den) == 0:
        raise ValueError(f"bad rational {text!r} (zero denominator)")
    value = Fraction(_parse_int(num), _parse_int(den)) if slash else _parse_int(num)
    return _norm_rational(sign * value)


def decode_scalar(obj: object) -> Scalar:
    """Inverse of :func:`encode_scalar`; raises ValueError on bad input."""
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, dict):
        if set(obj) != {"poly"}:
            raise ValueError("scalar object must have exactly the key 'poly'")
        items = obj["poly"]
        if not isinstance(items, list):
            raise ValueError("'poly' must be a list of terms")
        terms: dict[Mono, Rational] = {}
        for pos, item in enumerate(items):
            if not isinstance(item, dict) or set(item) - {"coeff", "exps"}:
                raise ValueError(f"term {pos}: expected coeff/exps object")
            text = item.get("coeff", "1")
            if not isinstance(text, str):
                raise ValueError(f"term {pos}: coeff must be a string")
            coeff = parse_rational(text)
            exps = item.get("exps", {})
            if not isinstance(exps, dict):
                raise ValueError(f"term {pos}: exps must be an object")
            for name, e in exps.items():
                if not isinstance(name, str) or not name.isidentifier():
                    raise ValueError(f"term {pos}: bad variable name {name!r}")
                if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                    raise ValueError(f"term {pos}: exponent of {name} must be a positive integer")
            key = tuple(sorted(exps.items()))
            terms[key] = terms.get(key, 0) + coeff
        return Poly(terms)
    raise ValueError(f"cannot decode scalar from {type(obj).__name__}")
