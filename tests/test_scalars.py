"""Exact scalar arithmetic: rationals, sparse polynomials, substitution, encoding."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from homalt.algfile import scalar_str
from homalt.scalars import (
    Poly,
    _norm_rational,
    decode_scalar,
    degree,
    encode_scalar,
    normalize,
    parse_rational,
    substitute,
    variables,
)

lam = Poly.variable("lambda")
xi = Poly.variable("xi")


def rationals():
    return st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def polys(names=("x", "y")):
    def build(pairs):
        acc = 0
        for coeff, exps in pairs:
            acc = acc + Poly({tuple(sorted(exps.items())): coeff})
        return normalize(acc)

    exps = st.dictionaries(st.sampled_from(names), st.integers(1, 4), max_size=2)
    term = st.tuples(st.integers(-9, 9), exps)
    return st.lists(term, max_size=4).map(build)


def scalars():
    return st.one_of(st.integers(-100, 100), rationals(), polys())


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_additive_identity():
    assert lam * xi**2 + 0 == lam * xi**2


def test_difference_of_squares():
    assert (lam - xi) * (lam + xi) == lam**2 - xi**2


def test_substitute_full_assignment_is_rational():
    assert substitute(lam**4 * xi, {"lambda": 2, "xi": 3}) == 48


def test_substitute_empty_assignment_is_identity():
    assert substitute(lam, {}) == lam


def test_substitute_collapses_symmetric_difference():
    assert substitute(lam - xi, {"lambda": Fraction(7, 5), "xi": Fraction(7, 5)}) == 0


def test_partial_substitution_stays_symbolic():
    left = substitute(lam * xi + xi, {"lambda": 2})
    assert left == 3 * xi
    assert variables(left) == {"xi"}


def test_constant_poly_collapses_to_rational():
    assert isinstance(lam - lam + 3, int)
    assert isinstance((lam + 1) - lam, int)
    half = Poly({(): Fraction(1, 2)})
    assert isinstance(half, Fraction)


def is_canonical(s) -> bool:
    """The one form of a scalar: an int, a Fraction that is not integral, or
    a Poly with a non-unit monomial and only such rational coefficients."""
    if type(s) is int:
        return True
    if type(s) is Fraction:
        return s.denominator > 1
    return (type(s) is Poly and any(m != () for m in s.terms)
            and all(c != 0 and is_canonical(c) for c in s.terms.values()))


MONOS = st.sampled_from([(), (("x", 1),), (("y", 2),), (("x", 1), ("y", 1))])
RAW_COEFFS = st.one_of(st.integers(-2, 2), st.integers(-2, 2).map(Fraction),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3))


@given(st.dictionaries(MONOS, RAW_COEFFS, max_size=4))
@example({(): 3})
@example({})
@example({(): Fraction(4, 2), (("x", 1),): 0})
def test_poly_of_raw_terms_is_canonical(terms):
    value = Poly(terms)
    assert is_canonical(value)
    assert value == sum((Poly({m: c}) for m, c in terms.items()), 0)
    doc = {"poly": [{"coeff": encode_scalar(c), "exps": dict(m)} for m, c in terms.items()]}
    assert is_canonical(decode_scalar(doc))


@given(polys().filter(lambda s: isinstance(s, Poly)),
       st.one_of(polys(), rationals().map(normalize)), st.integers(0, 3),
       st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_operations_give_canonical_scalars(p, q, n, v):
    results = [p + q, q + p, p - q, q - p, p * q, q * p, -p, p - p, p**n,
               substitute(p, {"x": v}), substitute(p, {"x": v, "y": v}),
               decode_scalar(encode_scalar(p))]
    assert all(is_canonical(s) for s in results)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_keep_a_poly(clone):
    p = lam**2 * xi - Fraction(1, 2) * xi + 3
    q = clone(p)
    assert type(q) is Poly
    assert q == p and hash(q) == hash(p)
    assert q.terms == p.terms


def test_hash_agrees_with_equality():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert hash((x + y) * (x - y)) == hash(x * x - y * y)
    assert hash(Poly({(): 3})) == hash(3)
    assert hash(Poly({(): Fraction(1, 2)})) == hash(Fraction(1, 2))
    assert hash(Poly({})) == hash(0)
    assert len({Poly({(): 3}), 3, Poly({}), 0, x + 1, 1 + x}) == 3


def test_integral_fractions_collapse_to_int():
    assert normalize(Fraction(6, 3)) == 2
    assert isinstance(normalize(Fraction(6, 3)), int)


@pytest.mark.parametrize("value, expected", [
    (7, 7),
    (-3, -3),
    (True, True),
    (False, False),
    (Fraction(6, 3), 2),
    (Fraction(-1, 3), Fraction(-1, 3)),
    (Poly({(): 5}), 5),
    (Poly({(): Fraction(1, 2)}), Fraction(1, 2)),
    (Poly({}), 0),
    (lam * xi, lam * xi),
])
def test_normalize_by_input_type(value, expected):
    out = normalize(value)
    assert out == expected
    assert type(out) is type(expected)


@pytest.mark.parametrize("value, expected", [
    (7, 7),
    (True, True),
    (False, False),
    (Fraction(6, 3), 2),
    (Fraction(5, 3), Fraction(5, 3)),
])
def test_norm_rational_by_input_type(value, expected):
    out = _norm_rational(value)
    assert out == expected
    assert type(out) is type(expected)


def test_power():
    assert lam**0 == 1
    assert lam**1 == lam
    assert (lam + xi) ** 2 == lam**2 + 2 * lam * xi + xi**2
    with pytest.raises(ValueError):
        lam ** (-1)


def test_degree():
    assert degree(0) == 0
    assert degree(Fraction(3, 2)) == 0
    assert degree(lam**4 * xi) == 5
    assert degree(lam + xi**3) == 3


def test_str_graded_order():
    assert str(lam**2 - xi + 1) == "lambda^2 - xi + 1"
    assert str(-lam * xi) == "-lambda*xi"
    assert scalar_str(Fraction(-3, 4)) == "-3/4"
    assert scalar_str(lam**4 * xi**2) == "lambda^4*xi^2"


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0


@given(polys(), polys(), st.fractions(min_value=-100, max_value=100, max_denominator=10),
       st.fractions(min_value=-100, max_value=100, max_denominator=10))
def test_substitution_is_a_homomorphism(p, q, vx, vy):
    sigma = {"x": vx, "y": vy}
    assert substitute(p * q, sigma) == substitute(p, sigma) * substitute(q, sigma)
    assert substitute(p + q, sigma) == substitute(p, sigma) + substitute(q, sigma)


@given(scalars())
def test_normalize_idempotent(s):
    assert normalize(normalize(s)) == normalize(s)


@given(scalars())
def test_encode_decode_round_trip(s):
    assert decode_scalar(encode_scalar(s)) == normalize(s)


def test_encode_shapes():
    assert encode_scalar(5) == "5"
    assert encode_scalar(Fraction(-2, 7)) == "-2/7"
    enc = encode_scalar(lam**4 * xi)
    assert enc == {"poly": [{"coeff": "1", "exps": {"lambda": 4, "xi": 1}}]}


def test_values_of_any_size_encode_exactly():
    # Past the interpreter's limit on int-to-str conversion (4300 digits by
    # default): 10^5000 and a denominator of 5071 digits.
    huge = Fraction(-(10**5000) - 1, 7**6000)
    digits = "1" + "0" * 4999 + "1"
    assert encode_scalar(huge).startswith(f"-{digits}/")
    assert decode_scalar(encode_scalar(huge)) == huge
    poly = huge * lam + 10**5000
    assert decode_scalar(encode_scalar(poly)) == poly
    assert scalar_str(poly).endswith(" + 1" + "0" * 5000)
    assert parse_rational("-" + digits) == -(10**5000) - 1


def test_parse_rational():
    assert parse_rational("5") == 5
    assert parse_rational("-2/7") == Fraction(-2, 7)
    assert parse_rational("4/2") == 2
    # Arabic-Indic, fullwidth and superscript digits are digits to
    # str.isdigit; only ASCII digits are read, and every refusal is a bad
    # rational, whatever int() would say.
    for bad in ("1.5", "x", "1/0", "", "1/2/3", "\u0663", "\uff11\uff12", "3/\u0664", "\u00b2",
                "-\u00b2/3", "1_000"):
        with pytest.raises(ValueError, match=r"^bad rational "):
            parse_rational(bad)


def test_decode_scalar_rejects_garbage():
    for bad in (1.5, {"poly": "nope"}, {"poly": [{"coeff": "1", "bogus": 1}]},
                {"poly": [{"exps": {"x": 0}}]}, [1], None):
        with pytest.raises(ValueError):
            decode_scalar(bad)


def test_decode_scalar_merges_duplicate_monomials():
    doc = {"poly": [
        {"coeff": "1", "exps": {"x": 1}},
        {"coeff": "2", "exps": {"x": 1}},
    ]}
    assert decode_scalar(doc) == 3 * Poly.variable("x")
    # One monomial, its exponents listed in either key order.
    doc = {"poly": [
        {"coeff": "1", "exps": {"y": 1, "x": 1}},
        {"coeff": "2", "exps": {"x": 1, "y": 1}},
    ]}
    assert decode_scalar(doc) == 3 * Poly.variable("x") * Poly.variable("y")
