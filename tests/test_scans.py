"""Structural scans against a reference scan through Element operations.

The reference below is the plain definition of each check: every basis
tuple in lexicographic order, evaluated with ``hom_associator``, ``mul`` and
``twist_apply`` on basis elements.  It is kept here as the oracle for the
table-driven scans in ``homalt.homalgebra``.
"""

import itertools
import random
from fractions import Fraction

import pytest

from homalt import FamilyParams, mikheev_algebra, mikheev_family
from homalt.homalgebra import (
    FAILS,
    HOLDS,
    CheckReport,
    HomAlgebra,
    Witness,
    apply_rows,
    identity_rows,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
    normalize_rows,
    replay_structural_witness,
)
from homalt.scalars import Poly
from homalt.homalgebra import is_left_hom_alternative

lam = Poly.variable("lambda")
xi = Poly.variable("xi")


# --- the reference scan ---

def _reference(check_id, tuples, value):
    for tup in tuples:
        element = value(*tup)
        if not element.is_zero():
            return CheckReport(check_id, FAILS, "basis", witness=Witness(element=element, basis=tup))
    return CheckReport(check_id, HOLDS, "basis")


def reference_multiplicative(A):
    e = A.basis()
    return _reference(
        "multiplicative", itertools.product(range(A.dim), repeat=2),
        lambda i, j: A.twist_apply(A.mul(e[i], e[j]))
        - A.mul(A.twist_apply(e[i]), A.twist_apply(e[j])),
    )


def reference_right_alt(A):
    e = A.basis()

    def value(i, j, k):
        if j == k:
            return A.hom_associator(e[i], e[j], e[j])
        return A.hom_associator(e[i], e[j], e[k]) + A.hom_associator(e[i], e[k], e[j])

    return _reference("right-alt", itertools.product(range(A.dim), repeat=3), value)


def reference_left_alt(A):
    e = A.basis()

    def value(i, j, k):
        if i == j:
            return A.hom_associator(e[i], e[i], e[k])
        return A.hom_associator(e[i], e[j], e[k]) + A.hom_associator(e[j], e[i], e[k])

    return _reference("left-alt", itertools.product(range(A.dim), repeat=3), value)


def reference_weak_morphism(A, f):
    rows = normalize_rows(A.dim, f)
    e = A.basis()
    return _reference(
        "weak-morphism", itertools.product(range(A.dim), repeat=2),
        lambda i, j: apply_rows(rows, A.mul(e[i], e[j]))
        - A.mul(apply_rows(rows, e[i]), apply_rows(rows, e[j])),
    )


# --- inputs ---

def _coeff(rng, kind):
    if kind == "int":
        return rng.choice([-2, -1, 1, 1, 2, 3])
    if kind == "fraction":
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return rng.choice([1, -1, 2, lam, xi, lam - xi, 2 * lam * xi, lam * lam])


def _rows(rng, dim, kind, shape):
    if shape == "identity":
        return identity_rows(dim)
    if shape == "diagonal":
        return {i: ((i, _coeff(rng, kind)),) for i in range(dim) if rng.random() < 0.9}
    density = 0.2 if shape == "sparse" else 0.8
    return {i: [(k, _coeff(rng, kind)) for k in range(dim) if rng.random() < density]
            for i in range(dim)}


def random_algebra(seed):
    """Seeded algebra of dim 1-5 with int, Fraction or Poly structure constants."""
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    kind = rng.choice(["int", "fraction", "poly"])
    density = rng.choice([0.05, 0.15, 0.6])  # sparse to dense mu
    width = 1 if density < 0.5 else dim
    mu = {}
    for i, j in itertools.product(range(dim), repeat=2):
        if rng.random() < density:
            mu[(i, j)] = [(rng.randrange(dim), _coeff(rng, kind)) for _ in range(rng.randint(1, width))]
    alpha = _rows(rng, dim, kind, rng.choice(["identity", "diagonal", "sparse", "dense"]))
    params = ("lambda", "xi") if kind == "poly" else ()
    return HomAlgebra(dim, mu, alpha, params)


def catalog_algebras():
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    sym = mikheev_family(FamilyParams.symbolic())
    return {
        "base": mikheev_algebra(),
        "symbolic": sym,
        "family(2/3,-5/2)": fam,
        "identity-twist(2/3,-5/2)": HomAlgebra(13, dict(fam.mu), identity_rows(13)),
        "identity-twist(symbolic)": HomAlgebra(13, dict(sym.mu), identity_rows(13), sym.params),
    }


SCANS = [
    (is_multiplicative, reference_multiplicative),
    (is_right_hom_alternative, reference_right_alt),
    (is_left_hom_alternative, reference_left_alt),
]


def _assert_agrees(A, scan, reference, *args):
    report = scan(A, *args)
    assert report.to_dict() == reference(A, *args).to_dict()
    if report.status == FAILS:
        assert replay_structural_witness(A, report, *args) == report.witness.element
    return report


@pytest.mark.parametrize("seed", range(120))
def test_scans_match_reference_on_random_algebras(seed):
    A = random_algebra(seed)
    for scan, reference in SCANS:
        _assert_agrees(A, scan, reference)
    rng = random.Random(1000 + seed)
    kind = "poly" if A.params else "int"
    f = _rows(rng, A.dim, kind, rng.choice(["identity", "diagonal", "sparse", "dense"]))
    _assert_agrees(A, is_weak_morphism, reference_weak_morphism, f)
    _assert_agrees(A, is_weak_morphism, reference_weak_morphism, A.alpha)


def test_random_algebras_cover_both_verdicts():
    # The cross-check above is only meaningful if the inputs hit holds and
    # fails for every scan, with failures past the first tuple.
    seen = {scan.__name__: set() for scan, _ in SCANS}
    late = {scan.__name__: 0 for scan, _ in SCANS}
    for seed in range(120):
        A = random_algebra(seed)
        for scan, _ in SCANS:
            report = scan(A)
            seen[scan.__name__].add(report.status)
            if report.status == FAILS and any(report.witness.basis):
                late[scan.__name__] += 1
    assert all(statuses == {HOLDS, FAILS} for statuses in seen.values())
    assert all(count >= 5 for count in late.values())


@pytest.mark.parametrize("name", list(catalog_algebras()))
def test_scans_match_reference_on_catalog(name):
    A = catalog_algebras()[name]
    for scan, reference in SCANS:
        _assert_agrees(A, scan, reference)
    _assert_agrees(A, is_weak_morphism, reference_weak_morphism, A.alpha)
    _assert_agrees(A, is_weak_morphism, reference_weak_morphism, {0: ((0, 1),)})


# --- a dim-64 algebra, at the file-format cap ---

def direct_sum(*blocks):
    """Block-diagonal direct sum: products and twists act within each block."""
    mu, alpha, offset = {}, {}, 0
    for B in blocks:
        for (i, j), row in B.mu.items():
            mu[(offset + i, offset + j)] = [(offset + k, c) for k, c in row]
        for i, row in B.alpha.items():
            alpha[offset + i] = [(offset + k, c) for k, c in row]
        offset += B.dim
    return HomAlgebra(offset, mu, alpha)


def test_dim_64_scan_follows_the_blocks():
    base = mikheev_algebra()
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    broken = HomAlgebra(13, dict(fam.mu), identity_rows(13))
    trivial = HomAlgebra(12, {}, identity_rows(12))
    # Offsets 0, 13, 26: base copies; 39: the broken block; 52: twelve
    # trivial dimensions.  Mixed-block products vanish, so the first failing
    # triple is the broken block's own, shifted by its offset.
    A = direct_sum(base, base, base, broken, trivial)
    assert A.dim == 64

    block = is_right_hom_alternative(broken)
    assert block.status == FAILS and block.witness.basis == (0, 0, 1)
    report = is_right_hom_alternative(A)
    assert report.status == FAILS
    assert report.witness.basis == tuple(39 + t for t in block.witness.basis)
    p, q = Fraction(2, 3), Fraction(-5, 2)
    expected = [0] * 64
    for k, c in enumerate(block.witness.element.coords):
        expected[39 + k] = c
    assert list(report.witness.element.coords) == expected
    assert expected[39 + 6] == p**3 * q * (p - q)
    assert replay_structural_witness(A, report) == report.witness.element

    # Without the broken block every triple is scanned, and none fails.
    whole = direct_sum(base, base, base, base, trivial)
    assert whole.dim == 64
    assert is_right_hom_alternative(whole).status == HOLDS
    assert is_multiplicative(whole).status == HOLDS
    left = is_left_hom_alternative(whole)
    assert left.witness.basis == (0, 0, 1)
    assert replay_structural_witness(whole, left) == left.witness.element
