"""Catalog builders: the 13-dim algebra, its morphism family, non-isomorphism helpers."""

from fractions import Fraction

import pytest

from homalt import homalgebra
from homalt.catalog import (
    FamilyParams,
    family_nonisomorphism_condition,
    mikheev_family,
    mikheev_morphism,
    spectrum_certificate,
)
from homalt.homalgebra import (
    HomAlgebra,
    identity_rows,
    is_right_hom_alternative,
)
from homalt.scalars import Poly
from homalt.homalgebra import is_left_hom_alternative

lam = Poly.variable("lambda")
xi = Poly.variable("xi")


def test_base_algebra_shape(mikheev):
    assert mikheev.dim == 13
    assert mikheev.params == ()
    assert mikheev.alpha == identity_rows(13)
    assert len(mikheev.mu) == 26


def test_base_products(mikheev):
    e = mikheev.basis()
    assert mikheev.mul(e[0], e[0]) == e[2]
    assert mikheev.mul(e[3], e[0]) == -e[6] + e[7] + e[8]
    assert mikheev.mul(e[11], e[5]) == e[12]
    assert mikheev.mul(e[11], e[3]) == -e[12]
    assert mikheev.mul(e[8], e[8]) == -e[12]
    assert mikheev.mul(e[8], e[9]) == e[12]
    assert mikheev.mul(e[0], e[6]) == e[11]
    assert mikheev.mul(e[0], e[8]) == e[11]


def test_e13_annihilates(mikheev):
    e13 = mikheev.basis_element(12)
    for i in range(13):
        x = mikheev.basis_element(i)
        assert mikheev.mul(e13, x).is_zero()
        assert mikheev.mul(x, e13).is_zero()


def test_morphism_diagonal():
    rows = mikheev_morphism(FamilyParams.symbolic())
    diag = {i: rows[i][0] for i in rows}
    assert diag[4] == (4, lam**3)
    assert diag[0] == (0, lam)
    assert diag[1] == (1, xi)
    for i in (6, 7, 8, 9):
        assert diag[i] == (i, lam**2 * xi)
    for i in (10, 11):
        assert diag[i] == (i, lam**3 * xi)
    assert diag[12] == (12, lam**4 * xi**2)


def test_morphism_at_one_one_is_identity():
    assert mikheev_morphism(FamilyParams.rational(1, 1)) == identity_rows(13)


def test_family_params_names():
    assert FamilyParams.symbolic().names() == ("lambda", "xi")
    assert FamilyParams.rational(Fraction(1, 2), 3).names() == ()


def test_family_at_one_one_is_the_base(mikheev):
    A11 = mikheev_family(FamilyParams.rational(1, 1))
    assert A11.mu == mikheev.mu
    assert A11.alpha == mikheev.alpha


def test_family_twist_checks_its_morphism_through_is_weak_morphism(monkeypatch):
    # The twist's hypothesis is the public scan, so a wrapper of it (as a
    # tracer installs) counts the scan each catalog twist runs.
    calls = []
    scan = homalgebra.is_weak_morphism

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(homalgebra, "is_weak_morphism", counted)
    mikheev_family(FamilyParams.symbolic())
    assert len(calls) == 1


def test_family_is_right_but_not_left_alternative(fam23):
    assert is_right_hom_alternative(fam23).status == "holds"
    report = is_left_hom_alternative(fam23)
    assert report.status == "fails"
    assert not report.witness.element.is_zero()


def test_family_associator_nonvanishing(fam_sym):
    e = fam_sym.basis()
    p = fam_sym.hom_associator(e[0], e[0], e[1])
    assert not p.is_zero()
    assert not fam_sym.hom_power(p, 2).is_zero()


def test_nonisomorphism_condition():
    assert family_nonisomorphism_condition(2, 3, 5, 7) is True
    assert family_nonisomorphism_condition(2, 3, 2, 3) is False
    assert family_nonisomorphism_condition(4, 2, 2, 4) is False
    assert family_nonisomorphism_condition(Fraction(1, 2), 3, 5, 7) is True


def test_nonisomorphism_rejects_zero():
    with pytest.raises(ValueError):
        family_nonisomorphism_condition(0, 3, 5, 7)
    with pytest.raises(ValueError):
        family_nonisomorphism_condition(2, 3, 5, 0)


def test_nonisomorphism_swap_symmetry():
    cases = [(2, 3, 5, 7), (2, 3, 2, 3), (4, 2, 2, 4), (2, 3, 9, 27),
             (3, 5, 15, 2), (Fraction(1, 2), 2, 4, 8)]
    for a, b, c, d in cases:
        assert (family_nonisomorphism_condition(a, b, c, d)
                == family_nonisomorphism_condition(c, d, a, b))


def test_spectrum_certificate(fam23):
    A32 = mikheev_family(FamilyParams.rational(3, 2))
    assert spectrum_certificate(fam23, A32) is True
    assert spectrum_certificate(fam23, fam23) is False
    A11 = mikheev_family(FamilyParams.rational(1, 1))
    assert spectrum_certificate(A11, A11) is False


def test_spectrum_certificate_rejects_symbolic(fam_sym, fam23):
    with pytest.raises(ValueError):
        spectrum_certificate(fam_sym, fam23)


def test_spectrum_certificate_rejects_non_diagonal(fam23):
    shear = HomAlgebra(2, {}, {0: ((0, 1), (1, 1)), 1: ((1, 1),)})
    other = HomAlgebra(2, {}, identity_rows(2))
    with pytest.raises(ValueError):
        spectrum_certificate(shear, other)


def test_family_twist_diagonal_values(fam23, fam57):
    d23 = [fam23.twist_apply(fam23.basis_element(i)).coords[i] for i in range(13)]
    assert d23 == [2, 3, 4, 6, 8, 6, 12, 12, 12, 12, 24, 24, 144]
    d57 = [fam57.twist_apply(fam57.basis_element(i)).coords[i] for i in range(13)]
    assert d57 == [5, 7, 25, 35, 125, 35, 175, 175, 175, 175, 875, 875, 30625]
