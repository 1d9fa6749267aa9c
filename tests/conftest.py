"""Shared fixtures: the catalog algebras and a few small regression algebras."""

import pytest

from homalt import FamilyParams, mikheev_algebra, mikheev_family
from homalt.homalgebra import HomAlgebra, identity_rows
from homalt.scalars import Poly

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mikheev():
    return mikheev_algebra()


@pytest.fixture(scope="session")
def fam_sym():
    return mikheev_family(FamilyParams.symbolic())


@pytest.fixture(scope="session")
def fam23():
    return mikheev_family(FamilyParams.rational(2, 3))


@pytest.fixture(scope="session")
def fam57():
    return mikheev_family(FamilyParams.rational(5, 7))


@pytest.fixture(scope="session")
def plain_twisted(fam_sym):
    # The twisted product kept as a plain algebra: same mu, identity twist map.
    return HomAlgebra(13, dict(fam_sym.mu), identity_rows(13), params=("lambda", "xi"))


@pytest.fixture(scope="session")
def truncated_poly():
    # k[t]/(t^3): commutative, associative, alpha = Id.
    mu = {(i, j): ((i + j, 1),) for i in range(3) for j in range(3) if i + j < 3}
    return HomAlgebra(3, mu, identity_rows(3))


@pytest.fixture(scope="session")
def upper_triangular():
    # Span of E11, E12, E22 in 2x2 matrices: associative, not commutative.
    mu = {
        (0, 0): ((0, 1),),
        (0, 1): ((1, 1),),
        (1, 2): ((1, 1),),
        (2, 2): ((2, 1),),
    }
    return HomAlgebra(3, mu, identity_rows(3))


@pytest.fixture(scope="session")
def zero_algebra():
    return HomAlgebra(3, {}, {})


def _small_roots(every_product):
    # P(t) = prod_{k=-22}^{22} (t - k) vanishes at every small integer,
    # |t| <= 22.  The witness grid runs t down from its degree d_t (45, or
    # 90 for P(t)^2), so it steps over those roots to a point at once.
    t = Poly.variable("t")
    P = 1
    for k in range(-22, 23):
        P = P * (t - k)
    mu = {(0, 0): ((1, P),), (1, 0): ((1, P if every_product else 1),)}
    return HomAlgebra(2, mu, identity_rows(2), params=("t",))


@pytest.fixture(scope="session")
def small_roots():
    # e1 e1 = P(t) e2, e2 e1 = e2, identity twist: xyy fails, but a subset
    # combo of support 1 fails only where P(t) != 0.
    return _small_roots(every_product=False)


@pytest.fixture(scope="session")
def small_roots_everywhere():
    # e1 e1 = e2 e1 = P(t) e2: the generic difference of xyy is a multiple
    # of P(t)^2 too.
    return _small_roots(every_product=True)


@pytest.fixture(scope="session")
def coordinate_named_param():
    # e1 e1 = x_1 e1: the parameter is named like xyy's first coordinate.
    return HomAlgebra(1, {(0, 0): ((0, Poly.variable("x_1")),)}, identity_rows(1), params=("x_1",))
