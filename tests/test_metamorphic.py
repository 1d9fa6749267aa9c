"""Metamorphic tests: exact relations that need no second implementation.

Change of basis.  Conjugating an algebra by an invertible matrix P gives an
isomorphic algebra, so every structural verdict and every registry status
stays the same, every failing report still replays, and a structural
witness of A, written in the new basis, is the conjugate's linearized form
at the same vectors.  P is a seeded
product of operations ``row_i += row_j`` or ``row_i -= row_j``; its inverse
applies the inverse operations in reverse order, so both stay integral.

Specialization.  Substituting values for the parameters commutes with the
ring operations, so each value of an identity on the Yau twist of the
identity twist of A(lambda, xi) by the diagonal morphism, specialized, is
the same value on the same twist of the family member at those values; and
each value on generic arguments, specialized at a point of parameters and
coordinates, is the value that point evaluation computes there.

Yau twist.  For a morphism beta of a right alternative algebra A, the
Hom-associator of ``yau_twist(A, beta)`` is beta^2 of A's associator; the
registry's ``beta2`` checks the twist by alpha, this test a beta that is not
alpha.
"""

import random
from fractions import Fraction

import pytest

from homalt.catalog import FamilyParams, mikheev_algebra, mikheev_family, mikheev_morphism
from homalt.homalgebra import (
    FAILS,
    HOLDS,
    Element,
    HomAlgebra,
    apply_rows,
    identity_rows,
    is_multiplicative,
    is_right_hom_alternative,
    replay_structural_witness,
    substitute_rows,
    yau_twist,
)
from homalt.operators import RightOp
from homalt.proof_replay import get_identity, identity_tags, replay_identity_witness, verify
from homalt.scalars import Poly
from homalt.homalgebra import is_left_hom_alternative

SCANS = (is_right_hom_alternative, is_left_hom_alternative, is_multiplicative)


def generic_arg(A, name):
    """The element of A whose coordinates are the indeterminates ``<name>_<i>``,
    as the generic strategy builds its arguments."""
    return Element(tuple(Poly.variable(f"{name}_{i + 1}") for i in range(A.dim)))


def unimodular(dim, ops, seed):
    """P as the product of ``ops`` seeded row operations, and its inverse."""
    rng = random.Random(seed)
    steps = [(*rng.sample(range(dim), 2), rng.choice((1, -1))) for _ in range(ops)]
    P = [[int(a == b) for b in range(dim)] for a in range(dim)]
    P_inv = [row[:] for row in P]
    for i, j, s in steps:
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    for i, j, s in reversed(steps):
        P_inv[i] = [a - s * b for a, b in zip(P_inv[i], P_inv[j])]
    return P, P_inv


def change_basis(A, P, P_inv):
    """A in the basis ``f_a = sum_b P[a][b] e_b``."""
    n = A.dim

    def in_new_basis(v):  # coordinates over e -> sparse row over f
        return [(t, sum(v[m] * P_inv[m][t] for m in range(n) if v[m])) for t in range(n)]

    def combine(weights, rows):  # sum_c weights[c] * rows[c], over e
        v = [0] * n
        for c, w in weights:
            for m, x in rows.get(c, ()):
                v[m] += w * x
        return v

    nonzero = [[(c, p) for c, p in enumerate(row) if p] for row in P]
    mu = {}
    for a in range(n):
        for b in range(n):
            pairs = [((c, d), p * q) for c, p in nonzero[a] for d, q in nonzero[b]]
            mu[(a, b)] = in_new_basis(combine(pairs, A.mu))
    alpha = {a: in_new_basis(combine(nonzero[a], A.alpha)) for a in range(n)}
    return HomAlgebra(n, mu, alpha, A.params)


def test_unimodular_inverse():
    P, P_inv = unimodular(13, 20, 0)
    product = [[sum(P[a][m] * P_inv[m][b] for m in range(13)) for b in range(13)]
               for a in range(13)]
    assert product == [[int(a == b) for b in range(13)] for a in range(13)]
    assert P != P_inv


@pytest.fixture(scope="module")
def identity_twist(fam23):
    # The twisted product with the identity twist, as in the refute-witness
    # workload: not right Hom-alternative.
    return HomAlgebra(13, dict(fam23.mu), identity_rows(13))


@pytest.mark.parametrize("name", ["mikheev", "fam23", "identity_twist"])
@pytest.mark.parametrize("ops, seed", [(5, 0), (20, 1), (20, 2), (20, 3)])
def test_change_of_basis_keeps_structural_verdicts(request, name, ops, seed):
    A = request.getfixturevalue(name)
    B = change_basis(A, *unimodular(A.dim, ops, seed))
    assert B != A
    for scan in SCANS:
        report = scan(B)
        assert report.status == scan(A).status, scan.__name__
        if report.status == FAILS:
            assert replay_structural_witness(B, report) == report.witness.element


@pytest.fixture(scope="module")
def doubled(mikheev):
    # The base product with alpha = 2 * identity: alpha(xy) = 2xy while
    # alpha(x) alpha(y) = 4xy, so not multiplicative.
    return HomAlgebra(13, dict(mikheev.mu), {i: ((i, 2),) for i in range(13)})


def _form_at(B, check, tup, vector):
    """The linearized form that the ``check`` scan evaluates at the basis
    tuple ``tup``, evaluated on B at the vectors ``vector(i)``."""
    xs = [vector(i) for i in tup]
    if check == "multiplicative":
        return B.twist_apply(B.mul(*xs)) - B.mul(*map(B.twist_apply, xs))
    value = B.hom_associator(*xs)
    s, t = (0, 1) if check == "left-alt" else (1, 2)
    if tup[s] != tup[t]:
        xs[s], xs[t] = xs[t], xs[s]
        value = value + B.hom_associator(*xs)
    return value


@pytest.mark.parametrize("scan, name", [
    (is_right_hom_alternative, "identity_twist"),
    (is_left_hom_alternative, "mikheev"),
    (is_multiplicative, "doubled"),
], ids=["right-alt", "left-alt", "multiplicative"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_change_of_basis_carries_structural_witnesses(request, scan, name, seed):
    # The linearized forms are multilinear, so A's form at basis vectors,
    # written in the f basis, is B's form at those vectors' f coordinates:
    # e_i is row i of P_inv.
    A = request.getfixturevalue(name)
    P, P_inv = unimodular(13, 20, seed)
    B = change_basis(A, P, P_inv)
    report = scan(A)
    assert report.status == FAILS
    v = report.witness.element.coords
    expected = Element(tuple(sum(v[m] * P_inv[m][t] for m in range(13)) for t in range(13)))
    assert not expected.is_zero()
    tup = report.witness.basis
    assert _form_at(B, report.check, tup, lambda i: Element(tuple(P_inv[i]))) == expected


# Entries that hold on A(2, 3), among them a dense twist's longest shifts
# (theorem: alpha^6; dpe: up to alpha^10).
HOLDING = ("xyy", "linearized", "moufang", "eq1", "eq3b", "eq5", "theorem", "dpe")


@pytest.mark.parametrize("ops, seed", [(5, 0), (10, 1)])
def test_change_of_basis_keeps_registry_statuses(fam23, identity_twist, ops, seed):
    P, P_inv = unimodular(13, ops, seed)
    B = change_basis(fam23, P, P_inv)
    for tag in HOLDING:
        assert verify(B, tag, "generic").status == HOLDS, tag
    broken = change_basis(identity_twist, P, P_inv)
    report = verify(broken, "xyy", "generic")
    assert report.status == FAILS
    assert replay_identity_witness(broken, report) == report.witness.element


def _specialize(value, point):
    if isinstance(value, Element):
        return value.substitute(point)
    return RightOp(value.dim, substitute_rows(value.rows, point))


def _twice_twisted(params):
    """The Yau twist of the identity twist of A(params) by the diagonal
    morphism: its twist is that morphism, symbolic in A(lambda, xi), and its
    Hom-associator is the morphism squared of the identity twist's, so not
    zero.  On A(params) itself every value is zero."""
    family = mikheev_family(params)
    plain = HomAlgebra(13, dict(family.mu), identity_rows(13), params=family.params)
    return yau_twist(plain, mikheev_morphism(params))


@pytest.fixture(scope="module")
def twice_twisted():
    return _twice_twisted(FamilyParams.symbolic())


@pytest.mark.parametrize("tag", identity_tags())
def test_specialization_commutes_with_evaluation(twice_twisted, tag):
    lam, xi = Fraction(2, 3), Fraction(-5, 2)
    point = {"lambda": lam, "xi": xi}
    member = _twice_twisted(FamilyParams.rational(lam, xi))
    inst = get_identity(tag)
    symbolic = inst.generic_values(twice_twisted)
    direct = inst.generic_values(member)
    assert len(symbolic) == len(direct)
    for value, value_at in zip(symbolic, direct):
        assert _specialize(value, point) == value_at


def _refute_algebra():
    """The identity-twisted A(7/3, -5/2) of the refute-witness benchmark:
    not right Hom-alternative, so the values of xyy and of 13 entries
    that require right alternativity are nonzero there."""
    family = mikheev_family(FamilyParams.rational(Fraction(7, 3), Fraction(-5, 2)))
    return HomAlgebra(13, dict(family.mu), identity_rows(13))


@pytest.mark.parametrize("algebra", ["family", "refute"])
@pytest.mark.parametrize("tag", identity_tags())
def test_point_evaluation_is_the_generic_one_specialized(twice_twisted, algebra, tag):
    # The two routes to an entry's values: the witness search, random and
    # replay evaluate at a point, the generic and subset strategies on
    # indeterminates.  Both agree once the point is substituted.  "family"
    # is the twice twisted A(lambda, xi), whose parameters the point sets too.
    inst = get_identity(tag)
    if algebra == "family":
        A, point = twice_twisted, {"lambda": Fraction(2, 3), "xi": Fraction(-5, 2)}
    else:
        A, point = _refute_algebra(), {}
    rng = random.Random(0)
    point.update((v, rng.randint(-3, 3)) for v in inst.variables(A) if v not in A.params)
    generic = inst.generic_values(A)
    at_point = inst.values_at(A, point)
    assert len(generic) == len(at_point)
    for value, value_at in zip(generic, at_point):
        assert _specialize(value, point) == value_at


@pytest.mark.parametrize("params", [
    FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)),
    FamilyParams.symbolic(),
], ids=["rational", "symbolic"])
def test_yau_twist_associator_is_beta_squared(params):
    base = mikheev_algebra()  # right alternative, identity twist
    beta = mikheev_morphism(params)
    twisted = yau_twist(base.with_params(params.names()), beta)
    x, y, z = (generic_arg(base, v) for v in ("x", "y", "z"))
    associator = twisted.hom_associator(x, y, z)
    assert not associator.is_zero()
    assert associator == apply_rows(beta, apply_rows(beta, base.hom_associator(x, y, z)))
