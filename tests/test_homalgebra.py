"""Core Hom-algebra model: products, associators, powers, structural checks, twisting."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import homalt.homalgebra
from homalt.algfile import element_str
from homalt.homalgebra import (
    BASIS_LAWS,
    FAILS,
    CheckReport,
    Element,
    HomAlgebra,
    Witness,
    _Record,
    apply_rows,
    identity_rows,
    is_hom_nilpotent,
    is_left_hom_alternative,
    is_morphism,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
    replay_structural_witness,
    scan_basis_law,
    substitute_params,
    yau_twist,
)
from homalt.catalog import FamilyParams, mikheev_morphism
from homalt.operators import RightOp, alpha_op, compose
from homalt.proof_replay import BatchResult, IdentityInstance
from homalt.scalars import Poly, degree
from test_metamorphic import change_basis, generic_arg, unimodular

lam = Poly.variable("lambda")
xi = Poly.variable("xi")


def small_scalars():
    return st.one_of(st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=6))


def elements(dim):
    return st.lists(small_scalars(), min_size=dim, max_size=dim).map(
        lambda cs: Element(tuple(cs)))


# --- Element basics ---

def test_element_normalizes_coords():
    x = Element((Fraction(4, 2), lam - lam, Fraction(1, 3)))
    assert x.coords == (2, 0, Fraction(1, 3))
    assert x.support() == (0, 2)


def test_element_arithmetic():
    x = Element((1, 2, 0))
    y = Element((0, 1, 5))
    assert (x + y).coords == (1, 3, 5)
    assert (x - y).coords == (1, 1, -5)
    assert (-x).coords == (-1, -2, 0)
    assert x.scale(3).coords == (3, 6, 0)
    assert not x.is_zero()
    assert (x - x).is_zero()


def test_element_dimension_mismatch():
    with pytest.raises(ValueError):
        Element((1, 0)) + Element((1, 0, 0))


def test_element_substitute():
    x = Element((lam * xi, 2, lam - xi))
    assert x.substitute({"lambda": 3, "xi": 3}).coords == (9, 2, 0)


def test_element_str():
    assert element_str(Element((1, -1, 0))) == "e1 - e2"
    assert element_str(Element((0, 0, 0))) == "0"
    assert element_str(Element((Fraction(3, 2), 0, -1))) == "3/2*e1 - e3"
    assert element_str(Element((lam - xi, 0, 0))) == "(lambda - xi)*e1"
    assert element_str(Element((0, lam * xi, 0))) == "lambda*xi*e2"
    assert element_str(Element((1, 0)), names=("u", "v")) == "u"


# --- products, associators, powers on the 13-dim algebra ---

def test_basis_products(mikheev):
    e = mikheev.basis()
    assert mikheev.mul(e[0], e[1]) == e[3]
    assert mikheev.mul(e[1], e[1]).is_zero()
    assert mikheev.mul(mikheev.zero(), e[4]).is_zero()


def test_mul_dimension_mismatch(mikheev):
    with pytest.raises(ValueError):
        mikheev.mul(mikheev.basis_element(0), Element((1, 0)))


def test_shift_composition(mikheev, fam23):
    x = fam23.element([1, 0, 2] + [0] * 10)
    assert fam23.shift(x, 0) == x
    assert fam23.shift(fam23.shift(x, 2), 1) == fam23.shift(x, 3)
    assert mikheev.twist_apply(mikheev.basis_element(5)) == mikheev.basis_element(5)


def test_family_twist_eigenvalues(fam_sym):
    e = fam_sym.basis()
    assert fam_sym.twist_apply(e[0]) == e[0].scale(lam)
    assert fam_sym.shift(e[6], 2) == e[6].scale(lam**4 * xi**2)


def _reference_shift(A, x, n):
    for _ in range(n):
        x = A.twist_apply(x)
    return x


def _reference_alpha_op(A, n):
    twist = RightOp(A.dim, A.alpha)
    return compose(RightOp(A.dim, identity_rows(A.dim)), *[twist] * n)


def _twist_table_cases(fam_sym, fam23):
    dense = change_basis(fam23, *unimodular(13, 10, 4))  # dense rational twist
    # alpha: e1 -> e2 -> -2 e3 -> 0, so the table ends in empty rows.
    nilpotent = HomAlgebra(3, {(0, 1): ((1, 1),)}, {0: ((1, 1),), 1: ((2, -2),)})
    return [
        (fam_sym, generic_arg(fam_sym, "x")),  # diagonal symbolic twist
        (dense, dense.element([1, -2, 0, 3, Fraction(1, 2)] + [0] * 7 + [5])),
        (nilpotent, nilpotent.element([1, 2, 3])),
    ]


def test_twist_power_table_matches_the_loops(fam_sym, fam23):
    cases = _twist_table_cases(fam_sym, fam23)
    for A, x in cases:
        for n in range(9):
            assert A.shift(x, n) == _reference_shift(A, x, n)
            assert alpha_op(A, n) == _reference_alpha_op(A, n)
    nilpotent = cases[2][0]
    assert nilpotent.twist_power(2) == {0: ((2, -2),)}
    assert nilpotent.twist_power(3) == {}


def test_twist_power_table_grows_out_of_order(fam23):
    A = change_basis(fam23, *unimodular(13, 5, 7))
    x = A.element(range(13))
    for n in (8, 2, 5, 0):
        assert A.shift(x, n) == _reference_shift(A, x, n)
        assert alpha_op(A, n) == _reference_alpha_op(A, n)
    assert A.twist_power(5) is A.twist_power(5)


def test_shift_errors(fam23):
    x = fam23.basis_element(0)
    with pytest.raises(ValueError, match="twist exponent must be nonnegative"):
        fam23.shift(x, -1)
    with pytest.raises(ValueError, match="twist exponent must be nonnegative"):
        alpha_op(fam23, -1)
    for n in (0, 1, 3):
        with pytest.raises(ValueError, match="dimension mismatch between element and algebra"):
            fam23.shift(Element((1, 0)), n)


def test_hom_associator_values(mikheev, fam_sym):
    e = mikheev.basis()
    p = mikheev.hom_associator(e[0], e[0], e[1])
    assert p == e[6] - e[7]
    f = fam_sym.basis()
    q = fam_sym.hom_associator(f[0], f[0], f[1])
    assert q == (f[6] - f[7]).scale(lam**4 * xi**2)


def test_associator_vanishes_on_associative(upper_triangular):
    A = upper_triangular
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert A.hom_associator(A.basis_element(i), A.basis_element(j),
                                        A.basis_element(k)).is_zero()


def test_hom_power_square_is_plain_square(mikheev):
    e = mikheev.basis()
    x = e[0] + e[1].scale(2)
    assert mikheev.hom_power(x, 2) == mikheev.mul(x, x)
    assert mikheev.hom_power(x, 1) == x
    with pytest.raises(ValueError):
        mikheev.hom_power(x, 0)


def test_hom_power_of_associator(mikheev):
    e = mikheev.basis()
    p = e[6] - e[7]
    assert mikheev.hom_power(p, 2) == -e[12]
    assert mikheev.hom_power(p, 3).is_zero()
    assert mikheev.hom_power(p, 4).is_zero()


def test_hom_power_homogeneous(mikheev):
    x = generic_arg(mikheev, "x")
    sq = mikheev.hom_power(x, 2)
    assert all(c == 0 or degree(c) == 2 for c in sq.coords)
    cube = mikheev.hom_power(x, 3)
    assert all(c == 0 or degree(c) == 3 for c in cube.coords)


def test_commutator(mikheev):
    e = mikheev.basis()
    assert mikheev.commutator(e[0], e[1]) == e[3] - e[5]
    x = e[2] + e[4].scale(Fraction(1, 2))
    assert mikheev.commutator(x, x).is_zero()


def test_commutator_vanishes_when_commutative(truncated_poly):
    A = truncated_poly
    x = A.element([1, 2, 3])
    y = A.element([0, 1, 5])
    assert A.commutator(x, y).is_zero()


# --- structural checks ---

def test_mikheev_is_multiplicative(mikheev, fam_sym):
    assert is_multiplicative(mikheev).status == "holds"
    assert is_multiplicative(fam_sym).status == "holds"


def test_multiplicativity_fails_on_altered_twist(mikheev):
    rows = dict(mikheev_morphism(FamilyParams.rational(2, 3)))
    rows[2] = ((2, 2),)
    A = HomAlgebra(13, dict(mikheev.mu), rows)
    report = is_multiplicative(A)
    assert report.status == "fails"
    assert report.witness.basis == (0, 0)
    assert replay_structural_witness(A, report) == report.witness.element
    assert not report.witness.element.is_zero()


def test_alternativity(mikheev):
    right = is_right_hom_alternative(mikheev)
    assert right.status == "holds"
    assert right.strategy == "basis"
    left = is_left_hom_alternative(mikheev)
    assert left.status == "fails"
    assert left.witness.basis == (0, 0, 1)
    e = mikheev.basis()
    assert left.witness.element == e[6] - e[7]
    assert replay_structural_witness(mikheev, left) == left.witness.element


def test_family_is_right_alternative_symbolically(fam_sym):
    assert is_right_hom_alternative(fam_sym).status == "holds"


def test_plain_twisted_product_is_not_right_alternative(plain_twisted):
    report = is_right_hom_alternative(plain_twisted)
    assert report.status == "fails"
    assert not replay_structural_witness(plain_twisted, report).is_zero()
    e = plain_twisted.basis()
    left_side = plain_twisted.mul(plain_twisted.mul(e[1], e[0]), e[0])
    right_side = plain_twisted.mul(e[1], plain_twisted.mul(e[0], e[0]))
    assert left_side == e[9].scale(lam**3 * xi**2)
    assert right_side == e[9].scale(lam**4 * xi)
    assert left_side != right_side


def test_scan_basis_law_runs_the_scan_the_table_names(mikheev, monkeypatch):
    # The scan is looked up in homalgebra when it runs, so the one patched
    # there is the one that check and the precondition checks call.
    for law, (_, name) in BASIS_LAWS.items():
        report = scan_basis_law(mikheev, law)
        assert report.check == law
        assert report == getattr(homalt.homalgebra, name)(mikheev)
    monkeypatch.setattr(homalt.homalgebra, "is_multiplicative", lambda A: "patched")
    assert scan_basis_law(mikheev, "multiplicative") == "patched"


def test_dim_zero_algebra_holds_vacuously():
    Z = HomAlgebra(0, {}, {})
    assert is_multiplicative(Z).status == "holds"
    assert is_right_hom_alternative(Z).status == "holds"
    assert is_left_hom_alternative(Z).status == "holds"


def test_zero_algebra_checks(zero_algebra):
    assert is_multiplicative(zero_algebra).status == "holds"
    assert is_right_hom_alternative(zero_algebra).status == "holds"


# --- morphism checks ---

def test_family_morphism_is_a_morphism(mikheev):
    base = mikheev.with_params(("lambda", "xi"))
    rows = mikheev_morphism(FamilyParams.symbolic())
    assert is_weak_morphism(base, rows).status == "holds"
    assert is_morphism(base, rows).status == "holds"


def test_identity_is_a_morphism(mikheev):
    assert is_morphism(mikheev, identity_rows(13)).status == "holds"


# Zero product, alpha = diag(1, 2): swapping e1 and e2 is a weak morphism,
# but f(alpha(e1)) - alpha(f(e1)) = e2 - 2 e2 = -e2.
DIAGONAL_TWIST = HomAlgebra(2, {}, {0: ((0, 1),), 1: ((1, 2),)})
SWAP = {0: ((1, 1),), 1: ((0, 1),)}


def test_morphism_twist_condition_fails_at_first_basis_index():
    A = DIAGONAL_TWIST
    report = is_morphism(A, SWAP)
    assert (report.check, report.status) == ("morphism", FAILS)
    assert report.witness.basis == (0,)
    assert report.witness.element == -A.basis_element(1)
    assert replay_structural_witness(A, report, SWAP) == report.witness.element


def test_morphism_reads_one_shot_rows_once():
    # The verdict is the same whether the rows are tuples or iterators that
    # can be read only once.
    one_shot = {i: iter(row) for i, row in SWAP.items()}
    assert is_morphism(DIAGONAL_TWIST, one_shot).to_dict() == (
        is_morphism(DIAGONAL_TWIST, SWAP).to_dict())


def test_projection_is_not_weak_morphism(mikheev):
    rows = {0: ((0, 1),)}
    report = is_weak_morphism(mikheev, rows)
    assert report.status == "fails"
    assert report.witness.basis == (0, 0)
    assert replay_structural_witness(mikheev, report, rows) == report.witness.element


def test_morphism_fails_at_the_product_condition(mikheev):
    # f doubles e1 and kills the rest: f(e1 e1) - f(e1) f(e1) = -4 e3.
    f = {0: ((0, 2),)}
    report = is_morphism(mikheev, f)
    assert (report.check, report.status) == ("morphism", FAILS)
    assert report.witness.basis == (0, 0)
    assert report.witness.element == Element((0, 0, -4) + (0,) * 10)
    assert replay_structural_witness(mikheev, report, f) == report.witness.element


def test_structural_replay_refuses_what_it_cannot_replay(mikheev):
    left = is_left_hom_alternative(mikheev)
    assert left.status == FAILS
    with pytest.raises(ValueError, match="no basis witness"):
        replay_structural_witness(mikheev, CheckReport("left-alt", FAILS, "basis"))
    with pytest.raises(ValueError, match="unknown structural check 'xyy'"):
        replay_structural_witness(mikheev, CheckReport("xyy", FAILS, "basis",
                                                       witness=left.witness))
    morphism = is_morphism(mikheev, {0: ((0, 2),)})
    with pytest.raises(ValueError, match="replaying a morphism report needs the map"):
        replay_structural_witness(mikheev, morphism)


# --- yau twist ---

def test_twist_by_identity_is_noop(mikheev):
    T = yau_twist(mikheev, identity_rows(13))
    assert T.mu == mikheev.mu
    assert T.alpha == mikheev.alpha


def test_twist_builds_family_product(mikheev):
    base = mikheev.with_params(("lambda", "xi"))
    T = yau_twist(base, mikheev_morphism(FamilyParams.symbolic()))
    e = T.basis()
    assert T.mul(e[1], e[0]) == e[5].scale(lam * xi)
    assert is_right_hom_alternative(T).status == "holds"


def test_twist_rejects_non_weak_morphism(mikheev):
    with pytest.raises(ValueError):
        yau_twist(mikheev, {0: ((0, 1),)})


# --- generic elements and parameter substitution ---

def test_generic_elements_commute(mikheev):
    a, b = generic_arg(mikheev, "a"), generic_arg(mikheev, "b")
    prod = mikheev.mul(a, b)
    assert all(c == 0 or degree(c) == 2 for c in prod.coords)


def test_substitute_params_matches_direct_construction(fam_sym, fam23):
    S = substitute_params(fam_sym, {"lambda": 2, "xi": 3})
    assert S.mu == fam23.mu
    assert S.alpha == fam23.alpha
    assert S.params == ()


def test_substitute_params_without_assignment_is_the_algebra(mikheev, fam_sym):
    # The same object, so point evaluation keeps A's table of twist powers.
    assert substitute_params(mikheev, {}) is mikheev
    assert substitute_params(fam_sym, {}) is fam_sym
    partial = substitute_params(fam_sym, {"xi": 3})
    assert partial is not fam_sym
    assert partial.params == ("lambda",)
    with pytest.raises(ValueError, match="unknown parameters"):
        substitute_params(mikheev, {"lambda": 2})


def test_generic_elements_are_hashable(mikheev):
    a, again, b = (generic_arg(mikheev, v) for v in ("a", "a", "b"))
    assert len({a, again, b, a + b - b}) == 2


# --- nilpotence ---

def test_hom_nilpotent_index(mikheev, fam23):
    e = mikheev.basis()
    assert is_hom_nilpotent(mikheev, e[6] - e[7], 6) == 3
    assert is_hom_nilpotent(mikheev, mikheev.zero(), 6) is None
    f = fam23.basis()
    p = fam23.hom_associator(f[0], f[0], f[1])
    assert is_hom_nilpotent(fam23, p, 6) == 3
    with pytest.raises(ValueError):
        is_hom_nilpotent(mikheev, e[0], 1)


def test_hom_powers_refuse_an_element_of_another_dimension(mikheev):
    # n = 1 takes no product, and a zero element is no candidate, yet both
    # refuse a 2-dimensional element as every product does.
    x = Element((1, 2))
    for call in (lambda: mikheev.hom_power(x, 1), lambda: mikheev.hom_power(x, 2),
                 lambda: is_hom_nilpotent(mikheev, Element((0, 0)), 3)):
        with pytest.raises(ValueError, match="dimension mismatch between element and algebra"):
            call()


def _reference_hom_power(A, x, n):
    """``x^n = x^(n-1) * alpha^(n-2)(x)``, straight from the definition."""
    return x if n == 1 else A.mul(_reference_hom_power(A, x, n - 1), A.shift(x, n - 2))


def test_hom_powers_match_the_definition(mikheev, fam23):
    e = mikheev.basis()
    f = fam23.basis()
    cases = [(mikheev, e[6] - e[7]), (mikheev, e[0] + e[1]), (mikheev, mikheev.zero()),
             (fam23, fam23.hom_associator(f[0], f[0], f[1])), (fam23, f[0] + f[2])]
    for A, x in cases:
        for n in range(1, 8):
            assert A.hom_power(x, n) == _reference_hom_power(A, x, n)
        index = next((n for n in range(2, 8) if _reference_hom_power(A, x, n).is_zero()), None)
        assert is_hom_nilpotent(A, x, 7) == (None if x.is_zero() else index)


def test_hom_powers_twist_linearly_often(monkeypatch):
    # e e = e with the identity twist: no power vanishes, so both loops run
    # to the end.  Rebuilding alpha^(m-2)(x) at every step took n^2/2 twists.
    A = HomAlgebra(1, {(0, 0): ((0, 1),)}, identity_rows(1))
    calls = []
    twist = HomAlgebra.twist_apply

    def counting(self, x):
        calls.append(1)
        return twist(self, x)

    monkeypatch.setattr(HomAlgebra, "twist_apply", counting)
    x = A.basis_element(0)
    n = 200
    assert A.hom_power(x, n) == x
    assert len(calls) <= n
    calls.clear()
    assert is_hom_nilpotent(A, x, n) is None
    assert len(calls) <= n


def test_idempotent_is_not_nilpotent(upper_triangular):
    A = upper_triangular
    assert is_hom_nilpotent(A, A.basis_element(0), 8) is None


# --- algebra validation ---

def test_algebra_rejects_bad_indices():
    with pytest.raises(ValueError):
        HomAlgebra(2, {(0, 5): ((0, 1),)}, identity_rows(2))
    with pytest.raises(ValueError):
        HomAlgebra(2, {(0, 0): ((7, 1),)}, identity_rows(2))
    with pytest.raises(ValueError):
        HomAlgebra(-1, {}, {})


def test_algebra_drops_zero_entries():
    A = HomAlgebra(2, {(0, 0): ((0, 0), (1, 2)), (1, 1): ((0, 0),)}, identity_rows(2))
    assert A.mu == {(0, 0): ((1, 2),)}


def test_dense_matrix_rows_refused():
    # A linear map enters as sparse rows only; each entry point refuses a
    # dense matrix, naming the sparse form.
    A = HomAlgebra(2, {(0, 0): ((0, 1),)}, {0: ((1, 1),), 1: ((0, 1),)})
    assert A.twist_apply(A.basis_element(0)) == A.basis_element(1)
    failing = is_weak_morphism(A, {0: ((1, 1),)})  # e0 e0 = e0, but e1 e1 = 0
    assert failing.status == "fails"
    dense = [[0, 1], [1, 0]]
    for call in (
        lambda: HomAlgebra(2, {}, dense),
        lambda: RightOp(2, dense),
        lambda: is_weak_morphism(A, dense),
        lambda: is_morphism(A, dense),
        lambda: yau_twist(A, dense),
        lambda: replay_structural_witness(A, failing, dense),
    ):
        with pytest.raises(TypeError, match=r"expected sparse rows \{i: \(\(k, coeff\), .*got list$"):
            call()


# --- algebraic laws at random points ---

@given(elements(13), elements(13), small_scalars())
@settings(max_examples=25, deadline=None)
def test_bilinearity(mikheev, x, y, r):
    e = mikheev.basis_element(4)
    assert mikheev.mul(x.scale(r) + e, y) == mikheev.mul(x, y).scale(r) + mikheev.mul(e, y)
    assert mikheev.mul(y, x.scale(r) + e) == mikheev.mul(y, x).scale(r) + mikheev.mul(y, e)


@given(elements(13), elements(13))
@settings(max_examples=25, deadline=None)
def test_right_alternativity_pointwise(mikheev, x, y):
    assert mikheev.hom_associator(x, y, y).is_zero()
    lhs = mikheev.mul(mikheev.mul(x, y), mikheev.twist_apply(y))
    rhs = mikheev.mul(mikheev.twist_apply(x), mikheev.mul(y, y))
    assert lhs == rhs


@given(elements(13), elements(13), elements(13))
@settings(max_examples=15, deadline=None)
def test_twist_associator_relation(mikheev, x, y, z):
    beta = mikheev_morphism(FamilyParams.rational(3, 5))
    T = yau_twist(mikheev, beta)
    inner = apply_rows(beta, apply_rows(beta, mikheev.hom_associator(x, y, z)))
    assert inner == T.hom_associator(x, y, z)


# --- records ---


def test_record_fields_are_the_init_parameters():
    classes = {cls.__qualname__: cls for cls in _Record.__subclasses__()}
    assert sorted(classes) == ["BatchResult", "CheckReport", "Element", "FamilyParams",
                               "HomAlgebra", "IdentityInstance", "RightOp", "Witness"]
    for cls in classes.values():
        assert cls._fields == tuple(inspect.signature(cls.__init__).parameters)[1:]


def test_record_repr_lists_the_fields_in_order():
    e1 = Element((1,))
    cases = [
        (e1, "Element(coords=(1,))"),
        (HomAlgebra(1, {(0, 0): ((0, 1),)}, identity_rows(1), ("t",)),
         "HomAlgebra(dim=1, mu={(0, 0): ((0, 1),)}, alpha={0: ((0, 1),)}, params=('t',))"),
        (Witness(e1, point={"x_1": 2}, pair_index=1),
         "Witness(element=Element(coords=(1,)), basis=None, point={'x_1': 2}, probe=None, "
         "pair_index=1)"),
        (CheckReport("xyy", "random-pass", "random", 50, 0, 4),
         "CheckReport(check='xyy', status='random-pass', strategy='random', points=50, seed=0, "
         "degree_bound=4, witness=None)"),
        (RightOp(1, {0: ((0, 2),)}), "RightOp(dim=1, rows={0: ((0, 2),)})"),
        (IdentityInstance("eq2", ("multiplicative",), abs),
         "IdentityInstance(tag='eq2', requires=('multiplicative',), "
         "evaluate=<built-in function abs>)"),
        (BatchResult("eq2", error="no"), "BatchResult(tag='eq2', report=None, error='no')"),
        (FamilyParams(2, 3), "FamilyParams(lam=2, xi=3)"),
    ]
    for record, text in cases:
        assert repr(record) == text
