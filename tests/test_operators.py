"""Right-operator calculus: right multiplications, twist operators, compositions."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import homalt.operators
from homalt.homalgebra import Element, identity_rows
from homalt.operators import (
    RightOp,
    alpha_op,
    apply,
    compose,
    op_sub,
    op_sup,
    right_mul_op,
)
from homalt.proof_replay import verify, verify_all
from homalt.scalars import Poly
from test_metamorphic import generic_arg

lam = Poly.variable("lambda")
xi = Poly.variable("xi")


def elements(dim):
    return st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).map(
        lambda cs: Element(tuple(cs)))


def test_right_mul_values(mikheev, fam_sym):
    e = mikheev.basis()
    assert apply(e[1], right_mul_op(mikheev, e[0])) == e[5]
    assert right_mul_op(mikheev, mikheev.zero()).is_zero()
    f = fam_sym.basis()
    assert apply(f[1], right_mul_op(fam_sym, f[0])) == f[5].scale(lam * xi)


def test_right_mul_matches_mul_everywhere(mikheev):
    a = mikheev.element([1, -2, 0, 3] + [0] * 9)
    op = right_mul_op(mikheev, a)
    for i in range(13):
        x = mikheev.basis_element(i)
        assert apply(x, op) == mikheev.mul(x, a)


def test_alpha_op(mikheev, fam_sym):
    assert alpha_op(mikheev, 0) == RightOp(13, identity_rows(13))
    assert alpha_op(mikheev, 3) == RightOp(13, identity_rows(13))
    two = alpha_op(fam_sym, 2)
    assert two.entry(0, 0) == lam**2
    x = fam_sym.element([0, 1, 0, 2] + [0] * 9)
    assert apply(x, two) == fam_sym.shift(x, 2)


def test_op_sup_is_negated_associator(mikheev):
    e = mikheev.basis()
    s = op_sup(mikheev, e[0], e[1])
    assert apply(e[0], s) == e[7] - e[6]
    for i in range(13):
        x = mikheev.basis_element(i)
        assert apply(x, s) == -mikheev.hom_associator(x, e[0], e[1])


def test_op_sub_value(mikheev):
    e = mikheev.basis()
    t = op_sub(mikheev, e[0], e[1])
    assert apply(e[0], t) == e[6] - e[8]


def test_sup_vanishes_on_associative(upper_triangular):
    A = upper_triangular
    x = A.element([1, 2, 3])
    y = A.element([0, -1, 4])
    assert op_sup(A, x, y).is_zero()


def test_sub_vanishes_on_commutative_associative(truncated_poly):
    A = truncated_poly
    x = A.element([1, 2, 3])
    y = A.element([0, -1, 4])
    assert op_sub(A, x, y).is_zero()
    assert op_sup(A, x, y).is_zero()


def test_apply_and_compose_conventions(mikheev):
    e = mikheev.basis()
    assert apply(e[4], RightOp(13, identity_rows(13))) == e[4]
    r1 = right_mul_op(mikheev, e[0])
    assert apply(e[1], compose(r1, r1)) == e[9]
    x = mikheev.element([1, 1, 0, 0, 2] + [0] * 8)
    a = mikheev.element([0, 3, 1] + [0] * 10)
    b = mikheev.element([1, 0, 0, -1] + [0] * 9)
    ra, rb = right_mul_op(mikheev, a), right_mul_op(mikheev, b)
    assert apply(x, compose(ra, rb)) == mikheev.mul(mikheev.mul(x, a), b)
    assert apply(x, compose(ra, rb)) == apply(apply(x, ra), rb)


def test_compose_arities(mikheev):
    r = right_mul_op(mikheev, mikheev.basis_element(0))
    with pytest.raises(ValueError):
        compose()
    assert compose(r) == r
    assert compose(r, RightOp(13, identity_rows(13)), r) == compose(r, r)


def test_operator_arithmetic(mikheev):
    e = mikheev.basis()
    r0 = right_mul_op(mikheev, e[0])
    r1 = right_mul_op(mikheev, e[1])
    both = right_mul_op(mikheev, e[0] + e[1])
    assert r0 + r1 == both
    assert (r0 - r0).is_zero()
    assert -RightOp(13, {}) == RightOp(13, {})
    assert r0 + RightOp(13, {}) == r0


def test_operator_dimension_mismatch(mikheev):
    with pytest.raises(ValueError):
        compose(RightOp(2, {}), RightOp(3, {}))
    with pytest.raises(ValueError):
        apply(Element((1, 0)), RightOp(3, {}))


def test_rightop_validation():
    with pytest.raises(ValueError):
        RightOp(2, {0: ((5, 1),)})
    op = RightOp(2, {0: ((0, 0), (1, 3))})
    assert op.rows == {0: ((1, 3),)}
    assert op.entry(0, 0) == 0
    assert op.entry(0, 1) == 3


@given(st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=20, deadline=None)
def test_operators_linear_in_both_arguments(mikheev, r, s):
    e = mikheev.basis()
    a, a2, b = e[0], e[3], e[1]
    for build in (op_sup, op_sub):
        mixed = build(mikheev, a.scale(r) + a2.scale(s), b)
        assert mixed == compose_scale(build(mikheev, a, b), r) + compose_scale(build(mikheev, a2, b), s)
        mixed_b = build(mikheev, b, a.scale(r) + a2.scale(s))
        assert mixed_b == compose_scale(build(mikheev, b, a), r) + compose_scale(build(mikheev, b, a2), s)


def compose_scale(op, r):
    scaled = {i: tuple((k, r * c) for k, c in row) for i, row in op.rows.items()}
    return RightOp(op.dim, scaled)


def test_intertwining_relations(fam23):
    A = fam23
    a = A.element([1, 2, 0, 1] + [0] * 9)
    b = A.element([0, 1, 3, 0, 1] + [0] * 8)
    for n in (1, 2, 3):
        an, bn = A.shift(a, n), A.shift(b, n)
        alpha_n = alpha_op(A, n)
        assert compose(right_mul_op(A, a), alpha_n) == compose(alpha_n, right_mul_op(A, an))
        assert compose(op_sup(A, a, b), alpha_n) == compose(alpha_n, op_sup(A, an, bn))
        assert compose(op_sub(A, a, b), alpha_n) == compose(alpha_n, op_sub(A, an, bn))
        assert A.shift(A.mul(a, b), n) == A.mul(an, bn)
        assert A.shift(A.hom_associator(a, b, a), n) == A.hom_associator(an, bn, an)


def test_sup_antisymmetry_and_sup_self_zero(mikheev):
    a, b = generic_arg(mikheev, "a"), generic_arg(mikheev, "b")
    assert op_sup(mikheev, a, a).is_zero()
    assert (op_sup(mikheev, a, b) + op_sup(mikheev, b, a)).is_zero()


def test_sub_self_zero_generic(mikheev):
    a = generic_arg(mikheev, "a")
    assert op_sub(mikheev, a, a).is_zero()


# -- the work of the operator layer ----------------------------------------------

COUNTED = ("right_mul_op", "compose", "alpha_op", "op_sup", "op_sub")


def _count_operator_calls(monkeypatch) -> Counter:
    """Count the calls of each function of :data:`COUNTED`, wrapped as the
    bench tracer wraps it: at every name in a loaded homalt module that is
    bound to it."""
    calls: Counter = Counter()
    for name in COUNTED:
        original = getattr(homalt.operators, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module is not None and module_name.partition(".")[0] == "homalt":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("tag, work", [
    ("eq1", {"right_mul_op": 3, "compose": 2, "alpha_op": 1}),
    ("eq5", {"right_mul_op": 6, "compose": 5, "alpha_op": 2, "op_sup": 1, "op_sub": 1}),
    ("dpe", {"right_mul_op": 32, "compose": 21, "alpha_op": 14, "op_sup": 5, "op_sub": 4}),
])
def test_operator_work_of_an_entry(fam_sym, monkeypatch, tag, work):
    # The calculus on A runs through the names the tracer patches, each
    # call once: an operator built by op_sup or op_sub counts its own
    # right multiplications and compositions too.
    calls = _count_operator_calls(monkeypatch)
    assert verify(fam_sym, tag, "generic").status == "holds"
    assert calls == Counter(work)


def test_operator_work_of_the_batch(fam_sym, monkeypatch):
    calls = _count_operator_calls(monkeypatch)
    assert all(result.passed() for result in verify_all(fam_sym, "generic"))
    assert [calls[name] for name in COUNTED] == [168, 124, 70, 24, 19]
