"""Evaluators of the operator identities of the registry.

The registry entry of tag ``t`` with kind ``"operator"`` (declared in
:mod:`homalt.identities`) is evaluated by ``_ev_t`` here.  The two sides of
each equation pair are right operators of :mod:`homalt.operators`; the long
chains of the Mikheev operator identity are built by :func:`_mikheev_chain`,
:func:`_d_term` and :func:`_e_term`.  This module imports only
:mod:`homalt.homalgebra` and :mod:`homalt.operators`; the entry imports it
when it is first evaluated.
"""

from __future__ import annotations

from .homalgebra import Element, HomAlgebra
from .operators import RightOp, alpha_op, compose, op_sub, op_sup, right_mul_op, zero_op


def _ev_eq1(A, xs):
    (a,) = xs
    lhs = compose(right_mul_op(A, a), right_mul_op(A, A.twist_apply(a)))
    rhs = compose(alpha_op(A, 1), right_mul_op(A, A.mul(a, a)))
    return [(lhs, rhs)]

def _ev_eq2(A, xs):
    a, b = xs
    lhs = compose(
        right_mul_op(A, a),
        right_mul_op(A, A.twist_apply(b)),
        right_mul_op(A, A.shift(a, 2)),
    )
    rhs = compose(
        alpha_op(A, 2), right_mul_op(A, A.mul(A.mul(a, b), A.twist_apply(a)))
    )
    return [(lhs, rhs)]

def _ev_eq2p(A, xs):
    a, b, c = xs
    lhs = compose(
        right_mul_op(A, a), right_mul_op(A, A.twist_apply(b)), right_mul_op(A, A.shift(c, 2))
    ) + compose(
        right_mul_op(A, c), right_mul_op(A, A.twist_apply(b)), right_mul_op(A, A.shift(a, 2))
    )
    inner = A.mul(A.mul(a, b), A.twist_apply(c)) + A.mul(A.mul(c, b), A.twist_apply(a))
    rhs = compose(alpha_op(A, 2), right_mul_op(A, inner))
    return [(lhs, rhs)]

def _ev_eq3a(A, xs):
    (a,) = xs
    return [(op_sup(A, a, a), zero_op(A.dim))]

def _ev_eq3b(A, xs):
    a, b = xs
    return [(op_sup(A, a, b) + op_sup(A, b, a), zero_op(A.dim))]

def _ev_eq5(A, xs):
    a, b = xs
    lhs = compose(op_sup(A, a, b), op_sub(A, A.shift(a, 2), A.shift(b, 2)))
    return [(lhs, zero_op(A.dim))]

def _ev_eq5p(A, xs):
    a, b, c = xs
    lhs = compose(op_sup(A, a, b), op_sub(A, A.shift(a, 2), A.shift(c, 2))) + compose(
        op_sup(A, a, c), op_sub(A, A.shift(a, 2), A.shift(b, 2))
    )
    return [(lhs, zero_op(A.dim))]

def _ev_eq6(A, xs):
    a, b = xs
    lhs = compose(op_sub(A, a, b), op_sup(A, A.shift(a, 2), A.shift(b, 2)))
    inner = A.hom_associator(A.commutator(a, b), A.twist_apply(a), A.twist_apply(b))
    rhs = -compose(alpha_op(A, 3), right_mul_op(A, inner))
    return [(lhs, rhs)]

def _ev_eq7(A, xs):
    a, b = xs
    lhs = compose(
        op_sub(A, a, b),
        right_mul_op(A, A.shift(a, 2)),
        op_sup(A, A.shift(a, 3), A.shift(b, 3)),
    )
    inner = A.hom_associator(
        A.mul(A.commutator(a, b), A.twist_apply(a)), A.shift(a, 2), A.shift(b, 2)
    )
    rhs = -compose(alpha_op(A, 4), right_mul_op(A, inner))
    return [(lhs, rhs)]

def _ev_eq10(A, xs):
    a, b = xs
    p = A.hom_associator(a, a, b)
    ba = A.mul(b, a)
    pairs = []
    for k in range(3):
        lhs = compose(alpha_op(A, 2), right_mul_op(A, A.shift(p, k)))
        rhs = compose(
            alpha_op(A, 1), op_sup(A, A.shift(a, k + 1), A.shift(ba, k))
        ) - compose(
            right_mul_op(A, A.shift(a, k)),
            op_sup(A, A.shift(a, k + 1), A.shift(b, k + 1)),
        )
        pairs.append((lhs, rhs))
    return pairs

def _ev_eq10p(A, xs):
    a, b = xs
    p = A.hom_associator(a, a, b)
    ba = A.mul(b, a)
    pairs = []
    for k in range(3):
        lhs = compose(alpha_op(A, 2), right_mul_op(A, A.shift(p, k)))
        rhs = compose(
            alpha_op(A, 1), op_sub(A, A.shift(a, k + 1), A.shift(ba, k))
        ) - compose(
            op_sub(A, A.shift(a, k), A.shift(b, k)),
            right_mul_op(A, A.shift(a, k + 2)),
        )
        pairs.append((lhs, rhs))
    return pairs


def _mikheev_chain(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    """The product ``a^b p' p_1' p_2' alpha^6`` with ``p = (a, a, b)``."""
    p = A.hom_associator(a, a, b)
    return compose(
        op_sup(A, a, b),
        right_mul_op(A, p),
        right_mul_op(A, A.shift(p, 1)),
        right_mul_op(A, A.shift(p, 2)),
        alpha_op(A, 6),
    )

def _d_term(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    ba = A.mul(b, a)
    return -compose(
        op_sup(A, a, b),
        alpha_op(A, 1),
        op_sub(A, A.shift(a, 3), A.shift(ba, 2)),
        alpha_op(A, 1),
        op_sup(A, A.shift(a, 6), A.shift(ba, 5)),
        op_sub(A, A.shift(a, 8), A.shift(b, 8)),
        right_mul_op(A, A.shift(a, 10)),
    )

def _e_term(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    ba = A.mul(b, a)
    return -compose(
        op_sup(A, a, b),
        alpha_op(A, 1),
        op_sub(A, A.shift(a, 3), A.shift(ba, 2)),
        right_mul_op(A, A.shift(a, 5)),
        op_sup(A, A.shift(a, 6), A.shift(b, 6)),
        alpha_op(A, 1),
        op_sub(A, A.shift(a, 9), A.shift(ba, 8)),
    )

def _ev_dpe(A, xs):
    a, b = xs
    return [(_mikheev_chain(A, a, b), _d_term(A, a, b) + _e_term(A, a, b))]

def _ev_d0(A, xs):
    a, b = xs
    return [(_d_term(A, a, b), zero_op(A.dim))]

def _ev_e0(A, xs):
    a, b = xs
    return [(_e_term(A, a, b), zero_op(A.dim))]

def _ev_prop(A, xs):
    a, b = xs
    return [(_mikheev_chain(A, a, b), zero_op(A.dim))]
