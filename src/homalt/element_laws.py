"""Evaluators of the element identities of the registry.

The registry entry of tag ``t`` with kind ``"element"`` (declared in
:mod:`homalt.identities`) is evaluated by ``_ev_t`` here.  Each evaluator
takes the algebra and the argument elements and returns the equation pairs
of the identity on that algebra as elements.  The evaluators use only the
algebra's operations ``mul``, ``twist_apply``, ``shift``,
``hom_associator``, ``commutator``, ``zero`` and ``hom_power``: ``beta2``
writes the Yau twist of the algebra by its own alpha (product
``alpha(uv)``, twist ``alpha^2``) with them.  This module imports nothing,
so the entry that loads it, when it is first evaluated, loads neither
:mod:`homalt.operators` nor :mod:`homalt.proof_replay`.
"""


def _ev_xyy(A, xs):
    x, y = xs
    lhs = A.mul(A.mul(x, y), A.twist_apply(y))
    rhs = A.mul(A.twist_apply(x), A.mul(y, y))
    return [(lhs, rhs)]

def _ev_linearized(A, xs):
    x, y, z = xs
    return [(A.hom_associator(x, y, z), -A.hom_associator(x, z, y))]

def _ev_teichmuller(A, xs):
    w, x, y, z = xs
    aw, ax, ay, az = (A.twist_apply(v) for v in xs)
    total = (
        A.hom_associator(A.mul(w, x), ay, az)
        - A.hom_associator(aw, A.mul(x, y), az)
        + A.hom_associator(aw, ax, A.mul(y, z))
        - A.mul(A.shift(w, 2), A.hom_associator(x, y, z))
        - A.mul(A.hom_associator(w, x, y), A.shift(z, 2))
    )
    return [(total, A.zero())]

def _ev_xyyz(A, xs):
    x, y, z = xs
    lhs = A.hom_associator(A.twist_apply(x), A.twist_apply(y), A.mul(y, z))
    rhs = A.mul(A.hom_associator(x, y, z), A.shift(y, 2))
    return [(lhs, rhs)]

def _ev_moufang(A, xs):
    x, y, z = xs
    lhs = A.mul(A.mul(A.mul(x, y), A.twist_apply(z)), A.shift(y, 2))
    rhs = A.mul(A.shift(x, 2), A.mul(A.mul(y, z), A.twist_apply(y)))
    return [(lhs, rhs)]

def _ev_beta2(A, xs):
    x, y, z = xs
    def twisted(u, v):  # the product alpha(uv) of the Yau twist by alpha
        return A.twist_apply(A.mul(u, v))
    lhs = A.shift(A.hom_associator(x, y, z), 2)
    rhs = twisted(twisted(x, y), A.shift(z, 2)) - twisted(A.shift(x, 2), twisted(y, z))
    return [(lhs, rhs)]

def _ev_eq8(A, xs):
    a, b = xs
    p3 = A.shift(A.hom_associator(a, a, b), 3)
    inner = A.hom_associator(
        A.commutator(A.shift(a, 2), A.shift(b, 2)), A.shift(a, 3), A.shift(b, 3)
    )
    return [(A.mul(p3, inner), A.zero())]

def _ev_eq9(A, xs):
    a, b = xs
    p4 = A.shift(A.hom_associator(a, a, b), 4)
    inner = A.hom_associator(
        A.mul(A.commutator(A.shift(a, 2), A.shift(b, 2)), A.shift(a, 3)),
        A.shift(a, 4),
        A.shift(b, 4),
    )
    return [(A.mul(p4, inner), A.zero())]

def _ev_theorem(A, xs):
    a, b = xs
    return [(A.shift(A.hom_power(A.hom_associator(a, a, b), 4), 6), A.zero())]

def _ev_mikheev_classical(A, xs):
    a, b = xs
    return [(A.hom_power(A.hom_associator(a, a, b), 4), A.zero())]
