"""What each registry entry says: the evaluator ``_ev_<tag>`` of every
entry of :mod:`homalt.proof_replay`, in registry order.

Each evaluator takes the algebra ``A`` and one element per argument and
returns the values of the identity on ``A``, as elements or, for the
operator identities, as right operators: the entry holds at those
arguments exactly when every value is zero.  A value is an equation's left
side minus its right side, or the expression the entry says vanishes.  Its
docstring states the entry, and its parameters after ``A`` name the
arguments: argument ``x`` has the coordinates ``x_1 .. x_dim`` in a
witness.  The long chains of the Mikheev operator identity are built by
:func:`_mikheev_chain`, :func:`_d_term` and :func:`_e_term`.  The
evaluators use only these 11 operations of ``A``:

* on elements: ``mul``, ``twist_apply``, ``shift``, ``hom_associator``,
  ``commutator`` and ``hom_power``;
* the operator calculus: ``right_mul_op``, ``alpha_op``, ``compose``,
  ``op_sup`` and ``op_sub``, whose results are added, subtracted and
  negated with ``+``, ``-`` and unary ``-``.

``beta2`` writes the Yau twist of ``A`` by its own alpha (product
``alpha(uv)``, twist ``alpha^2``) with them.  This module imports nothing,
so any object with these operations can evaluate an entry.  On a
:class:`~homalt.homalgebra.HomAlgebra` the operator calculus loads
:mod:`homalt.operators` on first use, so an element entry never loads it.
"""


def _ev_xyy(A, x, y):
    """right alternativity, expanded: (xy)a(y) = a(x)(yy)"""
    return [A.mul(A.mul(x, y), A.twist_apply(y)) - A.mul(A.twist_apply(x), A.mul(y, y))]

def _ev_linearized(A, x, y, z):
    """Hom-associator is antisymmetric in its last two slots"""
    return [A.hom_associator(x, y, z) + A.hom_associator(x, z, y)]

def _ev_teichmuller(A, w, x, y, z):
    """five-term Hom-Teichmuller identity"""
    aw, ax, ay, az = (A.twist_apply(v) for v in (w, x, y, z))
    total = (
        A.hom_associator(A.mul(w, x), ay, az)
        - A.hom_associator(aw, A.mul(x, y), az)
        + A.hom_associator(aw, ax, A.mul(y, z))
        - A.mul(A.shift(w, 2), A.hom_associator(x, y, z))
        - A.mul(A.hom_associator(w, x, y), A.shift(z, 2))
    )
    return [total]

def _ev_xyyz(A, x, y, z):
    """associator absorption: (a(x), a(y), yz) = (x,y,z) a^2(y)"""
    return [A.hom_associator(A.twist_apply(x), A.twist_apply(y), A.mul(y, z))
            - A.mul(A.hom_associator(x, y, z), A.shift(y, 2))]

def _ev_moufang(A, x, y, z):
    """right Hom-Moufang identity"""
    return [A.mul(A.mul(A.mul(x, y), A.twist_apply(z)), A.shift(y, 2))
            - A.mul(A.shift(x, 2), A.mul(A.mul(y, z), A.twist_apply(y)))]

def _ev_beta2(A, x, y, z):
    """twice-twisted associator equals the associator of the twist"""
    def twisted(u, v):  # the product alpha(uv) of the Yau twist by alpha
        return A.twist_apply(A.mul(u, v))
    return [A.shift(A.hom_associator(x, y, z), 2)
            - (twisted(twisted(x, y), A.shift(z, 2)) - twisted(A.shift(x, 2), twisted(y, z)))]

def _ev_eq1(A, a):
    """operator right alternativity: a'a_1' = alpha (a^2)'"""
    return [A.compose(A.right_mul_op(a), A.right_mul_op(A.twist_apply(a)))
            - A.compose(A.alpha_op(1), A.right_mul_op(A.mul(a, a)))]

def _ev_eq2(A, a, b):
    """operator right Hom-Moufang: a'b_1'a_2' = alpha^2 ((ab)a_1)'"""
    chain = A.compose(
        A.right_mul_op(a),
        A.right_mul_op(A.twist_apply(b)),
        A.right_mul_op(A.shift(a, 2)),
    )
    inner = A.mul(A.mul(a, b), A.twist_apply(a))
    return [chain - A.compose(A.alpha_op(2), A.right_mul_op(inner))]

def _ev_eq2p(A, a, b, c):
    """linearized operator right Hom-Moufang"""
    chains = A.compose(
        A.right_mul_op(a), A.right_mul_op(A.twist_apply(b)), A.right_mul_op(A.shift(c, 2))
    ) + A.compose(
        A.right_mul_op(c), A.right_mul_op(A.twist_apply(b)), A.right_mul_op(A.shift(a, 2))
    )
    inner = A.mul(A.mul(a, b), A.twist_apply(c)) + A.mul(A.mul(c, b), A.twist_apply(a))
    return [chains - A.compose(A.alpha_op(2), A.right_mul_op(inner))]

def _ev_eq3a(A, a):
    """superscript operator vanishes on the diagonal: a^a = 0"""
    return [A.op_sup(a, a)]

def _ev_eq3b(A, a, b):
    """superscript operator is antisymmetric: a^b + b^a = 0"""
    return [A.op_sup(a, b) + A.op_sup(b, a)]

def _ev_eq5(A, a, b):
    """superscript then shifted subscript annihilates: a^b (a_2)_(b_2) = 0"""
    return [A.compose(A.op_sup(a, b), A.op_sub(A.shift(a, 2), A.shift(b, 2)))]

def _ev_eq5p(A, a, b, c):
    """linearization of the superscript/subscript annihilation"""
    return [A.compose(A.op_sup(a, b), A.op_sub(A.shift(a, 2), A.shift(c, 2))) + A.compose(
        A.op_sup(a, c), A.op_sub(A.shift(a, 2), A.shift(b, 2))
    )]

def _ev_eq6(A, a, b):
    """subscript then shifted superscript is a commutator-associator"""
    chain = A.compose(A.op_sub(a, b), A.op_sup(A.shift(a, 2), A.shift(b, 2)))
    inner = A.hom_associator(A.commutator(a, b), A.twist_apply(a), A.twist_apply(b))
    return [chain + A.compose(A.alpha_op(3), A.right_mul_op(inner))]

def _ev_eq7(A, a, b):
    """subscript, right multiplication, then superscript collapses"""
    chain = A.compose(
        A.op_sub(a, b),
        A.right_mul_op(A.shift(a, 2)),
        A.op_sup(A.shift(a, 3), A.shift(b, 3)),
    )
    inner = A.hom_associator(
        A.mul(A.commutator(a, b), A.twist_apply(a)), A.shift(a, 2), A.shift(b, 2)
    )
    return [chain + A.compose(A.alpha_op(4), A.right_mul_op(inner))]

def _ev_eq8(A, a, b):
    """shifted (a,a,b) annihilates the commutator associator"""
    p3 = A.shift(A.hom_associator(a, a, b), 3)
    inner = A.hom_associator(
        A.commutator(A.shift(a, 2), A.shift(b, 2)), A.shift(a, 3), A.shift(b, 3)
    )
    return [A.mul(p3, inner)]

def _ev_eq9(A, a, b):
    """shifted (a,a,b) annihilates the commutator-product associator"""
    p4 = A.shift(A.hom_associator(a, a, b), 4)
    inner = A.hom_associator(
        A.mul(A.commutator(A.shift(a, 2), A.shift(b, 2)), A.shift(a, 3)),
        A.shift(a, 4),
        A.shift(b, 4),
    )
    return [A.mul(p4, inner)]

def _ev_eq10(A, a, b):
    """expansion of alpha^2 p_k' through superscript operators (k = 0,1,2)"""
    p = A.hom_associator(a, a, b)
    ba = A.mul(b, a)
    values = []
    for k in range(3):
        expansion = A.compose(
            A.alpha_op(1), A.op_sup(A.shift(a, k + 1), A.shift(ba, k))
        ) - A.compose(
            A.right_mul_op(A.shift(a, k)),
            A.op_sup(A.shift(a, k + 1), A.shift(b, k + 1)),
        )
        values.append(A.compose(A.alpha_op(2), A.right_mul_op(A.shift(p, k))) - expansion)
    return values

def _ev_eq10p(A, a, b):
    """expansion of alpha^2 p_k' through subscript operators (k = 0,1,2)"""
    p = A.hom_associator(a, a, b)
    ba = A.mul(b, a)
    values = []
    for k in range(3):
        expansion = A.compose(
            A.alpha_op(1), A.op_sub(A.shift(a, k + 1), A.shift(ba, k))
        ) - A.compose(
            A.op_sub(A.shift(a, k), A.shift(b, k)),
            A.right_mul_op(A.shift(a, k + 2)),
        )
        values.append(A.compose(A.alpha_op(2), A.right_mul_op(A.shift(p, k))) - expansion)
    return values


def _mikheev_chain(A, a, b):
    """The product ``a^b p' p_1' p_2' alpha^6`` with ``p = (a, a, b)``."""
    p = A.hom_associator(a, a, b)
    return A.compose(
        A.op_sup(a, b),
        A.right_mul_op(p),
        A.right_mul_op(A.shift(p, 1)),
        A.right_mul_op(A.shift(p, 2)),
        A.alpha_op(6),
    )

def _d_term(A, a, b):
    ba = A.mul(b, a)
    return -A.compose(
        A.op_sup(a, b),
        A.alpha_op(1),
        A.op_sub(A.shift(a, 3), A.shift(ba, 2)),
        A.alpha_op(1),
        A.op_sup(A.shift(a, 6), A.shift(ba, 5)),
        A.op_sub(A.shift(a, 8), A.shift(b, 8)),
        A.right_mul_op(A.shift(a, 10)),
    )

def _e_term(A, a, b):
    ba = A.mul(b, a)
    return -A.compose(
        A.op_sup(a, b),
        A.alpha_op(1),
        A.op_sub(A.shift(a, 3), A.shift(ba, 2)),
        A.right_mul_op(A.shift(a, 5)),
        A.op_sup(A.shift(a, 6), A.shift(b, 6)),
        A.alpha_op(1),
        A.op_sub(A.shift(a, 9), A.shift(ba, 8)),
    )

def _ev_dpe(A, a, b):
    """two-term split of the Mikheev operator chain"""
    return [_mikheev_chain(A, a, b) - (_d_term(A, a, b) + _e_term(A, a, b))]

def _ev_d0(A, a, b):
    """first split term of the Mikheev operator chain vanishes"""
    return [_d_term(A, a, b)]

def _ev_e0(A, a, b):
    """second split term of the Mikheev operator chain vanishes"""
    return [_e_term(A, a, b)]

def _ev_prop(A, a, b):
    """the Mikheev operator chain a^b p'p_1'p_2' alpha^6 vanishes"""
    return [_mikheev_chain(A, a, b)]

def _ev_theorem(A, a, b):
    """twisted Mikheev identity: alpha^6((a,a,b)^4) = 0"""
    return [A.shift(A.hom_power(A.hom_associator(a, a, b), 4), 6)]

def _ev_mikheev_classical(A, a, b):
    """Mikheev identity (a,a,b)^4 = 0 (meaningful for injective twists)"""
    return [A.hom_power(A.hom_associator(a, a, b), 4)]
