"""Right-operator calculus for Hom-algebras.

Operators act on the *right* of elements and compositions read left to
right: ``apply(x, compose(M, N)) == apply(apply(x, M), N)``.  Concretely an
operator is a sparse matrix whose row ``i`` holds the image of the basis
element ``e_i``, so application is a row-vector/matrix product and
``compose(M, N)`` is the ordinary matrix product ``M @ N``.  Getting this
orientation wrong silently transposes every identity below, so the tests pin
it down explicitly.

The derived operators are the two bracketed right multiplications

    x . sup(a, b)  =  alpha(x) (ab) - (xa) alpha(b)   (= -(x, a, b))
    x . sub(a, b)  =  alpha(x) (ab) - (xb) alpha(a)

written ``a^b`` and ``a_b`` in superscript/subscript notation, together with
plain right multiplication ``a'`` and powers of the twisting map, which
``alpha_op`` reads from the algebra's table (``HomAlgebra.twist_power``).
``op_sup`` and ``op_sub`` share one body, written on the algebra's own
operations.  ``RightOp`` normalizes the table it stores, once.

The evaluators reach these functions through the methods of the same names
on :class:`~homalt.homalgebra.HomAlgebra`, which look each one up here when
they run and import this module on first use.
"""

from __future__ import annotations

from .homalgebra import (
    Element,
    HomAlgebra,
    RowsLike,
    _Record,
    _image,
    _same_dim,
    _sparse,
    apply_rows,
    compose_rows,
    normalize_rows,
)
from .scalars import Scalar


class RightOp(_Record):
    """Linear operator acting on the right, stored as sparse rows."""

    def __init__(self, dim: int, rows: RowsLike) -> None:
        self.dim = dim
        self.rows = normalize_rows(dim, rows, "operator")

    def is_zero(self) -> bool:
        return not self.rows

    def entry(self, i: int, j: int) -> Scalar:
        for k, c in self.rows.get(i, ()):
            if k == j:
                return c
        return 0

    def __add__(self, other: "RightOp") -> "RightOp":
        return self._merge(other, negate=False)

    def __sub__(self, other: "RightOp") -> "RightOp":
        return self._merge(other, negate=True)

    def _merge(self, other: "RightOp", negate: bool) -> "RightOp":
        """``self + other``, or ``self - other`` when ``negate``: the two row
        tables side by side, which the constructor sums where they overlap."""
        _same_dim(self, other)
        rows = dict(self.rows)
        for i, row in other.rows.items():
            rows[i] = rows.get(i, ()) + (tuple((k, -c) for k, c in row) if negate else row)
        return RightOp(self.dim, rows)

    def __neg__(self) -> "RightOp":
        return RightOp(
            self.dim, {i: tuple((k, -c) for k, c in row) for i, row in self.rows.items()}
        )


def apply(x: Element, op: RightOp) -> Element:
    """Right action: the image of x under op."""
    if x.dim != op.dim:
        raise ValueError("dimension mismatch between element and operator")
    return apply_rows(op.rows, x)


def compose(*ops: RightOp) -> RightOp:
    """Left-to-right composition: the first operator is applied first."""
    if not ops:
        raise ValueError("compose needs at least one operator")
    result = ops[0]
    for op in ops[1:]:
        _same_dim(result, op)
        result = RightOp(result.dim, compose_rows(result.rows, op.rows))
    return result


def right_mul_op(A: HomAlgebra, a: Element) -> RightOp:
    """Right multiplication ``x -> xa`` as a matrix: row i, ``e_i a``, is the
    image of ``a`` under the index row of ``mu`` for left factor ``e_i``."""
    if a.dim != A.dim:
        raise ValueError("dimension mismatch between element and algebra")
    v = _sparse(a)
    return RightOp(A.dim, {i: _image(left, v) for i, left in A._left_mu.items()})


def alpha_op(A: HomAlgebra, n: int) -> RightOp:
    """The n-th power of the twisting map as a right operator (n >= 0),
    read from the algebra's table of twist powers."""
    return RightOp(A.dim, A.twist_power(n))


def op_sup(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    """Superscript operator ``a^b``: sends x to ``-(x, a, b)``."""
    return _bracket(A, a, b, a, b)


def op_sub(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    """Subscript operator ``a_b``: sends x to ``alpha(x)(ab) - (xb) alpha(a)``."""
    return _bracket(A, a, b, b, a)


def _bracket(A: HomAlgebra, a: Element, b: Element, u: Element, v: Element) -> RightOp:
    """``x -> alpha(x)(ab) - (xu) alpha(v)``, on the operations of A."""
    ab = A.right_mul_op(A.mul(a, b))
    return A.compose(A.alpha_op(1), ab) - A.compose(
        A.right_mul_op(u), A.right_mul_op(A.twist_apply(v))
    )
