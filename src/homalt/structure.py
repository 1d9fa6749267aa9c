"""Structural checks and element tests that no registry check runs.

:func:`is_left_hom_alternative` is the triple scan of
:mod:`homalt.homalgebra` with the symmetric pair in slots 0-1; its body is
shared with :func:`homalt.homalgebra.is_right_hom_alternative`.
:func:`is_morphism` follows the weak-morphism pair scan with a table scan of
``f(alpha(e_i)) = alpha(f(e_i))``.  Both report the first failing basis
tuple, which :func:`homalt.homalgebra.replay_structural_witness` recomputes.
:func:`is_hom_nilpotent` and :func:`basis_left_zero_divisors` test single
elements and basis products.  Only the calls that run them import this
module (``homalt check --identity left-alt|morphism``).
"""

from __future__ import annotations

from .homalgebra import (
    FAILS,
    CheckReport,
    Element,
    HomAlgebra,
    RowsLike,
    _add_image,
    _alternativity_scan,
    _first_failure,
    _hom_powers,
    _read_rows,
    is_weak_morphism,
)
from .scalars import Scalar


def is_left_hom_alternative(A: HomAlgebra) -> CheckReport:
    """Check ``(x, x, y) = 0`` on basis triples (see ``homalgebra._alternativity_scan``)."""
    return _alternativity_scan(A, "left-alt")


def is_morphism(A: HomAlgebra, B: HomAlgebra, f: RowsLike) -> CheckReport:
    """Weak morphism that also intertwines the twisting maps:
    ``f(alpha_A(e_i)) = alpha_B(f(e_i))`` on every basis index.  ``f`` is
    read once and normalized once, by :func:`is_weak_morphism`; the twist
    scan reads the rows as given."""
    rows = _read_rows(f)
    report = is_weak_morphism(A, B, rows)
    if report.status == FAILS:
        return CheckReport("morphism", FAILS, "basis", witness=report.witness)

    def values():
        for i in range(A.dim):
            acc: dict[int, Scalar] = {}
            _add_image(acc, rows, A.alpha.get(i, ()))
            _add_image(acc, B.alpha, tuple((a, -c) for a, c in rows.get(i, ())))
            yield (i,), acc

    return _first_failure("morphism", A.dim, values())


def is_hom_nilpotent(A: HomAlgebra, x: Element, nmax: int) -> int | None:
    """Least ``2 <= n <= nmax`` with ``x^n = 0`` for nonzero x, else None."""
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    if x.is_zero():
        return None
    for n, power in _hom_powers(A, x, nmax):
        if power.is_zero():
            return n
    return None


def basis_left_zero_divisors(A: HomAlgebra) -> list[int]:
    """Basis indices i with ``e_i e_j = 0`` for at least one basis j.

    Sound witnesses for left zero-divisors among basis elements; the scan
    only considers basis pairs, so it is not a complete zero-divisor test.
    """
    out = []
    for i in range(A.dim):
        if any((i, j) not in A.mu for j in range(A.dim)):
            out.append(i)
    return out
