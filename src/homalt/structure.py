"""Structural checks and element tests that no registry check runs.

:func:`is_left_hom_alternative` scans ``(x, x, y) = 0`` on basis triples
the way :func:`homalt.homalgebra.is_right_hom_alternative` scans the right
law, and :func:`is_morphism` adds the twist condition to a weak-morphism
scan; both report the first failing basis tuple, which
:func:`homalt.homalgebra.replay_structural_witness` recomputes.
:func:`is_hom_nilpotent` and :func:`basis_left_zero_divisors` test single
elements and basis products.  Only the calls that run them import this
module (``homalt check --identity left-alt|morphism``).
"""

from __future__ import annotations

from .homalgebra import (
    FAILS,
    HOLDS,
    CheckReport,
    Element,
    HomAlgebra,
    RowsLike,
    Witness,
    _add_associator,
    _by_left,
    _first_failure,
    _hom_powers,
    apply_rows,
    is_weak_morphism,
    normalize_rows,
)
from .scalars import Scalar


def is_left_hom_alternative(A: HomAlgebra) -> CheckReport:
    """Check ``(x, x, y) = 0`` via its linearization on all basis triples.

    The linearized form ``(x,y,z) + (y,x,z)`` is symmetric in its first two
    slots, so only triples with ``i <= j`` are scanned.
    """
    by_left = _by_left(A.mu)

    def values():
        for i in range(A.dim):
            for j in range(i, A.dim):
                for k in range(A.dim):
                    acc: dict[int, Scalar] = {}
                    _add_associator(acc, A, by_left, i, j, k)
                    if i != j:
                        _add_associator(acc, A, by_left, j, i, k)
                    yield (i, j, k), acc

    return _first_failure("left-alt", A.dim, values())


def is_morphism(A: HomAlgebra, B: HomAlgebra, f: RowsLike) -> CheckReport:
    """Weak morphism that also intertwines the twisting maps."""
    report = is_weak_morphism(A, B, f)
    if report.status == FAILS:
        return CheckReport("morphism", FAILS, "basis", witness=report.witness)
    rows = normalize_rows(A.dim, f)
    for i in range(A.dim):
        e = A.basis_element(i)
        diff = apply_rows(rows, A.twist_apply(e)) - B.twist_apply(apply_rows(rows, e))
        if not diff.is_zero():
            return CheckReport(
                "morphism", FAILS, "basis",
                witness=Witness(element=diff, basis=(i,)),
            )
    return CheckReport("morphism", HOLDS, "basis")


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
