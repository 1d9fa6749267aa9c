"""The identity registry's data rows, without their evaluators.

This module imports no other homalt module, so the CLI can list the
``--identity`` choices and catch :class:`PreconditionError` without loading
:mod:`homalt.proof_replay` and :mod:`homalt.operators`.
:mod:`homalt.proof_replay` builds its registry from these rows, pairing the
row of tag ``t`` with the evaluator ``_ev_t``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .homalgebra import CheckReport


class PreconditionError(Exception):
    """An identity was requested on an algebra outside its hypothesis class."""

    def __init__(self, tag: str, requirement: str, report: CheckReport):
        self.tag = tag
        self.requirement = requirement
        self.report = report
        super().__init__(f"precondition for {tag!r} not satisfied: algebra is not {requirement}")


# tag, label, variable names, kind, needs multiplicative, needs right
# Hom-alternative, element degree, map weight -- in registry order.
ROWS: tuple[tuple[str, str, tuple[str, ...], str, bool, bool, int, int], ...] = (
    ("xyy", "right alternativity, expanded: (xy)a(y) = a(x)(yy)",
     ("x", "y"), "element", False, False, 3, 6),
    ("linearized", "Hom-associator is antisymmetric in its last two slots",
     ("x", "y", "z"), "element", False, True, 3, 6),
    ("teichmuller", "five-term Hom-Teichmuller identity",
     ("w", "x", "y", "z"), "element", True, False, 4, 12),
    ("xyyz", "associator absorption: (a(x), a(y), yz) = (x,y,z) a^2(y)",
     ("x", "y", "z"), "element", True, True, 3, 12),
    ("moufang", "right Hom-Moufang identity",
     ("x", "y", "z"), "element", True, True, 3, 10),
    ("beta2", "twice-twisted associator equals the associator of the twist",
     ("x", "y", "z"), "element", False, False, 3, 18),
    ("eq1", "operator right alternativity: a'a_1' = alpha (a^2)'",
     ("a",), "operator", False, True, 2, 6),
    ("eq2", "operator right Hom-Moufang: a'b_1'a_2' = alpha^2 ((ab)a_1)'",
     ("a", "b"), "operator", True, True, 3, 12),
    ("eq2p", "linearized operator right Hom-Moufang",
     ("a", "b", "c"), "operator", True, True, 3, 12),
    ("eq3a", "superscript operator vanishes on the diagonal: a^a = 0",
     ("a",), "operator", False, True, 2, 6),
    ("eq3b", "superscript operator is antisymmetric: a^b + b^a = 0",
     ("a", "b"), "operator", False, True, 2, 6),
    ("eq5", "superscript then shifted subscript annihilates: a^b (a_2)_(b_2) = 0",
     ("a", "b"), "operator", True, True, 4, 20),
    ("eq5p", "linearization of the superscript/subscript annihilation",
     ("a", "b", "c"), "operator", True, True, 4, 20),
    ("eq6", "subscript then shifted superscript is a commutator-associator",
     ("a", "b"), "operator", True, True, 4, 20),
    ("eq7", "subscript, right multiplication, then superscript collapses",
     ("a", "b"), "operator", True, True, 5, 28),
    ("eq8", "shifted (a,a,b) annihilates the commutator associator",
     ("a", "b"), "element", True, True, 7, 24),
    ("eq9", "shifted (a,a,b) annihilates the commutator-product associator",
     ("a", "b"), "element", True, True, 8, 28),
    ("eq10", "expansion of alpha^2 p_k' through superscript operators (k = 0,1,2)",
     ("a", "b"), "operator", True, True, 3, 20),
    ("eq10p", "expansion of alpha^2 p_k' through subscript operators (k = 0,1,2)",
     ("a", "b"), "operator", True, True, 3, 20),
    ("dpe", "two-term split of the Mikheev operator chain",
     ("a", "b"), "operator", True, True, 11, 60),
    ("d0", "first split term of the Mikheev operator chain vanishes",
     ("a", "b"), "operator", True, True, 11, 60),
    ("e0", "second split term of the Mikheev operator chain vanishes",
     ("a", "b"), "operator", True, True, 11, 60),
    ("prop", "the Mikheev operator chain a^b p'p_1'p_2' alpha^6 vanishes",
     ("a", "b"), "operator", True, True, 11, 48),
    ("theorem", "twisted Mikheev identity: alpha^6((a,a,b)^4) = 0",
     ("a", "b"), "element", True, True, 12, 24),
    ("mikheev_classical", "Mikheev identity (a,a,b)^4 = 0 (meaningful for injective twists)",
     ("a", "b"), "element", True, True, 12, 12),
)
