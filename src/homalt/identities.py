"""The identity registry: each entry declared once, with its hypotheses.

An entry's evaluator ``_ev_<tag>`` lives in :mod:`homalt.element_laws` or
:mod:`homalt.operator_laws`, by its kind, and is imported on first use;
:mod:`homalt.proof_replay` checks the hypotheses and runs the strategies.
This module imports only :mod:`homalt.homalgebra`, which every CLI call
loads, so the CLI lists the ``--identity`` choices and catches
:class:`PreconditionError` without loading :mod:`homalt.proof_replay`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, Union

from .homalgebra import _Record

if TYPE_CHECKING:
    from .homalgebra import CheckReport, Element, HomAlgebra, RowTable
    from .operators import RightOp

    Side = Union[Element, RightOp]
    Evaluator = Callable[[HomAlgebra, Sequence[Element], RowTable], list[tuple[Side, Side]]]


class PreconditionError(Exception):
    """An identity was requested on an algebra outside its hypothesis class."""

    def __init__(self, tag: str, requirement: str, report: CheckReport):
        self.tag = tag
        self.requirement = requirement
        self.report = report
        super().__init__(f"precondition for {tag!r} not satisfied: algebra is not {requirement}")


class IdentityInstance(_Record):
    """One verifiable identity.

    ``requires`` lists the hypotheses under which it is a theorem, in
    checking order: ``"multiplicative"``, ``"right-alt"`` (right
    Hom-alternative), ``"weak-morphism"`` (the map ``beta`` of ``beta2`` is a
    weak morphism).  ``evaluate`` returns equation pairs (one per shift for
    the shift-indexed entries), by default those of ``_ev_<tag>`` in the laws
    module its ``kind`` names.  ``elem_degree`` (the total degree in element
    coordinates) and ``map_weight`` (a conservative count of product/twist
    applications) give the random strategy's degree bound.
    """

    __slots__ = (
        "tag", "label", "var_names", "kind", "requires", "elem_degree", "map_weight", "_evaluate",
    )
    _fields = __slots__[:-1] + ("evaluate",)

    def __init__(self, tag: str, label: str, var_names: tuple[str, ...], kind: str,
                 requires: tuple[str, ...], elem_degree: int, map_weight: int,
                 evaluate: Evaluator | None = None) -> None:
        self.tag = tag
        self.label = label
        self.var_names = var_names
        self.kind = kind  # "element" | "operator"
        self.requires = requires
        self.elem_degree = elem_degree
        self.map_weight = map_weight
        self._evaluate = evaluate

    @property
    def arity(self) -> int:
        return len(self.var_names)

    @property
    def evaluate(self) -> Evaluator:
        if self._evaluate is None:
            if self.kind == "element":
                from . import element_laws as laws
            else:
                from . import operator_laws as laws
            self._evaluate = getattr(laws, f"_ev_{self.tag}")
        return self._evaluate

    @evaluate.setter
    def evaluate(self, fn: Evaluator) -> None:
        self._evaluate = fn

    def degree_bound(self, A: HomAlgebra) -> int:
        return self.elem_degree + self.map_weight * A.twist_entry_degree()


# The hypotheses an entry can require, in checking order.
MULT, RALT, WEAK = "multiplicative", "right-alt", "weak-morphism"

# In registry order: tag, label, variables, kind, hypotheses, element degree,
# map weight.
REGISTRY: tuple[IdentityInstance, ...] = (
    IdentityInstance("xyy", "right alternativity, expanded: (xy)a(y) = a(x)(yy)",
                     ("x", "y"), "element", (), 3, 6),
    IdentityInstance("linearized", "Hom-associator is antisymmetric in its last two slots",
                     ("x", "y", "z"), "element", (RALT,), 3, 6),
    IdentityInstance("teichmuller", "five-term Hom-Teichmuller identity",
                     ("w", "x", "y", "z"), "element", (MULT,), 4, 12),
    IdentityInstance("xyyz", "associator absorption: (a(x), a(y), yz) = (x,y,z) a^2(y)",
                     ("x", "y", "z"), "element", (MULT, RALT), 3, 12),
    IdentityInstance("moufang", "right Hom-Moufang identity",
                     ("x", "y", "z"), "element", (MULT, RALT), 3, 10),
    IdentityInstance("beta2", "twice-twisted associator equals the associator of the twist",
                     ("x", "y", "z"), "element", (WEAK,), 3, 18),
    IdentityInstance("eq1", "operator right alternativity: a'a_1' = alpha (a^2)'",
                     ("a",), "operator", (RALT,), 2, 6),
    IdentityInstance("eq2", "operator right Hom-Moufang: a'b_1'a_2' = alpha^2 ((ab)a_1)'",
                     ("a", "b"), "operator", (MULT, RALT), 3, 12),
    IdentityInstance("eq2p", "linearized operator right Hom-Moufang",
                     ("a", "b", "c"), "operator", (MULT, RALT), 3, 12),
    IdentityInstance("eq3a", "superscript operator vanishes on the diagonal: a^a = 0",
                     ("a",), "operator", (RALT,), 2, 6),
    IdentityInstance("eq3b", "superscript operator is antisymmetric: a^b + b^a = 0",
                     ("a", "b"), "operator", (RALT,), 2, 6),
    IdentityInstance("eq5",
                     "superscript then shifted subscript annihilates: a^b (a_2)_(b_2) = 0",
                     ("a", "b"), "operator", (MULT, RALT), 4, 20),
    IdentityInstance("eq5p", "linearization of the superscript/subscript annihilation",
                     ("a", "b", "c"), "operator", (MULT, RALT), 4, 20),
    IdentityInstance("eq6", "subscript then shifted superscript is a commutator-associator",
                     ("a", "b"), "operator", (MULT, RALT), 4, 20),
    IdentityInstance("eq7", "subscript, right multiplication, then superscript collapses",
                     ("a", "b"), "operator", (MULT, RALT), 5, 28),
    IdentityInstance("eq8", "shifted (a,a,b) annihilates the commutator associator",
                     ("a", "b"), "element", (MULT, RALT), 7, 24),
    IdentityInstance("eq9", "shifted (a,a,b) annihilates the commutator-product associator",
                     ("a", "b"), "element", (MULT, RALT), 8, 28),
    IdentityInstance("eq10",
                     "expansion of alpha^2 p_k' through superscript operators (k = 0,1,2)",
                     ("a", "b"), "operator", (MULT, RALT), 3, 20),
    IdentityInstance("eq10p",
                     "expansion of alpha^2 p_k' through subscript operators (k = 0,1,2)",
                     ("a", "b"), "operator", (MULT, RALT), 3, 20),
    IdentityInstance("dpe", "two-term split of the Mikheev operator chain",
                     ("a", "b"), "operator", (MULT, RALT), 11, 60),
    IdentityInstance("d0", "first split term of the Mikheev operator chain vanishes",
                     ("a", "b"), "operator", (MULT, RALT), 11, 60),
    IdentityInstance("e0", "second split term of the Mikheev operator chain vanishes",
                     ("a", "b"), "operator", (MULT, RALT), 11, 60),
    IdentityInstance("prop", "the Mikheev operator chain a^b p'p_1'p_2' alpha^6 vanishes",
                     ("a", "b"), "operator", (MULT, RALT), 11, 48),
    IdentityInstance("theorem", "twisted Mikheev identity: alpha^6((a,a,b)^4) = 0",
                     ("a", "b"), "element", (MULT, RALT), 12, 24),
    IdentityInstance("mikheev_classical",
                     "Mikheev identity (a,a,b)^4 = 0 (meaningful for injective twists)",
                     ("a", "b"), "element", (MULT, RALT), 12, 12),
)


def registry() -> tuple[IdentityInstance, ...]:
    """All verifiable identities in a stable order."""
    return REGISTRY


def identity_tags() -> list[str]:
    return [inst.tag for inst in REGISTRY]


def get_identity(tag: str) -> IdentityInstance:
    for inst in REGISTRY:
        if inst.tag == tag:
            return inst
    raise ValueError(f"unknown identity {tag!r}")
