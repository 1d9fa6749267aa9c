"""The identity registry: each entry declared once, with its hypotheses.

What an entry says is its evaluator ``_ev_<tag>`` in :mod:`homalt.laws`,
read on first use; how it is checked, the hypotheses and the strategies,
is :mod:`homalt.proof_replay`.
An entry also owns its arguments: their coordinates as variables, and the
two routes every strategy evaluates it by, on generic arguments
(:meth:`IdentityInstance.generic_pairs`) or at a point
(:meth:`IdentityInstance.pairs_at`).
This module imports only :mod:`homalt.homalgebra` and :mod:`homalt.scalars`,
so the CLI lists the ``--identity`` choices without loading
:mod:`homalt.proof_replay`; :class:`PreconditionError` is a ValueError, so
no other CLI call loads this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from .homalgebra import Element, HomAlgebra, _Record, substitute_params
from .scalars import Poly, degree

if TYPE_CHECKING:
    from .homalgebra import CheckReport, SparseRow
    from .operators import RightOp
    from .scalars import Rational, Scalar

    Side = Union[Element, RightOp]
    Evaluator = Callable[[HomAlgebra, Sequence[Element]], list[tuple[Side, Side]]]


class PreconditionError(ValueError):
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
    Hom-alternative), ``"weak-morphism"`` (alpha is a weak morphism of the
    algebra, the hypothesis of the Yau-twist lemma ``beta2``; that is
    multiplicativity again, and :mod:`homalt.proof_replay` reads it from
    the multiplicative scan).
    ``evaluate(A, xs)`` returns the equation pairs on ``A`` (one per shift
    for the shift-indexed entries): those of the constructor's ``evaluate``,
    else of ``_ev_<tag>`` in :mod:`homalt.laws`.  Every entry's evaluator
    calls only the operations of ``A`` that :mod:`homalt.laws` lists.
    :meth:`arguments` names the coordinates of each argument on ``A``, and
    :meth:`generic_pairs` and :meth:`pairs_at` run ``evaluate`` on them.
    :meth:`degree_bound`, the random strategy's total-degree bound, is
    derived from one run of ``evaluate``.
    """

    __slots__ = ("tag", "label", "var_names", "requires", "_evaluate")
    _fields = __slots__[:-1] + ("evaluate",)

    def __init__(self, tag: str, label: str, var_names: tuple[str, ...],
                 requires: tuple[str, ...], evaluate: Evaluator | None = None) -> None:
        self.tag = tag
        self.label = label
        self.var_names = var_names
        self.requires = requires
        self._evaluate = evaluate

    @property
    def arity(self) -> int:
        return len(self.var_names)

    @property
    def evaluate(self) -> Evaluator:
        if self._evaluate is None:
            from . import laws

            self._evaluate = getattr(laws, f"_ev_{self.tag}")
        return self._evaluate

    def arguments(self, A: HomAlgebra) -> list[list[str]]:
        """Each argument's coordinates on ``A`` as variables, ``<name>_1 ..
        <name>_dim`` per slot; ValueError at the first slot where one of
        them already names a parameter."""
        out = []
        for v in self.var_names:
            names = [f"{v}_{i + 1}" for i in range(A.dim)]
            clash = set(names) & set(A.params)
            if clash:
                raise ValueError(f"name collision with existing parameters: {sorted(clash)}")
            out.append(names)
        return out

    def variables(self, A: HomAlgebra) -> list[str]:
        """The parameters of ``A``, then every argument coordinate."""
        return list(A.params) + [n for names in self.arguments(A) for n in names]

    def generic_pairs(self, A: HomAlgebra) -> list[tuple[Side, Side]]:
        """The pairs on ``A`` itself at arguments whose coordinates are the
        indeterminates of :meth:`arguments`."""
        return self.evaluate(A, [Element(tuple(map(Poly.variable, names)))
                                 for names in self.arguments(A)])

    def pairs_at(self, A: HomAlgebra, point: Mapping[str, Rational]) -> list[tuple[Side, Side]]:
        """The pairs at a point that gives values to parameters of ``A`` and
        to variables of :meth:`arguments` (a coordinate it omits is 0)."""
        xs = [Element(tuple(point.get(n, 0) for n in names)) for names in self.arguments(A)]
        A_pt = substitute_params(A, {p: point[p] for p in A.params if p in point})
        return self.evaluate(A_pt, xs)

    def degree_bound(self, A: HomAlgebra) -> int:
        """A bound on the total degree, in the parameters of ``A`` and the
        argument coordinates, of every coefficient on either side of each
        pair that ``evaluate`` returns on ``A``: the largest degree on a side
        of the entry evaluated on :func:`_degree_model`."""
        pairs = self.evaluate(*_degree_model(A, self.arity))
        return max((c.degree for pair in pairs for side in pair for c in _coefficients(side)
                    if c != 0), default=0)


class _Degree:
    """Tropical scalar: a bound on the total degree of a nonzero polynomial.
    Sums and differences take the larger bound, products add bounds, a
    nonzero int has degree 0 and int 0 stays an exact zero.  Nothing
    cancels, so a bound stays at or above the degree it stands for."""

    __slots__ = ("degree",)

    def __init__(self, degree: int) -> None:
        self.degree = degree

    def __add__(self, other: object) -> "_Degree":
        if isinstance(other, _Degree):
            return self if self.degree >= other.degree else other
        if isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self) -> "_Degree":
        return self

    def __mul__(self, other: object) -> "_Degree | int":
        if isinstance(other, _Degree):
            return _Degree(self.degree + other.degree)
        if isinstance(other, int):
            return self if other else 0
        return NotImplemented

    __rmul__ = __mul__


def _degree_model(A: HomAlgebra, arity: int) -> tuple[HomAlgebra, list[Element]]:
    """The arguments of an evaluator that tracks degrees on ``A``: a
    1-dimensional algebra over :class:`_Degree` whose product and twist
    carry the largest coefficient degree of ``A.mu`` and ``A.alpha``, and
    ``arity`` arguments of degree 1.  Each coordinate of a value there
    bounds the degree of every coordinate of that value on ``A``."""
    def top(rows: Mapping[object, SparseRow]) -> SparseRow:
        return ((0, _Degree(max((degree(c) for row in rows.values() for _, c in row),
                                default=0))),)

    model = HomAlgebra(1, {(0, 0): top(A.mu)}, {0: top(A.alpha)})
    return model, [Element((_Degree(1),))] * arity


def _coefficients(side: Side) -> list[Scalar]:
    """The coordinates of an element, or the entries of an operator."""
    if isinstance(side, Element):
        return list(side.coords)
    return [c for row in side.rows.values() for _, c in row]


# The hypotheses an entry can require, in checking order.
MULT, RALT, WEAK = "multiplicative", "right-alt", "weak-morphism"

# In registry order: tag, label, variables, hypotheses.  No degree is
# typed here: IdentityInstance.degree_bound derives it from the evaluator.
REGISTRY: tuple[IdentityInstance, ...] = (
    IdentityInstance("xyy", "right alternativity, expanded: (xy)a(y) = a(x)(yy)",
                     ("x", "y"), ()),
    IdentityInstance("linearized", "Hom-associator is antisymmetric in its last two slots",
                     ("x", "y", "z"), (RALT,)),
    IdentityInstance("teichmuller", "five-term Hom-Teichmuller identity",
                     ("w", "x", "y", "z"), (MULT,)),
    IdentityInstance("xyyz", "associator absorption: (a(x), a(y), yz) = (x,y,z) a^2(y)",
                     ("x", "y", "z"), (MULT, RALT)),
    IdentityInstance("moufang", "right Hom-Moufang identity",
                     ("x", "y", "z"), (MULT, RALT)),
    IdentityInstance("beta2", "twice-twisted associator equals the associator of the twist",
                     ("x", "y", "z"), (WEAK,)),
    IdentityInstance("eq1", "operator right alternativity: a'a_1' = alpha (a^2)'",
                     ("a",), (RALT,)),
    IdentityInstance("eq2", "operator right Hom-Moufang: a'b_1'a_2' = alpha^2 ((ab)a_1)'",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq2p", "linearized operator right Hom-Moufang",
                     ("a", "b", "c"), (MULT, RALT)),
    IdentityInstance("eq3a", "superscript operator vanishes on the diagonal: a^a = 0",
                     ("a",), (RALT,)),
    IdentityInstance("eq3b", "superscript operator is antisymmetric: a^b + b^a = 0",
                     ("a", "b"), (RALT,)),
    IdentityInstance("eq5",
                     "superscript then shifted subscript annihilates: a^b (a_2)_(b_2) = 0",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq5p", "linearization of the superscript/subscript annihilation",
                     ("a", "b", "c"), (MULT, RALT)),
    IdentityInstance("eq6", "subscript then shifted superscript is a commutator-associator",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq7", "subscript, right multiplication, then superscript collapses",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq8", "shifted (a,a,b) annihilates the commutator associator",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq9", "shifted (a,a,b) annihilates the commutator-product associator",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq10",
                     "expansion of alpha^2 p_k' through superscript operators (k = 0,1,2)",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("eq10p",
                     "expansion of alpha^2 p_k' through subscript operators (k = 0,1,2)",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("dpe", "two-term split of the Mikheev operator chain",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("d0", "first split term of the Mikheev operator chain vanishes",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("e0", "second split term of the Mikheev operator chain vanishes",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("prop", "the Mikheev operator chain a^b p'p_1'p_2' alpha^6 vanishes",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("theorem", "twisted Mikheev identity: alpha^6((a,a,b)^4) = 0",
                     ("a", "b"), (MULT, RALT)),
    IdentityInstance("mikheev_classical",
                     "Mikheev identity (a,a,b)^4 = 0 (meaningful for injective twists)",
                     ("a", "b"), (MULT, RALT)),
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
