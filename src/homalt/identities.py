"""The identity registry: each entry declared once, by its tag and its
hypotheses.

What an entry says is its evaluator ``_ev_<tag>`` in :mod:`homalt.laws`,
read on first use: its docstring is the entry's statement, and its
parameters after ``A`` name the entry's arguments.  How an entry is
checked, the hypotheses and the strategies, is :mod:`homalt.proof_replay`;
a hypothesis is a basis law of :data:`homalt.homalgebra.BASIS_LAWS`, by its
check id.
An entry also owns its arguments: their coordinates as variables, and the
two routes every strategy evaluates it by, on generic arguments
(:meth:`IdentityInstance.generic_values`) or at a point
(:meth:`IdentityInstance.values_at`).  Either returns the entry's values,
each zero exactly where the entry holds.
This module imports only :mod:`homalt.homalgebra` and :mod:`homalt.scalars`,
so the CLI lists the ``--identity`` choices without loading
:mod:`homalt.proof_replay`; :class:`PreconditionError` is a ValueError, so
no other CLI call loads this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Union

from .homalgebra import Element, HomAlgebra, _Record, substitute_params
from .scalars import Poly, degree

if TYPE_CHECKING:
    from .homalgebra import CheckReport, SparseRow
    from .operators import RightOp
    from .scalars import Rational, Scalar

    Value = Union[Element, RightOp]
    Evaluator = Callable[..., list[Value]]


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
    checking order, each the id of a basis law in
    :data:`homalt.homalgebra.BASIS_LAWS`: ``"multiplicative"`` (also the
    hypothesis of the Yau-twist lemma ``beta2``, that alpha is a weak
    morphism of the algebra), ``"right-alt"`` (right Hom-alternative) or
    ``"left-alt"``.
    ``evaluate(A, x, y, ...)`` returns the values on ``A`` at one element
    per argument, each zero exactly where the entry holds (one value per
    shift for the shift-indexed entries): those of the constructor's
    ``evaluate``, else of ``_ev_<tag>`` in :mod:`homalt.laws`.  Every
    entry's evaluator calls only the operations of ``A`` that
    :mod:`homalt.laws` lists.
    :attr:`var_names` are the names of its parameters after ``A``;
    :meth:`arguments` names each argument's coordinates on ``A`` after its
    name, and :meth:`generic_values` and :meth:`values_at` run ``evaluate``
    on them.
    :meth:`degree_bound`, the random strategy's total-degree bound, is
    derived from one run of ``evaluate``.
    """

    __slots__ = ("tag", "requires", "_evaluate")

    def __init__(self, tag: str, requires: tuple[str, ...],
                 evaluate: Evaluator | None = None) -> None:
        self.tag = tag
        self.requires = requires
        self._evaluate = evaluate

    @property
    def var_names(self) -> tuple[str, ...]:
        """The names of ``evaluate``'s parameters after ``A``, one per argument."""
        code = self.evaluate.__code__
        return code.co_varnames[1:code.co_argcount]

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

    def generic_values(self, A: HomAlgebra) -> list[Value]:
        """The values on ``A`` itself at arguments whose coordinates are the
        indeterminates of :meth:`arguments`."""
        return self.evaluate(A, *[Element(tuple(map(Poly.variable, names)))
                                  for names in self.arguments(A)])

    def values_at(self, A: HomAlgebra, point: Mapping[str, Rational]) -> list[Value]:
        """The values at a point that gives values to parameters of ``A`` and
        to variables of :meth:`arguments` (a coordinate it omits is 0)."""
        xs = [Element(tuple(point.get(n, 0) for n in names)) for names in self.arguments(A)]
        A_pt = substitute_params(A, {p: point[p] for p in A.params if p in point})
        return self.evaluate(A_pt, *xs)

    def degree_bound(self, A: HomAlgebra) -> int:
        """A bound on the total degree, in the parameters of ``A`` and the
        argument coordinates, of every coefficient of each value that
        ``evaluate`` returns on ``A``: the largest degree of a coefficient of
        a value of the entry evaluated on :func:`_degree_model`."""
        values = self.evaluate(*_degree_model(A, self.arity))
        return max((c.degree for value in values for c in _coefficients(value) if c != 0),
                   default=0)


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


def _degree_model(A: HomAlgebra, arity: int) -> tuple[HomAlgebra | Element, ...]:
    """The arguments of an evaluator that tracks degrees on ``A``: a
    1-dimensional algebra over :class:`_Degree` whose product and twist
    carry the largest coefficient degree of ``A.mu`` and ``A.alpha``, then
    ``arity`` elements of degree 1.  Each coordinate of a value there
    bounds the degree of every coordinate of that value on ``A``."""
    def top(rows: Mapping[object, SparseRow]) -> SparseRow:
        return ((0, _Degree(max((degree(c) for row in rows.values() for _, c in row),
                                default=0))),)

    model = HomAlgebra(1, {(0, 0): top(A.mu)}, {0: top(A.alpha)})
    return (model,) + (Element((_Degree(1),)),) * arity


def _coefficients(value: Value) -> list[Scalar]:
    """The coordinates of an element, or the entries of an operator."""
    if isinstance(value, Element):
        return list(value.coords)
    return [c for row in value.rows.values() for _, c in row]


# In registry order: tag and hypotheses, each the check id of a basis law in
# homalgebra.BASIS_LAWS, in checking order.  The statement and the argument
# names are the evaluator's docstring and parameters in homalt.laws, and
# IdentityInstance.degree_bound derives the degree from the evaluator.
REGISTRY: tuple[IdentityInstance, ...] = (
    IdentityInstance("xyy", ()),
    IdentityInstance("linearized", ("right-alt",)),
    IdentityInstance("teichmuller", ("multiplicative",)),
    IdentityInstance("xyyz", ("multiplicative", "right-alt")),
    IdentityInstance("moufang", ("multiplicative", "right-alt")),
    IdentityInstance("beta2", ("multiplicative",)),
    IdentityInstance("eq1", ("right-alt",)),
    IdentityInstance("eq2", ("multiplicative", "right-alt")),
    IdentityInstance("eq2p", ("multiplicative", "right-alt")),
    IdentityInstance("eq3a", ("right-alt",)),
    IdentityInstance("eq3b", ("right-alt",)),
    IdentityInstance("eq5", ("multiplicative", "right-alt")),
    IdentityInstance("eq5p", ("multiplicative", "right-alt")),
    IdentityInstance("eq6", ("multiplicative", "right-alt")),
    IdentityInstance("eq7", ("multiplicative", "right-alt")),
    IdentityInstance("eq8", ("multiplicative", "right-alt")),
    IdentityInstance("eq9", ("multiplicative", "right-alt")),
    IdentityInstance("eq10", ("multiplicative", "right-alt")),
    IdentityInstance("eq10p", ("multiplicative", "right-alt")),
    IdentityInstance("dpe", ("multiplicative", "right-alt")),
    IdentityInstance("d0", ("multiplicative", "right-alt")),
    IdentityInstance("e0", ("multiplicative", "right-alt")),
    IdentityInstance("prop", ("multiplicative", "right-alt")),
    IdentityInstance("theorem", ("multiplicative", "right-alt")),
    IdentityInstance("mikheev_classical", ("multiplicative", "right-alt")),
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
