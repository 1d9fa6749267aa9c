"""A registry entry and how it is checked: the registry, the hypotheses,
the strategies, the witness search and the replay of point witnesses.

The registry runs from the defining alternativity law up to the twisted
Mikheev identity ``alpha^6((a,a,b)^4) = 0`` and its untwisted corollary,
each entry declared once, by its tag and its hypotheses.  What an entry
says is its evaluator ``_ev_<tag>`` in :mod:`homalt.laws`, read on first
use: its docstring is the entry's statement, and its parameters after
``A`` name the entry's arguments.  An entry also owns its arguments: their
coordinates as variables, and the two routes every strategy evaluates it
by, on generic arguments (:meth:`IdentityInstance.generic_values`) or at a
point (:meth:`IdentityInstance.values_at`).  Either returns the entry's
values, each zero exactly where the entry holds.

Each entry lists the hypotheses under which it is a theorem, each a basis
law of A named in :data:`homalt.homalgebra.BASIS_LAWS` (multiplicativity,
right Hom-alternativity; left Hom-alternativity is one too); they are
checked by the law's basis scan before verification, in the entry's order,
and a violation raises :class:`PreconditionError` rather than producing a
meaningless failure.  A batch scans each law once.
Every entry is a statement about the algebra and its own twisting map
alpha, and is evaluated on the algebra alone.

Three strategies are offered, each a view of the entry's two evaluation
routes:

* ``generic``  -- evaluate with fully indeterminate coordinates; complete.
  It is ``subset`` at cap ``A.dim``, which every support pattern fits.
  The identity is evaluated on the input algebra itself: each argument's
  coordinates are the indeterminates ``<name>_<i>``, and evaluation never
  reads an algebra's parameter names, so no copy of the algebra is built
  and its table of twist powers is shared by every argument.
* ``subset``   -- fully generic coordinates restricted to every support
  tuple of size at most ``subset_max`` per argument slot; complete for
  elements of small support.  Every combo is decided from the generic
  values: it fails exactly when it contains the per-slot support of some
  monomial of a value, so the identity is evaluated once.
* ``random``   -- exact evaluation at uniformly drawn integer points in
  [-10^6, 10^6] (parameters of symbolic algebras are drawn too); a pass is
  reported as ``random-pass`` with the seed, point count, and a
  total-degree bound in the drawn variables, derived from the entry's own
  evaluator (:meth:`IdentityInstance.degree_bound`).

Failing reports carry a replayable witness: a rational point (a value for
every parameter and argument coordinate in play, the others 0) and for
operator identities the probe basis index whose image row is nonzero,
together with the nonzero element of the value there.  A failing
``generic`` or ``subset`` check puts it on the first failing combo, at a
point of :func:`_find_witness`'s grid; every point witness replays
through :meth:`IdentityInstance.values_at`.

The corollary's element tests
(:func:`homalt.homalgebra.smallest_alpha_exponent` among them) are checks
on the algebra alone, in :mod:`homalt.homalgebra`.  This module imports
only :mod:`homalt.homalgebra` and :mod:`homalt.scalars`, so listing the
``--identity`` choices loads no evaluator, and checking an element entry
never loads :mod:`homalt.operators`.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from .homalgebra import (
    BASIS_LAWS,
    FAILS,
    HOLDS,
    RANDOM_PASS,
    CheckReport,
    Element,
    HomAlgebra,
    Witness,
    _element,
    _Record,
    is_left_hom_alternative,
    is_multiplicative,
    is_right_hom_alternative,
    substitute_params,
)
from .scalars import Poly, Rational, degree, substitute, variables as scalar_variables

if TYPE_CHECKING:
    from .homalgebra import SparseRow
    from .operators import RightOp
    from .scalars import Scalar

    Value = Union[Element, RightOp]
    Evaluator = Callable[..., list[Value]]

RANDOM_BOUND = 10**6


# -- the registry --------------------------------------------------------------


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


# -- witness search ------------------------------------------------------------


def _probe_value(value: Value, probe: int | None = None) -> tuple[Element, int | None]:
    """The element a value points at: the value itself, or for an operator
    its row ``probe`` (by default the first nonzero row)."""
    if isinstance(value, Element):
        return value, None
    if probe is None:
        probe = min(value.rows)
    return _element(value.dim, dict(value.rows.get(probe, ()))), probe


def _witness_at(A, inst, point: dict[str, Rational]) -> Witness | None:
    """The witness at ``point`` if the identity fails there."""
    for idx, value in enumerate(inst.values_at(A, point)):
        if not value.is_zero():
            element, probe = _probe_value(value)
            return Witness(element=element, point=point, probe=probe, pair_index=idx)
    return None


def _find_witness(A, inst, values: Sequence[Value], variables: Sequence[str]) -> Witness:
    """An integer point where an identity whose generic ``values`` fail in
    ``variables`` (every other coordinate 0) still fails: take the first
    coefficient of ``values`` nonzero at those zeros, and the first
    point where it is nonzero on the grid of its variables, each ``v`` over
    ``{d_v, ..., 0}`` with ``d_v`` its degree in ``v``; a polynomial that
    vanishes on that grid is zero (Alon, Combinatorial Nullstellensatz,
    1999, Lemma 2.1).  The identity is evaluated at that point only."""
    zeros = {v: 0 for v in inst.variables(A) if v not in variables}
    at_zeros = (substitute(c, zeros) for value in values for c in _coefficients(value))
    coeff = next((c for c in at_zeros if c != 0), None)
    if coeff is None:
        raise ValueError("the identity holds in these variables: no witness exists")
    grid = [v for v in variables if v in scalar_variables(coeff)]
    degrees = [max(e for m in coeff.terms for n, e in m if n == v) for v in grid]
    for values in itertools.product(*(range(d, -1, -1) for d in degrees)):
        at = dict(zip(grid, values))
        if substitute(coeff, at) != 0:
            return _witness_at(A, inst, {v: at.get(v, 0) for v in variables})
    raise AssertionError("a nonzero polynomial vanished on its degree grid")


# -- strategy drivers ----------------------------------------------------------


def _support_rank(dim: int, support: tuple[int, ...]) -> int:
    """Position of a support among the nonempty subsets of ``range(dim)``
    ordered by size, then lexicographically (combinatorial number system)."""
    size = len(support)
    return (sum(comb(dim, k) for k in range(1, size + 1)) - 1
            - sum(comb(dim - 1 - i, size - s) for s, i in enumerate(support)))


def _support_patterns(A, inst, values) -> set[tuple[frozenset[int], ...]]:
    """Per-slot coordinate supports of the monomials of the values: slot
    ``s`` holds each ``i`` with ``inst.arguments(A)[s][i]`` in the monomial."""
    arguments = inst.arguments(A)
    slot_of = {name: (s, i) for s, names in enumerate(arguments) for i, name in enumerate(names)}
    patterns = set()
    for value in values:
        for c in _coefficients(value):
            for m in c.terms if isinstance(c, Poly) else ([()] if c != 0 else []):
                slots: list[set[int]] = [set() for _ in arguments]
                for s, i in (slot_of[var] for var, _ in m if var in slot_of):
                    slots[s].add(i)
                patterns.add(tuple(map(frozenset, slots)))
    return patterns


def _verify_subset(A, inst, subset_max: int) -> CheckReport:
    """Decide the support combos as a view of the one generic evaluation.

    The sweep is every combo of supports of size 1 to ``subset_max`` per
    slot, in the order of their support ranks.  A combo's values are the
    generic ones with the coordinates outside it set to 0, so it fails
    exactly when it contains, slot by slot, the support of a monomial (a
    pattern).  The first combo holding a pattern takes the pattern's own
    support in each slot, or ``(0,)`` where it is empty; the least of these
    is the first failure and ``points`` its position, so no combo is built
    or walked.  With no pattern that fits, every combo holds.  The cost is
    one generic evaluation even when the first combo fails, which on dense
    structure constants is far more than that combo.
    """
    values = inst.generic_values(A)
    patterns = [p for p in _support_patterns(A, inst, values) if max(map(len, p)) <= subset_max]
    supports = sum(comb(A.dim, k) for k in range(1, min(subset_max, A.dim) + 1))
    if not patterns:
        return CheckReport(inst.tag, HOLDS, "subset", points=supports ** inst.arity)

    def position(combo: tuple[tuple[int, ...], ...]) -> int:
        return sum(_support_rank(A.dim, t) * supports ** (len(combo) - 1 - s)
                   for s, t in enumerate(combo))

    combo = min((tuple(tuple(sorted(need)) or (0,) for need in p) for p in patterns), key=position)
    variables = list(A.params) + [
        names[i] for names, support in zip(inst.arguments(A), combo) for i in support
    ]
    witness = _find_witness(A, inst, values, variables)
    return CheckReport(inst.tag, FAILS, "subset", points=position(combo) + 1, witness=witness)


def _verify_generic(A, inst) -> CheckReport:
    report = _verify_subset(A, inst, A.dim)
    return CheckReport(inst.tag, report.status, "generic", witness=report.witness)


def _verify_random(A, inst, seed: int, points: int) -> CheckReport:
    rng = random.Random(seed)
    sample = {"points": points, "seed": seed, "degree_bound": inst.degree_bound(A)}
    names = inst.variables(A)
    for _ in range(points):
        point = {name: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for name in names}
        witness = _witness_at(A, inst, point)
        if witness is not None:
            return CheckReport(inst.tag, FAILS, "random", witness=witness, **sample)
    return CheckReport(inst.tag, RANDOM_PASS, "random", **sample)


def _check_preconditions(
    A: HomAlgebra,
    inst: IdentityInstance,
    known: dict[str, CheckReport],
) -> None:
    """Raise :class:`PreconditionError` at the first hypothesis of ``inst``
    that ``A`` fails; ``known`` caches each law's report by its id.  Each
    law's scan is called by its name in this module, looked up when it
    runs, so a scan patched here is the one called."""
    for law in inst.requires:
        requirement, scan = BASIS_LAWS[law]
        report = known.get(law)
        if report is None:
            report = known[law] = globals()[scan](A)
        if not report.passed():
            raise PreconditionError(inst.tag, requirement, report)


def _check_options(strategy: str, options: Mapping[str, int]) -> None:
    """Refuse, with TypeError, an option :func:`verify` does not have, and,
    with ValueError, a strategy other than the three and an option that
    would check nothing, a subset cap or a random point count below 1, or
    a negative seed, which draws the points of its absolute value.  An
    option missing from ``options`` has :func:`verify`'s default, which
    passes."""
    unknown = sorted(set(options) - {"seed", "points", "subset_max"})
    if unknown:
        raise TypeError(f"unexpected option {unknown[0]!r}")
    if strategy not in ("generic", "subset", "random"):
        raise ValueError(f"unknown strategy {strategy!r} (expected generic, subset, or random)")
    if strategy == "subset" and options.get("subset_max", 1) < 1:
        raise ValueError(f"subset_max must be at least 1, got {options['subset_max']}")
    if strategy == "random" and options.get("points", 1) < 1:
        raise ValueError(f"points must be at least 1, got {options['points']}")
    if strategy == "random" and options.get("seed", 0) < 0:
        raise ValueError(f"seed must be nonnegative, got {options['seed']}")


def verify(
    A: HomAlgebra,
    tag: str,
    strategy: str = "random",
    *,
    seed: int = 0,
    points: int = 50,
    subset_max: int = 3,
    skip_preconditions: bool = False,
) -> CheckReport:
    """Verify one registry identity on an algebra.

    The options are checked first (:func:`_check_options`), then the
    hypotheses: a violation raises :class:`PreconditionError`.
    """
    _check_options(strategy, {"seed": seed, "points": points, "subset_max": subset_max})
    inst = get_identity(tag)
    if not skip_preconditions:
        _check_preconditions(A, inst, {})
    if strategy == "generic":
        return _verify_generic(A, inst)
    if strategy == "subset":
        return _verify_subset(A, inst, subset_max)
    return _verify_random(A, inst, seed, points)


class BatchResult(_Record):
    """Per-entry outcome of a batch run; exactly one of report/error is set."""

    def __init__(self, tag: str, report: CheckReport | None = None,
                 error: str | None = None) -> None:
        self.tag = tag
        self.report = report
        self.error = error

    def passed(self) -> bool:
        return self.report is not None and self.report.passed()


def verify_all(A: HomAlgebra, strategy: str = "random", **options) -> list[BatchResult]:
    """Run every registry identity, sharing precondition checks across
    entries; ``options`` are :func:`verify`'s ``seed``, ``points`` and
    ``subset_max``, with its defaults.  An option :func:`verify` refuses
    aborts the batch.  An entry whose hypotheses ``A`` fails, or one of
    whose argument coordinates names a parameter of ``A`` (checked in that
    order, as :func:`verify` does), gets an error record instead of a
    report, and the batch goes on."""
    _check_options(strategy, options)
    known: dict[str, CheckReport] = {}
    results = []
    for inst in registry():
        try:
            _check_preconditions(A, inst, known)
            inst.arguments(A)
        except ValueError as exc:  # a PreconditionError, or a name collision
            results.append(BatchResult(inst.tag, error=str(exc)))
        else:
            report = verify(A, inst.tag, strategy, skip_preconditions=True, **options)
            results.append(BatchResult(inst.tag, report=report))
    return results


def replay_identity_witness(A: HomAlgebra, report: CheckReport) -> Element:
    """Re-evaluate a failing identity report at its stored point and return
    the nonzero element of the value its ``pair_index`` names (probing the
    recorded basis row for operator identities).  ValueError for a point
    variable or a value the entry does not have on ``A``, or a probe off the
    basis or on an element."""
    witness = report.witness
    if witness is None or witness.point is None:
        raise ValueError("report carries no point witness")
    if witness.probe is not None and witness.probe not in range(A.dim):
        raise ValueError(f"probe {witness.probe} is not a basis index: not in range({A.dim})")
    inst = get_identity(report.check)
    unknown = sorted(set(witness.point) - set(inst.variables(A)))
    if unknown:
        raise ValueError(f"point names {', '.join(unknown)}, not variables of {report.check!r}")
    values = inst.values_at(A, witness.point)
    index = witness.pair_index or 0
    if index not in range(len(values)):
        raise ValueError(f"pair_index {index} is not in range({len(values)}) for {report.check!r}")
    value = values[index]
    if isinstance(value, Element) and witness.probe is not None:
        raise ValueError(f"probe {witness.probe} given for the element entry {report.check!r}")
    if not isinstance(value, Element) and witness.probe is None:
        raise ValueError("operator witness without probe index")
    return _probe_value(value, witness.probe)[0]
