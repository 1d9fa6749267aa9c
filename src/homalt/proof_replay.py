"""How a registry entry is checked: the hypotheses, the strategies, the
witness search and the replay of point witnesses.

The registry (:mod:`homalt.identities`, whose lookups are importable from
here too) runs from the defining alternativity law up to the twisted Mikheev
identity ``alpha^6((a,a,b)^4) = 0`` and its untwisted corollary; what each
entry says is its evaluator in :mod:`homalt.laws`.  Each entry lists the
hypotheses under which it is a theorem, each a basis law of A named in
:data:`homalt.homalgebra.BASIS_LAWS` (multiplicativity, right
Hom-alternativity; left Hom-alternativity is one too); they are checked by
the law's basis scan before verification, in the entry's order, and a
violation raises :class:`PreconditionError` rather than producing a
meaningless failure.  A batch scans each law once.
Every entry is a statement about the algebra and its own twisting map
alpha, and is evaluated on the algebra alone.

Three strategies are offered, each a view of the entry's two evaluation
routes, :meth:`IdentityInstance.generic_values` and
:meth:`IdentityInstance.values_at`, whose values are zero exactly where
the entry holds:

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
on the algebra alone, in :mod:`homalt.homalgebra`.  Imports run one way,
this module -> :mod:`homalt.identities` -> :mod:`homalt.homalgebra`, and
checking an element entry never loads :mod:`homalt.operators`.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import TYPE_CHECKING, Sequence

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
)
from .identities import (
    IdentityInstance,
    PreconditionError,
    _coefficients,
    get_identity,
    identity_tags,
    registry,
)
from .scalars import Poly, Rational, substitute, variables as scalar_variables

if TYPE_CHECKING:
    from .identities import Value

RANDOM_BOUND = 10**6


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

    Precondition violations raise :class:`PreconditionError`; a subset cap
    or a random point count below 1, which would check nothing, raises
    ValueError, and so does a negative seed, which draws the points of its
    absolute value.
    """
    if strategy == "subset" and subset_max < 1:
        raise ValueError(f"subset_max must be at least 1, got {subset_max}")
    if strategy == "random" and points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    if strategy == "random" and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    inst = get_identity(tag)
    if not skip_preconditions:
        _check_preconditions(A, inst, {})
    if strategy == "generic":
        return _verify_generic(A, inst)
    if strategy == "subset":
        return _verify_subset(A, inst, subset_max)
    if strategy == "random":
        return _verify_random(A, inst, seed, points)
    raise ValueError(f"unknown strategy {strategy!r} (expected generic, subset, or random)")


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
    entries and recording per-entry errors without aborting the batch;
    ``options`` are :func:`verify`'s ``seed``, ``points`` and
    ``subset_max``, with its defaults."""
    known: dict[str, CheckReport] = {}
    results = []
    for inst in registry():
        try:
            _check_preconditions(A, inst, known)
            report = verify(A, inst.tag, strategy, skip_preconditions=True, **options)
            results.append(BatchResult(inst.tag, report=report))
        except PreconditionError as exc:
            results.append(BatchResult(inst.tag, error=str(exc)))
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
