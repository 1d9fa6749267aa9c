"""Verification strategies over the identity registry.

The registry (:mod:`homalt.identities`, whose lookups are importable from
here too) runs from the defining alternativity law up to the twisted Mikheev
identity ``alpha^6((a,a,b)^4) = 0`` and its untwisted corollary.  Each entry
lists the hypotheses under which it is a theorem (multiplicativity, right
Hom-alternativity, a weak-morphism twist); they are checked on basis tuples
before verification, in that order, and a violation raises
:class:`PreconditionError` rather than producing a meaningless failure.
alpha is a weak morphism of A exactly when A is multiplicative, so the
weak-morphism hypothesis is read from the multiplicative scan, which a
batch runs once.
Every entry is a statement about the algebra and its own twisting map
alpha, and is evaluated on the algebra alone.

Three strategies are offered:

* ``generic``  -- evaluate with fully indeterminate coordinates; complete.
  The identity is evaluated on the input algebra itself, by
  :meth:`IdentityInstance.generic_pairs`: each argument's
  coordinates are the indeterminates ``<name>_<i>``, and evaluation never
  reads an algebra's parameter names, so no copy of the algebra is built
  and its table of twist powers is shared by every argument.
* ``subset``   -- fully generic coordinates restricted to every support
  tuple of size at most ``subset_max`` per argument slot; complete for
  elements of small support.  Every combo is decided from the one generic
  difference: it fails exactly when it contains the per-slot support of
  some monomial of that difference, so the identity is evaluated once.
* ``random``   -- exact evaluation at uniformly drawn integer points in
  [-10^6, 10^6] (parameters of symbolic algebras are drawn too); a pass is
  reported as ``random-pass`` with the seed, point count, and a
  total-degree bound in the drawn variables, derived from the entry's own
  evaluator (:meth:`IdentityInstance.degree_bound`).

Failing reports carry a replayable witness: a rational point (and for
operator identities a probe basis index) at which the two sides differ,
together with the nonzero difference element.  A point witness replays
through :meth:`IdentityInstance.pairs_at`, without the search code.

This module holds the preconditions, the generic strategy and the replay
of point witnesses; the rest loads on first use, and the corollary's
element tests (:func:`homalt.homalgebra.smallest_alpha_exponent` among
them) are checks on the algebra alone, in :mod:`homalt.homalgebra`.  An entry's evaluator lives in
:mod:`homalt.element_laws` or :mod:`homalt.operator_laws`, by its kind, and
:mod:`homalt.search` (the witness search, the subset and random
strategies) is imported only by the calls that run it.  Imports run
one way, this module -> :mod:`homalt.search` -> :mod:`homalt.identities`.
So a holding generic check on an element entry loads neither
:mod:`homalt.operators` nor the search code.
"""

from __future__ import annotations

from .homalgebra import (
    FAILS,
    HOLDS,
    CheckReport,
    Element,
    HomAlgebra,
    _Record,
    is_multiplicative,
    is_right_hom_alternative,
)
from .identities import (
    IdentityInstance,
    PreconditionError,
    _probe_side,
    get_identity,
    identity_tags,
    registry,
)


# -- strategy drivers ----------------------------------------------------------


def _verify_generic(A, inst) -> CheckReport:
    diffs = [lhs - rhs for lhs, rhs in inst.generic_pairs(A)]
    if all(diff.is_zero() for diff in diffs):
        return CheckReport(inst.tag, HOLDS, "generic")
    from .search import _find_witness

    witness = _find_witness(A, inst, diffs, inst.variables(A))
    return CheckReport(inst.tag, FAILS, "generic", witness=witness)


# Each hypothesis by its key in ``requires``: the requirement a
# PreconditionError names, and the name of its basis scan in this module,
# looked up when it runs, so a scan patched here is the one called.
_HYPOTHESES: dict[str, tuple[str, str]] = {
    "multiplicative": ("multiplicative", "is_multiplicative"),
    "right-alt": ("right Hom-alternative", "is_right_hom_alternative"),
    "weak-morphism": ("twisted by a weak morphism", "is_multiplicative"),
}


def _check_preconditions(
    A: HomAlgebra,
    inst: IdentityInstance,
    known: dict[str, CheckReport],
) -> None:
    """Raise :class:`PreconditionError` at the first hypothesis of ``inst``
    that ``A`` fails; ``known`` caches each scan's report by its name."""
    for key in inst.requires:
        requirement, scan = _HYPOTHESES[key]
        report = known.get(scan)
        if report is None:
            report = known[scan] = globals()[scan](A)
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
    ValueError.
    """
    if strategy == "subset" and subset_max < 1:
        raise ValueError(f"subset_max must be at least 1, got {subset_max}")
    if strategy == "random" and points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    inst = get_identity(tag)
    if not skip_preconditions:
        _check_preconditions(A, inst, {})
    if strategy == "generic":
        return _verify_generic(A, inst)
    if strategy == "subset":
        from .search import _verify_subset

        return _verify_subset(A, inst, subset_max)
    if strategy == "random":
        from .search import _verify_random

        return _verify_random(A, inst, seed, points)
    raise ValueError(f"unknown strategy {strategy!r} (expected generic, subset, or random)")


class BatchResult(_Record):
    """Per-entry outcome of a batch run; exactly one of report/error is set."""

    _fields = ("tag", "report", "error")

    def __init__(self, tag: str, report: CheckReport | None = None,
                 error: str | None = None) -> None:
        self.tag = tag
        self.report = report
        self.error = error

    def passed(self) -> bool:
        return self.report is not None and self.report.passed()


def verify_all(
    A: HomAlgebra,
    strategy: str = "random",
    *,
    seed: int = 0,
    points: int = 50,
    subset_max: int = 3,
) -> list[BatchResult]:
    """Run every registry identity, sharing precondition checks across
    entries and recording per-entry errors without aborting the batch."""
    known: dict[str, CheckReport] = {}
    results = []
    for inst in registry():
        try:
            _check_preconditions(A, inst, known)
            report = verify(
                A, inst.tag, strategy,
                seed=seed, points=points, subset_max=subset_max, skip_preconditions=True,
            )
            results.append(BatchResult(inst.tag, report=report))
        except PreconditionError as exc:
            results.append(BatchResult(inst.tag, error=str(exc)))
    return results


def replay_identity_witness(A: HomAlgebra, report: CheckReport) -> Element:
    """Re-evaluate a failing identity report at its stored point and return
    the nonzero difference element (probing the recorded basis row for
    operator identities)."""
    if report.witness is None or report.witness.point is None:
        raise ValueError("report carries no point witness")
    inst = get_identity(report.check)
    lhs, rhs = inst.pairs_at(A, report.witness.point)[report.witness.pair_index or 0]
    diff = lhs - rhs
    if not isinstance(diff, Element) and report.witness.probe is None:
        raise ValueError("operator witness without probe index")
    return _probe_side(diff, report.witness.probe)[0]
