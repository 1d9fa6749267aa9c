"""Identity registry and verification strategies.

Each registry entry pins down one identity of the right Hom-alternative
calculus, from the defining alternativity law up to the twisted Mikheev
identity ``alpha^6((a,a,b)^4) = 0`` and its untwisted corollary.  Entries
carry the preconditions an algebra must satisfy for the identity to be a
theorem (multiplicativity and/or right Hom-alternativity, checked on basis
tuples before verification; violations raise :class:`PreconditionError`
rather than producing a meaningless failure).

Three strategies are offered:

* ``generic``  -- evaluate with fully indeterminate coordinates; complete.
* ``subset``   -- fully generic coordinates restricted to every support
  tuple of size at most ``subset_max`` per argument slot; complete for
  elements of small support.  Every combo is decided from the one generic
  difference: it fails exactly when it contains the per-slot support of
  some monomial of that difference, so the identity is evaluated once.
* ``random``   -- exact evaluation at uniformly drawn integer points in
  [-10^6, 10^6] (parameters of symbolic algebras are drawn too); a pass is
  reported as ``random-pass`` with the seed, point count, and a conservative
  total-degree bound in the drawn variables.

Failing reports carry a replayable witness: a rational point (and for
operator identities a probe basis index) at which the two sides differ,
together with the nonzero difference element.

This module holds the registry, the preconditions and the generic
strategy; the rest loads on first use.  An entry's evaluator lives in
:mod:`homalt.element_laws` or :mod:`homalt.operator_laws`, picked by the
row's kind when the entry is first evaluated, and :mod:`homalt.search`
(point evaluation, the witness search, the subset and random strategies)
is imported only by the calls that run it.  So a holding generic check on
an element entry loads neither :mod:`homalt.operators` nor the search code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, Union

from .homalgebra import (
    FAILS,
    HOLDS,
    CheckReport,
    Element,
    HomAlgebra,
    RowTable,
    RowsLike,
    _Record,
    generic_element,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
    normalize_rows,
)
from .identities import ROWS, PreconditionError

if TYPE_CHECKING:
    from .operators import RightOp

Side = Union[Element, "RightOp"]
Evaluator = Callable[[HomAlgebra, Sequence[Element], RowTable], list[tuple[Side, Side]]]


class IdentityInstance(_Record):
    """One verifiable identity.

    ``evaluate`` returns equation pairs (usually one; the shift-indexed
    entries return one pair per shift).  ``elem_degree`` is the total degree
    in element coordinates and ``map_weight`` a conservative count of
    product/twist applications, used for random-strategy degree bounds.
    Without an explicit ``evaluate`` the instance is evaluated by ``_ev_<tag>``
    of :mod:`homalt.element_laws` or :mod:`homalt.operator_laws`, as its
    ``kind`` says; that module is imported on first use.
    """

    __slots__ = (
        "tag", "label", "arity", "kind", "var_names", "needs_multiplicative",
        "needs_right_alternative", "elem_degree", "map_weight", "_evaluate",
    )
    _fields = __slots__[:-1] + ("evaluate",)

    def __init__(self, tag: str, label: str, arity: int, kind: str, var_names: tuple[str, ...],
                 needs_multiplicative: bool, needs_right_alternative: bool, elem_degree: int,
                 map_weight: int, evaluate: Evaluator | None = None) -> None:
        self.tag = tag
        self.label = label
        self.arity = arity
        self.kind = kind  # "element" | "operator"
        self.var_names = var_names
        self.needs_multiplicative = needs_multiplicative
        self.needs_right_alternative = needs_right_alternative
        self.elem_degree = elem_degree
        self.map_weight = map_weight
        self._evaluate = evaluate

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


def _assoc_p(A: HomAlgebra, a: Element, b: Element) -> Element:
    return A.hom_associator(a, a, b)


def _entry(tag, label, var_names, kind, mult, ralt, elem_degree, map_weight):
    return IdentityInstance(
        tag=tag,
        label=label,
        arity=len(var_names),
        kind=kind,
        var_names=tuple(var_names),
        needs_multiplicative=mult,
        needs_right_alternative=ralt,
        elem_degree=elem_degree,
        map_weight=map_weight,
    )


# The rows live in the light module :mod:`homalt.identities`; each instance
# finds its evaluator by its kind and tag when first evaluated.
_REGISTRY: tuple[IdentityInstance, ...] = tuple(_entry(*row) for row in ROWS)


def registry() -> tuple[IdentityInstance, ...]:
    """All verifiable identities in a stable order."""
    return _REGISTRY


def identity_tags() -> list[str]:
    return [inst.tag for inst in _REGISTRY]


def get_identity(tag: str) -> IdentityInstance:
    for inst in _REGISTRY:
        if inst.tag == tag:
            return inst
    raise ValueError(f"unknown identity {tag!r}")


# -- strategy drivers ----------------------------------------------------------


def _first_mismatch(
    pairs: list[tuple[Side, Side]]
) -> tuple[int, Side] | None:
    """Index and difference of the first unequal pair, if any."""
    for idx, (lhs, rhs) in enumerate(pairs):
        diff = lhs - rhs
        if not diff.is_zero():
            return idx, diff
    return None


def _generic_pairs(A, inst, beta) -> tuple[HomAlgebra, list[tuple[Side, Side]]]:
    """The identity's pairs on arguments with indeterminate coordinates
    ``<name>_<i>``, and the algebra extended by those indeterminates."""
    extended = A
    xs = []
    for name in inst.var_names:
        extended, x = generic_element(extended, name)
        xs.append(x)
    return extended, inst.evaluate(extended, xs, beta)


def _verify_generic(A, inst, beta) -> CheckReport:
    extended, pairs = _generic_pairs(A, inst, beta)
    if _first_mismatch(pairs) is None:
        return CheckReport(inst.tag, HOLDS, "generic")
    from .search import _find_witness

    witness = _find_witness(extended, inst, beta, list(extended.params))
    return CheckReport(inst.tag, FAILS, "generic", witness=witness)


def _check_preconditions(
    A: HomAlgebra,
    inst: IdentityInstance,
    beta: RowTable,
    known: dict[str, CheckReport],
) -> None:
    def require(key: str, requirement: str, scan: Callable[[], CheckReport]) -> None:
        report = known.get(key)
        if report is None:
            report = known[key] = scan()
        if not report.passed():
            raise PreconditionError(inst.tag, requirement, report)

    if inst.needs_multiplicative:
        require("multiplicative", "multiplicative", lambda: is_multiplicative(A))
    if inst.needs_right_alternative:
        require("right-alt", "right Hom-alternative", lambda: is_right_hom_alternative(A))
    if inst.tag == "beta2":
        require("weak-morphism", "twisted by a weak morphism", lambda: is_weak_morphism(A, A, beta))


def _resolve_beta(A: HomAlgebra, beta: RowsLike | None) -> RowTable:
    if beta is None:
        return dict(A.alpha)
    return normalize_rows(A.dim, beta)


def verify(
    A: HomAlgebra,
    tag: str,
    strategy: str = "random",
    *,
    seed: int = 0,
    points: int = 50,
    beta: RowsLike | None = None,
    subset_max: int = 3,
    skip_preconditions: bool = False,
) -> CheckReport:
    """Verify one registry identity on an algebra.

    ``beta`` (sparse rows or a dense matrix) is only consulted by the
    ``beta2`` entry and defaults to the algebra's own twisting map.
    Precondition violations raise :class:`PreconditionError`; a subset cap
    or a random point count below 1, which would check nothing, raises
    ValueError.
    """
    if strategy == "subset" and subset_max < 1:
        raise ValueError(f"subset_max must be at least 1, got {subset_max}")
    if strategy == "random" and points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    inst = get_identity(tag)
    beta_rows = _resolve_beta(A, beta)
    if not skip_preconditions:
        _check_preconditions(A, inst, beta_rows, {})
    if strategy == "generic":
        return _verify_generic(A, inst, beta_rows)
    if strategy == "subset":
        from .search import _verify_subset

        return _verify_subset(A, inst, beta_rows, subset_max)
    if strategy == "random":
        from .search import _verify_random

        return _verify_random(A, inst, beta_rows, seed, points)
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
    beta: RowsLike | None = None,
    subset_max: int = 3,
) -> list[BatchResult]:
    """Run every registry identity, sharing precondition checks across
    entries and recording per-entry errors without aborting the batch."""
    beta_rows = _resolve_beta(A, beta)
    known: dict[str, CheckReport] = {}
    results = []
    for inst in _REGISTRY:
        try:
            _check_preconditions(A, inst, beta_rows, known)
            report = verify(
                A, inst.tag, strategy,
                seed=seed, points=points, beta=beta_rows, subset_max=subset_max,
                skip_preconditions=True,
            )
            results.append(BatchResult(inst.tag, report=report))
        except PreconditionError as exc:
            results.append(BatchResult(inst.tag, error=str(exc)))
    return results


def smallest_alpha_exponent(
    A: HomAlgebra, a: Element, b: Element, max_m: int = 6
) -> int | None:
    """Least ``0 <= m <= max_m`` with ``alpha^m((a,a,b)^4) = 0``, else None."""
    q = A.hom_power(_assoc_p(A, a, b), 4)
    for m in range(max_m + 1):
        if A.shift(q, m).is_zero():
            return m
    return None


def replay_identity_witness(
    A: HomAlgebra, report: CheckReport, beta: RowsLike | None = None
) -> Element:
    """Re-evaluate a failing identity report at its stored point and return
    the nonzero difference element (probing the recorded basis row for
    operator identities)."""
    from .search import replay_point_witness

    return replay_point_witness(A, report, beta)
