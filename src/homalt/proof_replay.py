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
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence, Union

from .homalgebra import (
    FAILS,
    HOLDS,
    RANDOM_PASS,
    CheckReport,
    Element,
    HomAlgebra,
    RowTable,
    RowsLike,
    Witness,
    _Record,
    apply_rows,
    coordinate_names,
    generic_element,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
    normalize_rows,
    substitute_params,
    substitute_rows,
    yau_twist,
)
from .identities import ROWS, PreconditionError
from .operators import RightOp, alpha_op, compose, op_sup, op_sub, right_mul_op, zero_op
from .scalars import Poly, Rational, Scalar, substitute, variables as scalar_variables

Side = Union[Element, RightOp]
Evaluator = Callable[[HomAlgebra, Sequence[Element], RowTable], list[tuple[Side, Side]]]

RANDOM_BOUND = 10**6


class IdentityInstance(_Record):
    """One verifiable identity.

    ``evaluate`` returns equation pairs (usually one; the shift-indexed
    entries return one pair per shift).  ``elem_degree`` is the total degree
    in element coordinates and ``map_weight`` a conservative count of
    product/twist applications, used for random-strategy degree bounds.
    """

    __slots__ = _fields = (
        "tag", "label", "arity", "kind", "var_names", "needs_multiplicative",
        "needs_right_alternative", "elem_degree", "map_weight", "evaluate",
    )

    def __init__(self, tag: str, label: str, arity: int, kind: str, var_names: tuple[str, ...],
                 needs_multiplicative: bool, needs_right_alternative: bool, elem_degree: int,
                 map_weight: int, evaluate: Evaluator) -> None:
        self.tag = tag
        self.label = label
        self.arity = arity
        self.kind = kind  # "element" | "operator"
        self.var_names = var_names
        self.needs_multiplicative = needs_multiplicative
        self.needs_right_alternative = needs_right_alternative
        self.elem_degree = elem_degree
        self.map_weight = map_weight
        self.evaluate = evaluate

    def degree_bound(self, A: HomAlgebra) -> int:
        return self.elem_degree + self.map_weight * A.twist_entry_degree()


def _assoc_p(A: HomAlgebra, a: Element, b: Element) -> Element:
    return A.hom_associator(a, a, b)


# -- element-identity evaluators ----------------------------------------------

def _ev_xyy(A, xs, beta):
    x, y = xs
    lhs = A.mul(A.mul(x, y), A.twist_apply(y))
    rhs = A.mul(A.twist_apply(x), A.mul(y, y))
    return [(lhs, rhs)]

def _ev_linearized(A, xs, beta):
    x, y, z = xs
    return [(A.hom_associator(x, y, z), -A.hom_associator(x, z, y))]

def _ev_teichmuller(A, xs, beta):
    w, x, y, z = xs
    aw, ax, ay, az = (A.twist_apply(v) for v in xs)
    total = (
        A.hom_associator(A.mul(w, x), ay, az)
        - A.hom_associator(aw, A.mul(x, y), az)
        + A.hom_associator(aw, ax, A.mul(y, z))
        - A.mul(A.shift(w, 2), A.hom_associator(x, y, z))
        - A.mul(A.hom_associator(w, x, y), A.shift(z, 2))
    )
    return [(total, A.zero())]

def _ev_xyyz(A, xs, beta):
    x, y, z = xs
    lhs = A.hom_associator(A.twist_apply(x), A.twist_apply(y), A.mul(y, z))
    rhs = A.mul(A.hom_associator(x, y, z), A.shift(y, 2))
    return [(lhs, rhs)]

def _ev_moufang(A, xs, beta):
    x, y, z = xs
    lhs = A.mul(A.mul(A.mul(x, y), A.twist_apply(z)), A.shift(y, 2))
    rhs = A.mul(A.shift(x, 2), A.mul(A.mul(y, z), A.twist_apply(y)))
    return [(lhs, rhs)]

def _ev_beta2(A, xs, beta):
    x, y, z = xs
    twisted = yau_twist(A, beta, check=False)
    inner = A.hom_associator(x, y, z)
    lhs = apply_rows(beta, apply_rows(beta, inner))
    rhs = twisted.hom_associator(x, y, z)
    return [(lhs, rhs)]

def _ev_eq8(A, xs, beta):
    a, b = xs
    p3 = A.shift(_assoc_p(A, a, b), 3)
    inner = A.hom_associator(
        A.commutator(A.shift(a, 2), A.shift(b, 2)), A.shift(a, 3), A.shift(b, 3)
    )
    return [(A.mul(p3, inner), A.zero())]

def _ev_eq9(A, xs, beta):
    a, b = xs
    p4 = A.shift(_assoc_p(A, a, b), 4)
    inner = A.hom_associator(
        A.mul(A.commutator(A.shift(a, 2), A.shift(b, 2)), A.shift(a, 3)),
        A.shift(a, 4),
        A.shift(b, 4),
    )
    return [(A.mul(p4, inner), A.zero())]

def _ev_theorem(A, xs, beta):
    a, b = xs
    return [(A.shift(A.hom_power(_assoc_p(A, a, b), 4), 6), A.zero())]

def _ev_mikheev_classical(A, xs, beta):
    a, b = xs
    return [(A.hom_power(_assoc_p(A, a, b), 4), A.zero())]


# -- operator-identity evaluators -----------------------------------------------

def _ev_eq1(A, xs, beta):
    (a,) = xs
    lhs = compose(right_mul_op(A, a), right_mul_op(A, A.twist_apply(a)))
    rhs = compose(alpha_op(A, 1), right_mul_op(A, A.mul(a, a)))
    return [(lhs, rhs)]

def _ev_eq2(A, xs, beta):
    a, b = xs
    lhs = compose(
        right_mul_op(A, a),
        right_mul_op(A, A.twist_apply(b)),
        right_mul_op(A, A.shift(a, 2)),
    )
    rhs = compose(
        alpha_op(A, 2), right_mul_op(A, A.mul(A.mul(a, b), A.twist_apply(a)))
    )
    return [(lhs, rhs)]

def _ev_eq2p(A, xs, beta):
    a, b, c = xs
    lhs = compose(
        right_mul_op(A, a), right_mul_op(A, A.twist_apply(b)), right_mul_op(A, A.shift(c, 2))
    ) + compose(
        right_mul_op(A, c), right_mul_op(A, A.twist_apply(b)), right_mul_op(A, A.shift(a, 2))
    )
    inner = A.mul(A.mul(a, b), A.twist_apply(c)) + A.mul(A.mul(c, b), A.twist_apply(a))
    rhs = compose(alpha_op(A, 2), right_mul_op(A, inner))
    return [(lhs, rhs)]

def _ev_eq3a(A, xs, beta):
    (a,) = xs
    return [(op_sup(A, a, a), zero_op(A.dim))]

def _ev_eq3b(A, xs, beta):
    a, b = xs
    return [(op_sup(A, a, b) + op_sup(A, b, a), zero_op(A.dim))]

def _ev_eq5(A, xs, beta):
    a, b = xs
    lhs = compose(op_sup(A, a, b), op_sub(A, A.shift(a, 2), A.shift(b, 2)))
    return [(lhs, zero_op(A.dim))]

def _ev_eq5p(A, xs, beta):
    a, b, c = xs
    lhs = compose(op_sup(A, a, b), op_sub(A, A.shift(a, 2), A.shift(c, 2))) + compose(
        op_sup(A, a, c), op_sub(A, A.shift(a, 2), A.shift(b, 2))
    )
    return [(lhs, zero_op(A.dim))]

def _ev_eq6(A, xs, beta):
    a, b = xs
    lhs = compose(op_sub(A, a, b), op_sup(A, A.shift(a, 2), A.shift(b, 2)))
    inner = A.hom_associator(A.commutator(a, b), A.twist_apply(a), A.twist_apply(b))
    rhs = -compose(alpha_op(A, 3), right_mul_op(A, inner))
    return [(lhs, rhs)]

def _ev_eq7(A, xs, beta):
    a, b = xs
    lhs = compose(
        op_sub(A, a, b),
        right_mul_op(A, A.shift(a, 2)),
        op_sup(A, A.shift(a, 3), A.shift(b, 3)),
    )
    inner = A.hom_associator(
        A.mul(A.commutator(a, b), A.twist_apply(a)), A.shift(a, 2), A.shift(b, 2)
    )
    rhs = -compose(alpha_op(A, 4), right_mul_op(A, inner))
    return [(lhs, rhs)]

def _ev_eq10(A, xs, beta):
    a, b = xs
    p = _assoc_p(A, a, b)
    ba = A.mul(b, a)
    pairs = []
    for k in range(3):
        lhs = compose(alpha_op(A, 2), right_mul_op(A, A.shift(p, k)))
        rhs = compose(
            alpha_op(A, 1), op_sup(A, A.shift(a, k + 1), A.shift(ba, k))
        ) - compose(
            right_mul_op(A, A.shift(a, k)),
            op_sup(A, A.shift(a, k + 1), A.shift(b, k + 1)),
        )
        pairs.append((lhs, rhs))
    return pairs

def _ev_eq10p(A, xs, beta):
    a, b = xs
    p = _assoc_p(A, a, b)
    ba = A.mul(b, a)
    pairs = []
    for k in range(3):
        lhs = compose(alpha_op(A, 2), right_mul_op(A, A.shift(p, k)))
        rhs = compose(
            alpha_op(A, 1), op_sub(A, A.shift(a, k + 1), A.shift(ba, k))
        ) - compose(
            op_sub(A, A.shift(a, k), A.shift(b, k)),
            right_mul_op(A, A.shift(a, k + 2)),
        )
        pairs.append((lhs, rhs))
    return pairs


def _mikheev_chain(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    """The product ``a^b p' p_1' p_2' alpha^6`` with ``p = (a, a, b)``."""
    p = _assoc_p(A, a, b)
    return compose(
        op_sup(A, a, b),
        right_mul_op(A, p),
        right_mul_op(A, A.shift(p, 1)),
        right_mul_op(A, A.shift(p, 2)),
        alpha_op(A, 6),
    )

def _d_term(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    ba = A.mul(b, a)
    return -compose(
        op_sup(A, a, b),
        alpha_op(A, 1),
        op_sub(A, A.shift(a, 3), A.shift(ba, 2)),
        alpha_op(A, 1),
        op_sup(A, A.shift(a, 6), A.shift(ba, 5)),
        op_sub(A, A.shift(a, 8), A.shift(b, 8)),
        right_mul_op(A, A.shift(a, 10)),
    )

def _e_term(A: HomAlgebra, a: Element, b: Element) -> RightOp:
    ba = A.mul(b, a)
    return -compose(
        op_sup(A, a, b),
        alpha_op(A, 1),
        op_sub(A, A.shift(a, 3), A.shift(ba, 2)),
        right_mul_op(A, A.shift(a, 5)),
        op_sup(A, A.shift(a, 6), A.shift(b, 6)),
        alpha_op(A, 1),
        op_sub(A, A.shift(a, 9), A.shift(ba, 8)),
    )

def _ev_dpe(A, xs, beta):
    a, b = xs
    return [(_mikheev_chain(A, a, b), _d_term(A, a, b) + _e_term(A, a, b))]

def _ev_d0(A, xs, beta):
    a, b = xs
    return [(_d_term(A, a, b), zero_op(A.dim))]

def _ev_e0(A, xs, beta):
    a, b = xs
    return [(_e_term(A, a, b), zero_op(A.dim))]

def _ev_prop(A, xs, beta):
    a, b = xs
    return [(_mikheev_chain(A, a, b), zero_op(A.dim))]


def _entry(tag, label, var_names, kind, mult, ralt, elem_degree, map_weight, fn):
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
        evaluate=fn,
    )


# The rows live in the light module :mod:`homalt.identities`; the row of
# tag ``t`` is evaluated by ``_ev_t``.
_REGISTRY: tuple[IdentityInstance, ...] = tuple(
    _entry(*row, globals()[f"_ev_{row[0]}"]) for row in ROWS
)


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


def _probe_side(diff: Side, probe: int | None = None) -> tuple[Element, int | None]:
    """Nonzero element extracted from a difference: the element itself, or
    for an operator its row ``probe`` (by default the first nonzero row)."""
    if isinstance(diff, Element):
        return diff, None
    if probe is None:
        probe = min(diff.rows)
    coords: list = [0] * diff.dim
    for k, c in diff.rows.get(probe, ()):
        coords[k] = c
    return Element(tuple(coords)), probe


def _evaluate_at(A, inst, beta, point: dict[str, Rational]) -> list[tuple[Side, Side]]:
    """The identity's pairs at a point that instantiates the parameters and
    the argument coordinates ``<name>_<i>`` (missing coordinates are 0)."""
    A_pt = substitute_params(A, {p: point[p] for p in A.params if p in point})
    beta_pt = substitute_rows(beta, point) if beta else beta
    xs = [Element(tuple(point.get(f"{v}_{i + 1}", 0) for i in range(A.dim)))
          for v in inst.var_names]
    return inst.evaluate(A_pt, xs, beta_pt)


def _witness_at(A, inst, beta, point: dict[str, Rational]) -> Witness | None:
    """The witness at ``point`` if the identity fails there."""
    hit = _first_mismatch(_evaluate_at(A, inst, beta, point))
    if hit is None:
        return None
    idx, diff = hit
    element, probe = _probe_side(diff)
    return Witness(element=element, point=point, probe=probe, pair_index=idx)


def _find_witness(A, inst, beta, variables: Sequence[str], seed: int = 0) -> Witness:
    """A concrete integer point where an identity that fails symbolically in
    ``variables`` (every other coordinate 0) still fails: 1000 small random
    points, then :func:`_grid_witness`."""
    rng = random.Random(seed)
    for attempt in range(1000):
        bound = 3 + attempt // 50
        witness = _witness_at(A, inst, beta, {v: rng.randint(-bound, bound) for v in variables})
        if witness is not None:
            return witness
    return _grid_witness(A, inst, beta, variables)


def _grid_witness(A, inst, beta, variables: Sequence[str]) -> Witness:
    """The first failing point of a grid over the variables of one nonzero
    coefficient of the symbolic difference, each ``v`` running over
    ``{d_v, ..., 0}`` with ``d_v`` the coefficient's degree in ``v``.  A
    polynomial that vanishes on that whole grid is zero (Alon, Combinatorial
    Nullstellensatz, 1999, Lemma 2.1), so the grid holds a witness."""
    given = set(variables)
    xs = [Element(tuple(Poly.variable(f"{v}_{i + 1}") if f"{v}_{i + 1}" in given else 0
                        for i in range(A.dim))) for v in inst.var_names]
    hit = _first_mismatch(inst.evaluate(A, xs, beta))
    if hit is None:
        raise ValueError("the identity holds in these variables: no witness exists")
    coeff = next(c for c in _coefficients(hit[1]) if c != 0)
    grid = [v for v in variables if v in scalar_variables(coeff)]
    degrees = [max(e for m in coeff.terms for n, e in m if n == v) for v in grid]
    for values in itertools.product(*(range(d, -1, -1) for d in degrees)):
        at = dict(zip(grid, values))
        if substitute(coeff, at) != 0:
            return _witness_at(A, inst, beta, {v: at.get(v, 0) for v in variables})
    raise AssertionError("a nonzero polynomial vanished on its degree grid")


def _support_tuples(dim: int, max_size: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(1, min(max_size, dim) + 1):
        out.extend(itertools.combinations(range(dim), size))
    return out


def _generic_pairs(A, inst, beta) -> tuple[HomAlgebra, list[tuple[Side, Side]]]:
    """The identity's pairs on arguments with indeterminate coordinates
    ``<name>_<i>``, and the algebra extended by those indeterminates."""
    extended = A
    xs = []
    for name in inst.var_names:
        extended, x = generic_element(extended, name)
        xs.append(x)
    return extended, inst.evaluate(extended, xs, beta)


def _coefficients(diff: Side) -> list[Scalar]:
    """The coordinates of an element, or the entries of an operator."""
    if isinstance(diff, Element):
        return list(diff.coords)
    return [c for row in diff.rows.values() for _, c in row]


def _support_patterns(A, inst, pairs) -> set[tuple[frozenset[int], ...]]:
    """Per-slot coordinate supports of the monomials of the differences: slot
    ``s`` holds each ``i`` with ``<var_names[s]>_<i + 1>`` in the monomial."""
    slot_of = {f"{v}_{i + 1}": (s, i) for s, v in enumerate(inst.var_names) for i in range(A.dim)}
    patterns = set()
    for lhs, rhs in pairs:
        for c in _coefficients(lhs - rhs):
            for m in c.terms if isinstance(c, Poly) else ([()] if c != 0 else []):
                slots: list[set[int]] = [set() for _ in inst.var_names]
                for s, i in (slot_of[var] for var, _ in m if var in slot_of):
                    slots[s].add(i)
                patterns.add(tuple(map(frozenset, slots)))
    return patterns


def _verify_generic(A, inst, beta) -> CheckReport:
    extended, pairs = _generic_pairs(A, inst, beta)
    if _first_mismatch(pairs) is None:
        return CheckReport(inst.tag, HOLDS, "generic")
    witness = _find_witness(extended, inst, beta, list(extended.params))
    return CheckReport(inst.tag, FAILS, "generic", witness=witness)


def _verify_subset(A, inst, beta, subset_max: int) -> CheckReport:
    """Sweep the support combos as a view of the one generic evaluation.

    Evaluators are polynomial in the coordinates, so a combo's difference is
    the generic one with the coordinates outside the combo set to 0: it is
    nonzero exactly when the combo contains, slot by slot, the support of a
    monomial.  The cost is one generic evaluation even when the first combo
    fails, which on dense structure constants is far more than evaluating
    that combo alone.
    """
    _, pairs = _generic_pairs(A, inst, beta)
    patterns = [p for p in _support_patterns(A, inst, pairs) if max(map(len, p)) <= subset_max]
    supports = _support_tuples(A.dim, subset_max)
    as_set = {support: frozenset(support) for support in supports}
    checked = 0
    for combo in itertools.product(supports, repeat=inst.arity):
        checked += 1
        if any(all(need <= as_set[t] for need, t in zip(p, combo)) for p in patterns):
            variables = list(A.params) + [
                f"{v}_{i + 1}" for v, support in zip(inst.var_names, combo) for i in support
            ]
            witness = _find_witness(A, inst, beta, variables)
            return CheckReport(inst.tag, FAILS, "subset", points=checked, witness=witness)
    return CheckReport(inst.tag, HOLDS, "subset", points=checked)


def _verify_random(A, inst, beta, seed: int, points: int) -> CheckReport:
    rng = random.Random(seed)
    sample = {"points": points, "seed": seed, "degree_bound": inst.degree_bound(A)}
    names = list(A.params) + [n for v in inst.var_names for n in coordinate_names(A, v)]
    for _ in range(points):
        point = {name: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for name in names}
        witness = _witness_at(A, inst, beta, point)
        if witness is not None:
            return CheckReport(inst.tag, FAILS, "random", witness=witness, **sample)
    return CheckReport(inst.tag, RANDOM_PASS, "random", **sample)


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
        return _verify_subset(A, inst, beta_rows, subset_max)
    if strategy == "random":
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
    if report.witness is None or report.witness.point is None:
        raise ValueError("report carries no point witness")
    inst = get_identity(report.check)
    lhs, rhs = _evaluate_at(A, inst, _resolve_beta(A, beta), report.witness.point)[
        report.witness.pair_index or 0
    ]
    diff = lhs - rhs
    if not isinstance(diff, Element) and report.witness.probe is None:
        raise ValueError("operator witness without probe index")
    return _probe_side(diff, report.witness.probe)[0]
