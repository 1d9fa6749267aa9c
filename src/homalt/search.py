"""Point evaluation, witness search, and the subset and random strategies.

:mod:`homalt.proof_replay` imports this module only for the calls that run
it: a failing generic check (to find a witness), the ``subset`` and
``random`` strategies, and the replay of a point witness.  A holding
generic check never loads it.

A witness is a concrete point: a rational value for every parameter and
argument coordinate ``<name>_<i>`` in play (the others are 0), and for
operator identities the probe basis index whose image row differs.
:func:`_find_witness` tries small random integer points and falls back to a
grid that a nonzero polynomial cannot vanish on; the grid reads the failing
check's own generic differences, with the coordinates outside its variables
set to 0, so the identity is evaluated symbolically only once.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Sequence

from .homalgebra import (
    FAILS,
    HOLDS,
    RANDOM_PASS,
    CheckReport,
    Element,
    Witness,
    _element,
    coordinate_name,
    substitute_params,
)
from .identities import _coefficients
from .proof_replay import Side, _generic_pairs, _variables
from .scalars import Poly, Rational, substitute, variables as scalar_variables

RANDOM_BOUND = 10**6


def _probe_side(diff: Side, probe: int | None = None) -> tuple[Element, int | None]:
    """Nonzero element extracted from a difference: the element itself, or
    for an operator its row ``probe`` (by default the first nonzero row)."""
    if isinstance(diff, Element):
        return diff, None
    if probe is None:
        probe = min(diff.rows)
    return _element(diff.dim, dict(diff.rows.get(probe, ()))), probe


def _evaluate_at(A, inst, point: dict[str, Rational]) -> list[tuple[Side, Side]]:
    """The identity's pairs at a point that instantiates the parameters and
    the argument coordinates ``<name>_<i>`` (missing coordinates are 0)."""
    A_pt = substitute_params(A, {p: point[p] for p in A.params if p in point})
    xs = [Element(tuple(point.get(coordinate_name(v, i), 0) for i in range(A.dim)))
          for v in inst.var_names]
    return inst.evaluate(A_pt, xs)


def _witness_at(A, inst, point: dict[str, Rational]) -> Witness | None:
    """The witness at ``point`` if the identity fails there."""
    for idx, (lhs, rhs) in enumerate(_evaluate_at(A, inst, point)):
        diff = lhs - rhs
        if not diff.is_zero():
            element, probe = _probe_side(diff)
            return Witness(element=element, point=point, probe=probe, pair_index=idx)
    return None


def _find_witness(A, inst, diffs: Sequence[Side], variables: Sequence[str]) -> Witness:
    """A concrete integer point where an identity whose generic differences
    ``diffs`` fail in ``variables`` (every other coordinate 0) still fails:
    1000 small random points of the generator seeded with 0, then a grid
    over the variables of the first coefficient of ``diffs`` nonzero at those
    zeros, each ``v`` running over ``{d_v, ..., 0}`` with ``d_v`` its degree
    in ``v``.  A polynomial that vanishes on that whole grid is zero (Alon,
    Combinatorial Nullstellensatz, 1999, Lemma 2.1)."""
    rng = random.Random(0)
    for attempt in range(1000):
        bound = 3 + attempt // 50
        witness = _witness_at(A, inst, {v: rng.randint(-bound, bound) for v in variables})
        if witness is not None:
            return witness
    zeros = {v: 0 for v in _variables(A, inst) if v not in variables}
    at_zeros = (substitute(c, zeros) for diff in diffs for c in _coefficients(diff))
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


def _support_rank(dim: int, support: tuple[int, ...]) -> int:
    """Position of a support among the nonempty subsets of ``range(dim)``
    ordered by size, then lexicographically (combinatorial number system)."""
    size = len(support)
    return (sum(comb(dim, k) for k in range(1, size + 1)) - 1
            - sum(comb(dim - 1 - i, size - s) for s, i in enumerate(support)))


def _support_patterns(A, inst, diffs) -> set[tuple[frozenset[int], ...]]:
    """Per-slot coordinate supports of the monomials of the differences: slot
    ``s`` holds each ``i`` with ``<var_names[s]>_<i + 1>`` in the monomial."""
    slot_of = {coordinate_name(v, i): (s, i)
               for s, v in enumerate(inst.var_names) for i in range(A.dim)}
    patterns = set()
    for diff in diffs:
        for c in _coefficients(diff):
            for m in c.terms if isinstance(c, Poly) else ([()] if c != 0 else []):
                slots: list[set[int]] = [set() for _ in inst.var_names]
                for s, i in (slot_of[var] for var, _ in m if var in slot_of):
                    slots[s].add(i)
                patterns.add(tuple(map(frozenset, slots)))
    return patterns


def _verify_subset(A, inst, subset_max: int) -> CheckReport:
    """Decide the support combos as a view of the one generic evaluation.

    The sweep is every combo of supports of size 1 to ``subset_max`` per
    slot, in the order of their support ranks.  A combo's difference is the
    generic one with the coordinates outside it set to 0, so it fails
    exactly when it contains, slot by slot, the support of a monomial (a
    pattern).  The first combo holding a pattern takes the pattern's own
    support in each slot, or ``(0,)`` where it is empty; the least of these
    is the first failure and ``points`` its position, so no combo is built
    or walked.  With no pattern that fits, every combo holds.  The cost is
    one generic evaluation even when the first combo fails, which on dense
    structure constants is far more than that combo.
    """
    diffs = [lhs - rhs for lhs, rhs in _generic_pairs(A, inst)]
    patterns = [p for p in _support_patterns(A, inst, diffs) if max(map(len, p)) <= subset_max]
    supports = sum(comb(A.dim, k) for k in range(1, min(subset_max, A.dim) + 1))
    if not patterns:
        return CheckReport(inst.tag, HOLDS, "subset", points=supports ** inst.arity)

    def position(combo: tuple[tuple[int, ...], ...]) -> int:
        return sum(_support_rank(A.dim, t) * supports ** (len(combo) - 1 - s)
                   for s, t in enumerate(combo))

    combo = min((tuple(tuple(sorted(need)) or (0,) for need in p) for p in patterns), key=position)
    variables = list(A.params) + [
        coordinate_name(v, i) for v, support in zip(inst.var_names, combo) for i in support
    ]
    witness = _find_witness(A, inst, diffs, variables)
    return CheckReport(inst.tag, FAILS, "subset", points=position(combo) + 1, witness=witness)


def _verify_random(A, inst, seed: int, points: int) -> CheckReport:
    rng = random.Random(seed)
    sample = {"points": points, "seed": seed, "degree_bound": inst.degree_bound(A)}
    names = _variables(A, inst)
    for _ in range(points):
        point = {name: rng.randint(-RANDOM_BOUND, RANDOM_BOUND) for name in names}
        witness = _witness_at(A, inst, point)
        if witness is not None:
            return CheckReport(inst.tag, FAILS, "random", witness=witness, **sample)
    return CheckReport(inst.tag, RANDOM_PASS, "random", **sample)

