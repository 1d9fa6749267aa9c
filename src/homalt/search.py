"""Witness search, and the subset and random strategies.

:mod:`homalt.proof_replay` imports this module only for the calls that run
it: a failing generic check (to find a witness) and the ``subset`` and
``random`` strategies.  A holding generic check and the replay of a point
witness never load it.  An entry is evaluated through its own
:meth:`~homalt.identities.IdentityInstance.generic_pairs` and
:meth:`~homalt.identities.IdentityInstance.pairs_at`, and this module
imports only :mod:`homalt.homalgebra`, :mod:`homalt.identities` and
:mod:`homalt.scalars`.

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
from typing import TYPE_CHECKING, Sequence

from .homalgebra import FAILS, HOLDS, RANDOM_PASS, CheckReport, Witness
from .identities import _coefficients, _probe_side
from .scalars import Poly, Rational, substitute, variables as scalar_variables

if TYPE_CHECKING:
    from .identities import Side

RANDOM_BOUND = 10**6


def _witness_at(A, inst, point: dict[str, Rational]) -> Witness | None:
    """The witness at ``point`` if the identity fails there."""
    for idx, (lhs, rhs) in enumerate(inst.pairs_at(A, point)):
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
    zeros = {v: 0 for v in inst.variables(A) if v not in variables}
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
    ``s`` holds each ``i`` with ``inst.arguments(A)[s][i]`` in the monomial."""
    slot_of = {name: (s, i)
               for s, names in enumerate(inst.arguments(A)) for i, name in enumerate(names)}
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
    diffs = [lhs - rhs for lhs, rhs in inst.generic_pairs(A)]
    patterns = [p for p in _support_patterns(A, inst, diffs) if max(map(len, p)) <= subset_max]
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
    witness = _find_witness(A, inst, diffs, variables)
    return CheckReport(inst.tag, FAILS, "subset", points=position(combo) + 1, witness=witness)


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

