"""Exact properties that hold on every algebra, over seeded inputs.

* Derived degree bounds: every coefficient of each value of a generic
  evaluation has total degree at most ``inst.degree_bound(A)``, and the
  evaluation that derives it stays in its ring of degrees.  The random
  strategy reports that bound.
* Cross-route agreement: the strategies and the equivalent entries decide
  the same identity the same way, a failing generic report carries the
  witness of subset with every support, and every failing report replays;
  also over algebras that hypothesis draws (dimension 1-3, int and fraction
  structure constants), with a fixed set of examples.
* Small witnesses: on the identity-twisted A(7/3, -5/2) every failing
  generic witness sets at most 4 coordinates.

The seeded algebras are those of ``test_scans.py`` and ``test_subset.py``.
Few of them satisfy the entries' preconditions, so every verification here
skips them (``skip_preconditions=True``): the properties hold for any
algebra, whether or not the entry is a theorem on it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from homalt.homalgebra import FAILS, HOLDS, RANDOM_PASS, HomAlgebra, is_right_hom_alternative
from homalt.proof_replay import (
    REGISTRY,
    _coefficients,
    _Degree,
    _degree_model,
    replay_identity_witness,
    verify,
)
from homalt.scalars import degree
from test_metamorphic import _refute_algebra
from test_scans import random_algebra as scan_algebra
from test_subset import CHAINS, random_algebra as subset_algebra


# --- derived degree bounds ---

def _assert_degrees_within_bound(A, inst):
    bound = inst.degree_bound(A)
    for value in inst.generic_values(A):
        observed = max((degree(c) for c in _coefficients(value)), default=0)
        assert observed <= bound, (inst.tag, observed, bound)


@pytest.mark.parametrize("inst", REGISTRY, ids=lambda inst: inst.tag)
def test_degree_bound_on_symbolic_family(fam_sym, inst):
    _assert_degrees_within_bound(fam_sym, inst)


@pytest.mark.parametrize("inst", REGISTRY, ids=lambda inst: inst.tag)
def test_degree_bound_on_seeded_poly_algebras(inst):
    # The Poly-coefficient algebras of test_subset.py; the long chains at
    # dimension at most 2, where their generic evaluation does not swell.
    # Seeds 7 and 9 draw dimension 2, and there mikheev_classical, with 18
    # products and twists, reaches degree 30.
    if inst.tag in CHAINS:
        algebras = [subset_algebra(seed, "poly", max_dim=2) for seed in range(100, 105)]
        algebras += [subset_algebra(seed, "poly") for seed in (7, 9)]
    else:
        algebras = [subset_algebra(seed, "poly") for seed in range(10)]
    for A in algebras:
        _assert_degrees_within_bound(A, inst)


@pytest.mark.parametrize("inst", REGISTRY, ids=lambda inst: inst.tag)
def test_degree_bound_on_seeded_rational_algebras(inst):
    # The int and fraction algebras of test_subset.py.  With rational
    # constants the bound is the degree in the argument coordinates, and
    # the generic evaluation often reaches it: xyyz and moufang have degree
    # 4 on int seeds 5, 6 and 2, 4.
    for kind in ("int", "fraction"):
        for seed in range(12):
            _assert_degrees_within_bound(subset_algebra(seed, kind), inst)


@pytest.mark.parametrize("inst", REGISTRY, ids=lambda inst: inst.tag)
def test_degree_model_stays_in_its_ring(fam_sym, inst):
    # degree_bound runs the evaluator on _Degree scalars; an operation
    # outside their ring fails here, not in a random run.
    values = inst.evaluate(*_degree_model(fam_sym, inst.arity))
    assert values
    for value in values:
        for c in _coefficients(value):
            assert type(c) is _Degree or (type(c) is int and c == 0), (inst.tag, c)


# --- cross-route agreement ---

# Short entries of arity 1 to 3, element and operator kinds, on the seeded
# algebras of test_scans.py; the other 20 entries on the int and fraction
# algebras of test_subset.py.  Together they are the whole registry.
AGREEMENT_TAGS = ("xyy", "linearized", "eq1", "eq3a", "eq3b")
LONG_TAGS = ("teichmuller", "xyyz", "moufang", "beta2", "eq2", "eq2p", "eq5", "eq5p", "eq6",
             "eq7", "eq8", "eq9", "eq10", "eq10p", "dpe", "d0", "e0", "prop", "theorem",
             "mikheev_classical")
SEEDS = range(120)
LONG_SEEDS = range(24)


@pytest.fixture(scope="module")
def inputs():
    """``{label: (algebra, tags, seed)}``; a test_scans.py algebra is
    labelled by its seed."""
    out = {seed: (scan_algebra(seed), AGREEMENT_TAGS, seed) for seed in SEEDS}
    for kind in ("int", "fraction"):
        for seed in LONG_SEEDS:
            out[f"{kind}/{seed}"] = (subset_algebra(seed, kind), LONG_TAGS, seed)
    return out


@pytest.fixture(scope="module")
def verdicts(inputs):
    """``{(label, tag, route): report}`` over the inputs; subset runs with
    K = dim, random with 3 points."""
    out = {}
    for label, (A, tags, seed) in inputs.items():
        for tag in tags:
            out[label, tag, "generic"] = verify(A, tag, "generic", skip_preconditions=True)
            out[label, tag, "subset"] = verify(A, tag, "subset", subset_max=A.dim,
                                               skip_preconditions=True)
            out[label, tag, "random"] = verify(A, tag, "random", seed=seed, points=3,
                                               skip_preconditions=True)
    return out


def test_agreement_covers_the_registry():
    assert sorted(AGREEMENT_TAGS + LONG_TAGS) == sorted(inst.tag for inst in REGISTRY)


def test_inputs_cover_both_verdicts(verdicts):
    statuses = {tag: set() for tag in AGREEMENT_TAGS + LONG_TAGS}
    for (_, tag, route), report in verdicts.items():
        if route == "generic":
            statuses[tag].add(report.status)
    for tag, seen in statuses.items():
        assert seen == {HOLDS, FAILS}, tag


def test_subset_with_every_support_agrees_with_generic(verdicts):
    # K = dim admits every support, so subset covers what generic covers,
    # and a failing generic check carries that sweep's witness.
    for (label, tag, route), report in verdicts.items():
        if route == "subset":
            generic = verdicts[label, tag, "generic"]
            assert report.status == generic.status, (label, tag)
            assert report.witness == generic.witness, (label, tag)


def test_random_never_fails_where_generic_holds(verdicts):
    # A failing random point is a proof that the identity fails.
    for (label, tag, route), report in verdicts.items():
        if route == "random" and verdicts[label, tag, "generic"].status == HOLDS:
            assert report.status != FAILS, (label, tag)


def test_every_failing_report_replays(inputs, verdicts):
    for (label, tag, route), report in verdicts.items():
        if report.status == FAILS:
            replayed = replay_identity_witness(inputs[label][0], report)
            assert replayed == report.witness.element, (label, tag, route)
            assert not replayed.is_zero(), (label, tag, route)


def test_forms_of_right_alternativity_agree(verdicts):
    # eq1 (a'a_1' = alpha (a^2)') and eq3a (a^a = 0) both say
    # (x a) alpha(a) = alpha(x) (a a) for all x: xyy with y = a.  The
    # right-alt scan checks the linearization of the same law, which over
    # characteristic zero is equivalent.
    for seed in SEEDS:
        xyy = verdicts[seed, "xyy", "generic"].status
        assert verdicts[seed, "eq1", "generic"].status == xyy, seed
        assert verdicts[seed, "eq3a", "generic"].status == xyy, seed
        assert is_right_hom_alternative(scan_algebra(seed)).status == xyy, seed


@st.composite
def small_algebras(draw):
    """An algebra of dimension 1-3 with int and fraction structure constants
    and twist rows; repeated indices in a row add up."""
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    scalar = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
    row = st.lists(st.tuples(index, scalar), max_size=dim)
    mu = draw(st.dictionaries(st.tuples(index, index), row, max_size=dim * dim))
    alpha = draw(st.dictionaries(index, row, max_size=dim))
    return HomAlgebra(dim, mu, alpha)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(A=small_algebras(), tag=st.sampled_from(AGREEMENT_TAGS), seed=st.integers(0, 999))
def test_routes_agree_on_drawn_algebras(A, tag, seed):
    generic = verify(A, tag, "generic", skip_preconditions=True)
    subset = verify(A, tag, "subset", subset_max=A.dim, skip_preconditions=True)
    sampled = verify(A, tag, "random", seed=seed, points=3, skip_preconditions=True)
    assert subset.status == generic.status
    assert subset.witness == generic.witness
    # A failing random point proves a failure; so where generic holds,
    # random passes.
    if generic.status == HOLDS:
        assert sampled.status == RANDOM_PASS
    for report in (generic, subset, sampled):
        if report.status == FAILS:
            replayed = replay_identity_witness(A, report)
            assert replayed == report.witness.element
            assert not replayed.is_zero()


# --- small witnesses ---

# The 14 entries whose generic difference is nonzero on the identity-twisted
# A(7/3, -5/2), which is not right Hom-alternative.
REFUTED_TAGS = ("xyy", "linearized", "xyyz", "moufang", "eq1", "eq2", "eq2p", "eq3a", "eq3b",
                "eq5", "eq5p", "eq6", "eq10", "eq10p")


@pytest.fixture(scope="module")
def refute():
    return _refute_algebra()


@pytest.mark.parametrize("tag", REFUTED_TAGS)
def test_generic_witness_sets_few_coordinates(refute, tag):
    # The witness sits on the first failing support combo, the least in
    # support size, so a reader can check it by hand.
    report = verify(refute, tag, "generic", skip_preconditions=True)
    assert report.status == FAILS
    assert 1 <= sum(value != 0 for value in report.witness.point.values()) <= 4
