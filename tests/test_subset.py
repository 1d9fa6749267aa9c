"""The subset strategy against a reference sweep that evaluates every combo.

The reference below is the per-combo loop the subset strategy was first
written as: for each support combo it builds elements whose coordinates are
indeterminates on the combo and 0 elsewhere, and evaluates the identity on
them.  It is kept here as the oracle for ``_verify_subset``, which reads
every combo off one generic evaluation instead.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homalt.proof_replay
from homalt import FamilyParams, mikheev_algebra, mikheev_family
from homalt.algfile import serialize_algebra
from homalt.homalgebra import FAILS, HOLDS, CheckReport, Element, HomAlgebra
from homalt.proof_replay import (
    IdentityInstance,
    _find_witness,
    get_identity,
    identity_tags,
    replay_identity_witness,
    verify,
)
from homalt.scalars import Poly
from test_scans import direct_sum

t = Poly.variable("t")


# --- the reference sweep ---

def _support_tuples(dim, max_size):
    out = []
    for size in range(1, min(max_size, dim) + 1):
        out.extend(itertools.combinations(range(dim), size))
    return out


def _support_generics(A, prefixes, supports):
    out = []
    for prefix, support in zip(prefixes, supports):
        coords: list = [0] * A.dim
        for i in support:
            coords[i] = Poly.variable(f"{prefix}_{i + 1}")
        out.append(Element(tuple(coords)))
    return out


def reference_subset(A, inst, subset_max):
    supports = _support_tuples(A.dim, subset_max)
    checked = 0
    for combo in itertools.product(supports, repeat=inst.arity):
        checked += 1
        xs = _support_generics(A, inst.var_names, combo)
        values = inst.evaluate(A, *xs)
        if not all(value.is_zero() for value in values):
            variables = list(A.params) + [
                f"{prefix}_{i + 1}"
                for prefix, support in zip(inst.var_names, combo)
                for i in support
            ]
            # The combo's own values, where the subset strategy passes the
            # generic ones: both must lead to the same witness.
            witness = _find_witness(A, inst, values, variables)
            return CheckReport(inst.tag, FAILS, "subset", points=checked, witness=witness)
    return CheckReport(inst.tag, HOLDS, "subset", points=checked)


def _reference(A, tag, subset_max):
    return reference_subset(A, get_identity(tag), subset_max)


def _subset(A, tag, subset_max):
    return verify(A, tag, "subset", subset_max=subset_max, skip_preconditions=True)


# --- seeded algebras ---

def _coeff(rng, kind):
    if kind == "int":
        return rng.choice([-2, -1, 1, 2, 3])
    if kind == "fraction":
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3]))
    return rng.choice([1, -1, 2]) * t + rng.choice([0, 1, Fraction(-1, 2)])


def random_algebra(seed, kind, max_dim=3):
    """A sparse algebra of dimension 1 to ``max_dim``: each basis product and
    twist row is a single term, with int, Fraction or Poly (in ``t``)
    coefficients."""
    rng = random.Random(seed)
    dim = rng.randint(1, max_dim)
    mu = {
        (i, j): ((rng.randrange(dim), _coeff(rng, kind)),)
        for i in range(dim)
        for j in range(dim)
        if rng.random() < 0.4
    }
    alpha = {i: ((rng.randrange(dim), _coeff(rng, kind)),) for i in range(dim) if rng.random() < 0.8}
    return HomAlgebra(dim, mu, alpha, params=("t",) if kind == "poly" else ())


KINDS = ("int", "fraction", "poly")
# The long chains: their generic evaluation swells with polynomial
# coefficients at dimension 3 (for dpe on one such algebra it takes minutes,
# where the reference stops at combo 1), so over Poly they run at dimension
# at most 2.
CHAINS = ("eq8", "eq9", "dpe", "d0", "e0", "prop", "theorem", "mikheev_classical")


def _cases():
    """(label, algebra, tag, K) over seeded algebras: every registry entry,
    each with K drawn from {1, 2} (K = 1 for the chains), on all three
    coefficient kinds, and a few entries on catalog algebras."""
    out = []
    for kind in KINDS:
        for seed in range(6):
            A = random_algebra(seed, kind)
            rng = random.Random(f"{kind}/{seed}")
            for tag in identity_tags():
                if tag not in CHAINS:
                    out.append((f"{kind}/{seed}", A, tag, rng.choice((1, 2))))
        for seed in range(100, 105):
            A = random_algebra(seed, kind, max_dim=2 if kind == "poly" else 3)
            out.extend((f"{kind}/{seed}", A, tag, 1) for tag in CHAINS)
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    broken = HomAlgebra(13, dict(fam.mu), {i: ((i, 1),) for i in range(13)})
    out += [("base", mikheev_algebra(), "xyy", 1), ("base", mikheev_algebra(), "eq3a", 2)]
    out += [("identity twist", broken, tag, k)
            for tag, k in (("xyy", 1), ("xyy", 2), ("linearized", 1), ("eq1", 2))]
    return out


@pytest.fixture(scope="module")
def compared():
    """(case, algebra, subset report, reference report) for every case."""
    return [((label, tag, k), A, _subset(A, tag, k), _reference(A, tag, k))
            for label, A, tag, k in _cases()]


def test_subset_matches_reference(compared):
    for case, _, got, want in compared:
        assert got.to_dict() == want.to_dict(), case


def test_failing_subset_reports_replay(compared):
    for case, A, got, _ in compared:
        if got.status == FAILS:
            replayed = replay_identity_witness(A, got)
            assert replayed == got.witness.element, case
            assert not replayed.is_zero(), case


def test_comparison_covers_both_verdicts_and_late_failures(compared):
    reports = [got for _, _, got, _ in compared]
    assert {r.status for r in reports} == {HOLDS, FAILS}
    late = [r for r in reports if r.status == FAILS and r.points > 1]
    assert len(late) >= 20
    assert any(r.witness.probe is not None for r in late)
    assert any(r.witness.pair_index for r in late if r.check in ("eq10", "eq10p"))
    assert {r.check for r in reports} == set(identity_tags())


def _custom(monkeypatch, tag, evaluate):
    base = get_identity(tag)
    inst = IdentityInstance(base.tag, base.requires, evaluate=evaluate)
    registry = tuple(inst if e.tag == tag else e for e in homalt.proof_replay.REGISTRY)
    monkeypatch.setattr(homalt.proof_replay, "REGISTRY", registry)


@pytest.mark.parametrize("case", ["x-only", "y-only", "constant", "parameter"])
def test_subset_matches_reference_with_empty_slots(monkeypatch, case):
    # Values whose monomials leave a slot empty: an empty slot of a
    # pattern is contained in every support.
    def evaluate(A, x, y):
        if case == "x-only":
            return [A.mul(x, A.twist_apply(x))]
        if case == "y-only":
            return [A.zero(), A.mul(y, y) - A.twist_apply(y)]
        if case == "constant":
            return [A.basis_element(A.dim - 1)]
        return [A.basis_element(0).scale(t)]

    _custom(monkeypatch, "xyy", evaluate)
    failures = 0
    for seed in range(6):
        A = random_algebra(seed, "poly")
        got = _subset(A, "xyy", 2)
        assert got.to_dict() == _reference(A, "xyy", 2).to_dict(), seed
        if got.status == FAILS:
            failures += 1
            assert replay_identity_witness(A, got) == got.witness.element
            if case in ("constant", "parameter"):
                assert got.points == 1
    assert failures >= 3


def _count_evaluations(monkeypatch, tag):
    """Record, for every call of the entry's evaluator, whether its
    arguments have symbolic coordinates.  The stand-in names the entry's
    own arguments, so its coordinates keep their names in a witness."""
    inst = get_identity(tag)
    calls = []

    def counted(A, *xs):
        calls.append(any(isinstance(c, Poly) for x in xs for c in x.coords))
        return inst.evaluate(A, *xs)

    stand_ins = {
        ("a",): lambda A, a: counted(A, a),
        ("a", "b"): lambda A, a, b: counted(A, a, b),
        ("x", "y"): lambda A, x, y: counted(A, x, y),
        ("x", "y", "z"): lambda A, x, y, z: counted(A, x, y, z),
    }
    _custom(monkeypatch, tag, stand_ins[inst.var_names])
    return calls


@pytest.mark.parametrize("tag", ["theorem", "eq10"])
def test_holding_sweep_evaluates_once(monkeypatch, tag):
    fam = mikheev_family(FamilyParams.symbolic())
    calls = _count_evaluations(monkeypatch, tag)
    report = verify(fam, tag, "subset", subset_max=2)
    assert report.status == HOLDS
    assert report.points == 8281
    assert calls == [True]


def test_failing_sweep_evaluates_symbolically_once(monkeypatch):
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    broken = HomAlgebra(13, dict(fam.mu), {i: ((i, 1),) for i in range(13)})
    calls = _count_evaluations(monkeypatch, "xyy")
    report = verify(broken, "xyy", "subset", subset_max=2)
    assert report.status == FAILS
    assert report.points == 14
    # One generic evaluation, then the witness search at integer points.
    assert calls[0] is True
    assert not any(calls[1:])


def test_sweep_that_cannot_fail_is_not_walked(tmp_path, mikheev):
    # teichmuller holds generically on the base algebra, so no combo can
    # fail: its 377^4 combos at K = 3 must be counted, not walked one by one.
    path = tmp_path / "base.alg"
    path.write_text(serialize_algebra(mikheev))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "homalt.cli", "check", "--algebra", str(path),
         "--identity", "teichmuller", "--strategy", "subset", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    (record,) = json.loads(proc.stdout)
    assert (record["status"], record["points"]) == (HOLDS, 20200652641)
    # Every combo counts, as when the sweep is walked: 377^3 for linearized.
    report = verify(mikheev, "linearized", "subset", skip_preconditions=True)
    assert (report.status, report.points) == (HOLDS, 53582633)


def test_subset_max_64_on_the_dim_64_direct_sum(mikheev):
    # At the file format's cap each slot has 2^64 - 1 supports: the sweep is
    # decided from support ranks, never built or walked.
    supports = 2**64 - 1
    trivial = HomAlgebra(12, {}, {i: ((i, 1),) for i in range(12)})
    whole = direct_sum(mikheev, mikheev, mikheev, mikheev, trivial)
    assert whole.dim == 64
    report = _subset(whole, "xyy", 64)
    assert (report.status, report.points) == (HOLDS, supports**2)

    # xyy is linear in x and quadratic in y, so every pattern fits in K = 2,
    # and the identity-twist block's first failing combo at K = 2 (from the
    # reference sweep) is its first at any K.  In the sum that block sits at
    # offset 39 after three holding copies of the base algebra, and the
    # supports of size at most 2 come first in the sweep of size 64.
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    broken = HomAlgebra(13, dict(fam.mu), {i: ((i, 1),) for i in range(13)})
    block = _reference(broken, "xyy", 2)
    block_supports = _support_tuples(13, 2)
    ranks = divmod(block.points - 1, len(block_supports))
    combo = [tuple(39 + i for i in block_supports[r]) for r in ranks]
    order = _support_tuples(64, 2)
    first, second = (order.index(support) for support in combo)

    A = direct_sum(mikheev, mikheev, mikheev, broken, trivial)
    report = _subset(A, "xyy", 64)
    assert report.status == FAILS
    assert report.points == first * supports + second + 1
    assert replay_identity_witness(A, report) == report.witness.element
    assert not report.witness.element.is_zero()
