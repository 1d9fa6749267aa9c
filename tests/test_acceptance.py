"""Acceptance gate: one test per shipping criterion, each with its runtime budget.

Every check is exact (integer, rational, or polynomial equality); there are no
tolerances anywhere.  Each test prints one ``[PASS]/[FAIL] criterion N`` line,
echoed again in the terminal summary.
"""

import time

from conftest import record_acceptance

from homalt.algfile import parse_document, serialize_algebra
from homalt.catalog import (
    FamilyParams,
    family_nonisomorphism_condition,
    mikheev_family,
    mikheev_morphism,
    spectrum_certificate,
)
from homalt.homalgebra import (
    HomAlgebra,
    is_multiplicative,
    is_right_hom_alternative,
    is_weak_morphism,
    replay_structural_witness,
    substitute_params,
)
from homalt.proof_replay import replay_identity_witness, verify, verify_all
from homalt.scalars import Poly
from homalt.homalgebra import is_hom_nilpotent, is_left_hom_alternative, is_morphism

lam = Poly.variable("lambda")
xi = Poly.variable("xi")


def _criterion(n, label, budget, body):
    start = time.monotonic()
    ok = False
    failure = None
    try:
        body()
        elapsed = time.monotonic() - start
        ok = budget is None or elapsed < budget
        if not ok:
            failure = AssertionError(
                f"criterion {n} took {elapsed:.1f}s, budget {budget:.0f}s")
    except BaseException as exc:
        elapsed = time.monotonic() - start
        failure = exc
    shown = f"{budget:.0f}s" if budget is not None else "no budget"
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"[{status}] criterion {n} ({elapsed:.2f}s, {shown}): {label}")
    if failure is not None:
        raise failure


def test_criterion_1_base_algebra(mikheev):
    def body():
        right = is_right_hom_alternative(mikheev)
        assert right.status == "holds"
        assert right.strategy == "basis"
        left = is_left_hom_alternative(mikheev)
        assert left.status == "fails"
        assert left.witness.basis == (0, 0, 1)
        e = mikheev.basis()
        assert left.witness.element == e[6] - e[7]
        assert mikheev.hom_associator(e[0], e[0], e[1]) == e[6] - e[7]
        p = e[6] - e[7]
        assert mikheev.hom_power(p, 2) == -e[12]
        assert mikheev.hom_power(p, 4).is_zero()
        assert is_hom_nilpotent(mikheev, p, 6) == 3

    _criterion(1, "base algebra alternativity, witness, and powers", 5.0, body)


def test_criterion_2_family_construction(mikheev, fam_sym, plain_twisted):
    def body():
        base = mikheev.with_params(("lambda", "xi"))
        rows = mikheev_morphism(FamilyParams.symbolic())
        assert is_morphism(base, rows).status == "holds"
        assert is_multiplicative(fam_sym).status == "holds"
        assert is_right_hom_alternative(fam_sym).status == "holds"
        report = is_right_hom_alternative(plain_twisted)
        assert report.status == "fails"
        e = plain_twisted.basis()
        left_side = plain_twisted.mul(plain_twisted.mul(e[1], e[0]), e[0])
        right_side = plain_twisted.mul(e[1], plain_twisted.mul(e[0], e[0]))
        assert left_side == e[9].scale(lam**3 * xi**2)
        assert right_side == e[9].scale(lam**4 * xi)
        assert left_side != right_side

    _criterion(2, "morphism family and its twisted product, symbolically", 30.0, body)


def test_criterion_3_main_identity(mikheev, fam_sym, fam23):
    def body():
        generic = verify(mikheev, "theorem", strategy="generic")
        assert generic.status == "holds"
        sweep = verify(fam_sym, "theorem", strategy="subset", subset_max=3)
        assert sweep.status == "holds"
        assert sweep.points == 142129
        sampled = verify(fam23, "theorem", strategy="random", seed=0, points=100)
        assert sampled.status == "random-pass"
        assert sampled.points == 100

    _criterion(3, "main identity: generic, support sweep, and 100 random points",
               600.0, body)


def test_criterion_4_classical_identity(mikheev, fam_sym, fam23):
    def body():
        assert verify(mikheev, "mikheev_classical", strategy="generic").status == "holds"
        sweep = verify(fam_sym, "mikheev_classical", strategy="subset", subset_max=3)
        assert sweep.status == "holds"
        sampled = verify(fam23, "mikheev_classical", strategy="random", seed=0, points=100)
        assert sampled.status == "random-pass"

    _criterion(4, "fourth Hom-power vanishes without the twist prefix", 600.0, body)


def test_criterion_5_full_registry(mikheev, fam23, fam57):
    def body():
        on_base = verify_all(mikheev, strategy="generic")
        assert len(on_base) == 25
        assert all(r.passed() for r in on_base)
        assert all(r.report.status == "holds" for r in on_base)
        for A in (fam23, fam57):
            sampled = verify_all(A, strategy="random", seed=1, points=50)
            assert all(r.passed() for r in sampled)

    _criterion(5, "all 25 registry identities on the base algebra and two family members",
               300.0, body)


def test_criterion_6_nonvanishing_square(mikheev, fam_sym):
    def body():
        e = fam_sym.basis()
        p = fam_sym.hom_associator(e[0], e[0], e[1])
        assert p == (e[6] - e[7]).scale(lam**4 * xi**2)
        square = fam_sym.hom_power(p, 2)
        assert square.support() == (12,)
        assert square == e[12].scale(-(lam**12) * xi**6)
        base = mikheev.with_params(("lambda", "xi"))
        plain_square = base.mul(p, p)
        assert plain_square == e[12].scale(-(lam**8) * xi**4)

    _criterion(6, "associator square is a nonzero multiple of e13, both conventions",
               None, body)


def test_criterion_7_nonisomorphism(fam23):
    def body():
        assert family_nonisomorphism_condition(2, 3, 5, 7) is True
        assert family_nonisomorphism_condition(2, 3, 2, 3) is False
        other = mikheev_family(FamilyParams.rational(3, 2))
        assert spectrum_certificate(fam23, other) is True

    _criterion(7, "non-isomorphism condition and spectrum certificate", 1.0, body)


def test_criterion_8_serialization(mikheev, fam_sym, fam23):
    def body():
        for A in (mikheev, fam_sym):
            again = parse_document(serialize_algebra(A)).algebra
            assert again.dim == A.dim
            assert again.mu == A.mu
            assert again.alpha == A.alpha
            assert again.params == A.params
        parsed = parse_document(serialize_algebra(fam_sym)).algebra
        sub = substitute_params(parsed, {"lambda": 2, "xi": 3})
        assert sub.mu == fam23.mu
        assert sub.alpha == fam23.alpha

    _criterion(8, "file round-trips and substitution after parsing", None, body)


def test_criterion_9_witness_replay(mikheev, fam23, plain_twisted):
    def body():
        structural = [
            (mikheev, is_left_hom_alternative(mikheev), None),
            (plain_twisted, is_right_hom_alternative(plain_twisted), None),
        ]
        rows = dict(mikheev_morphism(FamilyParams.rational(2, 3)))
        rows[2] = ((2, 2),)
        broken_twist = HomAlgebra(13, dict(mikheev.mu), rows)
        structural.append((broken_twist, is_multiplicative(broken_twist), None))
        proj = {0: ((0, 1),)}
        structural.append((mikheev, is_weak_morphism(mikheev, proj), proj))
        for A, report, f in structural:
            assert report.status == "fails"
            replayed = replay_structural_witness(A, report, f)
            assert replayed == report.witness.element
            assert not replayed.is_zero()

        identity_reports = [
            verify(plain_twisted, "xyy", strategy="generic"),
            verify(plain_twisted, "xyy", strategy="subset", subset_max=2),
            verify(plain_twisted, "xyy", strategy="random", seed=2, points=20),
            verify(plain_twisted, "linearized", strategy="generic",
                   skip_preconditions=True),
            verify(plain_twisted, "eq1", strategy="generic", skip_preconditions=True),
        ]
        for report in identity_reports:
            assert report.status == "fails"
            replayed = replay_identity_witness(plain_twisted, report)
            assert replayed == report.witness.element
            assert not replayed.is_zero()

    _criterion(9, "every failing report replays to a nonzero element", None, body)
