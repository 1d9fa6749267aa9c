"""Identity registry and verification strategies."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import homalt.homalgebra
import homalt.proof_replay
from homalt.homalgebra import (
    FAILS,
    CheckReport,
    Element,
    HomAlgebra,
    Witness,
    identity_rows,
    smallest_alpha_exponent,
    yau_twist,
)
from homalt.catalog import FamilyParams, mikheev_family, mikheev_morphism
from homalt.operators import RightOp, alpha_op, apply, compose, op_sup, right_mul_op
from homalt.proof_replay import (
    REGISTRY,
    PreconditionError,
    get_identity,
    identity_tags,
    replay_identity_witness,
    verify,
    verify_all,
)
from test_metamorphic import generic_arg
from test_subset import _count_evaluations

EXPECTED_TAGS = [
    "xyy", "linearized", "teichmuller", "xyyz", "moufang", "beta2",
    "eq1", "eq2", "eq2p", "eq3a", "eq3b", "eq5", "eq5p", "eq6", "eq7",
    "eq8", "eq9", "eq10", "eq10p", "dpe", "d0", "e0", "prop", "theorem",
    "mikheev_classical",
]


def test_registry_tags_and_order():
    assert identity_tags() == EXPECTED_TAGS
    assert len(REGISTRY) == 25
    assert len(set(identity_tags())) == 25


def test_registry_arities():
    arity = {inst.tag: inst.arity for inst in REGISTRY}
    assert arity["teichmuller"] == 4
    assert arity["xyy"] == 2
    assert arity["linearized"] == 3
    assert arity["xyyz"] == 3
    assert arity["moufang"] == 3
    assert arity["beta2"] == 3
    assert arity["eq1"] == 1
    assert arity["eq3a"] == 1
    assert arity["eq2p"] == 3
    assert arity["eq5p"] == 3
    two_var = ("eq2", "eq3b", "eq5", "eq6", "eq7", "eq8", "eq9", "eq10",
               "eq10p", "dpe", "d0", "e0", "prop", "theorem", "mikheev_classical")
    for tag in two_var:
        assert arity[tag] == 2


def test_registry_kinds(mikheev):
    # An entry's kind is what its evaluator returns on the base algebra.
    x = mikheev.basis_element(0)
    kind = {}
    for inst in REGISTRY:
        types = {type(value) for value in inst.evaluate(mikheev, *[x] * inst.arity)}
        (kind[inst.tag],) = types
    assert {tag for tag, t in kind.items() if t is Element} == {
        "xyy", "linearized", "teichmuller", "xyyz", "moufang",
        "beta2", "eq8", "eq9", "theorem", "mikheev_classical"}
    assert {tag for tag, t in kind.items() if t is RightOp} == {
        "eq1", "eq2", "eq2p", "eq3a", "eq3b", "eq5", "eq5p", "eq6",
        "eq7", "eq10", "eq10p", "dpe", "d0", "e0", "prop"}


def test_unknown_tag_rejected(mikheev):
    with pytest.raises(ValueError):
        get_identity("nope")
    with pytest.raises(ValueError):
        verify(mikheev, "nope")


def test_unknown_strategy_rejected(mikheev):
    with pytest.raises(ValueError):
        verify(mikheev, "xyy", strategy="dense")


@pytest.mark.parametrize("strategy, options", [
    ("subset", {"subset_max": 0}),
    ("subset", {"subset_max": -1}),
    ("random", {"points": 0}),
    ("random", {"points": -3}),
])
def test_sweeps_that_check_nothing_are_rejected(strategy, options):
    # xyy fails on the identity-twist algebra of A(2/3, -5/2); an empty
    # sweep must raise rather than report it as holding.
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    broken = HomAlgebra(13, dict(fam.mu), identity_rows(13))
    with pytest.raises(ValueError, match="at least 1"):
        verify(broken, "xyy", strategy, **options)
    with pytest.raises(ValueError, match="at least 1"):
        verify_all(broken, strategy, **options)


def test_prop_evaluator_at_zero(mikheev):
    inst = get_identity("prop")
    zero = mikheev.zero()
    values = inst.evaluate(mikheev, zero, zero)
    assert len(values) == 1
    assert values[0].is_zero()


def test_eq5_random_pass(fam23):
    report = verify(fam23, "eq5", strategy="random", seed=1, points=50)
    assert report.status == "random-pass"
    assert report.points == 50
    assert report.seed == 1
    assert report.degree_bound == get_identity("eq5").degree_bound(fam23)


def test_eq6_holds_on_commutative_associative(truncated_poly):
    report = verify(truncated_poly, "eq6", strategy="generic")
    assert report.status == "holds"
    inst = get_identity("eq6")
    x = truncated_poly.element([1, 2, 3])
    y = truncated_poly.element([0, 1, 4])
    assert inst.evaluate(truncated_poly, x, y)[0].is_zero()


def test_theorem_generic_on_small_algebras(truncated_poly, upper_triangular):
    assert verify(truncated_poly, "theorem", strategy="generic").status == "holds"
    assert verify(upper_triangular, "theorem", strategy="generic").status == "holds"


def test_verify_all_on_zero_algebra(zero_algebra):
    results = verify_all(zero_algebra, strategy="generic")
    assert len(results) == 25
    assert all(r.passed() for r in results)
    assert all(r.report.status == "holds" for r in results)


def test_verify_all_random_on_concrete_family(fam23):
    results = verify_all(fam23, strategy="random", seed=11, points=5)
    assert [r.tag for r in results] == EXPECTED_TAGS
    assert all(r.passed() for r in results)


def test_preconditions_raise_distinctly(plain_twisted):
    with pytest.raises(PreconditionError) as exc:
        verify(plain_twisted, "eq1", strategy="generic")
    assert exc.value.tag == "eq1"
    assert exc.value.report.status == "fails"
    assert "right Hom-alternative" in str(exc.value)


def test_precondition_multiplicative(mikheev):
    rows = dict(mikheev_morphism(FamilyParams.rational(2, 3)))
    rows[2] = ((2, 2),)
    broken = HomAlgebra(13, dict(mikheev.mu), rows)
    with pytest.raises(PreconditionError) as exc:
        verify(broken, "teichmuller", strategy="random", seed=0, points=2)
    assert exc.value.requirement == "multiplicative"
    # beta2 twists by alpha, so it needs alpha to be a weak morphism, which
    # is multiplicativity: beta2 requires that law.
    with pytest.raises(PreconditionError) as exc:
        verify(broken, "beta2", strategy="generic")
    assert exc.value.requirement == "multiplicative"
    assert exc.value.report.check == "multiplicative"


def test_verify_all_records_precondition_errors(plain_twisted):
    results = verify_all(plain_twisted, strategy="generic")
    by_tag = {r.tag: r for r in results}
    assert by_tag["xyy"].report.status == "fails"
    assert by_tag["eq1"].error is not None
    assert "right Hom-alternative" in by_tag["eq1"].error
    assert by_tag["beta2"].passed()


def test_every_hypothesis_is_a_basis_law():
    laws = {law for inst in REGISTRY for law in inst.requires}
    assert laws <= set(homalt.homalgebra.BASIS_LAWS)


def test_left_alt_hypothesis_is_a_table_row(monkeypatch, mikheev):
    # No entry requires left Hom-alternativity, but the law is a row of the
    # table, so an entry that did would be checked by its scan.
    inst = homalt.proof_replay.IdentityInstance("xyy", ("left-alt",))
    registry_ = tuple(inst if e.tag == "xyy" else e for e in homalt.proof_replay.REGISTRY)
    monkeypatch.setattr(homalt.proof_replay, "REGISTRY", registry_)
    with pytest.raises(PreconditionError) as exc:
        verify(mikheev, "xyy", strategy="generic")
    assert exc.value.requirement == "left Hom-alternative"
    assert exc.value.report.check == "left-alt"
    assert str(exc.value) == (
        "precondition for 'xyy' not satisfied: algebra is not left Hom-alternative")


# A batch runs each law's scan once, however many entries require it.
ONE_SCAN_EACH = Counter({"is_multiplicative": 1, "is_right_hom_alternative": 1})


def _count_scans(monkeypatch) -> Counter:
    """Count the calls of every basis-law scan, patched in ``homalgebra``,
    where ``scan_basis_law`` looks each one up."""
    calls: Counter = Counter()
    for _, name in homalt.homalgebra.BASIS_LAWS.values():
        scan = getattr(homalt.homalgebra, name)

        def counted(*args, _scan=scan, _name=name, **kwargs):
            calls[_name] += 1
            return _scan(*args, **kwargs)

        monkeypatch.setattr(homalt.homalgebra, name, counted)
    return calls


def test_verify_all_scans_each_precondition_once(monkeypatch, fam23):
    calls = _count_scans(monkeypatch)
    results = verify_all(fam23, strategy="random", seed=3, points=1)
    assert all(r.passed() for r in results)
    assert calls == ONE_SCAN_EACH


def test_verify_all_scans_each_failed_precondition_once(monkeypatch):
    # The identity-twist algebra on the product of A(p, q): multiplicative,
    # not right Hom-alternative, so most entries stop at the cached failure.
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    broken = HomAlgebra(13, dict(fam.mu), identity_rows(13))
    calls = _count_scans(monkeypatch)
    results = verify_all(broken, strategy="generic")
    assert sum(r.error is not None for r in results) == 22
    assert calls == ONE_SCAN_EACH


def _count_work(monkeypatch) -> Counter:
    """Count the algebras built, the twist rows composed (``twist_power``
    and ``yau_twist`` read ``compose_rows`` from their module) and the
    parameter substitutions.  The random strategy's degree bound evaluates
    the entry on a 1-dimensional algebra; work on 1-dimensional tables is
    not counted, so the counts are those of the algebras under test."""
    calls: Counter = Counter()
    init = HomAlgebra.__init__
    compose_rows = homalt.homalgebra.compose_rows

    def counted_init(self, dim, *args, **kwargs):
        if dim > 1:
            calls["HomAlgebra"] += 1
        init(self, dim, *args, **kwargs)

    def counted_compose(first, then):
        if any(i > 0 for i in (*first, *then)):  # a row beyond e_0
            calls["compose_rows"] += 1
        return compose_rows(first, then)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HomAlgebra, "__init__", counted_init)
    monkeypatch.setattr(homalt.homalgebra, "compose_rows", counted_compose)
    substitute = counted("substitute_params", homalt.homalgebra.substitute_params)
    for module in (homalt.homalgebra, homalt.proof_replay):
        monkeypatch.setattr(module, "substitute_params", substitute)
    return calls


@pytest.mark.parametrize("tag, algebras", [("theorem", 0), ("beta2", 0)])
def test_generic_evaluates_on_the_given_algebra(monkeypatch, tag, algebras):
    # No copy of A per argument, and beta2 builds no Yau twist of A.
    A = mikheev_family(FamilyParams.symbolic())
    calls = _count_work(monkeypatch)
    assert verify(A, tag, "generic").status == "holds"
    assert calls["HomAlgebra"] == algebras


def test_random_points_share_the_twist_powers(monkeypatch):
    # No copy of A per point, so alpha^2 .. alpha^6 are composed once; the
    # bench counts random points by the substitution each point still runs.
    A = mikheev_family(FamilyParams.rational(2, 3))
    calls = _count_work(monkeypatch)
    report = verify(A, "theorem", "random", seed=1, points=20)
    assert report.status == "random-pass"
    assert calls == Counter({"substitute_params": 20, "compose_rows": 5})


@pytest.mark.parametrize("params, work", [
    (FamilyParams.rational(Fraction(7, 3), Fraction(-5, 2)),
     {"substitute_params": 20, "compose_rows": 1}),
    (FamilyParams.symbolic(), {"substitute_params": 20, "HomAlgebra": 20, "compose_rows": 20}),
], ids=["rational", "symbolic"])
def test_random_beta2_points_build_no_twist(monkeypatch, params, work):
    # beta2 evaluates on A's own operations: on an algebra without
    # parameters every point evaluates on A itself, so alpha^2 is composed
    # once; on A(lambda, xi) each point builds only its instance of A.
    A = mikheev_family(params)
    calls = _count_work(monkeypatch)
    report = verify(A, "beta2", "random", seed=1, points=20)
    assert report.status == "random-pass"
    assert calls == Counter(work)


# The operations of A that an entry's evaluator may call: six on elements,
# then the operator calculus.
OPERATIONS = ("mul", "twist_apply", "shift", "hom_associator", "commutator", "hom_power",
              "right_mul_op", "alpha_op", "compose", "op_sup", "op_sub")


class _Operations:
    """An algebra seen only through :data:`OPERATIONS`."""

    __slots__ = OPERATIONS

    def __init__(self, A):
        for name in OPERATIONS:
            setattr(self, name, getattr(A, name))


@pytest.mark.parametrize("tag", identity_tags())
def test_element_evaluators_need_only_the_operations(fam_sym, tag):
    # Every entry, element or operator, evaluates on the stand-in as on A.
    inst = get_identity(tag)
    xs = [generic_arg(fam_sym, name) for name in inst.var_names]
    assert inst.evaluate(_Operations(fam_sym), *xs) == inst.evaluate(fam_sym, *xs)


def test_generic_failure_carries_replayable_point(plain_twisted):
    report = verify(plain_twisted, "xyy", strategy="generic")
    assert report.status == "fails"
    assert report.witness is not None
    assert report.witness.point is not None
    assert not report.witness.element.is_zero()
    replayed = replay_identity_witness(plain_twisted, report)
    assert replayed == report.witness.element


def test_random_failure_replays(plain_twisted):
    report = verify(plain_twisted, "xyy", strategy="random", seed=5, points=20)
    assert report.status == "fails"
    replayed = replay_identity_witness(plain_twisted, report)
    assert replayed == report.witness.element
    assert not replayed.is_zero()


def test_subset_failure_replays(plain_twisted):
    report = verify(plain_twisted, "xyy", strategy="subset", subset_max=2)
    assert report.status == "fails"
    assert not replay_identity_witness(plain_twisted, report).is_zero()


# Each grid witness as (point, probe, m, k): its difference is m P(t)^k e2.
# generic is subset at cap dim = 2, whose first failing combo is K = 1's.
_GRID = {
    "xyy": ({"t": 90, "x_1": 1, "y_1": 2}, None, 4, 2),
    "eq1": ({"a_1": 2, "t": 90}, 0, 4, 2),
    "linearized": ({"t": 90, "x_1": 1, "y_1": 1, "z_1": 1}, None, 2, 2),
}


@pytest.mark.parametrize("algebra, strategy, tags", [
    ("small_roots", "subset", {"xyy": ({"t": 45, "x_1": 1, "y_1": 2}, None, 4, 1)}),
    ("small_roots_everywhere", "subset", _GRID),
    ("small_roots_everywhere", "generic", _GRID),
])
def test_witness_search_ends_with_a_witness(request, monkeypatch, algebra, strategy, tags):
    # P(t) vanishes at every integer in [-22, 22], and the grid, which starts
    # at t = d_t, steps over those roots to a point where the coefficient is
    # nonzero.  The grid reads the check's own generic difference: the
    # evaluator runs on symbolic arguments once, then at the grid's witness.
    A = request.getfixturevalue(algebra)
    for tag, (point, probe, m, k) in tags.items():
        calls = _count_evaluations(monkeypatch, tag)
        report = verify(A, tag, strategy, subset_max=1, skip_preconditions=True)
        assert report.status == "fails"
        assert calls == [True, False], tag
        coeff = m * math.prod(point["t"] - r for r in range(-22, 23)) ** k
        want = {"element": [{"index": 1, "coeff": str(coeff)}],
                "point": {v: str(value) for v, value in point.items()}, "pair_index": 0}
        if probe is not None:
            want["probe"] = probe
        assert report.witness.to_dict() == want, tag
        replayed = replay_identity_witness(A, report)
        assert replayed == report.witness.element
        assert not replayed.is_zero()


def test_random_rejects_a_parameter_named_like_a_coordinate(coordinate_named_param):
    # The same collision generic and subset reject: sampling one value for
    # the parameter and the coordinate would not sample independent variables.
    for strategy in ("random", "generic", "subset"):
        with pytest.raises(ValueError, match="name collision with existing parameters"):
            verify(coordinate_named_param, "xyy", strategy, seed=1)


def test_replay_rejects_a_parameter_named_like_a_coordinate(coordinate_named_param):
    # Replay names the arguments as the strategies do, so a point cannot
    # give one value to both the parameter and the coordinate.
    witness = Witness(None, point={"x_1": 1, "y_1": 1}, pair_index=0)
    report = CheckReport("xyy", FAILS, "generic", witness=witness)
    with pytest.raises(ValueError, match="name collision with existing parameters"):
        replay_identity_witness(coordinate_named_param, report)


def test_replay_needs_a_point(mikheev):
    report = verify(mikheev, "xyy", strategy="generic")
    assert report.status == "holds"
    with pytest.raises(ValueError):
        replay_identity_witness(mikheev, report)


_MALFORMED = [
    ("xyy", 3, None, {}, "pair_index 3"),
    ("xyy", -1, None, {}, "pair_index -1"),
    ("eq10", 3, 0, {}, "pair_index 3"),
    ("eq1", 0, 99, {}, "probe 99"),
    ("eq1", 0, -1, {}, "probe -1"),
    ("eq1", 0, None, {}, "operator witness without probe index"),
    ("xyy", 0, 5, {}, "probe 5 given for the element entry 'xyy'"),
    ("xyy", 0, None, {"zz_9": 4}, "point names zz_9, not variables of 'xyy'"),
    ("xyy", 0, None, {"y_14": 1}, "point names y_14, not variables of 'xyy'"),
    ("eq1", 0, 0, {"x_1": 1, "a_14": 2}, "point names a_14, x_1, not variables of 'eq1'"),
]


# Each case is named by its tag, pair_index, probe and message.
@pytest.mark.parametrize("tag, pair_index, probe, extra, match", [
    pytest.param(*case, id="-".join(map(str, case[:3] + case[4:]))) for case in _MALFORMED
])
def test_replay_rejects_a_malformed_witness(plain_twisted, tag, pair_index, probe, extra, match):
    # A real witness's point, with a pair the entry does not have, a probe
    # outside the basis or on an element entry, or a variable the entry
    # does not have on this 13-dimensional algebra.
    found = verify(plain_twisted, tag, "random", seed=1, points=5, skip_preconditions=True)
    assert found.status == FAILS
    witness = Witness(None, point={**found.witness.point, **extra}, probe=probe,
                      pair_index=pair_index)
    report = CheckReport(tag, FAILS, "random", witness=witness)
    with pytest.raises(ValueError, match=match):
        replay_identity_witness(plain_twisted, report)


def test_eq10_shift_consistency(fam23):
    # On a multiplicative algebra the value for shift k at (a, b) is the
    # first value at (alpha^k(a), alpha^k(b)).  Every value is zero on
    # A(2, 3), so this runs on the Yau twist of its product by its alpha:
    # multiplicative, not right Hom-alternative, and no value is zero here.
    A = yau_twist(HomAlgebra(13, dict(fam23.mu), identity_rows(13)), fam23.alpha)
    a = A.element([1, 2, 0, 0, 1] + [0] * 8)
    b = A.element([3, 0, 1, 1] + [0] * 9)
    for tag in ("eq10", "eq10p"):
        inst = get_identity(tag)
        values = inst.evaluate(A, a, b)
        assert len(values) == 3 and not any(value.is_zero() for value in values)
        for k in (1, 2):
            assert values[k] == inst.evaluate(A, A.shift(a, k), A.shift(b, k))[0]


def test_theorem_agrees_with_operator_route(fam23):
    A = fam23
    rng = random.Random(4)
    for _ in range(10):
        a = A.element([rng.randint(-50, 50) for _ in range(13)])
        b = A.element([rng.randint(-50, 50) for _ in range(13)])
        p = A.hom_associator(a, a, b)
        chain = compose(
            right_mul_op(A, p),
            right_mul_op(A, A.shift(p, 1)),
            right_mul_op(A, A.shift(p, 2)),
            alpha_op(A, 6),
        )
        power_route = A.shift(A.hom_power(p, 4), 6)
        assert power_route == apply(p, chain)
        full = compose(op_sup(A, a, b), chain)
        assert power_route == -apply(a, full)


def test_smallest_alpha_exponent(mikheev, fam_sym, zero_algebra):
    for A in (mikheev, fam_sym):
        a, b = generic_arg(A, "a"), generic_arg(A, "b")
        assert smallest_alpha_exponent(A, a, b) == 0

    z = zero_algebra.element([1, 2, 3])
    assert smallest_alpha_exponent(zero_algebra, z, z) == 0


def test_smallest_alpha_exponent_is_none_when_no_twist_kills():
    # e1 e1 = -e1 + e2, e1 e2 = e2 e1 = -e1 and the identity twist: there
    # (e2, e2, e1)^4 = e1, which no power of the twist kills.
    mu = {(0, 0): ((0, -1), (1, 1)), (0, 1): ((0, -1),), (1, 0): ((0, -1),)}
    A = HomAlgebra(2, mu, identity_rows(2))
    e1, e2 = A.basis()
    assert A.hom_power(A.hom_associator(e2, e2, e1), 4) == e1
    assert smallest_alpha_exponent(A, e2, e1) is None


# The degree bound on an algebra with rational structure constants: the
# total degree in the argument coordinates.
RATIONAL_DEGREE_BOUNDS = {
    "xyy": 3, "linearized": 3, "teichmuller": 4, "xyyz": 4, "moufang": 4, "beta2": 3,
    "eq1": 2, "eq2": 3, "eq2p": 3, "eq3a": 2, "eq3b": 2, "eq5": 4, "eq5p": 4, "eq6": 4,
    "eq7": 5, "eq8": 7, "eq9": 8, "eq10": 3, "eq10p": 3, "dpe": 11, "d0": 11, "e0": 11,
    "prop": 11, "theorem": 12, "mikheev_classical": 12,
}


def test_degree_bound_reporting(mikheev, fam23, fam_sym):
    fam = mikheev_family(FamilyParams.rational(Fraction(7, 3), Fraction(-5, 2)))
    for A in (mikheev, fam23, fam):
        bounds = {inst.tag: inst.degree_bound(A) for inst in REGISTRY}
        assert bounds == RATIONAL_DEGREE_BOUNDS
    report = verify(mikheev, "theorem", strategy="random", seed=0, points=2)
    assert report.degree_bound == 12
    # Parameters raise the bound, and a random report carries it.
    inst = get_identity("beta2")
    report = verify(fam_sym, "beta2", strategy="random", seed=0, points=1)
    assert report.degree_bound == inst.degree_bound(fam_sym) > 12


def test_report_serialization_shape(fam23, plain_twisted):
    ok = verify(fam23, "eq1", strategy="random", seed=9, points=3).to_dict()
    assert ok == {
        "id": "eq1",
        "status": "random-pass",
        "strategy": "random",
        "points": 3,
        "seed": 9,
        "degree_bound": ok["degree_bound"],
    }
    bad = verify(plain_twisted, "xyy", strategy="generic").to_dict()
    assert bad["status"] == "fails"
    assert "witness" in bad
    assert "element" in bad["witness"]


@pytest.mark.parametrize("strategy, options", [
    ("subset", {"subset_max": 1}),
    ("random", {"seed": 3, "points": 2}),
])
def test_verify_all_gives_each_entry_its_verify_report(mikheev, strategy, options):
    results = verify_all(mikheev, strategy, **options)
    assert [r.tag for r in results] == EXPECTED_TAGS
    assert [r.report for r in results] == [verify(mikheev, tag, strategy, **options)
                                           for tag in EXPECTED_TAGS]


def test_verify_all_refuses_a_misspelt_option(mikheev):
    with pytest.raises(TypeError, match="sede"):
        verify_all(mikheev, "random", sede=3)


def test_a_negative_seed_is_refused(mikheev):
    # random.Random(-1) draws the points of random.Random(1).
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        verify(mikheev, "xyy", "random", seed=-1)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        verify_all(mikheev, "random", seed=-1)


def test_verify_all_records_name_collisions_and_refuses_options_first():
    # A zero algebra whose parameters name a coordinate of every entry's
    # first argument: each entry gets the collision as its error, unless
    # an option is refused, which aborts the batch before any entry.
    A = HomAlgebra(1, {}, {}, params=("a_1", "x_1", "w_1"))
    results = verify_all(A, "generic")
    assert [r.tag for r in results] == EXPECTED_TAGS
    assert all(r.report is None and r.error.startswith("name collision") for r in results)
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'"):
        verify_all(A, "bogus")
    with pytest.raises(TypeError, match="sede"):
        verify_all(A, "random", sede=3)
