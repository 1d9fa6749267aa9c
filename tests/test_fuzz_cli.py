"""Fuzzing the CLI's exit-code contract: 0, 1 or 2 and never a traceback.

Malformed algebra documents (wrong JSON shapes and field types, indices out
of range, bad coefficients, parameter and basis names) and element
expressions go through ``run`` for ``check``, ``lemmas`` and ``power``.
Dimensions stay at most 3 and polynomial exponents small, so a well-formed
draw is cheap to verify; the example counts keep the file to a few seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from homalt.cli import run

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                 st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
                 st.lists(st.integers(0, 2), max_size=2), st.just({}))


def mostly(good, bad=JUNK):
    """``good`` seven draws in eight, else ``bad``: a document has about ten
    such fields, so a good share of documents parse and reach the command."""
    return st.integers(0, 7).flatmap(lambda k: good if k else bad)


NAMES = st.sampled_from(["t", "s", "lambda", "x_1", "a_1", "1t", "", "e1", "t t"])
RATIONALS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(0, 9)),
    st.integers(-9, 9).map(str),
    st.sampled_from(["", "1.5", "--1", "+2", "1/", "/2", "x", "²", " 3 ", "1/-2"]),
)
EXPONENTS = mostly(st.integers(-1, 3), st.one_of(st.booleans(), st.text(max_size=2), st.none()))
TERMS = st.fixed_dictionaries({}, optional={
    "coeff": mostly(RATIONALS), "exps": mostly(st.dictionaries(NAMES, EXPONENTS, max_size=2))})
COEFFS = st.one_of(RATIONALS, RATIONALS, JUNK,
                   st.builds(lambda terms: {"poly": terms}, st.lists(TERMS, max_size=2)),
                   st.builds(lambda x: {"poly": x}, JUNK))
INDICES = mostly(st.integers(0, 2), st.one_of(st.sampled_from([-1, 3]), JUNK))
SPARSE = mostly(st.lists(mostly(
    st.fixed_dictionaries({"index": INDICES, "coeff": COEFFS}),
    st.dictionaries(st.sampled_from(["index", "coeff", "to"]), INDICES, max_size=3),
), max_size=3))
PRODUCTS = mostly(st.lists(mostly(
    st.fixed_dictionaries({"left": INDICES, "right": INDICES, "result": SPARSE})), max_size=4))
ROWS = mostly(st.lists(mostly(st.fixed_dictionaries({"from": INDICES, "to": SPARSE})),
                       max_size=3))
DOCUMENTS = st.fixed_dictionaries(
    {"dimension": mostly(st.integers(1, 3), st.one_of(st.sampled_from([-1, 0]), JUNK)),
     "products": PRODUCTS, "alpha": ROWS},
    optional={"basis": mostly(st.lists(mostly(NAMES), min_size=1, max_size=3)),
              "parameters": mostly(st.lists(mostly(NAMES), max_size=2))},
)
# Well-formed documents with small nonzero structure constants and, most
# often, the identity twist: these reach the verdicts, fails (exit 1) included.
def _sparse(d: int):
    return st.dictionaries(st.integers(0, d - 1), st.sampled_from(["1", "-1", "2", "1/2"]),
                           min_size=1, max_size=2).map(
        lambda row: [{"index": k, "coeff": c} for k, c in sorted(row.items())])


def _valid(d: int):
    identity = [{"from": i, "to": [{"index": i, "coeff": "1"}]} for i in range(d)]
    pairs = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    return st.fixed_dictionaries({
        "dimension": st.just(d),
        "products": st.dictionaries(pairs, _sparse(d), max_size=4).map(lambda mu: [
            {"left": i, "right": j, "result": row} for (i, j), row in sorted(mu.items())]),
        "alpha": mostly(st.just(identity), st.dictionaries(
            st.integers(0, d - 1), _sparse(d), max_size=d).map(lambda rows: [
                {"from": i, "to": row} for i, row in sorted(rows.items())])),
    })


VALID = st.integers(1, 3).flatmap(_valid)
TEXTS = st.one_of(VALID.map(json.dumps), mostly(DOCUMENTS.map(json.dumps), st.one_of(
    st.text(max_size=20),
    st.recursive(JUNK, lambda inner: st.lists(inner, max_size=2)).map(json.dumps),
    st.builds(lambda doc, key: json.dumps({**doc, key: 0}), DOCUMENTS, st.text(max_size=3)),
)))
EXPRESSIONS = st.one_of(
    st.text(alphabet="e123 +-*/t", max_size=12),
    st.lists(st.tuples(st.sampled_from(["+", "-", ""]), RATIONALS, NAMES),
             min_size=1, max_size=3).map(
        lambda terms: " ".join(f"{sign}{c}*{name}" for sign, c, name in terms)),
)
CHECKS = st.sampled_from([
    ["--identity", "right-alt"], ["--identity", "left-alt"], ["--identity", "multiplicative"],
    ["--identity", "morphism"], ["--identity", "xyy", "--strategy", "generic"],
    ["--identity", "linearized", "--strategy", "subset", "--subset-max", "2"],
    ["--identity", "eq1", "--strategy", "random", "--points", "2", "--seed", "1"],
    ["--identity", "beta2", "--strategy", "generic", "--format", "json"],
])
FUZZ = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _run(argv: list[str], text: str) -> tuple[int, str]:
    """Exit code and stderr of ``run`` on an algebra file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.alg"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([argv[0], "--algebra", str(path), *argv[1:]])
    return code, err.getvalue()


def _assert_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err == "" or err.startswith("error: ")


@FUZZ
@given(text=TEXTS, flags=CHECKS)
@example(text="[" * 100_000, flags=["--identity", "right-alt"])
@example(text='{"dimension": 1, "products": [{"left": 0, "right": 0, "result": '
              '[{"index": 0, "coeff": {"poly": [{"coeff": 3}]}}]}], "alpha": []}',
         flags=["--identity", "right-alt"])
@example(text='{"dimension": 1, "parameters": ["t"], "products": [{"left": 0, "right": 0, '
              '"result": [{"index": 0, "coeff": {"poly": [{"exps": {"t": 1001}}]}}]}], '
              '"alpha": [{"from": 0, "to": [{"index": 0, "coeff": "1"}]}]}',
         flags=["--identity", "xyy", "--strategy", "generic"])
def test_check_keeps_the_exit_contract(text, flags):
    # Every flag set is one the check accepts, so each example reads the
    # fuzzed document rather than stopping at a flag refusal.
    code, err = _run(["check", *flags], text)
    assert "applies to" not in err
    _assert_contract(code, err)


@FUZZ
@given(text=TEXTS)
def test_lemmas_keeps_the_exit_contract(text):
    _assert_contract(*_run(["lemmas", "--strategy", "random", "--points", "1", "--seed", "0"],
                           text))


@FUZZ
@given(text=TEXTS, expr=EXPRESSIONS, n=st.integers(-1, 4), fmt=st.sampled_from(["text", "json"]))
def test_power_keeps_the_exit_contract(text, expr, n, fmt):
    _assert_contract(*_run(["power", f"--element={expr}", "--n", str(n), "--format", fmt], text))


@FUZZ
@given(expr=EXPRESSIONS, n=st.integers(1, 3))
@example(expr="--", n=1)  # argparse stores [] for ``--element=--``
def test_power_expressions_on_a_valid_algebra(expr, n):
    doc = {"dimension": 3, "basis": ["e1", "e2", "t"], "parameters": ["s"],
           "products": [{"left": 0, "right": 1, "result": [{"index": 2, "coeff": "1/2"}]}],
           "alpha": [{"from": 0, "to": [{"index": 0, "coeff": {"poly": [
               {"coeff": "1", "exps": {"s": 1}}]}}]}]}
    _assert_contract(*_run(["power", f"--element={expr}", "--n", str(n)], json.dumps(doc)))
