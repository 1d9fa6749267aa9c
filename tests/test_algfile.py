"""Algebra file format: round-trips, diagnostics, element expressions."""

import json
import re
import time
from fractions import Fraction

import pytest

from homalt.algfile import (
    DIGIT_CAP,
    EXPONENT_CAP,
    AlgebraFormatError,
    parse_document,
    parse_morphism,
    serialize_algebra,
    serialize_morphism,
)
from homalt.catalog import FamilyParams, mikheev_morphism
from homalt.cli import run
from homalt.homalgebra import Element, HomAlgebra, identity_rows, substitute_params
from homalt.scalars import Poly, encode_sparse as encode_element
from homalt.text import parse_element_expr


def test_round_trip_base_algebra(mikheev):
    text = serialize_algebra(mikheev)
    again = parse_document(text).algebra
    assert again.dim == mikheev.dim
    assert again.mu == mikheev.mu
    assert again.alpha == mikheev.alpha
    assert again.params == mikheev.params
    assert serialize_algebra(again) == text


def test_round_trip_symbolic_family(fam_sym):
    text = serialize_algebra(fam_sym)
    again = parse_document(text).algebra
    assert again.mu == fam_sym.mu
    assert again.alpha == fam_sym.alpha
    assert again.params == ("lambda", "xi")


def test_substitution_after_parse_matches_direct(fam_sym, fam23):
    parsed = parse_document(serialize_algebra(fam_sym)).algebra
    sub = substitute_params(parsed, {"lambda": 2, "xi": 3})
    assert sub.mu == fam23.mu
    assert sub.alpha == fam23.alpha


def test_basis_names_round_trip(mikheev):
    names = [f"b{i}" for i in range(13)]
    doc = parse_document(serialize_algebra(mikheev, names))
    assert doc.basis_names == names
    assert parse_document(serialize_algebra(mikheev)).basis_names[0] == "e1"


def test_serialization_is_canonical(fam23):
    assert serialize_algebra(fam23) == serialize_algebra(parse_document(serialize_algebra(fam23)).algebra)


def test_product_index_out_of_range(mikheev):
    doc = json.loads(serialize_algebra(mikheev))
    doc["products"][0]["left"] = 13
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert "index 13 out of range" in str(exc.value)
    assert "products[0].left" in str(exc.value)


def test_result_index_out_of_range(mikheev):
    doc = json.loads(serialize_algebra(mikheev))
    doc["products"][0]["result"][0]["index"] = 40
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert "out of range" in str(exc.value)


def test_invalid_json_reports_position():
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document("{\n  broken").algebra
    assert "line 2" in str(exc.value)
    assert "invalid JSON" in str(exc.value)


def test_deeply_nested_json_is_a_format_error():
    with pytest.raises(AlgebraFormatError, match="document: invalid JSON: nested too deeply"):
        parse_document("[" * 100_000).algebra


def test_poly_term_coefficient_must_be_text():
    doc = {"dimension": 1, "alpha": [], "products": [
        {"left": 0, "right": 0, "result": [{"index": 0, "coeff": {"poly": [{"coeff": 3}]}}]}]}
    with pytest.raises(AlgebraFormatError, match=r"products\[0\]\.result\[0\]\.coeff: bad "
                                                 r"scalar encoding: term 0: coeff must be a string"):
        parse_document(json.dumps(doc)).algebra


def test_duplicate_product_pair(mikheev):
    doc = json.loads(serialize_algebra(mikheev))
    doc["products"].append(dict(doc["products"][0]))
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert "duplicate product" in str(exc.value)


def test_duplicate_alpha_row(mikheev):
    doc = json.loads(serialize_algebra(mikheev))
    doc["alpha"].append(dict(doc["alpha"][0]))
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert "duplicate twist row" in str(exc.value)


def test_undeclared_parameter_rejected(fam_sym):
    doc = json.loads(serialize_algebra(fam_sym))
    doc["parameters"] = ["lambda"]
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert "xi" in str(exc.value)


def test_dimension_cap():
    doc = {"dimension": 65, "products": [], "alpha": []}
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert "cap" in str(exc.value)
    big = {"dimension": 64, "products": [], "alpha": []}
    assert parse_document(json.dumps(big)).algebra.dim == 64


def test_unknown_and_missing_keys():
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps({"dimension": 2, "products": [], "alpha": [], "extra": 1})).algebra
    assert "extra" in str(exc.value)
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps({"dimension": 2, "products": []})).algebra
    assert "alpha" in str(exc.value)


def test_bad_basis_length():
    doc = {"dimension": 2, "basis": ["x"], "products": [], "alpha": []}
    with pytest.raises(AlgebraFormatError):
        parse_document(json.dumps(doc)).algebra


def test_duplicate_basis_name():
    # A repeated name would make every element written in the basis ambiguous.
    doc = {"dimension": 3, "basis": ["a", "b", "a"], "products": [], "alpha": []}
    with pytest.raises(AlgebraFormatError) as exc:
        parse_document(json.dumps(doc)).algebra
    assert str(exc.value) == "basis[2]: duplicate basis name 'a'"
    square = HomAlgebra(2, {(0, 0): ((1, 1),)}, identity_rows(2))
    with pytest.raises(AlgebraFormatError) as exc:
        serialize_algebra(square, ["a", "a"])
    assert str(exc.value) == "basis[1]: duplicate basis name 'a'"


def test_duplicate_parameter_is_reported_at_its_first_repeat():
    names = ["p", "q", "q", "p"]
    for parse, doc in (
        (parse_document, {"dimension": 1, "parameters": names, "products": [], "alpha": []}),
        (parse_morphism, {"dimension": 1, "parameters": names, "matrix": []}),
    ):
        with pytest.raises(AlgebraFormatError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value) == "parameters[2]: duplicate parameter 'q'"


# Parameter names are handled in linear time: hundredths of a second at
# these sizes, where a membership test on a list or tuple per name took
# seconds.  The budget is generous, in the style of the acceptance gate.
SCALE_BUDGET_S = 2.0


def test_parsing_many_parameter_names_is_fast():
    names = [f"p{i}" for i in range(40000)]
    text = serialize_algebra(HomAlgebra(1, {}, identity_rows(1), names))
    start = time.monotonic()
    A = parse_document(text).algebra
    elapsed = time.monotonic() - start
    assert A.params == tuple(names)
    assert elapsed < SCALE_BUDGET_S, f"parsing {len(names)} parameter names took {elapsed:.1f}s"


def test_twist_with_many_shared_parameter_names_is_fast(tmp_path, capsys):
    names = [f"p{i}" for i in range(20000)]
    algebra, morphism, out = (tmp_path / n for n in ("a.alg", "beta.mor", "out.alg"))
    algebra.write_text(serialize_algebra(HomAlgebra(1, {}, identity_rows(1), names)))
    morphism.write_text(serialize_morphism(identity_rows(1), 1, names))
    start = time.monotonic()
    code = run(["twist", "--algebra", str(algebra), "--morphism", str(morphism),
                "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert parse_document(out.read_text()).algebra.params == tuple(names)
    assert elapsed < SCALE_BUDGET_S, f"twisting with {len(names)} parameters took {elapsed:.1f}s"


def test_basis_names_read_back_in_element_expressions():
    # Parse and serialize accept exactly the names an element expression can
    # refer to, so every witness printed in the basis can be read back.
    square = HomAlgebra(2, {(0, 0): ((1, 1),)}, identity_rows(2))
    for name in ("e1", "e_1'", "x y", "3/2", "é"):
        names = parse_document(serialize_algebra(square, [name, "b"])).basis_names
        assert names == [name, "b"]
        assert parse_element_expr(name, names) == Element((1, 0))
        assert parse_element_expr(f"-1/2*{name} + b", names) == Element((Fraction(-1, 2), 1))
    for name in ("", "x-y", "x+y", "2*x", " x", "x\t"):
        with pytest.raises(ValueError):
            serialize_algebra(square, [name, "b"])
    for name in ("x-y", "x+y", "2*x", " x", "x\t"):
        doc = {"dimension": 2, "basis": [name, "b"], "products": [], "alpha": []}
        with pytest.raises(AlgebraFormatError) as exc:
            parse_document(json.dumps(doc)).algebra
        assert exc.value.where == "basis[0]"


def test_morphism_round_trip():
    rows = mikheev_morphism(FamilyParams.symbolic())
    text = serialize_morphism(rows, 13, ("lambda", "xi"))
    back, dim, params = parse_morphism(text)
    assert back == rows
    assert dim == 13
    assert params == ("lambda", "xi")


def test_morphism_duplicate_row():
    text = json.dumps({
        "dimension": 2,
        "matrix": [
            {"from": 0, "to": [{"index": 0, "coeff": "1"}]},
            {"from": 0, "to": [{"index": 1, "coeff": "1"}]},
        ],
    })
    with pytest.raises(AlgebraFormatError) as exc:
        parse_morphism(text)
    assert "duplicate matrix row" in str(exc.value)


def test_encode_element():
    x = Element((1, 0, Fraction(-3, 2)))
    assert encode_element(x) == [
        {"index": 0, "coeff": "1"},
        {"index": 2, "coeff": "-3/2"},
    ]
    assert encode_element(Element((0, 0))) == []


def test_parse_element_expr():
    names = [f"e{i + 1}" for i in range(13)]
    x = parse_element_expr("e7 - e8", names)
    assert x.coords[6] == 1 and x.coords[7] == -1
    y = parse_element_expr("3/2*e1 + e4", names)
    assert y.coords[0] == Fraction(3, 2) and y.coords[3] == 1
    z = parse_element_expr("-e2", names)
    assert z.coords[1] == -1
    merged = parse_element_expr("e1 + e1", names)
    assert merged.coords[0] == 2


def test_parse_element_expr_custom_names():
    x = parse_element_expr("2*u - v", ["u", "v"])
    assert x.coords == (2, -1)


def test_parse_element_expr_rejects_garbage():
    names = ["e1", "e2"]
    for bad in ("", "e3", "1.5*e1", "e1 e2", "* e1", "e1 +", "2*"):
        with pytest.raises(ValueError):
            parse_element_expr(bad, names)


def test_nonneg_dimension_required():
    with pytest.raises(AlgebraFormatError):
        parse_document(json.dumps({"dimension": -1, "products": [], "alpha": []})).algebra
    with pytest.raises(AlgebraFormatError):
        parse_document(json.dumps({"dimension": "two", "products": [], "alpha": []})).algebra


def test_file_coeff_shapes():
    doc = {
        "dimension": 2,
        "parameters": ["t"],
        "products": [
            {"left": 0, "right": 0,
             "result": [{"index": 1, "coeff": {"poly": [{"coeff": "2", "exps": {"t": 3}}]}}]},
        ],
        "alpha": [{"from": 0, "to": [{"index": 0, "coeff": "1/2"}]}],
    }
    A = parse_document(json.dumps(doc)).algebra
    t = Poly.variable("t")
    assert A.mul(A.basis_element(0), A.basis_element(0)) == A.basis_element(1).scale(2 * t**3)
    assert A.twist_apply(A.basis_element(0)) == A.basis_element(0).scale(Fraction(1, 2))


def test_boolean_exponent_is_rejected(tmp_path, capsys):
    # JSON true passes an int check (bool subclasses int), and serializing
    # would write it back as true, so parse then serialize was not canonical.
    doc = {
        "dimension": 1,
        "parameters": ["t"],
        "products": [
            {"left": 0, "right": 0,
             "result": [{"index": 0, "coeff": {"poly": [{"coeff": "1", "exps": {"t": True}}]}}]},
        ],
        "alpha": [{"from": 0, "to": [{"index": 0, "coeff": "1"}]}],
    }
    with pytest.raises(AlgebraFormatError, match=r"^products\[0\]\.result\[0\]\.coeff: "
                       r"bad scalar encoding: term 0: exponent of t must be a positive integer$"):
        parse_document(json.dumps(doc)).algebra
    path = tmp_path / "bool.alg"
    path.write_text(json.dumps(doc))
    assert run(["check", "--algebra", str(path), "--identity", "right-alt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: products[0].result[0].coeff: bad scalar encoding")
    assert err.count("\n") == 1


def _power_document(exponent: int) -> dict:
    """A 1-dim algebra with ``e1 e1 = t^exponent e1`` and the identity twist."""
    term = {"poly": [{"coeff": "1", "exps": {"t": exponent}}]}
    return {
        "dimension": 1,
        "parameters": ["t"],
        "products": [{"left": 0, "right": 0, "result": [{"index": 0, "coeff": term}]}],
        "alpha": [{"from": 0, "to": [{"index": 0, "coeff": "1"}]}],
    }


def test_exponent_cap(tmp_path, capsys):
    # A large exponent makes every product of a check slow, so it is refused
    # at load time, for algebra and morphism documents alike.
    A = parse_document(json.dumps(_power_document(EXPONENT_CAP))).algebra
    assert A.mu[(0, 0)] == ((0, Poly.variable("t") ** EXPONENT_CAP),)
    with pytest.raises(AlgebraFormatError, match=r"^products\[0\]\.result\[0\]\.coeff: "
                       rf"exponent {EXPONENT_CAP + 1} exceeds the supported cap of {EXPONENT_CAP}$"):
        parse_document(json.dumps(_power_document(EXPONENT_CAP + 1))).algebra
    morphism = {"dimension": 1, "parameters": ["t"], "matrix": [
        {"from": 0, "to": [{"index": 0, "coeff": {"poly": [{"exps": {"t": EXPONENT_CAP + 1}}]}}]}]}
    with pytest.raises(AlgebraFormatError, match=r"^matrix\[0\]\.to\[0\]\.coeff: exponent"):
        parse_morphism(json.dumps(morphism))
    path = tmp_path / "power.alg"
    path.write_text(json.dumps(_power_document(EXPONENT_CAP + 1)))
    assert run(["check", "--algebra", str(path), "--identity", "xyy", "--strategy", "random",
                "--points", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: products[0].result[0].coeff: exponent")
    assert err.count("\n") == 1


def test_writing_refuses_what_reading_refuses():
    # Each rule of the parser holds for the writers too, with the parser's
    # message, so every document written reads back; a value at the cap is
    # written and read back.
    t = Poly.variable("t")
    power = HomAlgebra(1, {(0, 0): ((0, t**1200),)}, identity_rows(1), ("t",))
    with pytest.raises(AlgebraFormatError, match=r"^products\[0\]\.result\[0\]\.coeff: "
                       rf"exponent 1200 exceeds the supported cap of {EXPONENT_CAP}$"):
        serialize_algebra(power)
    twist = HomAlgebra(1, {}, {0: ((0, t ** (EXPONENT_CAP + 1)),)}, ("t",))
    with pytest.raises(AlgebraFormatError, match=r"^alpha\[0\]\.to\[0\]\.coeff: exponent"):
        serialize_algebra(twist)
    with pytest.raises(AlgebraFormatError, match=r"^matrix\[0\]\.to\[0\]\.coeff: exponent"):
        serialize_morphism({0: ((0, t ** (EXPONENT_CAP + 1)),)}, 1, ("t",))
    digits = rf"number of {DIGIT_CAP + 1} digits exceeds the supported cap of {DIGIT_CAP}$"
    with pytest.raises(AlgebraFormatError, match=rf"^line \d+, column \d+: {digits}"):
        serialize_algebra(HomAlgebra(1, {(0, 0): ((0, Fraction(1, 10**DIGIT_CAP)),)},
                                     identity_rows(1)))
    with pytest.raises(AlgebraFormatError, match=rf"^line \d+, column \d+: {digits}"):
        serialize_morphism({0: ((0, 10**DIGIT_CAP),)}, 1)
    with pytest.raises(AlgebraFormatError, match=r"^dimension: 65 exceeds"):
        serialize_algebra(HomAlgebra(65, {}, {}))
    with pytest.raises(AlgebraFormatError, match=r"^dimension: 65 exceeds"):
        serialize_morphism({}, 65)
    at_cap = HomAlgebra(1, {(0, 0): ((0, (10**DIGIT_CAP - 1) * t**EXPONENT_CAP),)},
                        identity_rows(1), ("t",))
    assert parse_document(serialize_algebra(at_cap)).algebra == at_cap
    assert parse_document(serialize_algebra(HomAlgebra(64, {}, {}))).algebra.dim == 64
    for write, message in (
        (lambda: serialize_morphism({5: ((0, 1),)}, 2),
         "matrix[0].from: index 5 out of range for dimension 2"),
        (lambda: serialize_morphism({0: ((7, 1),)}, 2),
         "matrix[0].to[0].index: index 7 out of range for dimension 2"),
        (lambda: serialize_morphism({0: ((0, t),)}, 1),
         "matrix[0].to[0].coeff: undeclared parameters ['t']"),
        (lambda: serialize_morphism({}, 1, ("1x",)), "parameters[0]: bad parameter name '1x'"),
        (lambda: serialize_morphism({}, 1, ("t", "t")), "parameters[1]: duplicate parameter 't'"),
        (lambda: serialize_algebra(HomAlgebra(1, {(0, 0): ((0, t),)}, {0: ((0, 1),)})),
         "products[0].result[0].coeff: undeclared parameters ['t']"),
        (lambda: serialize_algebra(HomAlgebra(1, {}, {}, ("1x",))),
         "parameters[0]: bad parameter name '1x'"),
    ):
        with pytest.raises(AlgebraFormatError) as exc:
            write()
        assert str(exc.value) == message


@pytest.mark.parametrize("command", ["mikheev", "twist"])
def test_cli_writes_no_document_it_could_not_read(tmp_path, capsys, command):
    # lambda = 10^1100 puts lambda^4, of 4401 digits, in a product; the
    # twist of a twisting map 10^4000 e1 by 10^4000 has 10^8000 in alpha.
    out = tmp_path / "out.alg"
    if command == "mikheev":
        argv = ["mikheev", "--lambda", str(10**1100), "--xi", "3", "--out", str(out)]
    else:
        big = str(10**4000)
        (tmp_path / "a.alg").write_text(json.dumps({"dimension": 1, "products": [], "alpha": [
            {"from": 0, "to": [{"index": 0, "coeff": big}]}]}))
        (tmp_path / "b.mor").write_text(json.dumps({"dimension": 1, "matrix": [
            {"from": 0, "to": [{"index": 0, "coeff": big}]}]}))
        argv = ["twist", "--algebra", str(tmp_path / "a.alg"), "--morphism",
                str(tmp_path / "b.mor"), "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: line \d+, column \d+: number of \d+ digits exceeds the "
                        rf"supported cap of {DIGIT_CAP}\n", err), err
    assert not out.exists()
