"""Command-line interface: flag grammar, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homalt.algfile import parse_document, serialize_algebra, serialize_morphism
from homalt.catalog import FamilyParams, mikheev_family, mikheev_morphism
from homalt.homalgebra import (
    CheckReport,
    Element,
    HomAlgebra,
    Witness,
    identity_rows,
    replay_structural_witness,
)
from homalt.cli import POINTS_CAP, run
from homalt.proof_replay import replay_identity_witness
from homalt.scalars import Poly, decode_scalar


@pytest.fixture(scope="module")
def files(tmp_path_factory, mikheev, fam_sym, fam23, plain_twisted):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "mikheev": root / "mikheev.alg",
        "fam_sym": root / "family.alg",
        "fam23": root / "fam23.alg",
        "broken": root / "broken.alg",
        "beta": root / "beta.mor",
    }
    paths["mikheev"].write_text(serialize_algebra(mikheev))
    paths["fam_sym"].write_text(serialize_algebra(fam_sym))
    paths["fam23"].write_text(serialize_algebra(fam23))
    paths["broken"].write_text(serialize_algebra(plain_twisted))
    # The identity-twist algebra of A(2/3, -5/2): xyy fails on it.
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    paths["refute"] = root / "refute.alg"
    paths["refute"].write_text(serialize_algebra(HomAlgebra(13, dict(fam.mu), identity_rows(13))))
    paths["beta"].write_text(
        serialize_morphism(mikheev_morphism(FamilyParams.symbolic()), 13, ("lambda", "xi")))
    return {k: str(v) for k, v in paths.items()}


def test_help_exits_zero(capsys):
    assert run(["check", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_usage_errors(files, capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["check", "--algebra", files["mikheev"]]) == 2
    assert run(["check", "--algebra", files["mikheev"], "--identity", "right-alt",
                "--bogus"]) == 2


def test_check_right_alt_holds(files, capsys):
    code = run(["check", "--algebra", files["mikheev"], "--identity", "right-alt"])
    assert code == 0
    out = capsys.readouterr().out
    assert "right-alt" in out and "holds" in out


def test_check_left_alt_fails_with_witness(files, capsys):
    code = run(["check", "--algebra", files["mikheev"], "--identity", "left-alt"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fails" in out
    assert "(e1, e1, e2)" in out
    assert "e7 - e8" in out


def test_check_broken_algebra_fails(files, capsys):
    code = run(["check", "--algebra", files["broken"], "--identity", "right-alt"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fails" in out and "witness" in out


def test_check_registry_identity(files, capsys):
    code = run(["check", "--algebra", files["fam23"], "--identity", "eq5",
                "--strategy", "random", "--points", "5", "--seed", "3"])
    assert code == 0
    assert "random-pass" in capsys.readouterr().out


def test_check_precondition_violation_is_exit_2(files, capsys):
    code = run(["check", "--algebra", files["broken"], "--identity", "eq1",
                "--strategy", "random", "--points", "2", "--seed", "0"])
    assert code == 2
    assert "not right Hom-alternative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "lemmas"])
@pytest.mark.parametrize("flags", [
    ["--strategy", "subset", "--subset-max", "0"],
    ["--strategy", "subset", "--subset-max", "-1"],
    ["--strategy", "random", "--seed", "1", "--points", "0"],
    ["--strategy", "random", "--seed", "1", "--points", "-3"],
])
def test_sweeps_that_check_nothing_exit_2(files, capsys, command, flags):
    # xyy fails on this algebra; a sweep of no combos or no points must not
    # report it as holding.
    argv = [command, "--algebra", files["refute"], *flags, "--format", "json"]
    if command == "check":
        argv[1:1] = ["--identity", "xyy"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _replay_printed(A, rec):
    """The witness element a JSON record prints, and its replay on ``A`` at
    the printed point or basis tuple."""
    data = rec["witness"]
    coords = [0] * A.dim
    for entry in data["element"]:
        coords[entry["index"]] = decode_scalar(entry["coeff"])
    point = {k: decode_scalar(v) for k, v in data["point"].items()} if "point" in data else None
    basis = tuple(data["basis"]) if "basis" in data else None
    witness = Witness(element=Element(tuple(coords)), basis=basis, point=point,
                      probe=data.get("probe"), pair_index=data.get("pair_index"))
    report = CheckReport(rec["id"], rec["status"], rec["strategy"], witness=witness)
    replay = replay_structural_witness if basis else replay_identity_witness
    return witness.element, replay(A, report)


def test_witness_search_never_ends_in_a_traceback(tmp_path, small_roots, capsys):
    path = tmp_path / "small_roots.alg"
    path.write_text(serialize_algebra(small_roots))
    code = run(["check", "--algebra", str(path), "--identity", "xyy", "--strategy", "subset",
                "--subset-max", "1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    (rec,) = json.loads(captured.out)
    assert rec["status"] == "fails"
    printed, replayed = _replay_printed(small_roots, rec)
    assert replayed == printed
    assert not replayed.is_zero()



def test_random_name_collision_exits_2(tmp_path, coordinate_named_param, capsys):
    path = tmp_path / "collision.alg"
    path.write_text(serialize_algebra(coordinate_named_param))
    for flags in (["random", "--seed", "1"], ["generic"], ["subset"]):
        assert run(["check", "--algebra", str(path), "--identity", "xyy", "--strategy", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: name collision with existing parameters")


def _clash_document(tmp_path, params: tuple[str, ...]) -> str:
    """e1 e1 = p e2 for the first parameter p, with a zero twist: every
    basis law holds, so only a parameter named like an argument coordinate
    stops an entry."""
    product = tuple((1, Poly.variable(p)) for p in params[:1])
    A = HomAlgebra(2, {(0, 0): product}, {}, params=params)
    path = tmp_path / "clash.alg"
    path.write_text(serialize_algebra(A))
    return str(path)


def test_lemmas_records_a_name_collision_per_entry(tmp_path, capsys):
    # a_1 is the first coordinate of argument a: each entry with an argument
    # a gets an error record, and the six without one run.
    code = run(["lemmas", "--algebra", _clash_document(tmp_path, ("a_1",)), "--strategy",
                "random", "--seed", "1", "--points", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    records = json.loads(captured.out)
    assert len(records) == 25
    errors = [rec for rec in records if rec["status"] == "error"]
    assert len(errors) == 19
    assert {rec["error"] for rec in errors} == {"name collision with existing parameters: ['a_1']"}
    ran = [rec for rec in records if rec["status"] != "error"]
    assert [rec["id"] for rec in ran] == ["xyy", "linearized", "teichmuller", "xyyz", "moufang",
                                          "beta2"]
    assert {rec["status"] for rec in ran} == {"random-pass"}


@pytest.mark.parametrize("params", [("a_1",), ("a_1", "x_1", "w_1")], ids=["a", "every-entry"])
@pytest.mark.parametrize("flags, message", [
    (["--strategy", "random", "--points", "0"], "points must be at least 1, got 0"),
    (["--strategy", "random", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["--strategy", "subset", "--subset-max", "0"], "subset_max must be at least 1, got 0"),
], ids=["points", "seed", "subset-max"])
def test_lemmas_option_errors_abort_before_name_collisions(tmp_path, capsys, params, flags,
                                                           message):
    # With a_1, x_1 and w_1 every entry's arguments collide, so no entry
    # reaches its strategy: the options are still refused, in one line.
    code = run(["lemmas", "--algebra", _clash_document(tmp_path, params), *flags])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, text", [
    (["mikheev", "--lambda", "\u00b2", "--xi", "3", "--out", "{out}"], "\u00b2"),
    (["noniso", "--params", "2", "3", "\uff15", "7"], "\uff15"),
    (["power", "--algebra", "{mikheev}", "--element", "\u0663*e1", "--n", "2"], "\u0663"),
], ids=["lambda", "noniso", "element"])
def test_non_ascii_digits_are_bad_rationals(files, tmp_path, capsys, argv, text):
    argv = [arg.format(out=tmp_path / "out.alg", **files) for arg in argv]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: bad rational {text!r} (expected p or p/q)\n"


def test_check_unknown_identity(files, capsys):
    assert run(["check", "--algebra", files["mikheev"], "--identity", "nope"]) == 2


def test_check_rejects_basis_strategy_for_registry_ids(files, capsys):
    code = run(["check", "--algebra", files["mikheev"], "--identity", "theorem",
                "--strategy", "basis"])
    assert code == 2


def test_basis_is_no_strategy_of_a_structural_check(files, capsys):
    # A structural check always scans the basis and reports strategy=basis,
    # but "basis" is no value of --strategy, which only registry checks read.
    code = run(["check", "--algebra", files["mikheev"], "--identity", "right-alt",
                "--strategy", "basis"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "argument --strategy: invalid choice: 'basis'" in captured.err


def test_check_morphism_needs_its_map(files, capsys):
    # alpha always commutes with itself, so a morphism check of alpha would
    # be the multiplicative scan under another name: the map is required.
    code = run(["check", "--algebra", files["fam23"], "--identity", "morphism"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --identity morphism needs --morphism FILE\n"


def test_check_morphism_from_file(files, capsys):
    code = run(["check", "--algebra", files["mikheev"], "--identity", "morphism",
                "--morphism", files["beta"]])
    assert code == 0


def test_check_morphism_fails_at_the_product_condition(files, tmp_path, capsys):
    # f doubles e1 and kills the rest, so f(e1 e1) - f(e1) f(e1) = -4 e3: the
    # weak-morphism scan fails first, and its witness is the morphism's.
    path = tmp_path / "double.mor"
    path.write_text(serialize_morphism({0: ((0, 2),)}, 13))
    code = run(["check", "--algebra", files["mikheev"], "--identity", "morphism",
                "--morphism", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out == (f"{'morphism':<20} {'fails':<12} strategy=basis\n"
                            "    witness basis: (e1, e1)\n"
                            "    witness value: -4*e3\n")


def test_lemmas_refuses_the_basis_strategy(files, capsys):
    code = run(["lemmas", "--algebra", files["mikheev"], "--strategy", "basis"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "argument --strategy: invalid choice: 'basis'" in captured.err


def test_check_morphism_dimension_mismatch(files, tmp_path, capsys):
    # check and twist share one morphism loader: a 2-dim morphism is no map
    # on a 13-dim algebra.
    small = tmp_path / "small.mor"
    small.write_text(serialize_morphism(identity_rows(2), 2))
    code = run(["check", "--algebra", files["mikheev"], "--identity", "morphism",
                "--morphism", str(small)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: morphism dimension 2 does not match algebra dimension 13\n"


@pytest.mark.parametrize("identity", ["right-alt", "xyy"])
@pytest.mark.parametrize("morphism", ["beta", "missing"])
def test_check_refuses_a_morphism_it_would_not_read(files, tmp_path, capsys, identity, morphism):
    # Only the morphism check reads --morphism; any other check would drop
    # the file unread, so it is refused before any file is opened.
    path = files["beta"] if morphism == "beta" else str(tmp_path / "missing.mor")
    code = run(["check", "--algebra", files["mikheev"], "--identity", identity,
                "--morphism", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: --morphism applies to --identity morphism only, not '{identity}'\n")


@pytest.mark.parametrize("identity", ["right-alt", "left-alt", "multiplicative", "morphism"])
@pytest.mark.parametrize("flag, value", [("--strategy", "subset"), ("--strategy", "random"),
                                         ("--points", "7"), ("--seed", "3"),
                                         ("--subset-max", "2")])
def test_structural_check_refuses_registry_flags(files, tmp_path, capsys, identity, flag, value):
    # A structural check scans the basis and would drop these flags unread,
    # so each is refused, a default value too, before any file is opened.
    missing = str(tmp_path / "missing.mor")
    extra = ["--morphism", missing] if identity == "morphism" else []
    code = run(["check", "--algebra", str(tmp_path / "missing.alg"), "--identity", identity,
                *extra, flag, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {flag} applies to registry checks only, not '{identity}'\n"


def test_structural_check_names_the_first_registry_flag(files, capsys):
    code = run(["check", "--algebra", files["mikheev"], "--identity", "right-alt",
                "--strategy", "subset", "--seed", "3", "--points", "7", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: --strategy applies to registry checks only, not 'right-alt'\n")


@pytest.mark.parametrize("command", [["check", "--identity", "xyy"], ["lemmas"]],
                         ids=["check", "lemmas"])
@pytest.mark.parametrize("strategy, flag, value", [
    (None, "--subset-max", "2"), ("random", "--subset-max", "2"),
    ("generic", "--points", "7"), ("generic", "--seed", "3"), ("generic", "--subset-max", "2"),
    ("subset", "--points", "7"), ("subset", "--seed", "3"),
])
def test_registry_check_refuses_flags_of_another_strategy(tmp_path, capsys, command, strategy,
                                                          flag, value):
    # A strategy drops the flags of the others unread, so each is refused,
    # before the algebra file is opened.  No --strategy means random.
    chosen = ["--strategy", strategy] if strategy else []
    code = run([command[0], "--algebra", str(tmp_path / "missing.alg"), *command[1:], *chosen,
                flag, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    owner = "subset" if flag == "--subset-max" else "random"
    assert captured.err == (
        f"error: {flag} applies to the {owner} strategy only, not '{strategy or 'random'}'\n")


@pytest.mark.parametrize("command", [["check", "--identity", "xyy"], ["lemmas"]],
                         ids=["check", "lemmas"])
def test_registry_check_names_the_first_flag_of_another_strategy(files, capsys, command):
    code = run([command[0], "--algebra", files["mikheev"], *command[1:], "--strategy", "generic",
                "--seed", "3", "--subset-max", "2", "--points", "7", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: --points applies to the random strategy only, not 'generic'\n"


def test_registry_check_defaults(files, capsys):
    # Not given, the registry flags are random, 50 points, seed 0, cap 3.
    assert run(["check", "--algebra", files["mikheev"], "--identity", "xyy"]) == 0
    assert capsys.readouterr().out == (
        f"{'xyy':<20} {'random-pass':<12} strategy=random points=50 seed=0\n")
    assert run(["check", "--algebra", files["mikheev"], "--identity", "xyy",
                "--strategy", "subset"]) == 0
    # Supports of size 1 to 3 in each of xyy's two slots: (13 + 78 + 286)^2.
    assert capsys.readouterr().out == f"{'xyy':<20} {'holds':<12} strategy=subset points=142129\n"
    assert run(["check", "--algebra", files["mikheev"], "--identity", "xyy",
                "--format", "json"]) == 2
    assert capsys.readouterr().err == (
        "error: --seed is required for the random strategy with --format json\n")


@pytest.mark.parametrize("command", [["check", "--identity", "xyy"], ["lemmas"]],
                         ids=["check", "lemmas"])
def test_points_are_capped_before_the_file_is_read(tmp_path, capsys, command):
    # Each point is an exact evaluation, so an uncapped --points may never end.
    argv = [command[0], "--algebra", str(tmp_path / "missing.alg"), *command[1:], "--seed", "1"]
    assert run([*argv, "--points", str(POINTS_CAP + 1)]) == 2
    assert capsys.readouterr() == ("", f"error: --points must be at most {POINTS_CAP}\n")
    assert run([*argv, "--points", str(POINTS_CAP)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check", "--identity", "xyy"], ["lemmas"]],
                         ids=["check", "lemmas"])
def test_a_negative_seed_exits_2(files, capsys, command):
    code = run([command[0], "--algebra", files["mikheev"], *command[1:], "--seed", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: seed must be nonnegative, got -1\n"


def test_lemmas_random_on_family(files, capsys):
    code = run(["lemmas", "--algebra", files["fam23"],
                "--strategy", "random", "--points", "5", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("random-pass") == 25


def test_lemmas_structural_errors_exit_2(files, capsys):
    code = run(["lemmas", "--algebra", files["broken"], "--strategy", "random",
                "--points", "2", "--seed", "0"])
    assert code == 2
    out = capsys.readouterr().out
    assert "fails" in out
    assert "error" in out


def test_json_requires_seed_for_random(files, capsys):
    code = run(["check", "--algebra", files["fam23"], "--identity", "eq5",
                "--strategy", "random", "--format", "json"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_json_reports_are_byte_identical(files, capsys):
    argv = ["lemmas", "--algebra", files["fam23"], "--strategy", "random",
            "--points", "3", "--seed", "12", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    records = json.loads(first)
    assert len(records) == 25
    assert all(rec["seed"] == 12 for rec in records)
    assert all(rec["status"] == "random-pass" for rec in records)


def test_json_witness_record(files, capsys):
    code = run(["check", "--algebra", files["broken"], "--identity", "right-alt",
                "--format", "json"])
    assert code == 1
    rec = json.loads(capsys.readouterr().out)[0]
    assert rec["status"] == "fails"
    assert rec["witness"]["basis"] == [0, 0, 1]
    assert rec["witness"]["pretty"]


def test_mikheev_write_and_parse(tmp_path, fam_sym, capsys):
    out = tmp_path / "sym.alg"
    assert run(["mikheev", "--symbolic", "--out", str(out)]) == 0
    written = parse_document(out.read_text()).algebra
    assert written.mu == fam_sym.mu
    assert written.alpha == fam_sym.alpha


def test_mikheev_rational_variant(tmp_path, fam23, capsys):
    out = tmp_path / "a23.alg"
    assert run(["mikheev", "--lambda", "2", "--xi", "3", "--out", str(out)]) == 0
    assert parse_document(out.read_text()).algebra.mu == fam23.mu


def test_mikheev_flag_conflicts(tmp_path, capsys):
    out = tmp_path / "x.alg"
    assert run(["mikheev", "--symbolic", "--lambda", "2", "--xi", "3",
                "--out", str(out)]) == 2
    assert run(["mikheev", "--lambda", "2", "--out", str(out)]) == 2
    # An empty --lambda or --xi is still given, so it conflicts with --symbolic.
    for flags in (["--lambda="], ["--xi="], ["--lambda=", "--xi=2"]):
        assert run(["mikheev", "--symbolic", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 5
    assert not out.exists()


def test_twist_command(files, tmp_path, fam_sym, capsys):
    out = tmp_path / "twisted.alg"
    code = run(["twist", "--algebra", files["mikheev"], "--morphism", files["beta"],
                "--out", str(out)])
    assert code == 0
    T = parse_document(out.read_text()).algebra
    assert T.mu == fam_sym.mu
    assert T.alpha == fam_sym.alpha


def test_documents_are_utf8_under_any_locale(files, tmp_path, mikheev, fam_sym,
                                             monkeypatch, capsys):
    # A document is JSON, so UTF-8 whatever the locale: under the C locale
    # a basis name written outside ASCII is read, printed as UTF-8 and read
    # from --element as UTF-8, and no read or write falls back on the
    # locale's encoding (EncodingWarning).  What a child prints there is the
    # UTF-8 of what the same call prints in process.
    names = ["\u00e91"] + [f"e{i}" for i in range(2, mikheev.dim + 1)]
    doc = json.loads(serialize_algebra(mikheev, names))
    (tmp_path / "base.alg").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    monkeypatch.chdir(tmp_path)
    for argv, code in ((["check", "--algebra", "base.alg", "--identity", "right-alt"], 0),
                       (["check", "--algebra", "base.alg", "--identity", "left-alt"], 1),
                       (["power", "--algebra", "base.alg", "--element", names[0], "--n", "2"], 0),
                       (["twist", "--algebra", "base.alg", "--morphism", files["beta"],
                         "--out", "twisted.alg"], 0),
                       (["mikheev", "--out", "mikheev.alg"], 0)):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "homalt.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, b""), argv
        assert run(argv) == code
        assert proc.stdout == capsys.readouterr().out.encode("utf-8"), argv
    twisted = (tmp_path / "twisted.alg").read_text(encoding="utf-8")
    assert twisted == serialize_algebra(fam_sym, names)
    written = (tmp_path / "mikheev.alg").read_text(encoding="utf-8")
    assert written == serialize_algebra(mikheev)
    # A file name outside ASCII is named in an error as the name's own
    # UTF-8, not as the escapes of the bytes the locale could not decode.
    for argv, error in (
            (["check", "--algebra", "n\u00f6.alg", "--identity", "left-alt"],
             "error: cannot read n\u00f6.alg: No such file or directory\n"),
            (["mikheev", "--out", "n\u00f6/x.alg"],
             "error: cannot write n\u00f6/x.alg: No such file or directory\n")):
        proc = subprocess.run([sys.executable, "-m", "homalt.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", error.encode("utf-8"))
        assert run(argv) == 2
        assert capsys.readouterr() == ("", error)


def test_element_text_decoded_by_the_locale_is_kept(tmp_path, mikheev, monkeypatch, capsys):
    # Under a non-UTF-8 locale that is not ASCII, such as ISO-8859-1, the
    # interpreter decodes --element é1 correctly; it must not be re-encoded
    # in the locale's codec and read as UTF-8.  No such locale need be
    # installed: the filesystem codec is replaced by Latin-1 in process.
    names = ["é1"] + [f"e{i}" for i in range(2, mikheev.dim + 1)]
    (tmp_path / "base.alg").write_text(serialize_algebra(mikheev, names), encoding="utf-8")
    argv = ["power", "--algebra", str(tmp_path / "base.alg"), "--element", names[0], "--n", "2"]
    assert run(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(os, "fsencode", lambda value: value.encode("latin-1", "surrogateescape"))
    assert run(argv) == 0
    assert capsys.readouterr() == expected


def test_basis_name_without_utf8_is_bad_input(tmp_path, mikheev, monkeypatch, capsys):
    # The JSON escape \udc80 reads as a lone surrogate, which has no UTF-8
    # form: the document is refused before anything is printed, under the C
    # locale and under a strict UTF-8 stdout alike.
    doc = json.loads(serialize_algebra(mikheev))
    doc["basis"][0] = "\udc80"
    (tmp_path / "base.alg").write_text(json.dumps(doc), encoding="utf-8")
    argv = ["check", "--algebra", "base.alg", "--identity", "left-alt"]
    error = "error: basis[0]: basis name '\\udc80' does not encode as UTF-8\n"
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", error)
    src = str(Path(__file__).resolve().parent.parent / "src")
    for env in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                {"PYTHONIOENCODING": "utf-8:strict"}):
        proc = subprocess.run([sys.executable, "-m", "homalt.cli", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", error.encode()), env


def test_twist_rejects_non_morphism(files, tmp_path, capsys):
    bad = tmp_path / "bad.mor"
    bad.write_text(json.dumps({
        "dimension": 13,
        "matrix": [{"from": 0, "to": [{"index": 0, "coeff": "1"}]}],
    }))
    out = tmp_path / "out.alg"
    code = run(["twist", "--algebra", files["mikheev"], "--morphism", str(bad),
                "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: twisting map is not a weak morphism (first failing pair (0, 0))\n")
    assert not out.exists()


def test_twist_dimension_mismatch(files, tmp_path, capsys):
    small = tmp_path / "small.mor"
    small.write_text(json.dumps({
        "dimension": 2,
        "matrix": [{"from": 0, "to": [{"index": 0, "coeff": "1"}]}],
    }))
    out = tmp_path / "out.alg"
    assert run(["twist", "--algebra", files["mikheev"], "--morphism", str(small),
                "--out", str(out)]) == 2


def test_power_text(files, capsys):
    code = run(["power", "--algebra", files["mikheev"], "--element", "e7 - e8",
                "--n", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-e13"


def test_power_json(files, capsys):
    code = run(["power", "--algebra", files["fam_sym"], "--element", "e7 - e8",
                "--n", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"power": [{"index": 12,
                              "coeff": {"poly": [{"coeff": "-1",
                                                  "exps": {"lambda": 4, "xi": 2}}]}}]}


@pytest.mark.parametrize("fmt, out", [("text", "0\n"), ("json", '{\n  "power": []\n}\n')],
                         ids=["text", "json"])
def test_power_reads_the_zero_it_prints(files, capsys, fmt, out):
    # e13 squares to 0, printed as "0"; that text is an element expression.
    argv = ["power", "--algebra", files["mikheev"], "--n", "2", "--format", fmt]
    assert run(argv + ["--element", "e13"]) == 0
    assert capsys.readouterr().out == out
    assert run(argv + ["--element", " 0 "]) == 0
    assert capsys.readouterr() == (out, "")


def test_power_bad_inputs(files, capsys):
    assert run(["power", "--algebra", files["mikheev"], "--element", "e7 - e8",
                "--n", "0"]) == 2
    assert run(["power", "--algebra", files["mikheev"], "--element", "e99",
                "--n", "2"]) == 2


def test_duplicate_basis_names_are_refused(tmp_path, capsys):
    # e1 e1 = e2 with both named "a": "a" must not silently mean e2.
    square = serialize_algebra(HomAlgebra(2, {(0, 0): ((1, 1),)}, identity_rows(2)), ["a", "b"])
    dup = tmp_path / "dup.alg"
    dup.write_text(square.replace('"b"', '"a"'))
    want = "error: basis[1]: duplicate basis name 'a'"
    assert run(["power", "--algebra", str(dup), "--element", "a", "--n", "2"]) == 2
    assert want in capsys.readouterr().err
    assert run(["check", "--algebra", str(dup), "--identity", "xyy"]) == 2
    assert want in capsys.readouterr().err


def test_basis_names_that_expressions_cannot_read_are_refused(tmp_path, capsys):
    # "x-y" reads as the terms x and -y: no element expression names e1.
    square = serialize_algebra(HomAlgebra(2, {(0, 0): ((1, 1),)}, identity_rows(2)), ["a", "y"])
    bad = tmp_path / "minus.alg"
    bad.write_text(square.replace('"a"', '"x-y"'))
    assert run(["check", "--algebra", str(bad), "--identity", "left-alt"]) == 2
    assert "error: basis[0]: basis name 'x-y' must be nonempty" in capsys.readouterr().err
    assert run(["power", "--algebra", str(bad), "--element", "x-y", "--n", "2"]) == 2
    assert "error: basis[0]:" in capsys.readouterr().err


def test_power_exponent_is_capped(tmp_path, capsys):
    # e1 e1 = e1 with the identity twist: no power vanishes, so the loop
    # would run all n steps.
    idem = tmp_path / "idem.alg"
    idem.write_text(serialize_algebra(HomAlgebra(1, {(0, 0): ((0, 1),)}, identity_rows(1))))
    assert run(["power", "--algebra", str(idem), "--element", "e1", "--n", "1000000000"]) == 2
    assert capsys.readouterr().err.strip() == "error: --n must be at most 1000"
    assert run(["power", "--algebra", str(idem), "--element", "e1", "--n", "1000"]) == 0
    assert capsys.readouterr().out.strip() == "e1"


@pytest.mark.parametrize("n, bound", [("0", "at least 1"), ("1001", "at most 1000")])
def test_power_refuses_bad_n_before_reading_the_file(tmp_path, capsys, n, bound):
    # Like every registry flag rule, the --n bounds are refused before the
    # algebra file is opened.
    code = run(["power", "--algebra", str(tmp_path / "missing.alg"), "--element", "e1",
                "--n", n])
    assert (code, *capsys.readouterr()) == (2, "", f"error: --n must be {bound}\n")


# --- exact values of any size ---

# Python refuses int-to-str conversions past 4300 digits by default.
LONG = 4300


@pytest.fixture(scope="module")
def big_algebras():
    """The identity-twisted A(7/3, -5/2) with every structure constant times
    10^3000, so products of two constants pass 6000 digits, and the line
    ``e1 e1 = 10^4000 e1``."""
    fam = mikheev_family(FamilyParams.rational(Fraction(7, 3), Fraction(-5, 2)))
    scaled = {key: tuple((k, c * 10**3000) for k, c in row) for key, row in fam.mu.items()}
    return {"scaled": HomAlgebra(13, scaled, identity_rows(13)),
            "line": HomAlgebra(1, {(0, 0): ((0, 10**4000),)}, identity_rows(1))}


@pytest.mark.parametrize("flags", [
    ["--identity", "right-alt"],
    ["--identity", "xyy", "--strategy", "generic"],
    ["--identity", "xyy", "--strategy", "subset"],
    ["--identity", "xyy", "--strategy", "random", "--seed", "1"],
], ids=["right-alt", "generic", "subset", "random"])
def test_big_witnesses_print_exactly_and_replay(tmp_path, big_algebras, flags, capsys):
    A = big_algebras["scaled"]
    path = tmp_path / "scaled.alg"
    path.write_text(serialize_algebra(A))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code = run(["check", "--algebra", str(path), *flags, "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    (rec,) = json.loads(captured.out)
    assert max(len(entry["coeff"]) for entry in rec["witness"]["element"]) > LONG
    printed, replayed = _replay_printed(parse_document(path.read_text()).algebra, rec)
    assert replayed == printed and not printed.is_zero()
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
    assert run(["check", "--algebra", str(path), *flags]) == 1
    assert "witness value: " in capsys.readouterr().out


def test_power_prints_big_values(tmp_path, big_algebras, capsys):
    path = tmp_path / "line.alg"
    path.write_text(serialize_algebra(big_algebras["line"]))
    argv = ["power", "--algebra", str(path), "--element", "e1", "--n", "3"]
    value = "1" + "0" * 8000
    assert run(argv) == 0
    assert capsys.readouterr().out == f"{value}*e1\n"
    assert run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"power": [{"index": 0, "coeff": value}]}


def test_coefficient_digit_cap(tmp_path, capsys):
    path = tmp_path / "long.alg"
    entry = {"index": 0, "coeff": "1" + "0" * 4400}
    path.write_text(json.dumps({"dimension": 1, "alpha": [],
                                "products": [{"left": 0, "right": 0, "result": [entry]}]}))
    assert run(["power", "--algebra", str(path), "--element", "e1", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(": number of 4401 digits exceeds the supported cap of 4300\n")


def test_noniso(capsys):
    assert run(["noniso", "--params", "2", "3", "5", "7"]) == 0
    assert "certified" in capsys.readouterr().out
    assert run(["noniso", "--params", "2", "3", "2", "3"]) == 1
    assert "not certified" in capsys.readouterr().out
    assert run(["noniso", "--params", "0", "3", "5", "7"]) == 2
    assert run(["noniso", "--params", "2", "3", "5", "x"]) == 2


def test_missing_file(capsys):
    assert run(["check", "--algebra", "/nonexistent.alg", "--identity", "right-alt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_needs_algebra_source(capsys):
    # --algebra FILE is the one algebra source, and a required one.
    assert run(["check", "--identity", "right-alt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "homalt check: error: the following arguments are required: --algebra\n")
    # An empty file name is refused by every command that reads --algebra,
    # not read as no --algebra at all nor opened as the current directory.
    for argv in (["check", "--algebra=", "--identity", "right-alt"],
                 ["lemmas", "--algebra="],
                 ["twist", "--algebra=", "--morphism", "x.mor", "--out", "x.alg"],
                 ["power", "--algebra=", "--element", "e1", "--n", "2"]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: --algebra needs a file name\n")


@pytest.mark.parametrize("command, option", [
    ("check", "--morphism"), ("twist", "--morphism"), ("twist", "--out"), ("mikheev", "--out"),
], ids=["check-morphism", "twist-morphism", "twist-out", "mikheev-out"])
def test_empty_file_names_are_refused(files, tmp_path, capsys, command, option):
    # An empty --morphism or --out is refused as an empty --algebra is: not
    # read as no file at all (check would test alpha), nor opened as the
    # current directory.
    given = {"--algebra": files["mikheev"], "--morphism": files["beta"],
             "--out": str(tmp_path / "out.alg"), option: ""}
    argv = {"check": ["check", "--algebra", given["--algebra"], "--identity", "morphism",
                      "--morphism=" + given["--morphism"]],
            "twist": ["twist", *(f"{name}={value}" for name, value in given.items())],
            "mikheev": ["mikheev", "--out=" + given["--out"]]}[command]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {option} needs a file name\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--mikheev"],
    ["--mikheev", "--lambda", "2", "--xi", "3"],
    ["--mikheev", "--symbolic"],
    ["--lambda", "2"],
    ["--xi", "3"],
    ["--symbolic"],
], ids=" ".join)
@pytest.mark.parametrize("command", ["check", "lemmas"])
def test_algebra_file_excludes_the_built_in_algebra(files, capsys, command, flags):
    # The built-in algebra is written by `homalt mikheev`; its flags are no
    # options of check or lemmas, so nothing runs beside an --algebra file.
    argv = [command, "--algebra", files["mikheev"], *flags,
            "--strategy", "random", "--seed", "1", "--points", "1"]
    assert run(argv + (["--identity", "xyy"] if command == "check" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"homalt: error: unrecognized arguments: {' '.join(flags)}\n")
