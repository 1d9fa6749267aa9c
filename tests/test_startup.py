"""Start-up and exit: what a CLI call loads, and how it ends.

A CLI call runs in a fresh interpreter, so every module it imports is paid
for on every call.  These checks run the imports in a child process, where
``sys.modules`` starts empty of homalt.  ``homalt.cli.main`` flushes and
ends the process with ``os._exit``; the child runs here check that it
prints, writes and exits exactly as the in-process ``run()`` does.

Each path loads only its own code: the registry and its checking, in
``proof_replay``, load only for ``check``, ``lemmas`` and ``--help``, the
evaluators in ``laws`` only for registry checks, the operator calculus only
for the operator entries, and the parser adds arguments only to the
subcommand named.  ``proof_replay`` imports ``homalgebra`` and
``scalars`` only, and the evaluators in ``laws`` import nothing.
"""

import ast
import errno
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homalt
import homalt.laws
import homalt.proof_replay
from homalt.algfile import parse_document, serialize_algebra, serialize_morphism
from homalt.cli import _SUBCOMMANDS, STRUCTURAL_IDS, build_parser, run
from homalt.homalgebra import Element, identity_rows
from homalt.operators import RightOp

SRC = Path(__file__).resolve().parent.parent / "src"
# What no holding registry check runs: the text forms of elements.
ASIDE = {"homalt.text"}
_LISTING = "-- sys.modules --"


def _modules_after(statement: str, cwd: Path | None = None) -> set[str]:
    """The modules loaded in a fresh interpreter after ``statement``, read
    from its ``sys.modules``, which holds every module however it was
    imported (``-X importtime`` lists none that ``importlib`` loads)."""
    code = f"{statement}\nimport sys\nprint({_LISTING!r}, *sys.modules, sep='\\n')"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.rpartition(_LISTING)[2].split())


def test_cli_import_skips_dataclasses_and_catalog():
    loaded = _modules_after("import homalt.cli")
    assert "homalt.cli" in loaded
    assert not {"dataclasses", "inspect", "homalt.catalog"} & loaded


def test_bare_package_import_loads_no_submodule():
    loaded = _modules_after("import homalt")
    assert "homalt" in loaded
    assert not [name for name in loaded if name.startswith("homalt.")]


def test_submodules_stay_reachable_as_attributes():
    loaded = _modules_after("import homalt\nassert homalt.catalog.DIM == 13")
    assert "homalt.catalog" in loaded


def test_listing_includes_modules_loaded_through_the_package():
    # The package's __getattr__ loads ``homalt.text`` with
    # importlib.import_module: ``-X importtime`` shows no line for it.
    assert "homalt.text" in _modules_after("import homalt\nhomalt.text")


def test_public_names_are_pinned():
    # The public API, in full: a name is added or removed by editing this
    # list, never as a side effect.
    assert homalt.__all__ == [
        "AlgebraFormatError", "BatchResult", "CheckReport", "Element", "FamilyParams",
        "HomAlgebra", "IdentityInstance", "Poly", "PreconditionError", "Rational", "RightOp",
        "Scalar", "Witness", "alpha_op", "apply", "compose", "element_str",
        "family_nonisomorphism_condition", "is_hom_nilpotent", "is_left_hom_alternative",
        "is_morphism", "is_multiplicative", "is_right_hom_alternative", "is_weak_morphism",
        "mikheev_algebra", "mikheev_family", "mikheev_morphism", "op_sub", "op_sup",
        "parse_document", "parse_element_expr", "parse_morphism", "registry", "right_mul_op",
        "scalar_str", "serialize_algebra", "serialize_morphism", "smallest_alpha_exponent",
        "spectrum_certificate", "substitute_params", "verify", "verify_all", "yau_twist",
        "__version__",
    ]


def test_every_public_name_resolves():
    for name in homalt.__all__:
        assert getattr(homalt, name) is not None, name
    assert set(homalt.__all__) <= set(dir(homalt))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from homalt import *", namespace)
    assert set(homalt.__all__) <= set(namespace)
    assert namespace["verify"] is homalt.proof_replay.verify
    assert namespace["FamilyParams"] is homalt.catalog.FamilyParams


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        homalt.no_such_name


# -- what a CLI call loads ---------------------------------------------------------


def _child(argv: list[str], cwd: Path, *, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
           unbuffered: bool = True, closed: int | None = None) -> subprocess.CompletedProcess:
    """``python -m homalt.cli ARGV`` in a fresh interpreter, started with
    descriptor ``closed`` closed if one is given (as ``>&-`` or ``2>&-``
    start it in a shell)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    close = None if closed is None else functools.partial(os.close, closed)
    return subprocess.run([sys.executable, "-m", "homalt.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=stderr, text=True, preexec_fn=close)


def _cli_modules(argv: list[str], cwd: Path, code: int = 0) -> set[str]:
    """The homalt modules loaded by the end of a CLI call that exits
    ``code``: ``run``, as ``main`` calls it, in a fresh interpreter."""
    statement = f"from homalt.cli import run\nassert run({argv!r}) == {code}"
    return {name for name in _modules_after(statement, cwd) if name.startswith("homalt")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, plain_twisted):
    """The built-in algebra written by the CLI, the twisted product of
    A(lambda, xi) with the identity twist (not right Hom-alternative), and
    the identity morphism."""
    root = tmp_path_factory.mktemp("startup")
    assert run(["mikheev", "--out", str(root / "base.alg")]) == 0
    (root / "plain.alg").write_text(serialize_algebra(plain_twisted))
    (root / "id.mor").write_text(serialize_morphism(identity_rows(13), 13))
    return root


# Every CLI call loads these.
EVERY_CALL = {"homalt", "homalt.cli", "homalt.scalars", "homalt.homalgebra", "homalt.algfile"}
# README's Start-up table, a holding call per command of a row: name: (argv,
# what it loads beside EVERY_CALL).  A structural check and --help list the
# --identity choices from proof_replay but load no evaluator and no
# operator code; mikheev, twist, power and noniso load no registry code.
ALSO_LOADS = {
    "check-right-alt": (["check", "--algebra", "base.alg", "--identity", "right-alt"],
                        {"proof_replay"}),
    "check-multiplicative": (["check", "--algebra", "base.alg", "--identity", "multiplicative"],
                             {"proof_replay"}),
    "check-morphism": (["check", "--algebra", "base.alg", "--identity", "morphism",
                        "--morphism", "id.mor"], {"proof_replay"}),
    "help": (["--help"], {"proof_replay"}),
    "twist": (["twist", "--algebra", "base.alg", "--morphism", "id.mor",
               "--out", "loads-twist.alg"], set()),
    "power": (["power", "--algebra", "base.alg", "--element", "e7 - e8", "--n", "2"], {"text"}),
    "check-xyy": (["check", "--algebra", "base.alg", "--identity", "xyy", "--strategy", "generic"],
                  {"proof_replay", "laws"}),
    "check-eq1": (["check", "--algebra", "base.alg", "--identity", "eq1", "--strategy", "generic"],
                  {"proof_replay", "laws", "operators"}),
    "lemmas": (["lemmas", "--algebra", "base.alg", "--strategy", "generic"],
               {"proof_replay", "laws", "operators"}),
    "mikheev": (["mikheev", "--out", "loads.alg"], {"catalog"}),
    "noniso": (["noniso", "--params", "2", "3", "5", "7"], {"catalog"}),
}


@pytest.mark.parametrize("call", list(ALSO_LOADS))
def test_each_command_loads_its_row_of_the_table(inputs, call):
    argv, also = ALSO_LOADS[call]
    assert _cli_modules(argv, inputs) == EVERY_CALL | {f"homalt.{name}" for name in also}


def test_every_structural_check_loads_the_same_code(inputs):
    # Each basis scan sits in homalgebra beside the others.  A failing check
    # prints its witness through the text forms, so the left-alt check, which
    # fails on base.alg, is set beside right-alt failing on plain.alg.
    def loads(algebra, identity, *flags, code=0):
        return _cli_modules(["check", "--algebra", algebra, "--identity", identity, *flags],
                            inputs, code=code)

    holding = loads("base.alg", "right-alt")
    assert loads("base.alg", "morphism", "--morphism", "id.mor") == holding
    failing = loads("plain.alg", "right-alt", code=1)
    assert loads("base.alg", "left-alt", code=1) == failing == holding | {"homalt.text"}


def _check(algebra: str, tag: str, *flags: str) -> list[str]:
    return ["check", "--algebra", algebra, "--identity", tag, *flags]


@pytest.mark.parametrize("tag", ["xyy", "moufang", "theorem"])
def test_holding_element_check_loads_no_operator_code(inputs, tag):
    loaded = _cli_modules(_check("base.alg", tag, "--strategy", "generic"), inputs)
    assert {"homalt.proof_replay", "homalt.laws"} <= loaded
    assert "homalt.operators" not in loaded
    assert not ASIDE & loaded


@pytest.mark.parametrize("tag", ["eq1", "eq5"])
def test_holding_operator_check_loads_only_the_operator_laws(inputs, tag):
    # Beyond what an element check loads, only the operator calculus.
    loaded = _cli_modules(_check("base.alg", tag, "--strategy", "generic"), inputs)
    element = _cli_modules(_check("base.alg", "xyy", "--strategy", "generic"), inputs)
    assert loaded == element | {"homalt.operators"}


@pytest.mark.parametrize("flags", [
    ("--strategy", "generic"),
    ("--strategy", "subset", "--subset-max", "1"),
    ("--strategy", "random", "--seed", "1", "--points", "2"),
], ids=["generic", "subset", "random"])
def test_failing_element_check_loads_no_operator_code(inputs, flags):
    # xyy fails on the identity-twist algebra: exit 1.  The witness search
    # evaluates the entry at points, on elements only.
    loaded = _cli_modules(_check("plain.alg", "xyy", *flags), inputs, code=1)
    assert {"homalt.proof_replay", "homalt.laws"} <= loaded
    assert "homalt.operators" not in loaded


@pytest.mark.parametrize("tag", ["xyy", "eq1"])
def test_replaying_a_point_witness_in_a_fresh_interpreter(inputs, plain_twisted, tag):
    # The witness is found here; the child only re-evaluates it at its point.
    witness = homalt.proof_replay.verify(plain_twisted, tag, "generic",
                                         skip_preconditions=True).witness
    statement = (
        "from fractions import Fraction\n"
        "from homalt.algfile import parse_document\n"
        "from homalt.homalgebra import FAILS, CheckReport, Witness\n"
        "from homalt.proof_replay import replay_identity_witness\n"
        "A = parse_document(open('plain.alg').read()).algebra\n"
        f"witness = Witness(None, point={witness.point!r}, probe={witness.probe!r}, "
        f"pair_index={witness.pair_index!r})\n"
        f"report = CheckReport({tag!r}, FAILS, 'generic', witness=witness)\n"
        "assert not replay_identity_witness(A, report).is_zero()"
    )
    loaded = _modules_after(statement, inputs)
    assert {"homalt.proof_replay", "homalt.laws"} <= loaded


# Each entry's argument names, its evaluator's parameters after ``A``.  A
# witness prints coordinate ``x_1`` of argument ``x``, so renaming a
# parameter renames printed output.
ARGUMENT_NAMES = {
    "xyy": ("x", "y"),
    "linearized": ("x", "y", "z"),
    "teichmuller": ("w", "x", "y", "z"),
    "xyyz": ("x", "y", "z"),
    "moufang": ("x", "y", "z"),
    "beta2": ("x", "y", "z"),
    "eq1": ("a",),
    "eq2": ("a", "b"),
    "eq2p": ("a", "b", "c"),
    "eq3a": ("a",),
    "eq3b": ("a", "b"),
    "eq5": ("a", "b"),
    "eq5p": ("a", "b", "c"),
    "eq6": ("a", "b"),
    "eq7": ("a", "b"),
    "eq8": ("a", "b"),
    "eq9": ("a", "b"),
    "eq10": ("a", "b"),
    "eq10p": ("a", "b"),
    "dpe": ("a", "b"),
    "d0": ("a", "b"),
    "e0": ("a", "b"),
    "prop": ("a", "b"),
    "theorem": ("a", "b"),
    "mikheev_classical": ("a", "b"),
}


def test_rows_and_evaluators_are_one_to_one():
    entries = homalt.proof_replay.registry()
    tags = [inst.tag for inst in entries]
    evaluators = [name for name in vars(homalt.laws) if name.startswith("_ev_")]
    assert evaluators == [f"_ev_{tag}" for tag in tags]
    assert tags == list(ARGUMENT_NAMES)
    for inst in entries:
        assert inst.evaluate is getattr(homalt.laws, f"_ev_{inst.tag}")
        assert inst.evaluate.__doc__, inst.tag
        assert inst.var_names == ARGUMENT_NAMES[inst.tag], inst.tag


def _imports(module: str) -> list[tuple[ast.AST, list[ast.AST]]]:
    """Each import statement of a homalt module, with its enclosing nodes."""
    found = []

    def walk(node, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, outer))
            walk(child, outer + [child])

    walk(ast.parse((SRC / "homalt" / f"{module}.py").read_text()), [])
    return found


# The operations of A that ``laws`` lists, by the half of it that may call them.
ELEMENT_OPS = {"mul", "twist_apply", "shift", "hom_associator", "commutator", "hom_power"}
OPERATOR_OPS = {"right_mul_op", "alpha_op", "compose", "op_sup", "op_sub"}


def _operations_of_a(name: str, functions: dict[str, ast.FunctionDef]) -> set[str]:
    """The attributes of ``A`` that the ``laws`` function ``name`` reads,
    with those of the ``laws`` helpers it calls."""
    ops, seen, todo = set(), {name}, [name]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "A":
                ops.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in functions and node.id not in seen:
                seen.add(node.id)
                todo.append(node.id)
    return ops


@pytest.mark.parametrize("half", ["element_laws", "operator_laws"])
def test_laws_import_nothing(half, mikheev):
    # An evaluator reaches A through A's operations alone: an element
    # entry's through those on elements, so it never needs the operator
    # calculus, and an operator entry's through the operator calculus too.
    assert _imports("laws") == []
    tree = ast.parse((SRC / "homalt" / "laws.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    kind = Element if half == "element_laws" else RightOp
    x = mikheev.basis_element(0)
    tags = [inst.tag for inst in homalt.proof_replay.registry()
            if type(inst.evaluate(mikheev, *[x] * inst.arity)[0]) is kind]
    assert tags
    for tag in tags:
        ops = _operations_of_a(f"_ev_{tag}", functions)
        if kind is Element:
            assert ops <= ELEMENT_OPS, tag
        else:
            assert ops <= ELEMENT_OPS | OPERATOR_OPS and ops & OPERATOR_OPS, tag


def _where(outer: list[ast.AST]) -> str:
    if any(isinstance(n, ast.FunctionDef) for n in outer):
        return "function"
    if any(isinstance(n, ast.If) and ast.unparse(n.test) == "TYPE_CHECKING" for n in outer):
        return "type checking"
    return "module"


def test_homalgebra_loads_the_operators_only_when_called():
    # At run time the operator calculus is imported in a function body; a
    # module-level import of it is for type checkers only.
    places = set()
    for node, outer in _imports("homalgebra"):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        names += [alias.name for alias in node.names]
        if any(name.rpartition(".")[2] == "operators" for name in names):
            places.add(_where(outer))
    assert "function" in places and "module" not in places


# argv whose output comes from argparse alone: help, usage errors.
PARSER_CASES = [[], ["--help"], ["-h", "check"], ["bogus"], ["bogus", "--help"], ["--frob"],
                ["check"], ["check", "--identity", "nope"], ["lemmas", "--strategy", "x"],
                ["power", "--n", "x"]] + [[name, "--help"] for name, _, _ in _SUBCOMMANDS]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_for_one_subcommand_prints_what_the_full_parser_does(argv, capsys):
    code = run(argv)
    partial = capsys.readouterr()
    with pytest.raises(SystemExit) as full_exit:
        build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert (partial.out, partial.err, code) == (full.out, full.err, full_exit.value.code)
    assert partial.out or partial.err


def test_parser_adds_arguments_to_the_named_subcommand_only():
    def arguments(parser):
        sub = next(a for a in parser._actions if a.dest == "command")
        return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}

    full = arguments(build_parser())
    assert all(len(dests) > 1 for dests in full.values())
    partial = arguments(build_parser(["--", "check", "--identity", "xyy"]))
    assert list(partial) == list(full)
    assert partial["check"] == full["check"]
    assert all(dests == ["help"] for name, dests in partial.items() if name != "check")
    assert arguments(build_parser(["--help"])) == full
    assert arguments(build_parser(["bogus"])) == full


def test_identity_choices_follow_the_registry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    identity = next(a for a in sub.choices["check"]._actions if a.dest == "identity")
    assert list(identity.choices) == homalt.proof_replay.identity_tags() + list(STRUCTURAL_IDS)


def test_precondition_error_is_one_class():
    assert issubclass(homalt.PreconditionError, ValueError)
    assert homalt.PreconditionError is homalt.proof_replay.PreconditionError


def test_registry_names_come_from_proof_replay():
    # The registry is declared beside its checking: no other module holds it.
    for name in ("IdentityInstance", "PreconditionError", "registry"):
        assert getattr(homalt, name) is getattr(homalt.proof_replay, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("homalt.identities")


# -- a child prints, writes and exits as run() does ----------------------------------


# name: (argv, exit code); {base}, {plain} and {id} are files of ``inputs``.
CHILD_CASES = {
    "holds": (["check", "--algebra", "{base}", "--identity", "right-alt"], 0),
    "fails": (["check", "--algebra", "{base}", "--identity", "left-alt", "--format", "json"], 1),
    "precondition": (["check", "--algebra", "{plain}", "--identity", "eq1",
                      "--strategy", "random", "--seed", "1"], 2),
    "usage": (["check", "--algebra", "{base}", "--identity", "nope"], 2),
    "help": (["--help"], 0),
    "check-help": (["check", "--help"], 0),
    "mikheev-out": (["mikheev", "--lambda", "2", "--xi", "3", "--out", "fam23.alg"], 0),
    "twist-out": (["twist", "--algebra", "{base}", "--morphism", "{id}", "--out", "tw.alg"], 0),
    "power-json": (["power", "--algebra", "{base}", "--element", "e7 - e8", "--n", "2",
                    "--format", "json"], 0),
    "noniso": (["noniso", "--params", "2", "3", "5", "7"], 0),
}


@pytest.mark.parametrize("case", sorted(CHILD_CASES))
def test_child_matches_in_process_run(case, inputs, tmp_path, monkeypatch, capsys):
    names = {name: str(inputs / f"{name}.{ext}")
             for name, ext in (("base", "alg"), ("plain", "alg"), ("id", "mor"))}
    template, expected = CHILD_CASES[case]
    argv = [arg.format(**names) for arg in template]
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    child = _child(argv, tmp_path / "child")
    monkeypatch.chdir(tmp_path / "here")
    code = run(argv)
    here = capsys.readouterr()
    assert (child.stdout, child.stderr, child.returncode) == (here.out, here.err, code)
    assert code == expected
    assert "Traceback" not in here.err
    written = sorted(p.name for p in (tmp_path / "child").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "here").iterdir())
    for name in written:
        text = (tmp_path / "child" / name).read_text()
        assert text == (tmp_path / "here" / name).read_text()
        parse_document(text)


def test_escaping_exception_keeps_its_traceback(tmp_path):
    code = ("import homalt.cli as cli\n"
            "def boom(argv):\n"
            "    raise RuntimeError('boom')\n"
            "cli.run = boom\n"
            "cli.main()\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "RuntimeError: boom" in proc.stderr


def test_main_skips_interpreter_teardown(tmp_path):
    code = ("import atexit, sys\n"
            "import homalt.cli as cli\n"
            "atexit.register(print, 'teardown ran')\n"
            "sys.argv = ['homalt', 'noniso', '--params', '2', '3', '5', '7']\n"
            "cli.main()\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "non-isomorphic: certified\n", "")


# -- output that cannot be written ----------------------------------------------------


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_is_exit_2(inputs, fmt, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = _child(["check", "--algebra", "base.alg", "--identity", "right-alt",
                       "--format", fmt], inputs, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--algebra", "base.alg", "--identity", "right-alt"],
    ["lemmas", "--algebra", "base.alg", "--strategy", "generic"],
    ["mikheev", "--out", "closed.alg"],
    ["twist", "--algebra", "base.alg", "--morphism", "id.mor", "--out", "closed.alg"],
    ["power", "--algebra", "base.alg", "--element", "e1", "--n", "2"],
    ["noniso", "--params", "2", "3", "2", "3"],
    ["check", "--help"],
], ids=["check", "lemmas", "mikheev", "twist", "power", "noniso", "help"])
def test_closed_stdout_descriptor_is_exit_2(inputs, argv):
    # Started with no stdout at all (``>&-``), a call has nowhere to report
    # its result: it runs nothing, whatever its exit code would have been.
    proc = _child(argv, inputs, closed=1)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {os.strerror(errno.EBADF)}\n"
    assert not (inputs / "closed.alg").exists()


# name: (argv, exit code) of calls whose stderr is closed or unread.
STDERR_CASES = {
    "holds": (["check", "--algebra", "base.alg", "--identity", "right-alt"], 0),
    "fails": (["check", "--algebra", "base.alg", "--identity", "left-alt"], 1),
    "missing": (["check", "--algebra", "missing.alg", "--identity", "left-alt"], 2),
    "precondition": (["check", "--algebra", "plain.alg", "--identity", "eq1", "--seed", "1"], 2),
    "usage": (["check", "--algebra", "base.alg", "--identity", "nope"], 2),
}


def _assert_stderr_lost(proc: subprocess.CompletedProcess, case: str, cwd: Path) -> None:
    """Errors are lost with stderr, never printed on stdout: the exit code
    and stdout are those of the same call with stderr."""
    argv, code = STDERR_CASES[case]
    full = _child(argv, cwd)
    assert (proc.returncode, proc.stdout) == (full.returncode, full.stdout)
    assert proc.returncode == code


@pytest.mark.parametrize("case", sorted(STDERR_CASES))
def test_closed_stderr_descriptor_keeps_the_exit_code(inputs, case):
    # ``2>&-``: the interpreter starts with no stderr at all.
    _assert_stderr_lost(_child(STDERR_CASES[case][0], inputs, closed=2), case, inputs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("case", ["missing", "precondition"])
def test_unread_stderr_keeps_the_exit_code(inputs, case, unbuffered):
    # The reader of stderr is gone before the error line is printed; a
    # buffered stderr fails again when it is flushed at the end.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(STDERR_CASES[case][0], inputs, stderr=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    _assert_stderr_lost(proc, case, inputs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=" ".join)
def test_help_to_closed_stdout_is_exit_2(inputs, argv, unbuffered):
    # argparse itself drops an OSError from printing help.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(argv, inputs, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["mikheev", "--out", "{out}"],
    ["twist", "--algebra", "base.alg", "--morphism", "id.mor", "--out", "{out}"],
])
def test_unwritable_out_is_exit_2(inputs, tmp_path, argv):
    out = str(tmp_path / "missing" / "x.alg")
    proc = _child([arg.format(out=out) for arg in argv], inputs)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot write {out}: No such file or directory\n"
