"""The benchmark's hooks into homalt still resolve.

``bench/tracer.py`` patches homalt functions by module and attribute path,
and the other bench scripts import homalt names.  A name moved to another
module would break ``bench/run.py --trace 1`` or a verdict check, which
only the slow ``bench/tests`` suite exercises.  These checks read the bench
sources with :mod:`ast` and resolve every such name against the package;
nothing in ``bench/`` is imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.rglob("*.py"))


def _resolve(module: str, path: str):
    """``module.path``, importing submodules on the way as ``import`` would."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute path) pairs of the tracer's ``TARGETS``."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [(row.elts[1].value, row.elts[2].value) for row in node.value.elts]
    raise AssertionError("bench/tracer.py defines no TARGETS")


def _imported_names(script: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from homalt... import name`` in a script,
    and ("homalt", dotted path) for every ``homalt.<path>`` it reads."""
    found = []
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homalt"):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            dotted = ast.unparse(node)
            if dotted.startswith("homalt.") and dotted.replace(".", "").isidentifier():
                found.append(("homalt", dotted.removeprefix("homalt.")))
    return found


def test_bench_scripts_are_where_expected():
    names = {p.name for p in SCRIPTS}
    assert {"tracer.py", "verdicts.py", "workloads.py", "run.py"} <= names


@pytest.mark.parametrize("module,path", _tracer_targets(),
                         ids=[f"{module}:{path}" for module, path in _tracer_targets()])
def test_tracer_targets_resolve(module, path):
    assert callable(_resolve(module, path))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(BENCH)))
def test_bench_imports_resolve(script):
    for module, name in _imported_names(script):
        assert _resolve(module, name) is not None, f"{script.name}: {module}.{name}"


def test_the_scripts_import_what_the_verdicts_replay():
    imported = {pair for script in SCRIPTS for pair in _imported_names(script)}
    assert ("homalt.proof_replay", "replay_identity_witness") in imported
    assert ("homalt.homalgebra", "replay_structural_witness") in imported
    assert ("homalt", "cli.run") in imported
    assert ("homalt", "proof_replay.is_right_hom_alternative") in imported
