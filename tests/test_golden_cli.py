"""Exact CLI outputs, pinned.

Each case runs ``homalt.cli.run`` in-process on inputs built here and
compares its stdout and exit code, byte for byte, with
``tests/golden/cli.json``.  That file was written once, before the registry
was declared in one place, and is never regenerated: a refactoring that
changes a report, an error text or the order of either fails here.  The file
also holds the ``to_dict()`` of one failing operator report with a probe
index, which no CLI call on valid input prints.

Five records were rewritten once, as a declared change of witnesses, when
the witness search dropped its random points for the degree grid alone and
a failing ``generic`` check took the witness of ``subset`` at cap dim:
``lemmas-twist-generic``, ``lemmas-scaled-generic`` and
``check-xyy-generic`` (xyy's witness point went from 21 nonzero
coordinates to 3), ``lemmas-twist-subset`` (the point and value on the same
combo) and ``probe_report`` (the point and value; the probe is still 2).
Verdicts, ``points`` and exit codes did not change.

One line of ``lemmas-scaled-generic`` was rewritten once, as a declared
change of an error text, when ``beta2``'s hypothesis became the
multiplicative law itself: its precondition error reads ``algebra is not
multiplicative``, where it read ``algebra is not twisted by a weak
morphism``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from homalt.algfile import serialize_algebra, serialize_morphism
from homalt.catalog import FamilyParams, mikheev_algebra, mikheev_family, mikheev_morphism
from homalt.cli import run
from homalt.homalgebra import HomAlgebra, identity_rows
from homalt.proof_replay import verify
from test_subset import random_algebra

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# name -> argv; a word in braces is the path of that input file.
CASES = {
    "lemmas-mikheev-generic": ["lemmas", "--algebra", "{base}", "--strategy", "generic",
                               "--format", "json"],
    "lemmas-twist-generic": ["lemmas", "--algebra", "{twist}", "--strategy", "generic"],
    "lemmas-twist-subset": ["lemmas", "--algebra", "{twist}", "--strategy", "subset",
                            "--subset-max", "1", "--format", "json"],
    "lemmas-twist-random": ["lemmas", "--algebra", "{twist}", "--strategy", "random",
                            "--seed", "4", "--points", "2", "--format", "json"],
    "lemmas-scaled-generic": ["lemmas", "--algebra", "{scaled}", "--strategy", "generic"],
    "check-left-alt": ["check", "--algebra", "{base}", "--identity", "left-alt"],
    "check-right-alt": ["check", "--algebra", "{twist}", "--identity", "right-alt",
                        "--format", "json"],
    "check-multiplicative": ["check", "--algebra", "{scaled}", "--identity", "multiplicative"],
    "check-morphism": ["check", "--algebra", "{base}", "--identity", "morphism",
                       "--morphism", "{beta}", "--format", "json"],
    "check-xyy-generic": ["check", "--algebra", "{twist}", "--identity", "xyy",
                          "--strategy", "generic"],
    "power-json": ["power", "--algebra", "{scaled}", "--element", "3/2*e1 + 2*e2 - e4",
                   "--n", "3", "--format", "json"],
    "check-dpe-family": ["check", "--algebra", "{family}", "--identity", "dpe",
                         "--strategy", "generic", "--format", "json"],
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The base algebra; the identity twist on the product of A(2/3, -5/2)
    (not right Hom-alternative); the base algebra with alpha(e1) = 2 e1 (not
    multiplicative); the symbolic family; and a diagonal morphism."""
    root = tmp_path_factory.mktemp("golden")
    base = mikheev_algebra()
    fam = mikheev_family(FamilyParams.rational(Fraction(2, 3), Fraction(-5, 2)))
    algebras = {
        "base": base,
        "twist": HomAlgebra(13, dict(fam.mu), identity_rows(13)),
        "scaled": HomAlgebra(13, dict(base.mu), {**base.alpha, 0: ((0, 2),)}),
        "family": mikheev_family(FamilyParams.symbolic()),
    }
    paths = {}
    for name, A in algebras.items():
        paths[name] = root / f"{name}.alg"
        paths[name].write_text(serialize_algebra(A))
    paths["beta"] = root / "beta.mor"
    paths["beta"].write_text(serialize_morphism(mikheev_morphism(FamilyParams.rational(2, 3)), 13))
    return {name: str(path) for name, path in paths.items()}


def test_cases_match_the_golden_file(golden):
    assert set(golden["cli"]) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_unchanged(name, inputs, golden, capsys):
    argv = [inputs[arg[1:-1]] if arg.startswith("{") else arg for arg in CASES[name]]
    code = run(argv)
    assert {"code": code, "stdout": capsys.readouterr().out} == golden["cli"][name]


def test_operator_report_with_probe_is_unchanged(golden):
    report = verify(random_algebra(5, "poly"), "eq1", "generic", skip_preconditions=True)
    assert report.witness.probe is not None
    assert report.to_dict() == golden["probe_report"]
