"""Tests of the benchmark itself: tracing, layer separation, known answers.

Run from the root of the repository:

    python3 -m pytest bench/tests -q

The traced runs take about four minutes in all.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from verdicts import AlgebraCache, Outcome  # noqa: E402


def _traced(name, seed, tmp_path):
    result = run.traced_run(workloads.WORKLOADS[name], seed, tmp_path / name)
    assert result["failed"] == 0, result["detail"]["problems"]
    return result


@pytest.fixture
def small_sizes(monkeypatch):
    """Smaller K and N, so that the traced runs stay short."""
    monkeypatch.setattr(workloads, "SUBSET_MAX", 1)
    monkeypatch.setattr(workloads, "RANDOM_POINTS", 2)


@pytest.mark.parametrize("name", ["lemmas-generic", "refute-witness", "theorem-subset"])
def test_same_seed_gives_identical_counts(name, tmp_path, small_sizes):
    first = _traced(name, 7, tmp_path / "a")["detail"]["counts"]
    second = _traced(name, 7, tmp_path / "b")["detail"]["counts"]
    assert first == second
    assert first["cli.run.calls"] > 0


def test_theorem_subset_runs_no_operators(tmp_path, small_sizes):
    metrics = _traced("theorem-subset", 1, tmp_path)["metrics"]
    assert metrics["operators.compose.calls"]["value"] == 0
    assert metrics["proof_replay.subset_combos"]["value"] == 2 * workloads.subset_points(1)
    assert metrics["scalars.poly_mul.calls"]["value"] > 0


def test_lemmas_random_runs_no_polynomials(tmp_path, small_sizes):
    metrics = _traced("lemmas-random", 1, tmp_path)["metrics"]
    assert metrics["scalars.poly_mul.calls"]["value"] == 0
    assert metrics["operators.compose.calls"]["value"] > 0
    assert metrics["proof_replay.random_points"]["value"] == 25 * workloads.RANDOM_POINTS


def test_lemmas_generic_runs_right_alt_scans(tmp_path):
    metrics = _traced("lemmas-generic", 1, tmp_path)["metrics"]
    assert metrics["homalgebra.right_alt_scan.calls"]["value"] > 0
    assert metrics["proof_replay.verify.calls"]["value"] == 25


def test_entries_generic_runs_scans_and_operators(tmp_path):
    metrics = _traced("entries-generic", 1, tmp_path)["metrics"]
    entries = len(workloads.GENERIC_ENTRIES)
    assert metrics["proof_replay.verify.calls"]["value"] == entries
    # Every entry but xyy has the right-alt precondition.
    assert metrics["homalgebra.right_alt_scan.calls"]["value"] == entries - 1
    assert metrics["operators.compose.calls"]["value"] > 0
    assert metrics["scalars.poly_mul.calls"]["value"] > 0


def test_tracer_restores_every_alias():
    import homalt
    import homalt.cli
    import homalt.proof_replay
    from homalt.homalgebra import is_right_hom_alternative
    from homalt.scalars import Poly

    before = (homalt.cli.is_right_hom_alternative, homalt.proof_replay.is_right_hom_alternative,
              homalt.is_right_hom_alternative, Poly.__mul__, Poly.__rmul__, Poly.__radd__)
    with tracer.Tracer():
        assert homalt.cli.is_right_hom_alternative is not is_right_hom_alternative
        assert homalt.proof_replay.is_right_hom_alternative is homalt.cli.is_right_hom_alternative
        assert Poly.__rmul__ is Poly.__mul__
        assert Poly.__mul__ is not before[3]
    after = (homalt.cli.is_right_hom_alternative, homalt.proof_replay.is_right_hom_alternative,
             homalt.is_right_hom_alternative, Poly.__mul__, Poly.__rmul__, Poly.__radd__)
    assert after == before


def test_tracer_counts_calls_through_aliases():
    from homalt.catalog import mikheev_algebra
    from homalt.scalars import Poly

    with tracer.Tracer() as t:
        run._inprocess_cli(["noniso", "--params", "2", "3", "5", "7"])
        x = Poly.variable("x")
        _ = 2 * x + 1  # __rmul__ and __add__
        homalt_cli = sys.modules["homalt.cli"]
        homalt_cli.is_right_hom_alternative(mikheev_algebra())
    counts = t.counts()
    assert counts["scalars.poly_mul.calls"] == 1
    assert counts["scalars.poly_add.calls"] == 1
    assert counts["homalgebra.right_alt_scan.calls"] == 1
    assert counts["cli.run.calls"] == 1
    assert len(t.spans) == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in tracer.METRICS]
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    assert spec["paths"] == ["bench"]


# -- the known-answer checker must reject wrong verdicts -----------------------------------


@pytest.fixture(scope="module")
def left_alt(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("known")
    invocations = workloads.WORKLOADS["refute-witness"].setup(3, workdir, run._inprocess_cli)
    inv = invocations[0]
    assert inv.argv[inv.argv.index("--identity") + 1] == "left-alt"
    return inv, run._inprocess_cli(inv.argv)


def test_checker_accepts_the_right_verdict(left_alt):
    inv, out = left_alt
    assert inv.expect.check(out, AlgebraCache()) == []


@pytest.mark.parametrize("mutate", [
    lambda o: Outcome(0, o.stdout, o.stderr),
    lambda o: Outcome(None, o.stdout, o.stderr),
    lambda o: Outcome(o.code, o.stdout, "Traceback (most recent call last):\n  boom\n"),
    lambda o: Outcome(o.code, o.stdout.replace('"fails"', '"holds"'), o.stderr),
    lambda o: Outcome(o.code, o.stdout.replace('"coeff": "-1"', '"coeff": "-2"'), o.stderr),
    lambda o: Outcome(o.code, o.stdout.replace('"index": 7', '"index": 8'), o.stderr),
    lambda o: Outcome(o.code, o.stdout[:-5], o.stderr),
    lambda o: Outcome(o.code, '{"id": "left-alt"}', o.stderr),
])
def test_checker_rejects_wrong_verdicts(left_alt, mutate):
    inv, out = left_alt
    assert inv.expect.check(mutate(out), AlgebraCache()) != []


def test_refute_inputs_have_the_stated_witness(tmp_path):
    invocations = workloads.WORKLOADS["refute-witness"].setup(5, tmp_path, run._inprocess_cli)
    right_alt = [i for i in invocations if "right-alt" in i.argv]
    assert len(right_alt) == workloads.REFUTE_INPUTS
    for inv in right_alt:
        (coeff,) = inv.expect.witness_coords.values()
        assert coeff != 0 and isinstance(coeff, Fraction)
        assert inv.expect.check(run._inprocess_cli(inv.argv), AlgebraCache()) == []


def test_empty_checkout_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "refute-witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
