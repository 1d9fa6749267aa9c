"""The benchmark's workloads: seeded inputs, CLI invocations, known answers.

A workload's ``setup`` writes its input files into a directory and returns
the invocations to time, each with its known answer.  Catalog files are
written by the CLI itself (``homalt mikheev --out``); the failing algebras of
``refute-witness`` are written with ``serialize_algebra``.  Every choice
that varies is drawn from the workload seed, so one seed gives one set of
files and flags.  ``entries-generic``, ``lemmas-generic`` and
``theorem-subset`` read the symbolic family, which has no free parameter:
for them the seed changes nothing but the recorded seed.

BENCHMARK.json lists the workloads whose end-to-end metrics are gated:
``entries-generic`` and ``refute-witness``.  Both are made of CLI calls of
about a second or less, so a run of under a minute holds ten or more
rounds and its median is steady on a shared 2-CPU host.  A lemmas-* round
is a single call of 15-20 s, so a run holds two or three of them, and over
ten runs of the same code the middle half of their medians spread by up
to 26%: more than the largest bound a gated metric may have.  ``entries-generic`` therefore
stands in for ``lemmas-generic`` in the gate: the same proof on the same
file, one entry per call, for six entries that between them use every
layer, operators included.  ``lemmas-generic``, ``lemmas-random`` and
``theorem-subset`` run the same way through ``bench/run.py`` and serve the
layer-separation tests and per-layer attribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from verdicts import Expect, Outcome

# Sizes.  A lemmas-* round is one CLI call of about 15 s whatever N is,
# since 22 repeated precondition scans dominate it.
RANDOM_POINTS = 20  # N: points per entry on lemmas-random
SUBSET_MAX = 2  # K: support-size cap on theorem-subset
REFUTE_INPUTS = 5  # failing algebras per refute-witness round
REFUTE_SUBSET_MAX = 2
REFUTE_RANDOM_POINTS = 5

# The registry in CLI order: part of the known answer.
TAGS = (
    "xyy", "linearized", "teichmuller", "xyyz", "moufang", "beta2", "eq1", "eq2",
    "eq2p", "eq3a", "eq3b", "eq5", "eq5p", "eq6", "eq7", "eq8", "eq9", "eq10",
    "eq10p", "dpe", "d0", "e0", "prop", "theorem", "mikheev_classical",
)
DIM = 13
# On a right Hom-alternative-failing algebra only entries with no
# right-alternativity precondition run; xyy is the defining law itself.
REFUTE_BATCH = tuple(
    (tag, {"xyy": "fails", "teichmuller": "holds", "beta2": "holds"}.get(tag, "error"))
    for tag in TAGS
)
# entries-generic: xyy needs no precondition; the others each run the
# right-alt precondition scan, and eq1, eq5 and dpe build operators.
GENERIC_ENTRIES = ("xyy", "moufang", "eq1", "eq5", "dpe", "theorem")
# The first subset combo on which xyy fails: x supported on e1 and y on
# {e1, e2}, after the 13 combos with x = e1-only and y of support size 1.
XYY_FIRST_FAILING_COMBO = 14

RunCli = Callable[[list[str]], Outcome]


@dataclass
class Invocation:
    argv: list[str]
    expect: Expect
    units: int  # registry entries, subset combos or CLI checks decided


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    setup: Callable[[int, Path, RunCli], list[Invocation]]


def subset_points(k: int) -> int:
    """Subset combos checked for an arity-2 entry: (sum_{s<=k} C(13,s))^2."""
    return sum(comb(DIM, s) for s in range(1, k + 1)) ** 2


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _params(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Two distinct rationals a/b with 0 < |a| < 10 and b in 2..4, never integers.

    Integer parameters keep every structure constant an int, which makes a
    run markedly faster than one with fractions; drawing from one kind only
    keeps the cost of a run independent of the seed.
    """
    while True:
        p, q = (Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(2, 4))
                for _ in range(2))
        if p != q and p.denominator > 1 and q.denominator > 1:
            return p, q


def _write_catalog(cli: RunCli, path: Path, flags: list[str]) -> str:
    out = cli(["mikheev", *flags, "--out", str(path)])
    if out.code != 0 or not path.is_file():
        raise RuntimeError(f"homalt mikheev {' '.join(flags)} failed: {out.stderr.strip()}")
    return str(path)


def _setup_lemmas_generic(seed: int, workdir: Path, cli: RunCli) -> list[Invocation]:
    path = _write_catalog(cli, workdir / "family.alg", ["--symbolic"])
    expect = Expect(0, [(t, "holds") for t in TAGS], algebra_path=path)
    argv = ["lemmas", "--algebra", path, "--strategy", "generic", "--format", "json"]
    return [Invocation(argv, expect, len(TAGS))]


def _setup_entries_generic(seed: int, workdir: Path, cli: RunCli) -> list[Invocation]:
    path = _write_catalog(cli, workdir / "family.alg", ["--symbolic"])
    return [Invocation(["check", "--algebra", path, "--identity", tag, "--strategy", "generic",
                        "--format", "json"],
                       Expect(0, [(tag, "holds")], algebra_path=path), 1)
            for tag in GENERIC_ENTRIES]


def _setup_lemmas_random(seed: int, workdir: Path, cli: RunCli) -> list[Invocation]:
    rng = _rng("lemmas-random", seed)
    p, q = _params(rng)
    run_seed = rng.randrange(1, 10**6)
    path = _write_catalog(cli, workdir / "family.alg", [f"--lambda={p}", f"--xi={q}"])
    expect = Expect(0, [(t, "random-pass") for t in TAGS], points=RANDOM_POINTS,
                    seed=run_seed, algebra_path=path)
    argv = ["lemmas", "--algebra", path, "--strategy", "random", "--seed", str(run_seed),
            "--points", str(RANDOM_POINTS), "--format", "json"]
    return [Invocation(argv, expect, len(TAGS))]


def _setup_theorem_subset(seed: int, workdir: Path, cli: RunCli) -> list[Invocation]:
    path = _write_catalog(cli, workdir / "family.alg", ["--symbolic"])
    points = subset_points(SUBSET_MAX)
    out = []
    for tag in ("theorem", "mikheev_classical"):
        argv = ["check", "--algebra", path, "--identity", tag, "--strategy", "subset",
                "--subset-max", str(SUBSET_MAX), "--format", "json"]
        out.append(Invocation(argv, Expect(0, [(tag, "holds")], points=points,
                                           algebra_path=path), points))
    return out


def _setup_refute_witness(seed: int, workdir: Path, cli: RunCli) -> list[Invocation]:
    from homalt.algfile import serialize_algebra
    from homalt.catalog import FamilyParams, mikheev_family
    from homalt.homalgebra import HomAlgebra, identity_rows

    rng = _rng("refute-witness", seed)
    base = _write_catalog(cli, workdir / "base.alg", [])
    out = [Invocation(
        ["check", "--algebra", base, "--identity", "left-alt", "--format", "json"],
        Expect(1, [("left-alt", "fails")], witness_basis=(0, 0, 1),
               witness_coords={6: Fraction(1), 7: Fraction(-1)}, algebra_path=base),
        1,
    )]
    for i in range(REFUTE_INPUTS):
        p, q = _params(rng)
        run_seed = rng.randrange(1, 10**6)
        family = mikheev_family(FamilyParams.rational(p, q))
        # The twisted product with the identity twist: not right Hom-alternative,
        # since (e1, e1, e2) = lambda^3 xi (lambda - xi) e7 there.
        broken = HomAlgebra(DIM, dict(family.mu), identity_rows(DIM))
        path = workdir / f"refute{i}.alg"
        path.write_text(serialize_algebra(broken))
        alg = str(path)

        def check(*flags: str) -> list[str]:
            return ["check", "--algebra", alg, *flags, "--format", "json"]

        out += [
            Invocation(check("--identity", "right-alt"),
                       Expect(1, [("right-alt", "fails")], witness_basis=(0, 0, 1),
                              witness_coords={6: p**3 * q * (p - q)}, algebra_path=alg), 1),
            Invocation(check("--identity", "xyy", "--strategy", "generic"),
                       Expect(1, [("xyy", "fails")], algebra_path=alg), 1),
            Invocation(check("--identity", "xyy", "--strategy", "subset",
                             "--subset-max", str(REFUTE_SUBSET_MAX)),
                       Expect(1, [("xyy", "fails")], points=XYY_FIRST_FAILING_COMBO,
                              algebra_path=alg), 1),
            Invocation(check("--identity", "xyy", "--strategy", "random", "--seed",
                             str(run_seed), "--points", str(REFUTE_RANDOM_POINTS)),
                       Expect(1, [("xyy", "fails")], points=REFUTE_RANDOM_POINTS,
                              seed=run_seed, algebra_path=alg), 1),
            Invocation(["lemmas", "--algebra", alg, "--strategy", "generic", "--format", "json"],
                       Expect(2, list(REFUTE_BATCH), algebra_path=alg), 1),
        ]
    return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("lemmas-generic",
             "The paper's headline proof: all 25 registry entries over Q[lambda, xi], "
             "dominated by repeated right-alt precondition scans.",
             "entries", _setup_lemmas_generic),
    Workload("entries-generic",
             "The headline proof over Q[lambda, xi] one entry per CLI call: right-alt "
             "precondition scans, operators and Poly arithmetic in calls of about 1 s.",
             "entries", _setup_entries_generic),
    Workload("lemmas-random",
             "Same batch driver and scans as lemmas-generic on big-integer rationals and "
             "operator matrices, with no polynomials at all.",
             "entries", _setup_lemmas_random),
    Workload("theorem-subset",
             "The per-combo loop of Poly arithmetic, Element and mul with one precondition "
             "scan and no operators.",
             "combos", _setup_theorem_subset),
    Workload("refute-witness",
             "Many short failing checks: early-exit scans, witness search, exit codes, CLI "
             "start-up and file parsing.",
             "checks", _setup_refute_witness),
)}

SIZES = {"N": RANDOM_POINTS, "K": SUBSET_MAX, "generic_entries": len(GENERIC_ENTRIES),
         "refute_inputs": REFUTE_INPUTS,
         "refute_subset_max": REFUTE_SUBSET_MAX, "refute_random_points": REFUTE_RANDOM_POINTS}
