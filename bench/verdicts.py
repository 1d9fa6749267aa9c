"""Known-answer checks for homalt CLI output.

Each check takes one finished invocation (exit code, stdout, stderr) and
returns a list of problems; an empty list means the verdict is right.  A
mismatch is any difference in exit code, per-entry status, ``points`` or
``seed`` from the known answer, a printed witness that does not replay to
the printed nonzero element, a traceback, or a timeout.

Witnesses are replayed with the program's own replay functions, on the
algebra parsed from the same file the CLI read, with every printed scalar
decoded through ``decode_scalar``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

STRUCTURAL = ("right-alt", "left-alt", "multiplicative", "morphism")


@dataclass
class Outcome:
    code: int | None  # None when the child was killed on timeout
    stdout: str
    stderr: str


@dataclass
class Expect:
    """The known answer for one invocation.

    ``statuses`` maps entry id to status for every record the output must
    hold, in order.  ``points`` and ``seed`` apply to records whose status
    is not ``error``.  ``witness_basis`` and ``witness_coords`` pin down the
    witness of a structural check (coords as index -> rational).
    """

    code: int
    statuses: list[tuple[str, str]]
    points: int | None = None
    seed: int | None = None
    witness_basis: tuple[int, ...] | None = None
    witness_coords: dict[int, Fraction] | None = None
    algebra_path: str = ""

    def check(self, out: Outcome, algebras: "AlgebraCache") -> list[str]:
        if out.code is None:
            return ["timed out"]
        if "Traceback (most recent call last)" in out.stderr:
            return ["traceback: " + out.stderr.strip().splitlines()[-1]]
        problems = []
        if out.code != self.code:
            problems.append(f"exit code {out.code}, expected {self.code}")
        try:
            records = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"output is not JSON: {exc}"]
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            return problems + ["output is not a list of records"]
        got = [(r.get("id"), r.get("status")) for r in records]
        if got != self.statuses:
            problems.append(f"statuses {got}, expected {self.statuses}")
        for rec in records:
            problems += self._check_record(rec, algebras)
        return problems

    def _check_record(self, rec: dict, algebras: "AlgebraCache") -> list[str]:
        if rec.get("status") == "error":
            return [] if rec.get("error") else [f"{rec.get('id')}: error without message"]
        problems = []
        tag = rec.get("id")
        if rec.get("points") != self.points:
            problems.append(f"{tag}: points {rec.get('points')}, expected {self.points}")
        if rec.get("seed") != self.seed:
            problems.append(f"{tag}: seed {rec.get('seed')}, expected {self.seed}")
        witness = rec.get("witness")
        if rec.get("status") == "fails":
            if not witness:
                return problems + [f"{tag}: failing record without witness"]
            replay_problems = _replay(rec, algebras.get(self.algebra_path))
            problems += replay_problems
            if tag in STRUCTURAL and not replay_problems:
                problems += self._check_structural(rec)
        elif witness:
            problems.append(f"{tag}: witness on a {rec.get('status')} record")
        return problems

    def _check_structural(self, rec: dict) -> list[str]:
        witness = rec["witness"]
        problems = []
        if self.witness_basis is not None and tuple(witness.get("basis", ())) != self.witness_basis:
            problems.append(f"{rec['id']}: witness basis {witness.get('basis')}, "
                            f"expected {list(self.witness_basis)}")
        if self.witness_coords is not None:
            coords = {item["index"]: Fraction(item["coeff"]) for item in witness["element"]}
            if coords != self.witness_coords:
                problems.append(f"{rec['id']}: witness element {coords}, "
                                f"expected {self.witness_coords}")
        return problems


class AlgebraCache:
    """Algebras parsed from input files, one parse per path."""

    def __init__(self) -> None:
        self._docs: dict[str, object] = {}

    def get(self, path: str):
        if path not in self._docs:
            from homalt.algfile import parse_document

            self._docs[path] = parse_document(Path(path).read_text()).algebra
        return self._docs[path]


def _replay(rec: dict, A) -> list[str]:
    """Replay a printed witness; it must give the printed nonzero element."""
    from homalt.homalgebra import CheckReport, Element, Witness, replay_structural_witness
    from homalt.proof_replay import replay_identity_witness
    from homalt.scalars import decode_scalar

    tag = rec["id"]
    data = rec["witness"]
    try:
        coords = [0] * A.dim
        for item in data["element"]:
            coords[item["index"]] = decode_scalar(item["coeff"])
        printed = Element(tuple(coords))
        point = None
        if "point" in data:
            point = {name: decode_scalar(v) for name, v in data["point"].items()}
        witness = Witness(
            element=printed,
            basis=tuple(data["basis"]) if "basis" in data else None,
            point=point,
            probe=data.get("probe"),
            pair_index=data.get("pair_index"),
        )
        report = CheckReport(tag, rec["status"], rec["strategy"], witness=witness)
        if tag in STRUCTURAL:
            replayed = replay_structural_witness(A, report)
        else:
            replayed = replay_identity_witness(A, report)
    except Exception as exc:  # a malformed witness or a failing replay is a wrong verdict
        return [f"{tag}: witness does not replay: {exc!r}"]
    if printed.is_zero():
        return [f"{tag}: printed witness element is zero"]
    if replayed != printed:
        return [f"{tag}: replayed witness differs from the printed element"]
    return []
