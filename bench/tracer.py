"""Per-layer tracing of the homalt package from outside it.

The tracer wraps the public functions of each homalt module in place, runs
the caller's code, and undoes every patch afterwards.  homalt itself has no
tracing hooks: all spans and counts here are taken at the call boundaries
of its modules.

Wrapping is alias-complete.  A function imported by name into another
module (``from .homalgebra import is_right_hom_alternative``) is one object
under several names; every module-level name bound to the wrapped object
is patched, and so is every class attribute bound to it (``Poly.__rmul__``
is ``Poly.__mul__``).

Three kinds of wrapper are used, chosen per function by how often it runs:

* ``span``  -- timed, and each call is kept as a span record (name, start,
  end, parent) that is written out when the run ends.  Used for coarse
  calls: CLI runs, verification drivers, structural scans, parameter
  substitution, file parsing and writing, catalog construction.
* ``timed`` -- timed like a span, but only the totals are kept, because the
  function runs millions of times per workload (``mul``, ``Poly`` products,
  operator composition).
* ``count`` -- call count only.

Span and timed calls share one stack, so a call's self time is its duration
minus the time its span or timed children cover.  Counted calls do not
push onto the stack; their time belongs to the nearest timed ancestor.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (metric prefix, module, attribute path, wrapper kind).  A prefix listed
# twice sums the calls of both functions.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("cli.run", "homalt.cli", "run", SPAN),
    ("proof_replay.verify_all", "homalt.proof_replay", "verify_all", SPAN),
    ("proof_replay.verify", "homalt.proof_replay", "verify", SPAN),
    ("homalgebra.right_alt_scan", "homalt.homalgebra", "is_right_hom_alternative", SPAN),
    ("homalgebra.multiplicative_scan", "homalt.homalgebra", "is_multiplicative", SPAN),
    ("homalgebra.weak_morphism_scan", "homalt.homalgebra", "is_weak_morphism", SPAN),
    ("homalgebra.substitute_params", "homalt.homalgebra", "substitute_params", SPAN),
    ("algfile.parse_document", "homalt.algfile", "parse_document", SPAN),
    ("algfile.serialize_algebra", "homalt.algfile", "serialize_algebra", SPAN),
    ("catalog.mikheev_family", "homalt.catalog", "mikheev_family", SPAN),
    ("homalgebra.mul", "homalt.homalgebra", "HomAlgebra.mul", TIMED),
    ("scalars.poly_mul", "homalt.scalars", "Poly.__mul__", TIMED),
    ("operators.compose", "homalt.operators", "compose", TIMED),
    ("homalgebra.hom_associator", "homalt.homalgebra", "HomAlgebra.hom_associator", COUNT),
    ("homalgebra.twist_apply", "homalt.homalgebra", "HomAlgebra.twist_apply", COUNT),
    ("homalgebra.element_new", "homalt.homalgebra", "Element.__post_init__", COUNT),
    ("homalgebra.compose_rows", "homalt.homalgebra", "compose_rows", COUNT),
    ("scalars.poly_add", "homalt.scalars", "Poly.__add__", COUNT),
    ("scalars.normalize", "homalt.scalars", "normalize", COUNT),
    ("scalars.poly_substitute", "homalt.scalars", "Poly.substitute", COUNT),
    ("operators.right_mul_op", "homalt.operators", "right_mul_op", COUNT),
    ("operators.op_sup_sub", "homalt.operators", "op_sup", COUNT),
    ("operators.op_sup_sub", "homalt.operators", "op_sub", COUNT),
    ("operators.alpha_op", "homalt.operators", "alpha_op", COUNT),
)

# Functions whose result may be a Poly: their largest term count is
# tracked as scalars.max_poly_terms.
_WATCH_TERMS = {"scalars.poly_mul", "scalars.poly_add"}
_SCANS = ("homalgebra.right_alt_scan", "homalgebra.multiplicative_scan",
          "homalgebra.weak_morphism_scan")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    moves: str  # which end-to-end metric on which workload it should move


# The per-layer metrics a traced run reports, each with the end-to-end
# metric and workload it is expected to move.  Each is a cost: lower is
# better.
METRICS: tuple[Metric, ...] = (
    Metric("homalgebra.right_alt_scan.calls", "count",
           "wall_s, cpu_s on entries-generic and the lemmas-* workloads"),
    Metric("homalgebra.right_alt_scan.s", "s",
           "wall_s, cpu_s on entries-generic and the lemmas-* workloads; about 0 on "
           "refute-witness"),
    Metric("homalgebra.multiplicative_scan.calls", "count",
           "wall_s, cpu_s on entries-generic and the lemmas-* workloads"),
    Metric("homalgebra.multiplicative_scan.s", "s",
           "wall_s, cpu_s on entries-generic, the lemmas-* workloads and refute-witness, whose "
           "lemmas batches rescan for every entry"),
    Metric("homalgebra.weak_morphism_scan.calls", "count",
           "wall_s on entries-generic and the lemmas-* workloads"),
    Metric("homalgebra.mul.calls", "count", "wall_s on every workload, most on theorem-subset"),
    Metric("homalgebra.mul.s", "s", "wall_s on every workload, most on theorem-subset"),
    Metric("homalgebra.hom_associator.calls", "count", "wall_s on every workload"),
    Metric("homalgebra.twist_apply.calls", "count", "wall_s on every workload"),
    Metric("homalgebra.element_new.calls", "count",
           "wall_s on every workload, most on theorem-subset"),
    Metric("homalgebra.compose_rows.calls", "count",
           "wall_s on entries-generic and the lemmas-* workloads"),
    Metric("homalgebra.substitute_params.calls", "count", "wall_s on lemmas-random and refute-witness"),
    Metric("homalgebra.substitute_params.s", "s", "wall_s on lemmas-random and refute-witness"),
    Metric("scalars.poly_mul.calls", "count",
           "wall_s on theorem-subset and the *-generic workloads; 0 on lemmas-random"),
    Metric("scalars.poly_mul.s", "s", "wall_s on theorem-subset and the *-generic workloads"),
    Metric("scalars.poly_add.calls", "count",
           "wall_s on theorem-subset and the *-generic workloads"),
    Metric("scalars.normalize.calls", "count",
           "wall_s on theorem-subset and the *-generic workloads"),
    Metric("scalars.poly_substitute.calls", "count",
           "0 on every workload: none substitutes into a symbolic algebra"),
    Metric("scalars.max_poly_terms", "count",
           "peak_rss_mb on theorem-subset and the *-generic workloads"),
    Metric("operators.compose.calls", "count",
           "wall_s on entries-generic and the lemmas-* workloads; 0 on theorem-subset"),
    Metric("operators.compose.s", "s", "wall_s on entries-generic and the lemmas-* workloads"),
    Metric("operators.right_mul_op.calls", "count",
           "wall_s on entries-generic and the lemmas-* workloads"),
    Metric("operators.op_sup_sub.calls", "count",
           "wall_s on entries-generic and the lemmas-* workloads"),
    Metric("operators.alpha_op.calls", "count",
           "wall_s on entries-generic and the lemmas-* workloads"),
    Metric("proof_replay.verify.calls", "count", "wall_s on every workload"),
    Metric("proof_replay.verify.self_s", "s", "wall_s on theorem-subset and lemmas-random"),
    Metric("proof_replay.verify_all.s", "s", "wall_s on the lemmas-* workloads"),
    Metric("proof_replay.precondition_scans_per_batch", "ratio",
           "wall_s on the lemmas-* workloads (wasted scans)"),
    Metric("proof_replay.subset_combos", "count", "work_per_s on theorem-subset"),
    Metric("proof_replay.random_points", "count", "wall_s on lemmas-random"),
    Metric("proof_replay.witness_attempts_per_failure", "ratio", "wall_s on refute-witness"),
    Metric("algfile.parse_document.s", "s", "setup_s and wall_s on refute-witness"),
    Metric("algfile.serialize_algebra.s", "s", "setup_s"),
    Metric("catalog.mikheev_family.s", "s", "setup_s"),
    Metric("cli.startup_s", "s", "wall_s on refute-witness and entries-generic"),
    Metric("cli.run.self_s", "s", "wall_s on refute-witness"),
    Metric("trace.overhead_ratio", "ratio", "none: traced wall time over untraced wall time"),
)


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = obj
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _alias_sites(original, owner) -> list[tuple[object, str]]:
    """Every (namespace, name) in the homalt package bound to ``original``."""
    sites: list[tuple[object, str]] = []
    if isinstance(owner, type):
        sites += [(owner, n) for n, v in vars(owner).items() if v is original]
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "homalt" or name.startswith("homalt.")):
            continue
        sites += [(mod, n) for n, v in vars(mod).items() if v is original]
    return sites


class Tracer:
    """Collects spans and per-function totals while installed.

    Use as a context manager: patches are applied on entry and removed on
    exit, even when the traced code raises.
    """

    def __init__(self) -> None:
        self.slots: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.spans: list[tuple[int, float, float, int]] = []  # slot, start, end, parent span
        self.max_poly_terms = 0
        self.batch_scans = 0  # structural scans run inside verify_all
        self.random_points = 0
        self.subset_combos = 0
        self.failures = 0
        self.witness_attempts = 0
        self._stack: list[float] = [0.0]  # child time of each open timed call
        self._open_spans: list[int] = [-1]
        self._verify_frames: list[list[int]] = []  # substitute_params calls per open verify
        self._batch_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = 0.0

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._t0 = perf_counter()
        wrapped: dict[int, object] = {}
        try:
            for prefix, module, path, kind in TARGETS:
                owner, original = _resolve(module, path)
                if id(original) in wrapped:
                    continue
                wrapper = self._wrap(prefix, original, kind)
                wrapped[id(original)] = wrapper
                for site, name in _alias_sites(original, owner):
                    self._patches.append((site, name, original))
                    setattr(site, name, wrapper)
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def _undo(self) -> None:
        while self._patches:
            site, name, original = self._patches.pop()
            setattr(site, name, original)

    def _slot(self, prefix: str) -> int:
        if prefix not in self.slots:
            self.slots.append(prefix)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self.slots.index(prefix)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, prefix: str, fn, kind: str):
        slot = self._slot(prefix)
        calls = self.calls
        if kind == COUNT:
            if prefix in _WATCH_TERMS:
                return self._counting_watch(fn, slot)

            def counted(*args, **kwargs):
                calls[slot] += 1
                return fn(*args, **kwargs)

            return counted
        before, after = self._hooks(prefix)
        return self._timed(fn, slot, kind == SPAN, prefix in _WATCH_TERMS, before, after)

    def _counting_watch(self, fn, slot: int):
        calls = self.calls
        poly = _poly_type()

        def counted(*args, **kwargs):
            calls[slot] += 1
            out = fn(*args, **kwargs)
            if type(out) is poly and len(out.terms) > self.max_poly_terms:
                self.max_poly_terms = len(out.terms)
            return out

        return counted

    def _timed(self, fn, slot: int, keep_span: bool, watch: bool, before, after):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        stack, spans, open_spans = self._stack, self.spans, self._open_spans
        poly = _poly_type()

        def timed(*args, **kwargs):
            if before is not None:
                before()
            if keep_span:
                open_spans.append(len(spans))
                spans.append((slot, 0.0, 0.0, open_spans[-2]))
            stack.append(0.0)
            start = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                duration = end - start
                child = stack.pop()
                stack[-1] += duration
                calls[slot] += 1
                total_s[slot] += duration
                self_s[slot] += duration - child
                if keep_span:
                    index = open_spans.pop()
                    spans[index] = (slot, start - self._t0, end - self._t0, spans[index][3])
                if watch and type(out) is poly and len(out.terms) > self.max_poly_terms:
                    self.max_poly_terms = len(out.terms)
                if after is not None:
                    after(out)

        return timed

    def _hooks(self, prefix: str):
        """Bookkeeping around verification drivers and substitution."""
        if prefix == "proof_replay.verify_all":
            def enter():
                self._batch_depth += 1

            def leave(_):
                self._batch_depth -= 1

            return enter, leave
        if prefix == "proof_replay.verify":
            def enter():
                self._verify_frames.append([0])

            def leave(report):
                (subs,) = self._verify_frames.pop()
                if report is None:  # raised, e.g. PreconditionError
                    return
                if report.strategy == "random":
                    self.random_points += subs
                elif report.strategy == "subset":
                    self.subset_combos += report.points or 0
                if report.status == "fails" and report.strategy in ("generic", "subset"):
                    self.failures += 1
                    self.witness_attempts += subs

            return enter, leave
        if prefix == "homalgebra.substitute_params":
            def enter():
                if self._verify_frames:
                    self._verify_frames[-1][0] += 1

            return enter, None
        if prefix in _SCANS:
            def enter():
                if self._batch_depth:
                    self.batch_scans += 1

            return enter, None
        return None, None

    # -- results ----------------------------------------------------------------

    def _get(self, prefix: str, what: str) -> float:
        if prefix not in self.slots:
            return 0
        i = self.slots.index(prefix)
        return {"calls": self.calls, "s": self.total_s, "self_s": self.self_s}[what][i]

    def metrics(self, startup_s: float, overhead_ratio: float) -> dict[str, dict]:
        """Every metric in :data:`METRICS`, as ``{name: {value, unit}}``."""
        batches = self._get("proof_replay.verify_all", "calls")
        values: dict[str, float] = {
            "scalars.max_poly_terms": self.max_poly_terms,
            "proof_replay.precondition_scans_per_batch":
                self.batch_scans / batches if batches else 0.0,
            "proof_replay.subset_combos": self.subset_combos,
            "proof_replay.random_points": self.random_points,
            "proof_replay.witness_attempts_per_failure":
                self.witness_attempts / self.failures if self.failures else 0.0,
            "cli.startup_s": startup_s,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for m in METRICS:
            if m.name in values:
                value = values[m.name]
            else:
                prefix, _, what = m.name.rpartition(".")
                value = self._get(prefix, what)
            out[m.name] = {"value": value, "unit": m.unit}
        return out

    def counts(self) -> dict[str, int]:
        """The deterministic part of a trace: call counts and work counts."""
        out = {f"{p}.calls": c for p, c in zip(self.slots, self.calls)}
        out.update({
            "scalars.max_poly_terms": self.max_poly_terms,
            "batch_scans": self.batch_scans,
            "random_points": self.random_points,
            "subset_combos": self.subset_combos,
            "failures": self.failures,
            "witness_attempts": self.witness_attempts,
            "spans": len(self.spans),
        })
        return out

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON: one ``[name, start_s, end_s, parent]``
        list per span, parent being a span index or -1."""
        rows = [[self.slots[s], start, end, parent] for s, start, end, parent in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def _poly_type():
    return importlib.import_module("homalt.scalars").Poly
