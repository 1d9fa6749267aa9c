"""Benchmark for homalt: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/homalt`` of the checkout; nothing needs to
be installed.  With ``--trace 0`` the workload's inputs are generated 15
times (``setup_s`` is the median), then its CLI invocations run back to
back, one ``python -m homalt.cli`` child at a time, in rounds: at least
two, and more while they fit in S seconds.  Every output is checked
against its known answer.  With ``--trace 1`` the same setup and one round
run in this process through ``homalt.cli.run``, once untraced and once under
the per-layer tracer, and the per-layer metrics are printed instead.

Times are scaled to a fixed host speed.  On a host whose CPUs are shared
with other machines' work, the speed of pure-Python code swings by half
within minutes, and no statistic over one run removes that.  So every
setup and every round is bracketed by a fixed pure-Python reference loop
run in this process (and the process and its children are kept on one
CPU), and a time is reported as ``raw * REFERENCE_S / reference``, where
``reference`` is the mean time of the loop just before and just after it
(its CPU time, for CPU times): seconds on a host that runs the loop in
``REFERENCE_S``.  A change to the
program moves the scaled time as it moves the raw one.  The raw times and
the loop's own times are kept in the record line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON record of the environment, sizes, quartiles and the
wrong-verdict ratio; the same record and the trace spans are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
# The reference loop, and the unit of scaled time: the loop's usual time
# with Python 3.11 on a 2-vCPU Intel Xeon virtual machine.
REFERENCE_LOOPS = 60000
REFERENCE_S = 0.3
MIN_ROUNDS = 2
STARTUP_REPEATS = 5
# A child is killed (and counted as a wrong verdict) after CHILD_TIMEOUT_S,
# or sooner once the run has used RUN_DEADLINE_S, so that a hung program
# still gives a result in bounded time.
CHILD_TIMEOUT_S = 60
RUN_DEADLINE_S = 150


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


class Tally:
    """Invocations checked against their known answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, argv: list[str], found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems += [f"{' '.join(argv)}: {p}" for p in found]

    def result(self, metrics: dict, detail: dict) -> dict:
        detail["problems"] = self.problems[:20]
        return {"attempted": self.attempted, "failed": self.failed,
                "metrics": metrics, "detail": detail}


def _commit() -> dict:
    """The checkout's git commit, and whether its tree differs from it."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # Only the checkout's own repository: git would otherwise report an
    # enclosing one.
    head = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    if head is None:
        return {"commit": "unknown", "dirty": None}
    return {"commit": head, "dirty": bool(git("status", "--porcelain"))}


# -- running the CLI ---------------------------------------------------------------


class ChildRun:
    """One ``python -m homalt.cli`` child with its wall time and rusage."""

    def __init__(self, argv: list[str], workdir: Path, index: int, deadline: float | None):
        self.out_path = workdir / f"child{index}.out"
        self.err_path = workdir / f"child{index}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "homalt.cli", *argv],
                                    stdout=out, stderr=err, cwd=workdir, env=env)
            timeout = CHILD_TIMEOUT_S
            if deadline is not None:
                timeout = max(1.0, min(timeout, deadline - start))
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        killed = os.WIFSIGNALED(status)
        self.code = None if killed else proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024

    def outcome(self):
        from verdicts import Outcome

        outcome = Outcome(self.code, self.out_path.read_text(), self.err_path.read_text())
        self.out_path.unlink()
        self.err_path.unlink()
        return outcome


def _subprocess_cli(workdir: Path, deadline: float | None):
    counter = itertools.count()

    def cli(argv: list[str]):
        return ChildRun(argv, workdir, next(counter), deadline).outcome()

    return cli


def _inprocess_cli(argv: list[str]):
    """Run ``homalt.cli.run`` here, capturing what it prints."""
    import homalt.cli
    from verdicts import Outcome

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = homalt.cli.run(argv)
        except Exception:  # an escaped error is a wrong verdict, not a crash
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue())


def _fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def _reference() -> tuple[float, float]:
    """Wall and CPU seconds of the fixed reference loop, run in this process."""
    wall, cpu = perf_counter(), process_time()
    acc: dict = {}
    for i in range(REFERENCE_LOOPS):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 5 + 1)
    return perf_counter() - wall, process_time() - cpu


class Bracket:
    """Reference loops around a sequence of timed intervals."""

    def __init__(self) -> None:
        self.before = _reference()

    def close(self) -> tuple[float, float]:
        """Run the loop after an interval; the mean (wall, cpu) around it."""
        after = _reference()
        wall, cpu = ((a + b) / 2 for a, b in zip(self.before, after))
        self.before = after
        return wall, cpu


def _setup(workload, seed: int, workdir: Path, cli) -> tuple[float, list]:
    _fresh_dir(workdir)
    start = perf_counter()
    invocations = workload.setup(seed, workdir, cli)
    return perf_counter() - start, invocations


# -- the two kinds of run --------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float, workdir: Path,
              deadline: float | None = None) -> dict:
    from verdicts import AlgebraCache

    # One CPU for this process, its reference loops and its children.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bracket = Bracket()
    setups = []
    for i in range(SETUP_REPEATS):
        setup_dir = workdir / f"setup{i}"
        elapsed, invocations = _setup(workload, seed, setup_dir,
                                      _subprocess_cli(setup_dir, deadline))
        ref_wall, _ = bracket.close()
        setups.append({"setup_s": elapsed * REFERENCE_S / ref_wall, "raw_setup_s": elapsed,
                       "setup_ref_s": ref_wall})
    algebras = AlgebraCache()
    tally = Tally()
    rounds = []
    peak_mb = 0.0
    start = perf_counter()
    # At least MIN_ROUNDS rounds; after that, a round starts only if a round
    # of median length, its reference loop included, still ends within the
    # run length.
    while len(rounds) < MIN_ROUNDS or (
            perf_counter() - start + statistics.median(r["length_s"] for r in rounds) <= seconds):
        children = []
        round_start = perf_counter()
        for k, inv in enumerate(invocations):
            children.append(ChildRun(inv.argv, workdir, k, deadline))
        wall = perf_counter() - round_start
        cpu = sum(c.cpu_s for c in children)
        ref_wall, ref_cpu = bracket.close()
        units = sum(inv.units for inv in invocations)
        scaled = wall * REFERENCE_S / ref_wall
        rounds.append({"wall_s": scaled, "cpu_s": cpu * REFERENCE_S / ref_cpu,
                       "work_per_s": units / scaled, "raw_wall_s": wall, "raw_cpu_s": cpu,
                       "ref_s": ref_wall, "length_s": perf_counter() - round_start})
        peak_mb = max([peak_mb] + [c.maxrss_mb for c in children])
        for inv, child in zip(invocations, children):
            tally.add(inv.argv, inv.expect.check(child.outcome(), algebras))
    stats = {key: _quartiles([r[key] for r in rounds])
             for key in ("wall_s", "cpu_s", "work_per_s", "raw_wall_s", "raw_cpu_s")}
    stats.update({key: _quartiles([s[key] for s in setups]) for key in setups[0]})
    stats["round_ref_s"] = _quartiles([r["ref_s"] for r in rounds])
    metrics = {
        "setup_s": {"value": stats["setup_s"]["median"], "unit": "s"},
        "wall_s": {"value": stats["wall_s"]["median"], "unit": "s"},
        "cpu_s": {"value": stats["cpu_s"]["median"], "unit": "s"},
        "work_per_s": {"value": stats["work_per_s"]["median"], "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return tally.result(metrics, {"rounds": len(rounds), "work_unit": workload.unit,
                                  "quartiles": stats, "per_round": rounds})


def _inprocess_pass(workload, seed: int, workdir: Path) -> tuple[float, list, list]:
    start = perf_counter()
    _, invocations = _setup(workload, seed, workdir, _inprocess_cli)
    outcomes = [_inprocess_cli(inv.argv) for inv in invocations]
    return perf_counter() - start, invocations, outcomes


def _past_deadline(signum, frame):
    signal.setitimer(signal.ITIMER_REAL, 1.0)  # and cut every later call after 1 s
    raise TimeoutError("run deadline passed")


def traced_run(workload, seed: int, workdir: Path, deadline: float | None = None) -> dict:
    from tracer import Tracer
    from verdicts import AlgebraCache

    workdir.mkdir(parents=True, exist_ok=True)
    startup = []
    for k in range(STARTUP_REPEATS):
        child = ChildRun(["--help"], workdir, k, deadline)
        child.outcome()
        startup.append(child.wall_s)
    # In-process calls cannot be killed: past the deadline an alarm raises
    # inside them, and the traceback counts as a wrong verdict.
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    if deadline is not None:
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - perf_counter()))
    try:
        # The same directory both times, so file paths in the output agree.
        plain_s, invocations, plain = _inprocess_pass(workload, seed, workdir / "inputs")
        with Tracer() as tracer:
            traced_s, _, traced = _inprocess_pass(workload, seed, workdir / "inputs")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    algebras = AlgebraCache()
    tally = Tally()
    for inv, a, b in zip(invocations, plain, traced):
        found = inv.expect.check(b, algebras)
        if (a.code, a.stdout) != (b.code, b.stdout):
            found.append("traced and untraced runs printed different verdicts")
        tally.add(inv.argv, found)
    tracer.write_spans(workdir.parent / f"{workdir.name}.spans.json")
    metrics = tracer.metrics(statistics.median(startup), traced_s / plain_s)
    return tally.result(metrics, {"untraced_s": plain_s, "traced_s": traced_s,
                                  "counts": tracer.counts()})


# -- entry point --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = perf_counter() + RUN_DEADLINE_S
    if not (SRC / "homalt" / "cli.py").is_file():
        return _fail(f"no program to measure: {SRC / 'homalt'} is missing")
    sys.path.insert(0, str(SRC))
    import homalt

    if Path(homalt.__file__).resolve().parent != (SRC / "homalt").resolve():
        return _fail(f"imported homalt from {homalt.__file__}, not from {SRC}")
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]

    workdir = OUT / f"{workload.name}-{args.seed}-trace{args.trace}"
    _fresh_dir(workdir)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), **_commit(), "sizes": SIZES,
    }
    if args.trace:
        result = traced_run(workload, args.seed, workdir, deadline)
    else:
        result = timed_run(workload, args.seed, args.seconds, workdir, deadline)
    shutil.rmtree(workdir)
    record["loadavg_end"] = os.getloadavg()
    record["wrong_verdict_ratio"] = result["failed"] / result["attempted"]
    record.update(result["detail"])
    (OUT / f"{workdir.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
