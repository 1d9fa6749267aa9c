"""Command-line interface.

Subcommands:

* ``check``   -- verify one identity on an algebra file: a registry tag,
  or a structural check, which is morphism or a basis law of
  :data:`homalt.homalgebra.BASIS_LAWS` (right-alt, left-alt,
  multiplicative).  The morphism check needs ``--morphism FILE``, a map of
  the algebra into itself, which no other check reads.  A structural check
  scans the basis and reports ``strategy=basis``; it refuses
  ``--strategy`` (generic, subset or random), ``--points``, ``--seed`` and
  ``--subset-max``, which only registry checks read.  A registry check,
  like ``lemmas``, refuses ``--points`` and ``--seed`` unless the strategy
  is random, and ``--subset-max`` unless it is subset.
* ``lemmas``  -- run the whole identity registry on an algebra file.
* ``twist``   -- twist an algebra file along a morphism file.
* ``mikheev`` -- write the built-in 13-dimensional algebra or its twisted
  family (rational or symbolic parameters) to a file.
* ``power``   -- Hom-power of an element of an algebra file, ``--n`` <= 1000.
* ``noniso``  -- non-isomorphism certificate for two parameter pairs.

Exit codes: 0 when every check holds (or random-passes), 1 when some check
fails (a witness is printed), 2 on bad input, a ValueError (identity
preconditions the algebra does not satisfy included), on usage errors and
on output that cannot be written: an ``--out`` file, or stdout closed by its
reader or before the call starts.  A stderr that cannot be written loses the
error lines, not the exit code.  With ``--format json`` output is
byte-deterministic for fixed inputs; the random strategy then requires an
explicit ``--seed``.  Files, printed text, ``--element`` and the file names
in error lines are UTF-8 whatever the locale.

Every algebra a command reads is a file named by ``--algebra``; the built-in
one is written to a file by ``mikheev``.  An empty name given to a file
option, ``--algebra``, ``--morphism`` or ``--out``, is bad input.  A call
loads only what it runs.
``homalt.catalog`` is imported only by ``mikheev`` and ``noniso``, and
``homalt.proof_replay``, the registry and its checking, only by ``check``,
``lemmas`` and ``--help``: ``check`` and ``--help`` list the ``--identity``
choices from it, and :func:`build_parser` adds arguments only to the
subcommand that the command line names.  A registry check, by ``check`` on
a registry tag or by ``lemmas``, in turn loads the evaluators in
``homalt.laws`` and, only for operator entries, the operator calculus in
``homalt.operators``.  The structural scans are all in
``homalt.homalgebra``, and the text forms of elements (``homalt.text``)
load only for the calls that print them; algebra and morphism files are
both read by ``homalt.algfile``, which every call loads.  :func:`main`
flushes the output and ends the process with ``os._exit``, skipping
interpreter teardown; :func:`run` returns the exit code for in-process
callers.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .algfile import parse_document, parse_morphism, serialize_algebra
from .homalgebra import (
    BASIS_LAWS,
    CheckReport,
    HomAlgebra,
    is_left_hom_alternative,
    is_morphism,
    is_multiplicative,
    is_right_hom_alternative,
    yau_twist,
)
from .scalars import encode_sparse, parse_rational

STRUCTURAL_IDS = (*BASIS_LAWS, "morphism")
# The strategy each registry option but ``--strategy`` applies to; a
# structural check refuses ``--strategy`` and every one of them.
STRATEGY_OF = {"points": "random", "seed": "random", "subset_max": "subset"}
POWER_CAP = 1000  # largest ``power --n``: the loop is linear in n
POINTS_CAP = 10_000  # largest ``--points``: each point is an exact evaluation


def _read_text(path: str, option: str) -> str:
    """The UTF-8 text of the file an option names; an empty name is refused."""
    if not path:
        raise ValueError(f"{option} needs a file name")
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {_utf8_argument(path)}: {exc.strerror or exc}")


def _utf8_argument(value: str) -> str:
    """A command-line value read as UTF-8, the encoding of documents.  The
    interpreter decodes argv in the locale's encoding and keeps each byte it
    cannot decode as a lone surrogate; those bytes are read again as UTF-8,
    and text the locale did decode is returned as it is."""
    return value.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")


def _write_text(path: str, text: str) -> None:
    """Write the ``--out`` file; an empty name is refused."""
    if not path:
        raise ValueError("--out needs a file name")
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {_utf8_argument(path)}: {exc.strerror or exc}")


def _load_algebra(path: str):
    return parse_document(_read_text(path, "--algebra"))


def _load_morphism(path: str, A: HomAlgebra):
    """Rows and parameters of a morphism file on an algebra of ``A``'s dimension."""
    rows, dim, params = parse_morphism(_read_text(path, "--morphism"))
    if dim != A.dim:
        raise ValueError(f"morphism dimension {dim} does not match algebra dimension {A.dim}")
    return rows, params


def _registry_options(args) -> dict:
    """The strategy of ``args`` and the registry options it gives, as
    keywords of ``verify`` and ``verify_all``, which hold the defaults of
    the others.  An option given beside a strategy it does not apply to is
    refused, the random strategy printing JSON must be given its seed, and
    ``--points`` is at most :data:`POINTS_CAP`."""
    options = {"strategy": args.strategy or "random"}
    for key, strategy in STRATEGY_OF.items():
        if getattr(args, key) is not None:
            if options["strategy"] != strategy:
                raise ValueError(f"--{key.replace('_', '-')} applies to the {strategy} strategy "
                                 f"only, not {options['strategy']!r}")
            options[key] = getattr(args, key)
    if args.seed is None and args.format == "json" and options["strategy"] == "random":
        raise ValueError("--seed is required for the random strategy with --format json")
    if options.get("points", 0) > POINTS_CAP:
        raise ValueError(f"--points must be at most {POINTS_CAP}")
    return options


def _print_reports(reports: list[dict], fmt: str, names: list[str]) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(reports, indent=2, sort_keys=True) + "\n")
        return
    for rec in reports:
        line = f"{rec['id']:<20} {rec['status']:<12} strategy={rec['strategy']}"
        if rec.get("points") is not None:
            line += f" points={rec['points']}"
        if rec.get("seed") is not None:
            line += f" seed={rec['seed']}"
        if rec.get("error"):
            line = f"{rec['id']:<20} error        {rec['error']}"
        print(line)
        witness = rec.get("witness")
        if witness:
            if "basis" in witness:
                tup = ", ".join(names[i] for i in witness["basis"])
                print(f"    witness basis: ({tup})")
            if "point" in witness:
                point = ", ".join(f"{k}={v}" for k, v in witness["point"].items())
                print(f"    witness point: {point}")
            if "probe" in witness:
                print(f"    witness probe: {names[witness['probe']]}")
            print(f"    witness value: {witness['pretty']}")


def _report_record(report: CheckReport, names: list[str]) -> dict:
    rec = report.to_dict()
    if report.witness is not None:
        from .text import element_str

        rec["witness"]["pretty"] = element_str(report.witness.element, names)
    return rec


def _exit_code(records: list[dict]) -> int:
    if any(rec.get("error") for rec in records):
        return 2
    if any(rec["status"] == "fails" for rec in records):
        return 1
    return 0


def _cmd_check(args) -> int:
    identity = args.identity
    if identity == "morphism":
        if args.morphism is None:
            raise ValueError("--identity morphism needs --morphism FILE")
    elif args.morphism is not None:
        raise ValueError(f"--morphism applies to --identity morphism only, not {identity!r}")
    if identity not in STRUCTURAL_IDS:
        options = _registry_options(args)
    else:
        given = [key for key in ("strategy", *STRATEGY_OF) if getattr(args, key) is not None]
        if given:
            flag = given[0].replace("_", "-")
            raise ValueError(f"--{flag} applies to registry checks only, not {identity!r}")
    doc = _load_algebra(args.algebra)
    A, names = doc.algebra, doc.basis_names
    if identity == "morphism":
        report = is_morphism(A, _load_morphism(args.morphism, A)[0])
    elif identity in BASIS_LAWS:
        # The scan by its name in this module, looked up when it runs, so a
        # scan patched here is the one called.
        report = globals()[BASIS_LAWS[identity][1]](A)
    else:
        from .proof_replay import verify

        report = verify(A, identity, **options)
    records = [_report_record(report, names)]
    _print_reports(records, args.format, names)
    return _exit_code(records)


def _cmd_lemmas(args) -> int:
    from .proof_replay import verify_all

    options = _registry_options(args)
    doc = _load_algebra(args.algebra)
    A, names = doc.algebra, doc.basis_names
    records = []
    for result in verify_all(A, **options):
        if result.report is not None:
            records.append(_report_record(result.report, names))
        else:
            records.append({"id": result.tag, "status": "error", "strategy": options["strategy"],
                            "error": result.error})
    _print_reports(records, args.format, names)
    return _exit_code(records)


def _cmd_twist(args) -> int:
    doc = _load_algebra(args.algebra)
    rows, params = _load_morphism(args.morphism, doc.algebra)
    base = doc.algebra
    known = set(base.params)
    extra = [p for p in params if p not in known]
    if extra:
        base = base.with_params(extra)
    twisted = yau_twist(base, rows)
    _write_text(args.out, serialize_algebra(twisted, doc.basis_names))
    print(f"wrote {args.out}")
    return 0


def _cmd_mikheev(args) -> int:
    from .catalog import FamilyParams, mikheev_algebra, mikheev_family

    symbolic, lam, xi = args.symbolic, args.lam, args.xi
    if symbolic and (lam is not None or xi is not None):
        raise ValueError("--symbolic cannot be combined with --lambda/--xi")
    if symbolic:
        A = mikheev_family(FamilyParams.symbolic())
    elif lam is None and xi is None:
        A = mikheev_algebra()
    elif lam is None or xi is None:
        raise ValueError("--lambda and --xi must be given together")
    else:
        A = mikheev_family(FamilyParams.rational(parse_rational(lam), parse_rational(xi)))
    _write_text(args.out, serialize_algebra(A))
    print(f"wrote {args.out}")
    return 0


def _cmd_power(args) -> int:
    from .text import element_str, parse_element_expr

    doc = _load_algebra(args.algebra)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.n > POWER_CAP:
        raise ValueError(f"--n must be at most {POWER_CAP}")
    # argparse drops the attached value of ``--element=--`` and stores [].
    expr = _utf8_argument(args.element) if isinstance(args.element, str) else "--"
    x = parse_element_expr(expr, doc.basis_names)
    result = doc.algebra.hom_power(x, args.n)
    if args.format == "json":
        sys.stdout.write(json.dumps({"power": encode_sparse(result)}, indent=2, sort_keys=True) + "\n")
    else:
        print(element_str(result, doc.basis_names))
    return 0


def _cmd_noniso(args) -> int:
    from .catalog import family_nonisomorphism_condition

    values = [parse_rational(v) for v in args.params]
    certified = family_nonisomorphism_condition(*values)
    print("non-isomorphic: certified" if certified else "non-isomorphic: not certified")
    return 0 if certified else 1


def _add_strategy_flags(sub: argparse.ArgumentParser) -> None:
    # Defaults are None, so a check can tell a flag given; ``verify`` holds
    # the values they stand for.
    sub.add_argument("--strategy", choices=("generic", "subset", "random"),
                     help="strategy of a registry check (default: random); "
                          "structural checks scan the basis")
    sub.add_argument("--points", type=int,
                     help="sample count for the random strategy (default: 50)")
    sub.add_argument("--seed", type=int,
                     help="random seed (required for random strategy with --format json)")
    sub.add_argument("--subset-max", type=int,
                     help="support size cap for the subset strategy (default: 3)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError raised while it prints; this parser lets
    the one from writing to stdout (help) reach :func:`run`, which exits 2."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _check_arguments(check: argparse.ArgumentParser) -> None:
    from .proof_replay import identity_tags

    check.add_argument("--algebra", metavar="FILE", required=True,
                       help="algebra document to load")
    check.add_argument("--identity", required=True,
                       choices=tuple(identity_tags()) + STRUCTURAL_IDS,
                       help="registry tag or structural check")
    check.add_argument("--morphism", metavar="FILE",
                       help="map of the algebra into itself (required by, and only read for, "
                            "identity 'morphism')")
    _add_strategy_flags(check)
    check.set_defaults(func=_cmd_check)


def _lemmas_arguments(lemmas: argparse.ArgumentParser) -> None:
    lemmas.add_argument("--algebra", metavar="FILE", required=True,
                        help="algebra document to load")
    _add_strategy_flags(lemmas)
    lemmas.set_defaults(func=_cmd_lemmas)


def _twist_arguments(twist: argparse.ArgumentParser) -> None:
    twist.add_argument("--algebra", metavar="FILE", required=True)
    twist.add_argument("--morphism", metavar="FILE", required=True)
    twist.add_argument("--out", metavar="FILE", required=True)
    twist.set_defaults(func=_cmd_twist)


def _mikheev_arguments(mikheev: argparse.ArgumentParser) -> None:
    mikheev.add_argument("--out", metavar="FILE", required=True)
    mikheev.add_argument("--lambda", dest="lam", metavar="P/Q")
    mikheev.add_argument("--xi", metavar="P/Q")
    mikheev.add_argument("--symbolic", action="store_true")
    mikheev.set_defaults(func=_cmd_mikheev)


def _power_arguments(power: argparse.ArgumentParser) -> None:
    power.add_argument("--algebra", metavar="FILE", required=True)
    power.add_argument("--element", metavar="EXPR", required=True,
                       help="linear combination of basis names, e.g. 'e7 - e8'")
    power.add_argument("--n", type=int, required=True)
    power.add_argument("--format", choices=("text", "json"), default="text")
    power.set_defaults(func=_cmd_power)


def _noniso_arguments(noniso: argparse.ArgumentParser) -> None:
    noniso.add_argument("--params", nargs=4, metavar=("L", "XI", "L2", "XI2"), required=True,
                        help="two parameter pairs as rationals")
    noniso.set_defaults(func=_cmd_noniso)


# name, help line, and the function that adds its arguments, in --help order.
_SUBCOMMANDS = (
    ("check", "verify one identity on an algebra", _check_arguments),
    ("lemmas", "run the whole identity registry", _lemmas_arguments),
    ("twist", "twist an algebra along a weak morphism", _twist_arguments),
    ("mikheev", "write the built-in algebra or its family", _mikheev_arguments),
    ("power", "Hom-power of an element", _power_arguments),
    ("noniso", "non-isomorphism certificate for two parameter pairs", _noniso_arguments),
)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with all six subcommands.

    Given the arguments it is about to parse, only the subcommand they name
    (their first word that is not an option) gets its own arguments, since
    no other one can run; with no subcommand named, all six get theirs.
    Help and usage texts are the same either way.
    """
    parser = _Parser(
        prog="homalt",
        description="Exact verifier for identities in right Hom-alternative algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv or () if not arg.startswith("-")), None)
    every = named not in {name for name, _, _ in _SUBCOMMANDS}
    for name, help_line, add_arguments in _SUBCOMMANDS:
        subparser = sub.add_parser(name, help=help_line)
        if every or name == named:
            add_arguments(subparser)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # help written to a closed stdout
        return _output_error(exc)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input, a PreconditionError among it
        return _error(str(exc))
    except OSError as exc:
        # A file's OSError is raised again as ValueError: this is stdout.
        return _output_error(exc)


def _error(message: str) -> int:
    """Print ``error: MESSAGE`` on stderr and return the exit code, 2.  A
    stderr whose reader is gone loses the line, not the exit code."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass
    return 2


def _output_error(exc: OSError) -> int:
    return _error(f"cannot write output: {exc.strerror or exc}")


def main() -> None:
    """Run the command line, flush its output and end the process with
    ``os._exit``: freeing every object at interpreter teardown would only
    cost time.  Output is UTF-8, as documents are, whatever the locale; each
    stream keeps its error handler.  A process started with stdout closed
    runs no command and exits 2; one started with stderr closed runs as
    usual, its error lines dropped.  An exception escaping :func:`run`
    still ends in a traceback and exit 1."""
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    if sys.stdout is None:
        os._exit(_output_error(OSError(errno.EBADF, os.strerror(errno.EBADF))))
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _output_error(exc)
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    main()
