"""Command-line driver tying the pipeline together.

Subcommands
-----------
verify   parse -> analyze -> generate obligations -> discharge -> report
run      execute a scenario under full runtime contract monitoring
replay   re-run a stored counterexample as a concrete runtime violation
corpus   list the built-in programs or export one for modification

Exit status: 0 = everything discharged / scenario ok / counterexample
reproduced; 1 = at least one Failed verdict or violated expectation;
2 = at least one Error verdict (or a counterexample that cannot be
materialized or whose replay cannot finish); 3 = usage, parse, or
semantic error, or a program too deep to process.  Diagnostics go to
stderr, reports to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError, ReplayImpossible, SemanticError, UnknownCorpusEntry

if TYPE_CHECKING:
    from .analyzer import CheckedProgram
    from .corpus import CorpusEntry
    from .formula import VerifyOptions
    from .vcgen import Obligation

CORPUS_PREFIX = "corpus:"


class UsageError(Exception):
    """Bad invocation; rendered as a one-line diagnostic with exit 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract is 3
        raise UsageError(message)


def _int_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            raise ValueError
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI (e.g. -8..8), got {text!r}"
        ) from None


def _add_option_flags(sub: argparse.ArgumentParser, *, domains: bool) -> None:
    if domains:
        sub.add_argument(
            "--int-range",
            type=_int_range,
            metavar="LO..HI",
            default=None,
            help="inclusive INTEGER domain for discharge (default -8..8)",
        )
    sub.add_argument(
        "--check-overflow",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="monitor machine-width arithmetic and emit Overflow obligations",
    )
    sub.add_argument(
        "--overflow-width",
        type=int,
        metavar="N",
        default=None,
        help="machine width in bits for --check-overflow: a power of two, at least 2 (default 32)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="miniproof",
        description="Contract verification for class-based Design-by-Contract programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    verify = sub.add_parser(
        "verify",
        help="generate and discharge proof obligations",
        description="Generate proof obligations and discharge them by bounded exhaustive search.",
    )
    verify.add_argument("target", help="path to a program file or corpus:NAME")
    _add_option_flags(verify, domains=True)
    verify.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text",
        help="report rendering (default text)",
    )
    verify.add_argument(
        "--emit-obligations", metavar="PATH", default=None,
        help="also dump the generated obligations as a JSON array",
    )

    run = sub.add_parser(
        "run",
        help="execute a scenario under runtime contract monitoring",
        description="Execute a scenario script against a program under full contract monitoring.",
    )
    run.add_argument("target", help="path to a program file or corpus:NAME")
    run.add_argument(
        "scenario", help="scenario file path, or a built-in scenario name for corpus targets"
    )
    _add_option_flags(run, domains=False)
    run.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text",
        help="trace rendering (default text)",
    )

    replay = sub.add_parser(
        "replay",
        help="replay a stored counterexample as a runtime violation",
        description=(
            "Replay the counterexample recorded for one obligation in a JSON verification "
            "report (as produced by `verify --format json`).  --check-overflow and "
            "--overflow-width select the Overflow obligations and set the monitor's bounds; "
            "--int-range is only validated: no obligation id or replay outcome depends on it."
        ),
    )
    replay.add_argument("target", help="path to a program file or corpus:NAME")
    replay.add_argument("obligation_id", help="obligation id, e.g. ACCOUNT.deposit.postcondition.0")
    replay.add_argument(
        "--report", required=True, metavar="PATH", help="JSON verification report"
    )
    _add_option_flags(replay, domains=True)

    corpus = sub.add_parser(
        "corpus",
        help="list or export the built-in program corpus",
        description="Manage the built-in corpus of verified programs and mutants.",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True, metavar="ACTION")
    corpus_sub.add_parser("list", help="print the names of all built-in entries")
    export = corpus_sub.add_parser(
        "export", help="write one entry's program, manifest, and scenarios to a directory"
    )
    export.add_argument("name", help="corpus entry name")
    export.add_argument("directory", help="destination directory (created if missing)")

    return parser


# -- shared plumbing --------------------------------------------------------------
#
# Each command imports the layers it runs where it first needs them, so a
# usage error or `corpus list` compiles no pipeline layer and `run` never
# loads vcgen or discharge.


def _load_program(
    target: str, scenario: str | None = None
) -> tuple[CheckedProgram, CorpusEntry | None, str | None]:
    """The checked program, its corpus entry or None, and the named
    scenario's text, looked up before any front end loads."""
    if target.startswith(CORPUS_PREFIX):
        from .corpus import load_builtin

        entry = load_builtin(target[len(CORPUS_PREFIX):])
        source = entry.source
    else:
        entry = None
        source = Path(target).read_text(encoding="utf-8")
    text = _scenario_text(entry, scenario) if scenario is not None else None
    from .analyzer import analyze
    from .parser import parse

    return analyze(parse(source)), entry, text


def _resolve_options(
    entry: CorpusEntry | None, args: argparse.Namespace
) -> VerifyOptions:
    """Corpus entries start from their pinned options; files from the defaults.
    Explicit flags override either."""
    from .formula import VerifyOptions

    opts = entry.options if entry is not None else VerifyOptions()
    updates = {}
    if getattr(args, "int_range", None) is not None:
        updates["int_range"] = args.int_range
    if args.check_overflow is not None:
        updates["check_overflow"] = args.check_overflow
    if args.overflow_width is not None:
        updates["overflow_width"] = args.overflow_width
    return opts.replace(**updates) if updates else opts


def _out(text: str) -> None:
    sys.stdout.write(text + "\n")


# -- subcommands ------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    checked, entry, _ = _load_program(args.target)
    opts = _resolve_options(entry, args)
    from .discharge import render_json, render_text, verify_program

    report = verify_program(checked, opts)
    if args.emit_obligations:
        _write_obligation_dump(checked, opts, args.emit_obligations)
    _out(render_json(report) if args.fmt == "json" else render_text(report))
    return report.exit_status


def _write_obligation_dump(
    checked: CheckedProgram, opts: VerifyOptions, path: str
) -> None:
    from . import formula as F
    from .vcgen import generate_obligations

    dump = [
        {
            "id": o.id,
            "kind": o.kind,
            "class": o.class_name,
            "feature": o.feature_name,
            "provenance": o.provenance,
            "formula-as-text": F.to_text(o.formula),
        }
        for o in generate_obligations(checked, opts)
    ]
    Path(path).write_text(json.dumps(dump, indent=2) + "\n", encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    checked, entry, text = _load_program(args.target, args.scenario)
    opts = _resolve_options(entry, args)
    from .runtime import parse_scenario, run_scenario, trace_json, trace_text

    trace = run_scenario(checked, parse_scenario(text), opts)
    _out(trace_json(trace) if args.fmt == "json" else trace_text(trace))
    return 0 if trace.ok else 1


def _scenario_text(entry: CorpusEntry | None, ref: str) -> str:
    if entry is not None and ref in entry.scenarios:
        return entry.scenarios[ref]
    path = Path(ref)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    if entry is not None:
        known = ", ".join(sorted(entry.scenarios)) or "none"
        raise UsageError(f"unknown scenario {ref!r} (built-in: {known})")
    raise UsageError(f"scenario file not found: {ref}")


def cmd_replay(args: argparse.Namespace) -> int:
    checked, entry, _ = _load_program(args.target)
    opts = _resolve_options(entry, args)
    row = _report_row(args.report, args.obligation_id)
    verdict = row.get("verdict")
    if verdict == "Error":
        print(
            f"miniproof: {args.obligation_id} has no counterexample: {row.get('reason')}",
            file=sys.stderr,
        )
        return 2
    if verdict == "Discharged":
        _out(f"{args.obligation_id}: Discharged, nothing to replay (result false)")
        return 0
    raw = row.get("counterexample") or {}
    if not isinstance(raw, dict):
        raise UsageError(
            f"counterexample of {args.obligation_id} in {args.report} is not a JSON object"
        )
    obligation, opts = _find_obligation(checked, opts, args.obligation_id, args.check_overflow is None)
    counterexample = _decode_counterexample(raw, obligation)
    from .runtime import replay_counterexample

    if replay_counterexample(checked, obligation, counterexample, opts):
        _out(
            f"{args.obligation_id}: reproduced; runtime violation of "
            f"{obligation.provenance!r}"
        )
        return 0
    _out(f"{args.obligation_id}: not reproduced")
    return 1


def _report_row(report_path: str, obligation_id: str) -> dict:
    raw = json.loads(Path(report_path).read_text(encoding="utf-8"))
    rows = raw.get("rows", []) if isinstance(raw, dict) else raw
    if not isinstance(rows, list):
        raise UsageError(f"{report_path} is not a verification report (no list of rows)")
    for row in rows:
        if isinstance(row, dict) and row.get("id") == obligation_id:
            return row
    raise UsageError(f"obligation {obligation_id!r} not found in {report_path}")


def _decode_counterexample(raw: dict, obligation: Obligation) -> dict:
    """Decode a report's counterexample. It cannot be materialized when it
    names a symbol outside the obligation's formula, whose symbols are the
    only ones discharge reports, or when a value is not the encoding of a
    value of its symbol's type."""
    from .formula import decode_value, fits, free_syms

    types = free_syms(obligation.formula)
    for name, value in raw.items():
        ty = types.get(name)
        if ty is None:
            raise ReplayImpossible(f"counterexample symbol {name} is not in scope")
        if not fits(value, ty):
            raise ReplayImpossible(
                f"counterexample value {json.dumps(value)} does not fit {name} : {ty}"
            )
    return {name: decode_value(value) for name, value in raw.items()}


def _find_obligation(
    checked: CheckedProgram, opts: VerifyOptions, obligation_id: str, overflow_unset: bool
) -> tuple[Obligation, VerifyOptions]:
    """The obligation with that id, and the options to replay it under.
    Overflow obligations only exist when overflow checking is on, so
    unless the command line set checking on or off, the search turns it
    on, and keeps it on only for an Overflow obligation; checking adds
    Overflow obligations and leaves every other one as it was."""
    from .formula import OVERFLOW
    from .vcgen import generate_obligations

    search = opts.replace(check_overflow=True) if overflow_unset else opts
    for o in generate_obligations(checked, search):
        if o.id == obligation_id:
            return o, search if o.kind == OVERFLOW else opts
    raise UsageError(f"program has no obligation with id {obligation_id!r}")


def cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import export_entry, names, parent_of

    if args.corpus_command == "list":
        for name in names():
            parent = parent_of(name)
            _out(f"{name}  (mutant of {parent})" if parent else name)
        return 0
    for written in export_entry(args.name, args.directory):
        _out(str(written))
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "run": cmd_run,
    "replay": cmd_replay,
    "corpus": cmd_corpus,
}


def _fuse_range_flag(argv: list[str]) -> list[str]:
    """Rewrite ["--int-range", "-8..8"] as ["--int-range=-8..8"] so argparse
    does not mistake the negative bound for an option."""
    fused = []
    i = 0
    while i < len(argv):
        if argv[i] == "--int-range" and i + 1 < len(argv):
            fused.append(f"--int-range={argv[i + 1]}")
            i += 2
        else:
            fused.append(argv[i])
            i += 1
    return fused


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_fuse_range_flag(sys.argv[1:] if argv is None else list(argv)))
        return _HANDLERS[args.command](args)
    # ValueError: bad option values, malformed report JSON
    except (UsageError, ParseError, SemanticError, OSError, ValueError) as exc:
        # one prefixed line per issue of a SemanticError
        print("miniproof: " + str(exc).replace("\n", "\nminiproof: "), file=sys.stderr)
        return 3
    except UnknownCorpusEntry as exc:
        from .corpus import names

        known = ", ".join(names())
        print(f"miniproof: unknown corpus entry {exc.args[0]!r} (known: {known})", file=sys.stderr)
        return 3
    except ReplayImpossible as exc:
        print(f"miniproof: replay impossible: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # `fold` still recurses about once per sequential `if`
        print("miniproof: program too deeply nested or too long to process", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
