"""The four workloads: inputs, setup, one timed pass, and the oracle check.

A workload object holds its generated inputs. ``setup(mp)`` does the
program's share of input preparation and returns the state a pass needs;
``run_pass(state)`` runs every operation once and returns one Op per
operation; ``check(state, ops)`` compares each op's output with the oracle
and records a problem on the op when it disagrees. A pass calls
``harness.tick()`` between operations so that the machine's speed is
probed while the program runs (see harness.Speed); an Op keeps its wall
start and end, and the run turns them into reference seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
import models
import programs


class Op:
    __slots__ = ("name", "t0", "t1", "seconds", "output", "problem")

    def __init__(self, name: str, t0: float, t1: float, output=None, problem: str | None = None):
        self.name = name
        self.t0, self.t1 = t0, t1  # wall clock
        self.seconds = t1 - t0  # reference seconds once the run has scaled it
        self.output = output
        self.problem = problem  # None when the output is right


def _timed(name, fn, *args):
    harness.tick()
    t0 = time.perf_counter()
    try:
        output = fn(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        return Op(name, t0, time.perf_counter(), None, f"raised {type(exc).__name__}: {exc}")
    return Op(name, t0, time.perf_counter(), output)


def _ticking_discharge(mp, record=None):
    """Probe the machine's speed before every discharge call, the longest
    stretches of program work; with record, keep each call's wall span."""
    original = mp.discharge.discharge
    tick, perf = harness.tick, time.perf_counter

    def discharge(obligation, domains):
        tick()
        t0 = perf()
        verdict = original(obligation, domains)
        if record is not None:
            record.append((t0, perf()))
        return verdict

    mp.discharge.discharge = discharge


# -- corpus_verify -----------------------------------------------------------------


class CorpusVerify:
    """All built-in entries through parse -> analyze -> verify_program ->
    render_json at their manifest options. An operation is one obligation
    reaching its verdict; its time is that obligation's discharge call."""

    min_passes = 1
    SAMPLES_PER_OBLIGATION = 12

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, mp):
        entries = [mp.load_builtin(name) for name in mp.corpus_names()]
        discharge_times: list[tuple[float, float]] = []
        _ticking_discharge(mp, discharge_times)
        return {"mp": mp, "entries": entries, "times": discharge_times}

    def run_pass(self, state):
        mp, times = state["mp"], state["times"]
        times.clear()
        ops = []
        for entry in state["entries"]:
            start = len(times)
            try:
                checked = mp.analyze(mp.parse(entry.source))
                text = mp.render_json(mp.verify_program(checked, entry.options))
                error = None
            except Exception as exc:  # a failing entry fails all its obligations
                checked, text, error = None, None, f"raised {type(exc).__name__}: {exc}"
            spent = iter(times[start:])
            for oid in entry.expected_rows:
                t0, t1 = next(spent, (0.0, 0.0))
                ops.append(Op(oid, t0, t1, (entry, checked, text), error))
        return ops

    def check(self, state, ops):
        mp = state["mp"]
        rng = random.Random(self.seed)
        by_entry: dict[str, list[Op]] = {}
        for op in ops:
            by_entry.setdefault(op.output[0].name, []).append(op)
        for name, entry_ops in by_entry.items():
            entry, checked, text = entry_ops[0].output
            if text is None:
                continue
            problems = check_corpus_report(mp, entry, checked, json.loads(text), rng, self.SAMPLES_PER_OBLIGATION)
            for op in entry_ops:
                op.problem = op.problem or problems.get(op.name) or problems.get("*")


def check_corpus_report(mp, entry, checked, payload, rng, samples) -> dict[str, str]:
    """Problems by obligation id ('*' for the whole report) of one entry's
    JSON report against its manifest and against the formulas: every
    counterexample must falsify its formula and replay as the same
    clause, and every Discharged formula must hold on sampled assignments."""
    F = mp.formula
    expect = entry.manifest["expect"]
    problems: dict[str, str] = {}
    summary = payload["summary"]
    for key in ("total", "discharged", "failed", "error"):
        if summary[key] != expect[key]:
            problems["*"] = f"summary {key} {summary[key]} != manifest {expect[key]}"
    rows = {row["id"]: row for row in payload["rows"]}
    if set(rows) != set(expect["rows"]):
        problems["*"] = "report ids differ from the manifest"
    obligations = {o.id: o for o in mp.generate_obligations(checked, entry.options)}
    domains = mp.discharge.derive_domains(checked, entry.options)
    for oid, want in expect["rows"].items():
        row = rows.get(oid)
        if row is None:
            problems[oid] = "missing from the report"
            continue
        if row["kind"] != want["kind"] or row["verdict"] != want["verdict"]:
            problems[oid] = f"{row['kind']} {row['verdict']} != manifest {want['kind']} {want['verdict']}"
            continue
        if "counterexample" in want and row["counterexample"] != want["counterexample"]:
            problems[oid] = f"counterexample {row['counterexample']} != manifest {want['counterexample']}"
            continue
        if "reason" in want and row["reason"] != want["reason"]:
            problems[oid] = f"reason {row['reason']!r} != manifest {want['reason']!r}"
            continue
        obligation = obligations.get(oid)
        if row["verdict"] == "Failed":
            env = {k: mp.discharge.decode_value(v) for k, v in row["counterexample"].items()}
            if F.evaluate(obligation.formula, env):
                problems[oid] = "counterexample does not falsify the formula"
            elif not mp.replay_counterexample(checked, obligation, env, entry.options):
                problems[oid] = "counterexample does not replay as the same clause"
        elif row["verdict"] == "Discharged":
            bad = _sampled_falsifier(mp, obligation.formula, domains, rng, samples)
            if bad is not None:
                problems[oid] = f"Discharged formula is false at {bad}"
    return problems


def _sampled_falsifier(mp, formula, domains, rng, samples):
    F = mp.formula
    syms = F.free_syms(formula)
    pool = list(domains.string_pool)
    lo, hi = domains.int_range

    def pick(ty):
        kind = ty.kind
        if kind == "INTEGER":
            return rng.randint(lo, hi)
        if kind == "BOOLEAN":
            return rng.random() < 0.5
        if kind == "STRING":
            return rng.choice(pool + [None])
        if kind == "SET_OF_STRING":
            return frozenset(s for s in pool if rng.random() < 0.5)
        return rng.choice((F.Ref(ty.class_name), None))

    for _ in range(samples):
        env = {name: pick(ty) for name, ty in syms.items()}
        if not F.evaluate(formula, env):
            return env
    return None


# -- vc_scaling ---------------------------------------------------------------------


class VcScaling:
    """Seeded generated programs (see programs.py). An operation is one
    program from source text to rendered JSON report."""

    min_passes = 3

    def __init__(self, seed: int):
        self.programs = programs.generate(seed)
        self.expected = [programs.expected_rows(p.classes) for p in self.programs]

    def setup(self, mp):
        _ticking_discharge(mp)
        return {"mp": mp, "options": mp.VerifyOptions(int_range=programs.INT_RANGE)}

    def run_pass(self, state):
        mp, opts = state["mp"], state["options"]
        tick = harness.tick

        def verdicts(source):
            checked = mp.analyze(mp.parse(source))
            tick()
            report = mp.verify_program(checked, opts)
            tick()
            return mp.render_json(report)

        return [_timed(p.name, verdicts, p.source) for p in self.programs]

    def check(self, state, ops):
        for op, expected in zip(ops, self.expected):
            if op.problem is None:
                op.problem = check_generated_report(json.loads(op.output), expected)


def check_generated_report(payload, expected) -> str | None:
    rows = {row["id"]: row for row in payload["rows"]}
    if set(rows) != set(expected):
        return f"obligation ids {sorted(rows)} != {sorted(expected)}"
    counts = {"Discharged": 0, "Failed": 0, "Error": 0}
    for oid, (verdict, counterexample) in expected.items():
        row = rows[oid]
        counts[verdict] += 1
        if row["verdict"] != verdict or row["counterexample"] != counterexample:
            return f"{oid}: {row['verdict']} {row['counterexample']} != {verdict} {counterexample}"
    s = payload["summary"]
    if (s["discharged"], s["failed"], s["error"]) != (counts["Discharged"], counts["Failed"], counts["Error"]):
        return f"summary {s} != {counts}"
    return None


# -- monitor_replay -----------------------------------------------------------------

SCENARIO_MIX = (("account", 16, 1000), ("account_overflow_mutant", 16, 1000), ("tokeneer_enrolment", 16, 600))


class MonitorReplay:
    """Long seeded scenarios under the contract monitor, and a replay of
    every falsifying assignment of the account mutants' Failed
    obligations. An operation is one scenario run (with its JSON trace)
    or one replay. Nothing is discharged."""

    min_passes = 3

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.scenarios = []
        for program, count, length in SCENARIO_MIX:
            for _ in range(count):
                if program == "tokeneer_enrolment":
                    self.scenarios.append(models.tokeneer_scenario(rng, length))
                else:
                    self.scenarios.append(models.account_scenario(rng, program, length))
        self.falsifiers = models.falsifiers()

    def setup(self, mp):
        names = {s.program for s in self.scenarios} | {p for p, _ in self.falsifiers}
        entries = {n: mp.load_builtin(n) for n in sorted(names)}
        checked = {n: mp.analyze(mp.parse(e.source)) for n, e in entries.items()}
        scripts = [mp.parse_scenario(s.text) for s in self.scenarios]
        replays = []
        for (program, oid), assignments in self.falsifiers.items():
            opts = entries[program].options
            obligation = next(o for o in mp.generate_obligations(checked[program], opts) if o.id == oid)
            replays.append((program, obligation, opts, assignments))
        return {"mp": mp, "entries": entries, "checked": checked, "scripts": scripts, "replays": replays}

    def run_pass(self, state):
        mp, entries, checked = state["mp"], state["entries"], state["checked"]
        ops = []
        perf = time.perf_counter
        for scenario, script in zip(self.scenarios, state["scripts"]):
            program = scenario.program

            def run(script=script, program=program):
                return mp.trace_json(mp.run_scenario(checked[program], script, entries[program].options))

            ops.append(_timed("scenario", run))
        replay, tick = mp.replay_counterexample, harness.tick
        for program, obligation, opts, assignments in state["replays"]:
            target = checked[program]
            for env in assignments:
                tick()
                t0 = perf()
                try:
                    ok = replay(target, obligation, env, opts)
                    problem = None if ok else f"{obligation.id} at {env} not reproduced"
                except Exception as exc:
                    problem = f"raised {type(exc).__name__}: {exc}"
                ops.append(Op("replay", t0, perf(), None, problem))
        return ops

    def check(self, state, ops):
        for op, scenario in zip(ops, self.scenarios):
            if op.problem is None:
                op.problem = check_trace(json.loads(op.output), scenario)


def check_trace(payload, scenario) -> str | None:
    outcomes = [step["outcome"] for step in payload["steps"]]
    if outcomes != scenario.outcomes:
        first = next(
            (i for i, (a, b) in enumerate(zip(outcomes, scenario.outcomes)) if a != b),
            min(len(outcomes), len(scenario.outcomes)),
        )
        return f"step {first}: outcomes differ from the model"
    if not payload["ok"]:
        return "trace not ok"
    if payload["objects"] != scenario.objects:
        return "final object states differ from the model"
    return None


# -- cli_commands -------------------------------------------------------------------


class CliCommands:
    """Sequential `python -m miniproof.cli` processes, one at a time. An
    operation is one command; its time is the child's wall time."""

    min_passes = 3
    modules = ("miniproof", "miniproof.cli")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.work = harness.OUT / f"work-{seed}-{time.time_ns()}"
        self.creator, self.routine = programs.generate(seed, [("creator", 4, 1, 0), ("routine", 2, 1, 1)])
        self.account_scn = models.account_scenario(rng, "account_overflow_mutant", 200)
        self.tokeneer_scn = models.tokeneer_scenario(rng, 120)
        overflow = models.falsifiers()[("account_overflow_mutant", "ACCOUNT.deposit.overflow.1")]
        falsifier = overflow[rng.randrange(len(overflow))]
        w = self.work
        w.mkdir(parents=True, exist_ok=True)
        (w / "creator.ccl").write_text(self.creator.source, encoding="utf-8")
        (w / "routine.ccl").write_text(self.routine.source, encoding="utf-8")
        (w / "overflow.scn").write_text(self.account_scn.text, encoding="utf-8")
        (w / "tokeneer.scn").write_text(self.tokeneer_scn.text, encoding="utf-8")
        row = {"id": "ACCOUNT.deposit.overflow.1", "verdict": "Failed", "counterexample": falsifier}
        (w / "falsifier.json").write_text(json.dumps({"rows": [row]}), encoding="utf-8")
        self.commands = self._commands()

    def setup(self, mp):
        # the reports that the replay commands read
        for name in ("account", "account_noguard_mutant"):
            entry = mp.load_builtin(name)
            text = mp.render_json(mp.verify_program(mp.analyze(mp.parse(entry.source)), entry.options))
            (self.work / f"{name}.json").write_text(text, encoding="utf-8")
        return {"mp": mp}

    def _commands(self):
        """(kind, argv, check) per command; check(returncode, stdout,
        stderr, mp) returns a problem or None."""
        w = str(self.work)
        creator_rows = programs.expected_rows(self.creator.classes)
        routine_rows = programs.expected_rows(self.routine.classes)

        def summary_text(counts, total):
            def pct(c):
                return (200 * c + total) // (2 * total)

            return (
                f"{total} obligations: {counts['Discharged']} discharged ({pct(counts['Discharged'])}%), "
                f"{counts['Failed']} failed ({pct(counts['Failed'])}%), {counts['Error']} errors ({pct(counts['Error'])}%)"
            )

        def manifest_counts(mp, name):
            e = mp.load_builtin(name).manifest["expect"]
            return {"Discharged": e["discharged"], "Failed": e["failed"], "Error": e["error"]}, e["total"]

        def exit_for(counts):
            return 2 if counts["Error"] else 1 if counts["Failed"] else 0

        def verify_text(name):
            def check(code, out, err, mp):
                counts, total = manifest_counts(mp, name)
                if code != exit_for(counts):
                    return f"exit {code}"
                if out.rstrip("\n").splitlines()[-1] != summary_text(counts, total):
                    return "summary line differs from the manifest counts"
                return None

            return check

        def verify_json_manifest(name):
            def check(code, out, err, mp):
                counts, _ = manifest_counts(mp, name)
                if code != exit_for(counts):
                    return f"exit {code}"
                payload = json.loads(out)
                want = mp.load_builtin(name).expected_rows
                for row in payload["rows"]:
                    w_row = want.get(row["id"])
                    if w_row is None or row["verdict"] != w_row["verdict"]:
                        return f"{row['id']} verdict differs from the manifest"
                    if "counterexample" in w_row and row["counterexample"] != w_row["counterexample"]:
                        return f"{row['id']} counterexample differs from the manifest"
                return None

            return check

        def verify_generated(expected, fmt):
            counts = {"Discharged": 0, "Failed": 0, "Error": 0}
            for verdict, _ in expected.values():
                counts[verdict] += 1

            def check(code, out, err, mp):
                if code != exit_for(counts):
                    return f"exit {code}"
                if fmt == "json":
                    return check_generated_report(json.loads(out), expected)
                if out.rstrip("\n").splitlines()[-1] != summary_text(counts, len(expected)):
                    return "summary line differs from the oracle"
                return None

            return check

        def run_ok(code, out, err, mp):
            if code != 0 or out.rstrip("\n").splitlines()[-1] != "scenario ok":
                return f"exit {code}, expected a passing scenario"
            return None

        def run_fails(code, out, err, mp):
            if code != 1 or out.rstrip("\n").splitlines()[-1] != "scenario failed":
                return f"exit {code}, expected a failing scenario"
            return None

        def run_model(scenario):
            def check(code, out, err, mp):
                if code != 0:
                    return f"exit {code}"
                return check_trace(json.loads(out), scenario)

            return check

        def replay_reproduced(code, out, err, mp):
            if code != 0 or "reproduced; runtime violation" not in out:
                return f"exit {code}, expected a reproduced violation"
            return None

        def replay_discharged(code, out, err, mp):
            if code != 0 or "nothing to replay" not in out:
                return f"exit {code}, expected a no-op replay"
            return None

        def corpus_list(code, out, err, mp):
            names = [line.split()[0] for line in out.splitlines() if line.strip()]
            if code != 0 or names != list(mp.corpus_names()):
                return "corpus list differs"
            return None

        def corpus_export(code, out, err, mp):
            paths = [Path(line) for line in out.splitlines() if line.strip()]
            if code != 0 or not paths or not all(p.is_file() for p in paths):
                return "export did not write its files"
            return None

        def usage_error(code, out, err, mp):
            if code != 3 or not err.startswith("miniproof: ") or "Traceback" in err:
                return f"exit {code}, expected a one-line usage diagnostic and exit 3"
            return None

        return [
            ("verify", ["verify", "corpus:account"], verify_text("account")),
            ("verify", ["verify", "corpus:account_noguard_mutant", "--format", "json"], verify_json_manifest("account_noguard_mutant")),
            ("verify", ["verify", "corpus:contract_creation_error"], verify_text("contract_creation_error")),
            ("verify", ["verify", f"{w}/creator.ccl"], verify_generated(creator_rows, "text")),
            ("verify", ["verify", f"{w}/routine.ccl", "--format", "json"], verify_generated(routine_rows, "json")),
            ("run", ["run", "corpus:account", "account_deposit_withdraw"], run_ok),
            ("run", ["run", "corpus:account", "account_overdraw"], run_ok),
            ("run", ["run", "corpus:tokeneer_enrolment", "tokeneer_enrolment_ok"], run_ok),
            ("run", ["run", "corpus:tokeneer_frame_mutant", "tokeneer_enrolment_ok"], run_fails),
            ("run", ["run", "corpus:account_overflow_mutant", f"{w}/overflow.scn", "--format", "json"], run_model(self.account_scn)),
            ("run", ["run", "corpus:tokeneer_enrolment", f"{w}/tokeneer.scn", "--format", "json"], run_model(self.tokeneer_scn)),
            ("replay", ["replay", "corpus:account_noguard_mutant", "ACCOUNT.deposit.invariant_maintenance.0", "--report", f"{w}/account_noguard_mutant.json"], replay_reproduced),
            ("replay", ["replay", "corpus:account_overflow_mutant", "ACCOUNT.deposit.overflow.1", "--report", f"{w}/falsifier.json"], replay_reproduced),
            ("replay", ["replay", "corpus:account", "ACCOUNT.deposit.postcondition.0", "--report", f"{w}/account.json"], replay_discharged),
            ("corpus", ["corpus", "list"], corpus_list),
            ("corpus", ["corpus", "export", "account_overflow_mutant", f"{w}/exported"], corpus_export),
            ("usage", ["verify"], usage_error),
            ("usage", ["verify", "corpus:no_such_entry"], usage_error),
            ("usage", ["run", "corpus:account", "no_such_scenario"], usage_error),
        ]

    def run_pass(self, state):
        env = harness.child_env()
        ops = []
        for kind, argv, check in self.commands:
            harness.tick()
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "miniproof.cli", *argv],
                    env=env,
                    cwd=harness.ROOT,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
            except subprocess.TimeoutExpired:
                ops.append(Op(kind, t0, time.perf_counter(), None, "timed out after 120 s"))
                continue
            ops.append(Op(kind, t0, time.perf_counter(), (proc.returncode, proc.stdout, proc.stderr, check)))
        return ops

    def in_process(self, state):
        """The same commands through cli.main in this process, so a traced
        run can split them by layer."""
        cli = state["mp"].cli
        for _, argv, _ in self.commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)

    def check(self, state, ops):
        for op in ops:
            if op.output is None:
                continue
            code, out, err, check = op.output
            try:
                op.problem = check(code, out, err, state["mp"])
            except (ValueError, KeyError, IndexError) as exc:
                op.problem = f"unreadable output: {type(exc).__name__}: {exc}"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "corpus_verify": CorpusVerify,
    "vc_scaling": VcScaling,
    "monitor_replay": MonitorReplay,
    "cli_commands": CliCommands,
}
