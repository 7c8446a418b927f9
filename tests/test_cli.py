"""Command-line driver: subcommand behavior, exit-code mapping, report
schemas, determinism, and stdout/stderr separation."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from miniproof.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ----------------------------------------------------------------------


def test_verify_account_exits_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "corpus:account", "--int-range", "-8..8")
    assert code == 0
    assert "6 obligations: 6 discharged (100%), 0 failed (0%), 0 errors (0%)" in out
    assert err == ""


def test_verify_failed_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus:account_noguard_mutant")
    assert code == 1
    assert "Failed" in out


def test_verify_error_exits_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus:contract_creation_error")
    assert code == 2
    assert "creation expression in contract" in out


def test_verify_missing_file_exits_three(capsys):
    code, out, err = run_cli(capsys, "verify", "nosuchfile.ccl")
    assert code == 3
    assert out == ""
    assert "nosuchfile.ccl" in err


def test_verify_parse_error_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.ccl"
    bad.write_text("class C\nfeature\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert err.startswith("miniproof:")


def test_verify_deep_nesting_exits_three_without_traceback(tmp_path):
    deep = tmp_path / "deep.ccl"
    nested = "(" * 3000 + "1" + ")" * 3000
    deep.write_text(
        f"class C\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n      x := {nested}\n    end\nend\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "miniproof.cli", "verify", str(deep)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("miniproof:") and "nested more than" in proc.stderr
    assert proc.stderr.count("\n") == 1


def _verify_process(
    tmp_path, body: str, launcher=("-m", "miniproof.cli"), options=()
) -> subprocess.CompletedProcess:
    program = tmp_path / "shape.ccl"
    program.write_text(
        "class C\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n"
        f"{body}    ensure\n      x >= 0\n    end\nend\n",
        encoding="utf-8",
    )
    return subprocess.run(
        [sys.executable, *launcher, "verify", str(program), *options],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "body, message",
    [
        ("      x := " + " + ".join(["1"] * 3000) + "\n", "expression nested more than"),
        (
            "      if x < 5 then\n" * 600 + "      x := 1\n" + "      end\n" * 600,
            "statements nested more than",
        ),
    ],
    ids=["flat_chain_of_3000_terms", "600_nested_ifs"],
)
def test_verify_deep_structure_exits_three_without_traceback(tmp_path, body, message):
    proc = _verify_process(tmp_path, body)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("miniproof:") and message in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_verify_400_sequential_ifs(tmp_path):
    proc = _verify_process(tmp_path, "      if x < 5 then\n        x := x + 1\n      end\n" * 400)
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("1 obligations: 1 discharged (100%), 0 failed (0%), 0 errors (0%)")


def test_verify_600_sequential_assignments(tmp_path):
    proc = _verify_process(tmp_path, "      x := x + 1\n" * 600)
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("1 obligations: 1 discharged (100%), 0 failed (0%), 0 errors (0%)")


# `fold` is the one formula walk that still recurses with the length of a
# body, about once per sequential `if`, so under a recursion limit of 300
# a body of a few hundred of them is too long
_LOW_RECURSION_LIMIT = (
    "-c",
    "import sys, miniproof.cli; sys.setrecursionlimit(300); sys.exit(miniproof.cli.main(sys.argv[1:]))",
)


@pytest.mark.parametrize(
    "body", ["      if x < 5 then\n        x := x + 1\n      end\n" * 400], ids=["400_sequential_ifs"]
)
def test_verify_too_long_body_exits_three_without_traceback(tmp_path, body):
    proc = _verify_process(tmp_path, body, _LOW_RECURSION_LIMIT)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "miniproof: program too deeply nested or too long to process\n"


@pytest.mark.parametrize(
    "n, launcher", [(200, _LOW_RECURSION_LIMIT), (2000, ("-m", "miniproof.cli"))], ids=["200_at_limit_300", "2000"]
)
def test_verify_emits_the_obligations_of_sequential_assignments(tmp_path, n, launcher):
    """Printing an obligation reads each nested substitution in a loop,
    so its depth does not grow with the number of assignments."""
    dump = tmp_path / "obligations.json"
    proc = _verify_process(tmp_path, "      x := x + 1\n" * n, launcher, ("--emit-obligations", str(dump)))
    assert proc.stderr == ""
    assert proc.returncode == 0
    [obligation] = json.loads(dump.read_text(encoding="utf-8"))
    assert obligation["formula-as-text"] == "0" + " + 1" * n + " >= 0"


def test_verify_2000_sequential_parameter_sums(tmp_path):
    """The residual `acc + p + ... + p` is 2000 levels deep; discharge
    compiles it in pieces without recursing once per piece."""
    program = tmp_path / "sums.ccl"
    program.write_text(
        "class A\ncreate make\nfeature\n  acc : INTEGER\n  make\n    do\n    end\n"
        "  step (p : INTEGER)\n    do\n" + "      acc := acc + p\n" * 2000
        + "    ensure\n      grown: acc >= old acc\n    end\nend\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "miniproof.cli", "verify", str(program)], capture_output=True, text=True
    )
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert "A.step.postcondition.0  Postcondition  Failed  acc = -8, p = -8\n" in proc.stdout
    assert proc.stdout.strip().endswith("1 obligations: 0 discharged (0%), 1 failed (100%), 0 errors (0%)")


def test_verify_semantic_error_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.ccl"
    bad.write_text("class C\nend\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert "no creator" in err


def test_verify_two_semantic_issues_give_one_prefixed_line_each(tmp_path):
    bad = tmp_path / "two.ccl"
    bad.write_text(
        "class A\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n"
        "      y := 1\n      z := 2\n    end\nend\n",
        encoding="utf-8",
    )
    proc = _cli_process("verify", str(bad))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "miniproof: 7:7: assignment target y is not an attribute of A",
        "miniproof: 8:7: assignment target z is not an attribute of A",
    ]


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "corpus:account", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"summary", "rows", "domains", "duration_ms"}
    assert set(payload["summary"]) == {
        "total",
        "discharged",
        "failed",
        "error",
        "percentages",
    }
    assert payload["summary"]["total"] == 6
    assert all(
        set(row)
        == {"id", "kind", "class", "feature", "provenance", "verdict", "counterexample", "reason"}
        for row in payload["rows"]
    )
    assert payload["domains"]["int_range"] == [-8, 8]


def test_verify_json_percentages_sum_near_100(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "corpus:contract_creation_error", "--format", "json"
    )
    assert code == 2
    percentages = json.loads(out)["summary"]["percentages"]
    assert sum(percentages.values()) in (99, 100, 101)


def test_verify_is_deterministic_modulo_duration(capsys):
    _, first, _ = run_cli(
        capsys, "verify", "corpus:account_overflow_mutant", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "verify", "corpus:account_overflow_mutant", "--format", "json"
    )
    scrub = lambda text: re.sub(r'"duration_ms": \d+', '"duration_ms": 0', text)
    assert scrub(first).encode() == scrub(second).encode()


def test_verify_flag_overrides_pinned_options(capsys):
    # the account entry pins overflow off; the flag turns it on
    code, out, _ = run_cli(
        capsys,
        "verify",
        "corpus:account",
        "--check-overflow",
        "--overflow-width",
        "8",
        "--int-range",
        "-128..127",
    )
    assert code == 1
    assert "ACCOUNT.deposit.overflow.0" in out


def test_emit_obligations_dump(capsys, tmp_path):
    dump_path = tmp_path / "obligations.json"
    code, _, _ = run_cli(
        capsys, "verify", "corpus:account", "--emit-obligations", str(dump_path)
    )
    assert code == 0
    dump = json.loads(dump_path.read_text(encoding="utf-8"))
    assert len(dump) == 6
    assert all(
        set(entry) == {"id", "kind", "class", "feature", "provenance", "formula-as-text"}
        for entry in dump
    )
    ids = [entry["id"] for entry in dump]
    assert "ACCOUNT.deposit.postcondition.0" in ids


def test_bad_int_range_exits_three(capsys):
    code, _, err = run_cli(capsys, "verify", "corpus:account", "--int-range", "oops")
    assert code == 3
    assert "LO..HI" in err


def test_bad_overflow_width_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "verify", "corpus:account", "--check-overflow", "--overflow-width", "3"
    )
    assert code == 3
    assert "power of two" in err


def test_unknown_corpus_entry_exits_three(capsys):
    code, _, err = run_cli(capsys, "verify", "corpus:bogus")
    assert code == 3
    assert "unknown corpus entry" in err


# -- run -------------------------------------------------------------------------


def test_run_builtin_scenario_ok(capsys):
    code, out, _ = run_cli(
        capsys, "run", "corpus:account", "account_deposit_withdraw"
    )
    assert code == 0
    assert "scenario ok" in out


def test_run_expected_violation_matches(capsys):
    code, out, _ = run_cli(capsys, "run", "corpus:account", "account_overdraw")
    assert code == 0
    assert "violation precondition enough_balance" in out


def test_run_unexpected_violation_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "run", "corpus:tokeneer_frame_mutant", "tokeneer_enrolment_ok"
    )
    assert code == 1
    assert "violation frame audit_log_version" in out


def test_run_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "corpus:account", "account_overdraw", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"steps", "objects", "ok"}


def test_run_scenario_file(capsys, tmp_path):
    scenario = tmp_path / "custom.scn"
    scenario.write_text(
        "create acc : ACCOUNT\ncall acc.deposit(5)\nexpect_ok\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "run", "corpus:account", str(scenario))
    assert code == 0
    assert "scenario ok" in out


def test_run_unknown_scenario_exits_three(capsys):
    code, _, err = run_cli(capsys, "run", "corpus:account", "nope")
    assert code == 3
    assert "unknown scenario" in err


def test_run_with_a_bad_program_and_a_bad_scenario_exits_three(capsys, tmp_path):
    """The scenario is looked up before the program is parsed, so its
    error is the one reported; either way the exit status is 3."""
    program = tmp_path / "broken.ccl"
    program.write_text("class C\nfeature\n  x : \nend\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(program), str(tmp_path / "missing.scn"))
    assert code == 3
    assert "scenario file not found" in err
    scenario = tmp_path / "s.scn"
    scenario.write_text("create c : C\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(program), str(scenario))
    assert code == 3
    assert "scenario" not in err


def test_run_refuses_a_creator_call_as_the_analyzer_does(capsys, tmp_path):
    """A scenario may not call a creator, as program text may not: the
    creator's postcondition holds of a blank object only, so a second
    run of it reports a violation that verify rules out."""
    program = tmp_path / "a.ccl"
    program.write_text(
        "class A\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n      x := x + 1\n"
        "    ensure\n      one: x = 1\n    end\nend\n",
        encoding="utf-8",
    )
    scenario = tmp_path / "a.scn"
    scenario.write_text("create a : A\ncall a.make()\n", encoding="utf-8")
    assert run_cli(capsys, "verify", str(program))[0] == 0
    code, out, err = run_cli(capsys, "run", str(program), str(scenario))
    assert (code, out) == (3, "")
    assert err.splitlines() == ["miniproof: 2:1: creator A.make cannot be called"]


# -- replay ----------------------------------------------------------------------


@pytest.fixture()
def noguard_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "corpus:account_noguard_mutant", "--format", "json"
    )
    assert code == 1
    path = tmp_path / "report.json"
    path.write_text(out, encoding="utf-8")
    return path


def test_replay_reproduces_failure(capsys, noguard_report):
    code, out, _ = run_cli(
        capsys,
        "replay",
        "corpus:account_noguard_mutant",
        "ACCOUNT.deposit.invariant_maintenance.0",
        "--report",
        str(noguard_report),
    )
    assert code == 0
    assert "reproduced" in out
    assert "non_negative_balance" in out


def test_replay_discharged_row_is_noop(capsys, noguard_report):
    code, out, _ = run_cli(
        capsys,
        "replay",
        "corpus:account_noguard_mutant",
        "ACCOUNT.make.postcondition.0",
        "--report",
        str(noguard_report),
    )
    assert code == 0
    assert "nothing to replay" in out


def test_replay_unknown_id_exits_three(capsys, noguard_report):
    code, _, err = run_cli(
        capsys,
        "replay",
        "corpus:account_noguard_mutant",
        "ACCOUNT.deposit.no_such.9",
        "--report",
        str(noguard_report),
    )
    assert code == 3
    assert "not found" in err


def test_replay_non_reproducing_row_exits_one(capsys, tmp_path, noguard_report):
    doctored = json.loads(noguard_report.read_text(encoding="utf-8"))
    for row in doctored["rows"]:
        if row["id"] == "ACCOUNT.deposit.invariant_maintenance.0":
            row["counterexample"] = {"amount": 5, "balance": 0}  # harmless deposit
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "replay",
        "corpus:account_noguard_mutant",
        "ACCOUNT.deposit.invariant_maintenance.0",
        "--report",
        str(path),
    )
    assert code == 1
    assert "not reproduced" in out


def test_replay_error_row_exits_two(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "corpus:contract_creation_error", "--format", "json"
    )
    path = tmp_path / "creation.json"
    path.write_text(out, encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "replay",
        "corpus:contract_creation_error",
        "BAD_CONTRACT.make.unsupported.0",
        "--report",
        str(path),
    )
    assert code == 2
    assert "creation expression in contract" in err


def test_replay_impossible_counterexample_exits_two(capsys, tmp_path, noguard_report):
    doctored = json.loads(noguard_report.read_text(encoding="utf-8"))
    for row in doctored["rows"]:
        if row["id"] == "ACCOUNT.deposit.invariant_maintenance.0":
            row["counterexample"] = {"ghost": 1}
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "replay",
        "corpus:account_noguard_mutant",
        "ACCOUNT.deposit.invariant_maintenance.0",
        "--report",
        str(path),
    )
    assert code == 2
    assert "replay impossible" in err


_PARAMETER_SUBSTITUTED_AWAY = """
class A
create make
feature
  acc : INTEGER
  make
    do
    end
  f (p : INTEGER)
    do
      acc := p + 1
      acc := 5
    ensure
      six: acc = 6
    end
end
"""


def test_replay_counterexample_that_leaves_out_a_parameter(capsys, tmp_path):
    """p is substituted away, so the Failed row's counterexample is empty;
    the replay runs f with p at its default and breaks the same clause."""
    program = tmp_path / "a.ccl"
    program.write_text(_PARAMETER_SUBSTITUTED_AWAY, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(program), "--format", "json")
    assert code == 1
    (row,) = [r for r in json.loads(out)["rows"] if r["id"] == "A.f.postcondition.0"]
    assert (row["verdict"], row["counterexample"]) == ("Failed", {})
    report = tmp_path / "a.json"
    report.write_text(out, encoding="utf-8")
    code, out, err = run_cli(capsys, "replay", str(program), "A.f.postcondition.0", "--report", str(report))
    assert (code, out, err) == (0, "A.f.postcondition.0: reproduced; runtime violation of 'six'\n", "")


def test_replay_null_counterexample_runs_from_the_defaults(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "corpus:account", "--format", "json")
    doctored = json.loads(out)
    for row in doctored["rows"]:
        if row["id"] == "ACCOUNT.withdraw.postcondition.0":
            row["verdict"], row["counterexample"] = "Failed", None
    report = tmp_path / "null.json"
    report.write_text(json.dumps(doctored), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "replay", "corpus:account", "ACCOUNT.withdraw.postcondition.0", "--report", str(report)
    )
    # withdrawing 0 from a balance of 0 breaks nothing
    assert (code, out, err) == (1, "ACCOUNT.withdraw.postcondition.0: not reproduced\n", "")


_VOID_ROOT = """
class CELL
create make
feature
  a : INTEGER
  make
    do
    end
end
class H
create make
feature
  r : CELL
  n : INTEGER
  make
    do
    end
  get
    require
      pos: r.a >= 0
    do
      n := 1
    end
end
"""


def test_replay_void_root_with_a_path_under_it(capsys, tmp_path):
    """The counterexample binds r to Void and also gives r.a: the value
    under Void describes no state, and running get with r Void breaks
    the obligation's own clause."""
    program = tmp_path / "h.ccl"
    program.write_text(_VOID_ROOT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(program))
    assert code == 1
    assert "H.get.void_dereference.0  VoidDereference  Failed  r = Void, r.a = 0" in out
    report = tmp_path / "r.json"
    _, out, _ = run_cli(capsys, "verify", str(program), "--format", "json")
    report.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "replay", str(program), "H.get.void_dereference.0", "--report", str(report)
    )
    assert (code, out) == (0, "H.get.void_dereference.0: reproduced; runtime violation of 'r.a'\n")


def test_replay_finds_overflow_obligations_without_the_flag(capsys, tmp_path):
    """Overflow obligations exist only with overflow checking on, so a
    replay given the width but not --check-overflow looks the id up
    again with checking on."""
    run_cli(capsys, "corpus", "export", "account_overflow_mutant", str(tmp_path))
    program = str(tmp_path / "account_overflow_mutant.ccl")
    code, out, _ = run_cli(
        capsys, "verify", program, "--check-overflow", "--overflow-width", "8",
        "--int-range", "-128..127", "--format", "json",
    )
    assert code == 1
    report = tmp_path / "r.json"
    report.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "replay", program, "ACCOUNT.deposit.overflow.1", "--report", str(report),
        "--overflow-width", "8",
    )
    assert code == 0
    assert "reproduced" in out


def test_replay_keeps_an_explicit_no_check_overflow(capsys, tmp_path):
    """--no-check-overflow is the user's choice: the overflow id is not
    looked up again with checking on, so it is unknown."""
    run_cli(capsys, "corpus", "export", "account_overflow_mutant", str(tmp_path))
    program = str(tmp_path / "account_overflow_mutant.ccl")
    code, out, _ = run_cli(
        capsys, "verify", program, "--check-overflow", "--overflow-width", "8",
        "--int-range", "-128..127", "--format", "json",
    )
    assert code == 1
    report = tmp_path / "r.json"
    report.write_text(out, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "replay", program, "ACCOUNT.deposit.overflow.1", "--report", str(report),
        "--overflow-width", "8", "--no-check-overflow",
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == ["miniproof: program has no obligation with id 'ACCOUNT.deposit.overflow.1'"]


@pytest.mark.parametrize(
    "obligation_id, row",
    [
        ("ACCOUNT.deposit.overflow.0", None),
        ("ACCOUNT.deposit.postcondition.0", {"amount": 1, "balance": 0}),
        ("ACCOUNT.deposit.no_such.0", {}),
    ],
    ids=["overflow", "postcondition", "unknown"],
)
def test_replay_generates_the_obligations_once(capsys, tmp_path, monkeypatch, obligation_id, row):
    """corpus:account's manifest has overflow checking off, yet replay
    finds its Overflow obligations in the one pass it makes over the
    program."""
    from miniproof import vcgen

    _, out, _ = run_cli(
        capsys, "verify", "corpus:account", "--check-overflow", "--overflow-width", "8",
        "--int-range", "-128..127", "--format", "json",
    )
    report = json.loads(out)
    if row is not None:  # a Failed row for the id, so replay looks it up
        report["rows"] = [r for r in report["rows"] if r["id"] != obligation_id]
        report["rows"].append({"id": obligation_id, "verdict": "Failed", "counterexample": row})
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    calls = []
    generate = vcgen.generate_obligations
    monkeypatch.setattr(vcgen, "generate_obligations", lambda *a: calls.append(a) or generate(*a))
    code, _, err = run_cli(capsys, "replay", "corpus:account", obligation_id, "--report", str(path))
    assert len(calls) == 1
    assert (code == 3) == (row == {}), err


def _malformed_row(counterexample) -> str:
    row = {"id": "ACCOUNT.deposit.postcondition.0", "verdict": "Failed", "counterexample": counterexample}
    return json.dumps({"rows": [row]})


@pytest.mark.parametrize(
    "report, code, message",
    [
        ("5", 3, "is not a verification report"),
        ('{"rows": 5}', 3, "is not a verification report"),
        (_malformed_row([1]), 3, "is not a JSON object"),
        (_malformed_row({"amount": "x"}), 2, "replay impossible: "),
        (_malformed_row({"amount": 5, "zzz": [[1]]}), 2, "replay impossible: "),
        (_malformed_row({"amount": {"x": 1}}), 2, "replay impossible: "),
        (_malformed_row({"amount": [1, [2]]}), 2, "replay impossible: "),
    ],
    ids=[
        "report-is-a-number",
        "rows-is-a-number",
        "counterexample-is-a-list",
        "value-of-wrong-kind",
        "symbol-outside-the-formula",
        "value-is-an-object-without-ref",
        "value-is-a-list-of-non-strings",
    ],
)
def test_malformed_replay_report_gives_one_line(tmp_path, report, code, message):
    path = tmp_path / "R"
    path.write_text(report, encoding="utf-8")
    proc = _cli_process(
        "replay", "corpus:account", "ACCOUNT.deposit.postcondition.0", "--report", str(path)
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("miniproof: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


_CREATOR_REQUIRES = """
class D
create make
feature
  x : INTEGER
  make
    require
      one: x = 1
    do
      x := 2
    ensure
      two: x = 3
    end
end
class C
create make
feature
  d : D
  make
    do
      create d.make
    ensure
      three: d.x = 3
    end
end
"""


def test_creation_asserts_the_creators_precondition(capsys, tmp_path):
    """A fresh D has x = 0, so `create d.make` breaks D.make's `one`:
    verify fails it at the creation site, replay reproduces it, and the
    monitor breaks it."""
    program = tmp_path / "dc.ccl"
    program.write_text(_CREATOR_REQUIRES, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(program))
    assert code == 1
    assert re.search(r"^C\.make\.callee_precondition\.0 +CalleePrecondition +Failed", out, re.M)
    report = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "verify", str(program), "--format", "json")
    report.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "replay", str(program), "C.make.callee_precondition.0", "--report", str(report)
    )
    assert (code, out) == (0, "C.make.callee_precondition.0: reproduced; runtime violation of 'one'\n")
    scenario = tmp_path / "dc.scn"
    scenario.write_text("create c : C\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(program), str(scenario))
    assert code == 1
    assert "violation precondition one" in out


_CREATES_IN_ENSURE = """
class HELPER
create make
feature
  make
    do
    end
end
class C
create make
feature
  x : INTEGER
  helper : HELPER
  make
    do
    end
  bump
    do
      x := x + 1
    ensure
      fresh: helper = create HELPER
      small: x < 3
    end
end
"""

_RECURSES = """
class C
create make
feature
  x : INTEGER
  r : C
  make
    do
    end
  spin
    do
      create r
      r.spin ()
    ensure
      one: x = 1
    end
end
"""


def _cli_process(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "miniproof.cli", *argv], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "source, obligation_id, cause",
    [
        (_CREATES_IN_ENSURE, "C.bump.postcondition.0", "UnsupportedInContract: creation expression create HELPER"),
        (_RECURSES, "C.spin.postcondition.0", "StepBudgetExceeded: call depth limit of 100"),
    ],
    ids=["unsupported_clause_first", "runaway_recursion"],
)
def test_replay_that_cannot_finish_exits_two_without_traceback(
    tmp_path, source, obligation_id, cause
):
    program = tmp_path / "c.ccl"
    program.write_text(source, encoding="utf-8")
    report = tmp_path / "r.json"
    verify = _cli_process("verify", str(program), "--format", "json")
    report.write_text(verify.stdout, encoding="utf-8")
    (row,) = [r for r in json.loads(verify.stdout)["rows"] if r["id"] == obligation_id]
    assert row["verdict"] == "Failed"
    proc = _cli_process("replay", str(program), obligation_id, "--report", str(report))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("miniproof: replay impossible: " + cause)
    assert proc.stderr.count("\n") == 1


def test_run_self_creating_class_stops_at_the_call_depth_limit(tmp_path):
    program = tmp_path / "node.ccl"
    program.write_text(
        "class NODE\ncreate make\nfeature\n  next : NODE\n  make\n    do\n      create next\n    end\nend\n",
        encoding="utf-8",
    )
    scenario = tmp_path / "s.scn"
    scenario.write_text("create n : NODE\n", encoding="utf-8")
    proc = _cli_process("run", str(program), str(scenario))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "error StepBudgetExceeded: call depth limit of 100 nested calls exceeded" in proc.stdout
    assert proc.stdout.strip().endswith("scenario failed")


@pytest.mark.parametrize(
    "command, message",
    [
        ("call a.nope()", "2:1: unknown feature ACCOUNT.nope"),
        ("create b : NOPE", "2:1: unknown class NOPE"),
        ("call a.deposit()", "2:1: ACCOUNT.deposit takes 1 argument(s), got 0"),
        ('call a.deposit("x")', 'argument amount of ACCOUNT.deposit is INTEGER, got "x"'),
        ("call a.deposit(1, 2)", "2:1: ACCOUNT.deposit takes 1 argument(s), got 2"),
    ],
    ids=["unknown_feature", "unknown_class", "missing_argument", "wrong_type", "extra_argument"],
)
def test_run_bad_scenario_command_exits_three_without_traceback(tmp_path, command, message):
    scenario = tmp_path / "bad.scn"
    scenario.write_text(f"create a : ACCOUNT\n{command}\n", encoding="utf-8")
    proc = _cli_process("run", "corpus:account", str(scenario))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("miniproof: 2:1: ")
    assert message in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_replay_overflow_with_matching_flags(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "corpus:account",
        "--check-overflow",
        "--overflow-width",
        "8",
        "--int-range",
        "-128..127",
        "--format",
        "json",
    )
    assert code == 1
    path = tmp_path / "overflow.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "replay",
        "corpus:account",
        "ACCOUNT.deposit.overflow.0",
        "--report",
        str(path),
        "--check-overflow",
        "--overflow-width",
        "8",
        "--int-range",
        "-128..127",
    )
    assert code == 0
    assert "reproduced" in out


# -- corpus ----------------------------------------------------------------------


def test_corpus_list(capsys):
    code, out, err = run_cli(capsys, "corpus", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "account"
    assert any("mutant of account" in line for line in lines)
    assert err == ""


def test_corpus_export_writes_files(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "corpus", "export", "account", str(tmp_path))
    assert code == 0
    listed = [line.strip() for line in out.strip().splitlines()]
    assert len(listed) == 4
    assert (tmp_path / "account.ccl").is_file()


def test_corpus_export_unknown_exits_three(capsys, tmp_path):
    code, _, err = run_cli(capsys, "corpus", "export", "bogus", str(tmp_path))
    assert code == 3
    assert "unknown corpus entry" in err


def test_exported_entry_verifies_identically(capsys, tmp_path):
    run_cli(capsys, "corpus", "export", "account", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "verify", str(tmp_path / "account.ccl"), "--int-range", "-8..8"
    )
    assert code == 0
    assert "6 discharged (100%)" in out


# -- usage -----------------------------------------------------------------------


def test_no_arguments_exits_three(capsys):
    code, _, err = run_cli(capsys)
    assert code == 3
    assert err.startswith("miniproof:")


def test_unknown_subcommand_exits_three(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 3


def test_console_script_is_installed():
    executable = shutil.which("miniproof")
    if executable is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [executable, "corpus", "list"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "account" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "miniproof.cli", "verify", "corpus:account"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "6 discharged (100%)" in proc.stdout
