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


def _verify_process(tmp_path, body: str, launcher=("-m", "miniproof.cli")) -> subprocess.CompletedProcess:
    program = tmp_path / "shape.ccl"
    program.write_text(
        "class C\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n"
        f"{body}    ensure\n      x >= 0\n    end\nend\n",
        encoding="utf-8",
    )
    return subprocess.run(
        [sys.executable, *launcher, "verify", str(program)],
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


# the formula walks recurse about once per sequential statement, so under
# a recursion limit of 300 a body of a few hundred statements is too long
_LOW_RECURSION_LIMIT = (
    "-c",
    "import sys, miniproof.cli; sys.setrecursionlimit(300); sys.exit(miniproof.cli.main(sys.argv[1:]))",
)


@pytest.mark.parametrize(
    "body",
    ["      if x < 5 then\n        x := x + 1\n      end\n" * 400, "      x := x + 1\n" * 200],
    ids=["400_sequential_ifs", "200_sequential_assignments"],
)
def test_verify_too_long_body_exits_three_without_traceback(tmp_path, body):
    proc = _verify_process(tmp_path, body, _LOW_RECURSION_LIMIT)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "miniproof: program too deeply nested or too long to process\n"


def test_verify_semantic_error_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.ccl"
    bad.write_text("class C\nend\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 3
    assert "no creator" in err


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
    ],
    ids=[
        "report-is-a-number",
        "rows-is-a-number",
        "counterexample-is-a-list",
        "value-of-wrong-kind",
        "symbol-outside-the-formula",
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
