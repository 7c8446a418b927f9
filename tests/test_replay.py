"""Counterexample replay: Failed verdicts reproduce as runtime violations of
the same clause, Discharged verdicts are no-ops, and impossible object
states are reported rather than silently skipped."""

import pytest

from miniproof import analyze, parse
from miniproof import formula as F
from miniproof.errors import ContractViolation, ReplayImpossible
from miniproof.runtime import Interpreter, replay_counterexample, synthesize_entry_state
from miniproof.vcgen import VerifyOptions, generate_obligations


def obligation_by_id(checked, opts, obligation_id):
    for o in generate_obligations(checked, opts):
        if o.id == obligation_id:
            return o
    raise AssertionError(f"no obligation {obligation_id}")


def failed_rows(report):
    return [r for r in report.rows if r.verdict.status == "Failed"]


def test_noguard_counterexample_replays_to_invariant_violation(
    checked_programs, entries, pinned_reports
):
    checked = checked_programs["account_noguard_mutant"]
    opts = entries["account_noguard_mutant"].options
    (row,) = failed_rows(pinned_reports("account_noguard_mutant"))
    assert row.id == "ACCOUNT.deposit.invariant_maintenance.0"
    obligation = obligation_by_id(checked, opts, row.id)
    # the violated clause the replay must name
    assert obligation.provenance == "non_negative_balance"
    assert replay_counterexample(checked, obligation, row.verdict.counterexample, opts)


def test_discharged_obligation_replay_is_a_noop(checked_programs, entries):
    checked = checked_programs["account"]
    opts = entries["account"].options
    obligation = obligation_by_id(checked, opts, "ACCOUNT.deposit.postcondition.0")
    # any environment: replay must return false because nothing violates
    assert (
        replay_counterexample(checked, obligation, {"amount": 3, "balance": 2}, opts)
        is False
    )


def test_noprecond_counterexample_replays_to_first_invariant_clause(
    checked_programs, entries, pinned_reports
):
    checked = checked_programs["tokeneer_noprecond_mutant"]
    opts = entries["tokeneer_noprecond_mutant"].options
    (row,) = failed_rows(pinned_reports("tokeneer_noprecond_mutant"))
    assert row.id == "ID_STATION.set_current_display.invariant_maintenance.0"
    obligation = obligation_by_id(checked, opts, row.id)
    assert obligation.provenance == "invariant_1"
    cx = row.verdict.counterexample
    assert cx["v"] not in cx["constants.display_message"]
    assert replay_counterexample(checked, obligation, cx, opts)


def test_frame_mutant_counterexample_replays(checked_programs, entries, pinned_reports):
    checked = checked_programs["tokeneer_frame_mutant"]
    opts = entries["tokeneer_frame_mutant"].options
    (row,) = failed_rows(pinned_reports("tokeneer_frame_mutant"))
    assert row.id == "ENCLAVE_OPERS.request_enrolment.frame.4"
    obligation = obligation_by_id(checked, opts, row.id)
    assert obligation.provenance == "audit_log_version"
    assert replay_counterexample(checked, obligation, row.verdict.counterexample, opts)


def test_overflow_counterexamples_replay_even_for_outer_nodes(
    checked_programs, entries, pinned_reports
):
    """The statically named node may contain the subexpression that actually
    overflows first at runtime; replay accepts any arithmetic subnode."""
    checked = checked_programs["account_overflow_mutant"]
    opts = entries["account_overflow_mutant"].options
    rows = failed_rows(pinned_reports("account_overflow_mutant"))
    assert len(rows) == 4
    for row in rows:
        obligation = obligation_by_id(checked, opts, row.id)
        assert replay_counterexample(
            checked, obligation, row.verdict.counterexample, opts
        ), row.id


def test_every_failed_row_in_every_manifest_replays(
    checked_programs, entries, pinned_reports
):
    for name in entries:
        checked = checked_programs[name]
        opts = entries[name].options
        for row in failed_rows(pinned_reports(name)):
            obligation = obligation_by_id(checked, opts, row.id)
            assert replay_counterexample(
                checked, obligation, row.verdict.counterexample, opts
            ), f"{name}: {row.id}"


_ONE_OF_EACH = """
class A
create make
feature
  acc : INTEGER
  make
    do
    end
  f (p : INTEGER; q : BOOLEAN; s : STRING; t : SET_OF_STRING)
    do
      acc := p + 1
      acc := 5
    ensure
      six: acc = 6
    end
end
"""


def test_parameters_a_counterexample_leaves_out_start_at_their_defaults():
    """The postcondition mentions no parameter, so its counterexample is
    empty; every parameter starts at its type's default, as attributes
    do, and the replay breaks the same clause."""
    checked = analyze(parse(_ONE_OF_EACH))
    opts = VerifyOptions()
    obligation = obligation_by_id(checked, opts, "A.f.postcondition.0")
    assert F.free_syms(obligation.formula) == {}
    obj, args = synthesize_entry_state(checked, obligation, {})
    assert args == [0, False, None, frozenset()]
    assert obj.fields == {"acc": 0}
    assert replay_counterexample(checked, obligation, {}, opts)


def test_synthesis_orders_paths_shallow_first(checked_programs, entries):
    checked = checked_programs["tokeneer_noprecond_mutant"]
    opts = entries["tokeneer_noprecond_mutant"].options
    obligation = obligation_by_id(
        checked, opts, "ID_STATION.set_current_display.invariant_maintenance.0"
    )
    cx = {
        # deliberately listed deep-first; synthesis must still work
        "constants.display_message": frozenset({"blank"}),
        "constants": F.Ref("CONST"),
        "current_display": "blank",
        "v": "enrolled",
    }
    obj, args = synthesize_entry_state(checked, obligation, cx)
    assert obj.class_name == "ID_STATION"
    assert obj.fields["constants"].fields["display_message"] == frozenset({"blank"})
    assert args == ["enrolled"]


def test_void_reference_ends_the_path(checked_programs, entries):
    """A reference bound to Void has no attributes: the values the
    counterexample gives under it describe no state and are skipped."""
    checked = checked_programs["tokeneer_noprecond_mutant"]
    opts = entries["tokeneer_noprecond_mutant"].options
    obligation = obligation_by_id(
        checked, opts, "ID_STATION.set_current_display.invariant_maintenance.0"
    )
    cx = {
        "constants": None,
        "constants.display_message": frozenset({"blank"}),
        "current_display": "blank",
        "v": "enrolled",
    }
    obj, args = synthesize_entry_state(checked, obligation, cx)
    assert obj.fields["constants"] is None
    assert obj.fields["current_display"] == "blank"
    assert args == ["enrolled"]


_PATHS = """
class CELL
create make
feature
  a: INTEGER
feature
  make
    note status: creator
    do
    end
end

class BOX
create make
feature
  s: CELL
feature
  make
    note status: creator
    do
    end
end

class H
create make
feature
  r: BOX
  n: INTEGER
feature
  make
    note status: creator
    do
    end

  get
    require
      pos: r.s /= Void
    do
      n := 1
    end
end
"""


@pytest.fixture(scope="module")
def paths_program():
    checked = analyze(parse(_PATHS))
    obligation = next(o for o in generate_obligations(checked, VerifyOptions()) if o.feature_name == "get")
    return checked, obligation


def test_inner_void_reference_stays_void(paths_program):
    checked, obligation = paths_program
    cx = {"r": F.Ref("BOX"), "r.s": None, "r.s.a": 5}
    obj, _ = synthesize_entry_state(checked, obligation, cx)
    assert obj.fields["r"].class_name == "BOX"
    assert obj.fields["r"].fields["s"] is None


def test_unset_references_on_a_path_get_representatives(paths_program):
    checked, obligation = paths_program
    obj, _ = synthesize_entry_state(checked, obligation, {"r.s.a": 5})
    cell = obj.fields["r"].fields["s"]
    assert (cell.class_name, cell.fields) == ("CELL", {"a": 5})


@pytest.mark.parametrize(
    "cx", [{"n.x": 1}, {"r.s.a.b": 1}, {"r.t": 1}, {"q.s": None}],
    ids=["root-not-a-reference", "inner-not-a-reference", "unknown-attribute", "unknown-root"],
)
def test_paths_outside_the_heap_are_impossible(paths_program, cx):
    checked, obligation = paths_program
    with pytest.raises(ReplayImpossible):
        synthesize_entry_state(checked, obligation, cx)


def test_unknown_symbol_is_impossible(checked_programs, entries):
    checked = checked_programs["account_noguard_mutant"]
    opts = entries["account_noguard_mutant"].options
    obligation = obligation_by_id(
        checked, opts, "ACCOUNT.deposit.invariant_maintenance.0"
    )
    with pytest.raises(ReplayImpossible):
        synthesize_entry_state(
            checked, obligation, {"amount": -8, "balance": 0, "ghost": 1}
        )


def test_havoc_symbols_are_skipped(checked_programs, entries):
    checked = checked_programs["account_noguard_mutant"]
    opts = entries["account_noguard_mutant"].options
    obligation = obligation_by_id(
        checked, opts, "ACCOUNT.deposit.invariant_maintenance.0"
    )
    cx = {"amount": -8, "balance": 0, "balance@2": 99}
    assert replay_counterexample(checked, obligation, cx, opts)


def test_replay_with_wrong_environment_returns_false(checked_programs, entries):
    checked = checked_programs["account_noguard_mutant"]
    opts = entries["account_noguard_mutant"].options
    obligation = obligation_by_id(
        checked, opts, "ACCOUNT.deposit.invariant_maintenance.0"
    )
    # a harmless deposit does not violate anything
    assert (
        replay_counterexample(checked, obligation, {"amount": 5, "balance": 0}, opts)
        is False
    )


def test_overflow_replay_accepts_the_inner_node_the_monitor_reports(checked_programs, entries):
    checked = checked_programs["account_overflow_mutant"]
    opts = entries["account_overflow_mutant"].options  # width 8
    cx = {"amount": 100, "balance": 100}  # balance + amount is already 200
    interp = Interpreter(checked, opts)
    obj, args = synthesize_entry_state(
        checked, obligation_by_id(checked, opts, "ACCOUNT.deposit.overflow.2"), cx
    )
    with pytest.raises(ContractViolation) as exc:
        interp.call(obj, "deposit", args)
    assert (exc.value.kind, exc.value.label) == ("overflow", "balance + amount")
    for index, provenance in enumerate(
        ["balance + amount", "balance + amount + amount", "balance + amount + amount - amount"]
    ):
        obligation = obligation_by_id(checked, opts, f"ACCOUNT.deposit.overflow.{index}")
        assert obligation.provenance == provenance
        assert replay_counterexample(checked, obligation, cx, opts)
        assert not replay_counterexample(checked, obligation, {"amount": 1, "balance": 0}, opts)
