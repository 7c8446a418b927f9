"""Counterexample replay: Failed verdicts reproduce as runtime violations of
the same clause, Discharged verdicts are no-ops, and impossible object
states are reported rather than silently skipped."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from miniproof import analyze, ast, parse, runtime
from miniproof import formula as F
from miniproof.discharge import verify_program
from miniproof.errors import ContractViolation, ReplayImpossible, UnsupportedInContract
from miniproof.runtime import (
    Interpreter,
    RuntimeObject,
    blank_object,
    replay_counterexample,
    synthesize_entry_state,
)
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

  put (b: BOX)
    require
      pos: b.s /= Void
    do
      n := 2
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


@pytest.mark.parametrize(
    "cx", [{"r": None, "r.t": 1}, {"r.s": None, "r.s.a.b": 1}, {"r": None, "r.s.a.b": 1}],
    ids=["unknown-attribute", "inner-not-a-reference", "outer-void"],
)
def test_void_reference_before_a_bad_segment_ends_the_path(paths_program, cx):
    checked, obligation = paths_program
    obj, _ = synthesize_entry_state(checked, obligation, cx)
    assert obj.fields["r"] is None or obj.fields["r"].fields["s"] is None


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


# -- planned entry states ------------------------------------------------------


def _reference_entry_state(checked, obligation, counterexample):
    """The entry-state walk as it was before it was planned per key
    tuple: it sorts, splits and types the keys on every call. Kept as the
    reference the planned synthesize_entry_state is compared against."""
    info = checked.info(obligation.class_name)
    feat = info.routines[obligation.feature_name]
    param_types = {p.name: p.ty for p in feat.params}
    params = {name: F.type_default(ty) for name, ty in param_types.items()}
    obj = blank_object(info)
    representatives = {}

    def representative(class_name):
        found = representatives.get(class_name)
        if found is None:
            found = representatives[class_name] = blank_object(checked.info(class_name))
        return found

    for name, value in sorted(counterexample.items(), key=lambda kv: (kv[0].count("."), kv[0])):
        if "@" in name:
            continue
        segments = name.split(".")
        fields, types = (params, param_types) if segments[0] in params else (obj.fields, info.attributes)
        prefix = ""
        for depth, seg in enumerate(segments, 1):
            ty = types.get(seg)
            if ty is None:
                raise ReplayImpossible(f"counterexample symbol {name} is not in scope")
            if depth == len(segments):
                fields[seg] = representative(value.class_name) if isinstance(value, F.Ref) else value
                break
            if ty.kind != ast.REF:
                raise ReplayImpossible(f"path {name} crosses non-reference {seg}")
            prefix = f"{prefix}.{seg}" if prefix else seg
            if counterexample.get(prefix, False) is None:
                break
            current = fields.get(seg)
            if current is None:
                current = fields[seg] = representative(ty.class_name)
            fields, types = current.fields, checked.info(current.class_name).attributes
    return obj, list(params.values())


def _shape(obj, args):
    """The state as nested lists: each object its class and fields on its
    first visit and its visit number after that, so two states have one
    shape only when they share their objects alike."""
    seen = {}

    def value(v):
        if not isinstance(v, RuntimeObject):
            return ("value", type(v).__name__, v)
        if id(v) in seen:
            return ("seen", seen[id(v)])
        seen[id(v)] = len(seen)
        return ("object", v.class_name, [(name, value(x)) for name, x in v.fields.items()])

    return [value(obj), [value(a) for a in args]]


def _objects(obj, args) -> set:
    """id() of every object reachable from the state."""
    found, stack = {}, [obj, *args]
    while stack:
        v = stack.pop()
        if isinstance(v, RuntimeObject) and id(v) not in found:
            found[id(v)] = v
            stack.extend(v.fields.values())
    return set(found)


def _outcome(synthesize, checked, obligation, counterexample):
    try:
        return synthesize(checked, obligation, counterexample)
    except (ReplayImpossible, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _declared_type(checked, obligation, key):
    """The type of the path key names, or None when it names none."""
    info = checked.info(obligation.class_name)
    types = {p.name: p.ty for p in info.routines[obligation.feature_name].params}
    if key.split(".")[0] not in types:
        types = info.attributes
    ty = None
    for seg in key.split("."):
        if ty is not None:
            if ty.kind != ast.REF:
                return None
            types = checked.info(ty.class_name).attributes
        ty = types.get(seg)
        if ty is None:
            return None
    return ty


def _key_pool(keys) -> list:
    """Keys and their prefixes, each also as a havoc name and with one
    segment more (out of scope under a reference, across a non-reference
    under anything else), and names out of scope."""
    pool = {"ghost", "ghost.a"}
    for key in keys:
        segments = key.split(".")
        for i in range(1, len(segments) + 1):
            prefix = ".".join(segments[:i])
            pool.update((prefix, f"{prefix}@1", f"{prefix}.zz"))
    return sorted(pool)


@pytest.fixture(scope="module")
def entry_state_cases(paths_program, checked_programs, entries, pinned_reports):
    """Obligation id -> (checked, obligation, key pool), over the two
    features of the program above and every Failed row of every manifest."""
    checked, _ = paths_program
    cases = {}
    for obligation in generate_obligations(checked, VerifyOptions()):  # one per feature
        cases[obligation.id] = (checked, obligation, _key_pool(["r.s.a", "b.s.a", "n"]))
    for name in entries:
        for row in failed_rows(pinned_reports(name)):
            program = checked_programs[name]
            obligation = obligation_by_id(program, entries[name].options, row.id)
            cases[row.id] = (program, obligation, _key_pool(row.verdict.counterexample))
    return cases


def test_every_failed_row_builds_the_reference_entry_state(checked_programs, entries, pinned_reports):
    for name in entries:
        checked = checked_programs[name]
        for row in failed_rows(pinned_reports(name)):
            obligation = obligation_by_id(checked, entries[name].options, row.id)
            cx = row.verdict.counterexample
            planned = synthesize_entry_state(checked, obligation, cx)
            assert _shape(*planned) == _shape(*_reference_entry_state(checked, obligation, cx)), row.id


_LEAF_VALUES = [None, 0, 1, -7, 300, True, "blank", frozenset({"a"})]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_planned_entry_state_matches_the_reference_walk(entry_state_cases, data):
    """Any subset of keys in any order, with Void, Refs and other values:
    the planned walk builds the reference's fields, sharing and
    arguments, or raises its ReplayImpossible message. A second replay
    with the same keys reuses the plan and shares no object with the
    first."""
    checked, obligation, pool = entry_state_cases[data.draw(st.sampled_from(sorted(entry_state_cases)))]
    keys = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=8))
    any_ref = F.Ref(sorted(checked.classes)[0])
    cx = {}
    for key in keys:
        ty = _declared_type(checked, obligation, key)
        if ty is not None and ty.kind == ast.REF:
            choices = [None, F.Ref(ty.class_name)]
        else:
            choices = [*_LEAF_VALUES, any_ref]
        cx[key] = data.draw(st.sampled_from(choices))
    expected = _outcome(_reference_entry_state, checked, obligation, cx)
    first = _outcome(synthesize_entry_state, checked, obligation, cx)
    second = _outcome(synthesize_entry_state, checked, obligation, cx)
    if isinstance(expected[0], str):
        assert first == second == expected
        return
    assert _shape(*first) == _shape(*second) == _shape(*expected)
    assert not _objects(*first) & _objects(*second)


def _count_entry_plans(monkeypatch) -> list:
    """Record (class, feature, keys) of every entry plan built."""
    built = []
    real = runtime._plan_entry_state

    def counting(checked, info, feat, keys):
        built.append((info.name, feat.name, keys))
        return real(checked, info, feat, keys)

    monkeypatch.setattr(runtime, "_plan_entry_state", counting)
    return built


def test_entry_plan_is_built_once_per_feature_and_key_tuple(monkeypatch):
    built = _count_entry_plans(monkeypatch)
    checked = analyze(parse(_PATHS))
    obligation = next(o for o in generate_obligations(checked, VerifyOptions()) if o.feature_name == "get")
    states = [
        synthesize_entry_state(checked, obligation, {"r.s.a": a, "r": F.Ref("BOX"), "n": a}) for a in (1, 2, 3)
    ]
    assert replay_counterexample(checked, obligation, {"r.s.a": 4, "r": F.Ref("BOX"), "n": 4}) is False
    plan = checked.monitor_plans[("H", "get")]
    assert list(plan.replays) == [("r.s.a", "r", "n")]
    assert built == [("H", "get", ("r.s.a", "r", "n"))]
    assert [s[0].fields["n"] for s in states] == [1, 2, 3]

    # another order of the same keys gets its own plan and the same state
    swapped = synthesize_entry_state(checked, obligation, {"n": 1, "r": F.Ref("BOX"), "r.s.a": 1})
    assert _shape(*swapped) == _shape(*states[0])
    assert list(plan.replays) == [("r.s.a", "r", "n"), ("n", "r", "r.s.a")]

    # a second program with the same names plans its own replays
    other = analyze(parse(_PATHS))
    synthesize_entry_state(other, obligation, {"r.s.a": 1, "r": F.Ref("BOX"), "n": 1})
    assert other.monitor_plans[("H", "get")] is not plan
    assert other.monitor_plans[("H", "get")].replays[("r.s.a", "r", "n")] is not plan.replays[("r.s.a", "r", "n")]
    assert len(built) == 3


def _cell_program(post: str) -> str:
    """M reads the field a of its reference r, which starts Void, in the
    postcondition of f."""
    return (
        "class CELL\ncreate make\nfeature\n  a : INTEGER\n  make\n    do\n    end\nend\n"
        "class M\ncreate make\nfeature\n  r : CELL\n  x : INTEGER\n  make\n    do\n    end\n"
        f"  f\n    do\n      x := x + 1\n    ensure\n      same: {post}\n    end\nend\n"
    )


def _void_read_replays(post: str) -> bool:
    """Whether M.f.void_dereference.0 fails with r Void and replays."""
    checked = analyze(parse(_cell_program(post)))
    report = verify_program(checked, VerifyOptions())
    (row,) = [r for r in report.rows if r.id == "M.f.void_dereference.0"]
    assert row.provenance == "r.a"
    assert (row.verdict.status, row.verdict.counterexample) == ("Failed", {"r": None})
    obligation = obligation_by_id(checked, VerifyOptions(), row.id)
    return replay_counterexample(checked, obligation, row.verdict.counterexample)


def test_void_read_under_old_replays_as_its_entry_dereference():
    """vcgen asserts every read under `old` attached at entry, whatever
    guards it, and the monitor snapshots each path under `old` at entry,
    so it reads r.a though `x > 0` is false there."""
    assert _void_read_replays("old (x > 0 and r.a = 1) implies x > 1")


@pytest.mark.xfail(
    strict=True,
    reason="vcgen asserts each qualified read of an ensure clause attached at exit, "
    "whatever guards it, while the monitor short-circuits past r.a",
)
def test_guarded_void_read_at_exit_replays_as_its_dereference():
    assert _void_read_replays("x > 5 implies r.a = 1")


def test_a_clause_with_a_creation_refuses_to_evaluate_whatever_guards_it():
    """vcgen marks such a clause Unsupported as a whole, so the monitor
    refuses it even where its guard is false and the creation would not
    be evaluated."""
    source = (
        "class HELPER\ncreate make\nfeature\n  make\n    do\n    end\nend\n"
        "class C\ncreate make\nfeature\n  x : INTEGER\n  helper : HELPER\n  make\n    do\n    end\n"
        "  bump\n    do\n      x := x + 1\n    ensure\n"
        "      fresh: x > 5 implies helper = create HELPER\n    end\nend\n"
    )
    interp = Interpreter(analyze(parse(source)))
    obj = interp.create("C")
    with pytest.raises(UnsupportedInContract, match="^creation expression create HELPER$"):
        interp.call(obj, "bump", [])
    assert obj.fields["x"] == 1
    (clause,) = interp.checked.info("C").routines["bump"].ensure
    with pytest.raises(UnsupportedInContract, match="^creation expression create HELPER$"):
        runtime.eval_expr(clause.expr, {"x": 0, "helper": None})
