"""Monitored interpreter and scenario layer: contract checks in order,
old-state snapshots, frame and overflow monitoring, step budget, and
scenario parsing/execution/rendering."""

import hashlib
import json
import sys

import pytest

from miniproof import analyze, ast, parse
from miniproof.corpus import load_builtin
from miniproof.parser import MAX_NESTING
from miniproof.pretty import expr_text
from miniproof.errors import (
    ContractViolation,
    ParseError,
    StepBudgetExceeded,
    VoidCall,
    VoidDereference,
)
from miniproof import runtime
from miniproof.runtime import (
    MAX_CALL_DEPTH,
    Interpreter,
    eval_expr,
    monitor_plan,
    parse_scenario,
    replay_counterexample,
    run_scenario,
    trace_json,
    trace_payload,
    trace_text,
)
from miniproof.vcgen import VerifyOptions, generate_obligations


def checked_of(source: str):
    return analyze(parse(source))


def expr_of(text: str, extra_attrs: str = ""):
    source = (
        "class HOST\n"
        "create make\n"
        "feature\n"
        "  balance : INTEGER\n"
        "  amount : INTEGER\n"
        f"{extra_attrs}"
        "  make\n"
        "    do\n"
        "      balance := 0\n"
        "    ensure\n"
        f"      c: {text}\n"
        "    end\n"
        "end\n"
    )
    return parse(source).classes[0].features[0].ensure[0].expr


# -- expression evaluation ---------------------------------------------------------


def test_eval_old_reads_entry_snapshot():
    expr = expr_of("balance = old balance + amount")
    assert eval_expr(expr, {"balance": 150, "amount": 50}, {"balance": 100}) is True
    assert eval_expr(expr, {"balance": 149, "amount": 50}, {"balance": 100}) is False


def test_eval_has_membership(entries):
    checked = checked_of(entries["tokeneer_enrolment"].source)
    station = checked.info("ID_STATION")
    guard = station.decl.invariant[0].expr  # constants.display_message.has(current_display)
    const_fields = {"display_message": frozenset({"blank", "welcome"})}

    class FakeRef:
        fields = const_fields

    env = {"constants": FakeRef(), "current_display": "blank"}
    assert eval_expr(guard, env) is True
    env["current_display"] = "enrolled"
    assert eval_expr(guard, env) is False
    env["current_display"] = None  # Void is never a member
    assert eval_expr(guard, env) is False


@pytest.mark.parametrize(
    "text, truth",
    [
        ("p and q", lambda p, q: p and q),
        ("p or q", lambda p, q: p or q),
        ("p implies q", lambda p, q: not p or q),
        ("not p", lambda p, q: not p),
    ],
    ids=["and", "or", "implies", "not"],
)
def test_eval_connectives_truth_table(text, truth):
    expr = expr_of(text, extra_attrs="  p : BOOLEAN\n  q : BOOLEAN\n")
    for p in (False, True):
        for q in (False, True):
            assert eval_expr(expr, {"p": p, "q": q}) is truth(p, q), (p, q)


def test_eval_void_qualified_read_raises():
    expr = expr_of("r.x = 0", extra_attrs="  r : HOST\n  x : INTEGER\n")
    with pytest.raises(VoidDereference) as exc:
        eval_expr(expr, {"r": None})
    assert exc.value.path == "r.x"


# -- monitored execution -----------------------------------------------------------


ACCOUNT_LIKE = (
    "class ACCOUNT\n"
    "create make\n"
    "feature\n"
    "  balance : INTEGER\n"
    "  make\n"
    "    do\n"
    "      balance := 0\n"
    "    ensure\n"
    "      balance_set: balance = 0\n"
    "    end\n"
    "  deposit (amount : INTEGER)\n"
    "    require\n"
    "      amount_not_negative: amount >= 0\n"
    "    do\n"
    "      balance := balance + amount\n"
    "    ensure\n"
    "      balance_increased: balance = old balance + amount\n"
    "    end\n"
    "  withdraw (amount : INTEGER)\n"
    "    require\n"
    "      enough_balance: amount <= balance\n"
    "    do\n"
    "      balance := balance - amount\n"
    "    ensure\n"
    "      balance_decreased: balance = old balance - amount\n"
    "    end\n"
    "invariant\n"
    "  non_negative_balance: balance >= 0\n"
    "end\n"
)


def test_deposit_withdraw_sequence(entries):
    checked = checked_of(entries["account"].source)
    interp = Interpreter(checked)
    acc = interp.create("ACCOUNT")
    assert acc.fields["balance"] == 0
    interp.call(acc, "deposit", [50])
    interp.call(acc, "withdraw", [20])
    assert acc.fields["balance"] == 30


def test_precondition_violation_names_the_clause(entries):
    checked = checked_of(entries["account"].source)
    interp = Interpreter(checked)
    acc = interp.create("ACCOUNT")
    with pytest.raises(ContractViolation) as exc:
        interp.call(acc, "withdraw", [20])
    assert (exc.value.kind, exc.value.label) == ("precondition", "enough_balance")
    assert acc.fields["balance"] == 0  # body never ran


def test_require_clauses_checked_in_declaration_order():
    source = ACCOUNT_LIKE.replace(
        "      amount_not_negative: amount >= 0\n",
        "      first: amount >= 0\n      second: amount >= 10\n",
    )
    interp = Interpreter(checked_of(source))
    acc = interp.create("ACCOUNT")
    with pytest.raises(ContractViolation) as exc:
        interp.call(acc, "deposit", [-5])  # violates both; first one is named
    assert exc.value.label == "first"


def test_postcondition_violation():
    source = ACCOUNT_LIKE.replace(
        "      balance := balance + amount\n",
        "      balance := balance + amount + 1\n",
    )
    interp = Interpreter(checked_of(source))
    acc = interp.create("ACCOUNT")
    with pytest.raises(ContractViolation) as exc:
        interp.call(acc, "deposit", [5])
    assert (exc.value.kind, exc.value.label) == ("postcondition", "balance_increased")


def test_invariant_checked_after_creation():
    source = ACCOUNT_LIKE.replace("balance := 0", "balance := 0 - 1").replace(
        "balance_set: balance = 0", "balance_set: balance = 0 - 1"
    )
    interp = Interpreter(checked_of(source))
    with pytest.raises(ContractViolation) as exc:
        interp.create("ACCOUNT")
    assert (exc.value.kind, exc.value.label) == ("invariant", "non_negative_balance")


def test_old_snapshot_is_isolated_from_mutation():
    # the body grows balance twice; old balance must still be the entry value
    source = ACCOUNT_LIKE.replace(
        "      balance := balance + amount\n",
        "      balance := balance + amount\n      balance := balance + 0\n",
    )
    interp = Interpreter(checked_of(source))
    acc = interp.create("ACCOUNT")
    interp.call(acc, "deposit", [7])
    assert acc.fields["balance"] == 7


def test_frame_violation_names_the_query():
    source = (
        "class C\n"
        "note model: x, y\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  y : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 0\n"
        "      y := 0\n"
        "    end\n"
        "  sneaky\n"
        "    modify x\n"
        "    do\n"
        "      x := 1\n"
        "      y := 1\n"
        "    end\n"
        "end\n"
    )
    interp = Interpreter(checked_of(source))
    obj = interp.create("C")
    with pytest.raises(ContractViolation) as exc:
        interp.call(obj, "sneaky", [])
    assert (exc.value.kind, exc.value.label) == ("frame", "y")


def test_absent_modify_allows_everything():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  y : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 0\n"
        "      y := 0\n"
        "    end\n"
        "  free\n"
        "    do\n"
        "      x := 1\n"
        "      y := 1\n"
        "    end\n"
        "end\n"
    )
    interp = Interpreter(checked_of(source))
    obj = interp.create("C")
    interp.call(obj, "free", [])
    assert (obj.fields["x"], obj.fields["y"]) == (1, 1)


def test_check_statement_violation():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 1\n"
        "      check never: x = 2 end\n"
        "    end\n"
        "end\n"
    )
    with pytest.raises(ContractViolation) as exc:
        Interpreter(checked_of(source)).create("C")
    assert (exc.value.kind, exc.value.label) == ("check", "never")


def test_call_on_void_receiver():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  r : C\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  go\n"
        "    do\n"
        "      r.go ()\n"
        "    end\n"
        "end\n"
    )
    interp = Interpreter(checked_of(source))
    obj = interp.create("C")
    with pytest.raises(VoidCall) as exc:
        interp.call(obj, "go", [])
    assert exc.value.path == "r.go"


def test_step_budget_bounds_runaway_recursion():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  r : C\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  spin\n"
        "    do\n"
        "      create r\n"
        "      r.spin ()\n"
        "    end\n"
        "end\n"
    )
    interp = Interpreter(checked_of(source), step_budget=100)
    obj = interp.create("C")
    with pytest.raises(StepBudgetExceeded):
        interp.call(obj, "spin", [])


STEP_COUNTED = (
    "class CELL\ncreate make\nfeature\n  n : INTEGER\n  make\n    do\n    end\n"
    "  inc\n    do\n      n := n + 1\n      n := n + 1\n    end\n"
    "  idle\n    do\n    end\nend\n"
    "class C\ncreate make\nfeature\n  c : CELL\n  x : INTEGER\n  make\n    do\n      create c\n    end\n"
    "  go (p : INTEGER)\n    do\n"
    "      if p > 0 then\n        x := 1\n        c.inc ()\n      else\n        x := 2\n        x := 3\n        x := 4\n      end\n"
    "      if p > 5 then\n        x := 5\n      else\n      end\n"
    "      c.idle ()\n"
    "    end\nend\n"
)


@pytest.mark.parametrize("p, steps, x, n", [(0, 6, 4, 0), (1, 7, 1, 2), (6, 8, 5, 2)])
def test_step_budget_counts_each_statement_run(p, steps, x, n):
    """Each statement run takes one step: an `if` one, then only the
    branch it takes, and a call one, then its callee's body. A budget of
    exactly that many runs the call; one less stops it. An empty body and
    an empty `else` take none."""
    checked = checked_of(STEP_COUNTED)
    interp = Interpreter(checked, step_budget=steps)
    obj = interp.create("C")
    interp.call(obj, "go", [p])
    assert (obj.fields["x"], obj.fields["c"].fields["n"]) == (x, n)
    short = Interpreter(checked, step_budget=steps - 1)
    obj = short.create("C")
    with pytest.raises(StepBudgetExceeded, match=f"^step budget of {steps - 1} statements exceeded$"):
        short.call(obj, "go", [p])


def test_call_depth_is_limited_at_the_default_budget():
    source = (
        "class NODE\n"
        "create make\n"
        "feature\n"
        "  next : NODE\n"
        "  make\n"
        "    do\n"
        "      create next\n"
        "    end\n"
        "end\n"
    )
    interp = Interpreter(checked_of(source))
    with pytest.raises(StepBudgetExceeded, match=f"call depth limit of {MAX_CALL_DEPTH}"):
        interp.create("NODE")
    assert interp._depth == 0


REACH = (
    "class HOLDER\n"
    "create make\n"
    "feature\n"
    "  got : INTEGER\n"
    "  make\n"
    "    do\n"
    "    end\n"
    "  take (v : INTEGER)\n"
    "    do\n"
    "      got := v\n"
    "    end\n"
    "end\n"
    "class C\n"
    "create make\n"
    "feature\n"
    "  a : INTEGER\n"
    "  b : BOOLEAN\n"
    "  h : HOLDER\n"
    "  make\n"
    "    do\n"
    "      create h\n"
    "    end\n"
    "  set (v : INTEGER)\n"
    "    do\n"
    "      a := v\n"
    "    end\n"
    "  assign\n"
    "    do\n"
    "      a := a * 2 + 1\n"
    "    end\n"
    "  assign_through\n"
    "    do\n"
    "      h.got := 1 + a * 2\n"
    "    end\n"
    "  branch\n"
    "    do\n"
    "      if not (a * 2 + 1 > 0) then\n"
    "        b := true\n"
    "      end\n"
    "    end\n"
    "  pass\n"
    "    do\n"
    "      h.take (a + a)\n"
    "    end\n"
    "  contracts\n"
    "    require\n"
    "      pre: a * 2 > 0\n"
    "    do\n"
    "      check inside: a * 2 > 0 end\n"
    "    ensure\n"
    "      post: a * 2 = a + a\n"
    "    end\n"
    "invariant\n"
    "  inv: a * a >= 0\n"
    "end\n"
)


@pytest.mark.parametrize(
    "feature, label",
    [
        ("assign", "a * 2"),
        ("assign_through", "a * 2"),
        ("branch", "a * 2"),
        ("pass", "a + a"),
    ],
)
def test_overflow_monitor_checks_body_arithmetic(feature, label):
    interp = Interpreter(checked_of(REACH), VerifyOptions(check_overflow=True, overflow_width=8))
    obj = interp.create("C")
    interp.call(obj, "set", [100])
    with pytest.raises(ContractViolation) as exc:
        interp.call(obj, feature, [])
    # the innermost node that leaves [-128, 127], in the caller's frame
    assert (exc.value.kind, exc.value.label) == ("overflow", label)
    assert (exc.value.class_name, exc.value.feature) == ("C", feature)
    assert exc.value.environment["a"] == 100


def test_overflow_monitor_leaves_contract_arithmetic_unbounded():
    interp = Interpreter(checked_of(REACH), VerifyOptions(check_overflow=True, overflow_width=8))
    obj = interp.create("C")
    # require, check, ensure and the invariant all compute 200 or 10000
    interp.call(obj, "set", [100])
    interp.call(obj, "contracts", [])


def test_overflow_monitoring_is_opt_in():
    source = ACCOUNT_LIKE
    checked = checked_of(source)
    # width 8: 127 + 1 overflows when monitored
    monitored = Interpreter(checked, VerifyOptions(check_overflow=True, overflow_width=8))
    acc = monitored.create("ACCOUNT")
    monitored.call(acc, "deposit", [127])
    with pytest.raises(ContractViolation) as exc:
        monitored.call(acc, "deposit", [1])
    assert exc.value.kind == "overflow"
    assert exc.value.label == "balance + amount"

    unmonitored = Interpreter(checked)
    acc2 = unmonitored.create("ACCOUNT")
    unmonitored.call(acc2, "deposit", [127])
    unmonitored.call(acc2, "deposit", [1])
    assert acc2.fields["balance"] == 128


# -- scenarios ----------------------------------------------------------------------


def test_scenario_parse_shapes():
    scenario = parse_scenario(
        "# a comment\n"
        "create acc : ACCOUNT\n"
        "call acc.deposit(50)\n"
        'call acc.greet("hi", true, Void)\n'
        "expect_violation enough_balance\n"
    )
    kinds = [c.kind for c in scenario.commands]
    assert kinds == ["create", "call", "call"]
    assert scenario.commands[0].var == "acc"
    assert scenario.commands[2].args == ("hi", True, None)
    assert scenario.commands[2].expect == ("violation", "enough_balance")


def test_scenario_rejects_leading_expectation():
    with pytest.raises(ParseError):
        parse_scenario("expect_ok\ncreate a : ACCOUNT\n")


def test_scenario_rejects_double_expectation():
    with pytest.raises(ParseError):
        parse_scenario(
            "create a : ACCOUNT\nexpect_ok\nexpect_ok\n"
        )


def test_scenario_unknown_variable_raises():
    checked = checked_of(ACCOUNT_LIKE)
    scenario = parse_scenario("call ghost.deposit(1)\n")
    with pytest.raises(ParseError):
        run_scenario(checked, scenario)


TYPED = (
    "class T\n"
    "create make\n"
    "feature\n"
    "  make\n"
    "    do\n"
    "    end\n"
    "  take (i : INTEGER; b : BOOLEAN; s : STRING; r : T)\n"
    "    do\n"
    "    end\n"
    "end\n"
)


@pytest.mark.parametrize(
    "args, fits",
    [
        ("1, true, \"x\", Void", True),
        ("-3, false, Void, Void", True),
        ("true, true, \"x\", Void", False),  # a BOOLEAN is not an INTEGER
        ("1, 0, \"x\", Void", False),
        ("1, true, 2, Void", False),
        ("1, true, \"x\", \"T\"", False),  # the only reference literal is Void
        ("Void, true, \"x\", Void", False),
    ],
)
def test_scenario_arguments_must_fit_the_parameters(args, fits):
    scenario = parse_scenario(f"create t : T\ncall t.take({args})\n")
    if fits:
        assert run_scenario(checked_of(TYPED), scenario).ok
    else:
        with pytest.raises(ParseError, match="^2:1: argument"):
            run_scenario(checked_of(TYPED), scenario)


STRING_BOX = (
    "class BOX\n"
    "create make\n"
    "feature\n"
    "  item : STRING\n"
    "  make\n"
    "    do\n"
    "    end\n"
    "  put (s : STRING)\n"
    "    require\n"
    "      known: s = \"a,b\" or s = \"#1\"\n"
    "    do\n"
    "      item := s\n"
    "    end\n"
    "end\n"
)


@pytest.mark.parametrize(
    "line, stored",
    [
        ('call b.put("a,b")', "a,b"),
        ('call b.put("#1")', "#1"),
        ('call b.put("a,b")  # a comment, with "a quote', "a,b"),
    ],
    ids=["comma", "hash", "trailing_comment"],
)
def test_scenario_strings_keep_commas_and_hashes(line, stored):
    """A `,` or `#` inside a string literal neither splits the arguments
    nor starts a comment."""
    scenario = parse_scenario(f"create b : BOX\n{line}\nexpect_ok\n")
    assert scenario.commands[1].args == (stored,)
    trace = run_scenario(checked_of(STRING_BOX), scenario)
    assert trace.ok
    assert trace.final_state("b")["item"] == stored


def test_scenario_names_are_interned():
    first, second = parse_scenario("create acc : ACCOUNT\ncall acc.deposit(1)\n").commands
    assert first.var is second.var
    assert first.target is sys.intern("ACCOUNT")


def test_scenario_arguments_are_tuples_and_labels_interned():
    commands = parse_scenario(
        "create a : A\n"
        "call a.f(1, \"x\")\nexpect_violation low\n"
        "call a.f()\nexpect_violation low\n"
        "call a.f(true, \"x\")\n"
    ).commands
    assert commands[1].args == (1, "x") and commands[2].args == ()
    assert commands[1].expect == ("violation", "low") and commands[1].expect[1] is commands[2].expect[1]
    assert commands[3].args == (True, "x") and type(commands[3].args[0]) is bool


def test_equal_commands_share_one_object_and_keep_their_lines():
    scenario = parse_scenario(
        "create a : ACCOUNT\n"
        "call a.withdraw(5)\nexpect_violation enough_balance\n"
        "call a.withdraw(5)\nexpect_violation enough_balance\n"
        "\n"
        "call a.deposit(5)\n"
        "call a.deposit(5)\nexpect_ok\n"
        "call b.deposit(5)\n"
    )
    commands = scenario.commands
    assert commands[1] is commands[2]
    assert commands[3] is not commands[4] and commands[3].args is commands[4].args is commands[1].args
    assert list(scenario.lines) == [1, 2, 4, 7, 8, 10]
    with pytest.raises(ParseError) as exc:
        run_scenario(checked_of(ACCOUNT_LIKE), scenario)
    assert exc.value.line == 10


def test_equal_argument_texts_share_one_tuple_of_their_own_type():
    commands = parse_scenario("create a : A\ncall a.f(1)\ncall a.f(true)\n").commands
    # (1,) == (True,), so sharing by value would turn one into the other
    assert type(commands[1].args[0]) is int and type(commands[2].args[0]) is bool


def test_account_scenarios_from_corpus(entries):
    checked = checked_of(entries["account"].source)
    ok = run_scenario(
        checked, parse_scenario(entries["account"].scenarios["account_deposit_withdraw"])
    )
    assert ok.ok
    assert ok.final_state("acc")["balance"] == 30

    overdraw = run_scenario(
        checked, parse_scenario(entries["account"].scenarios["account_overdraw"])
    )
    assert overdraw.ok  # the violation was expected, so the trace matches
    assert overdraw.steps[-1].outcome == "violation precondition enough_balance"


def test_station_creation_scenario(entries):
    checked = checked_of(entries["tokeneer_enrolment"].source)
    trace = run_scenario(
        checked,
        parse_scenario(entries["tokeneer_enrolment"].scenarios["tokeneer_creation_only"]),
    )
    assert trace.ok
    station = trace.final_state("station")
    assert station["enclave_status"] == "not_enrolled"
    assert station["floppy_presence"] == "absent"
    assert station["token_removal_timeout"] == 0


def test_trace_stops_at_first_mismatch(entries):
    checked = checked_of(entries["account"].source)
    scenario = parse_scenario(
        "create acc : ACCOUNT\n"
        "call acc.withdraw(5)\n"  # violates enough_balance, unexpected
        "call acc.deposit(1)\n"
    )
    trace = run_scenario(checked, scenario)
    assert not trace.ok
    assert len(trace.steps) == 2  # the deposit never ran
    assert trace.steps[-1].matched is False


def test_trace_renderings(entries):
    checked = checked_of(entries["account"].source)
    trace = run_scenario(
        checked, parse_scenario(entries["account"].scenarios["account_deposit_withdraw"])
    )
    text = trace_text(trace)
    assert "create acc : ACCOUNT" in text
    assert text.strip().endswith("scenario ok")

    payload = json.loads(trace_json(trace))
    assert set(payload) == {"steps", "objects", "ok"}
    assert payload["ok"] is True
    assert payload["objects"]["acc"]["balance"] == 30


def _dumped(trace) -> str:
    """The reference encoding that trace_json must write byte for byte."""
    return json.dumps(trace_payload(trace), indent=2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trace_json_writes_the_indented_dump_of_monitor_replay_scenarios(seed, benchmark_workloads):
    workload = benchmark_workloads.MonitorReplay(seed)
    checked, options = {}, {}
    for scenario in workload.scenarios:
        name = scenario.program
        if name not in checked:
            entry = load_builtin(name)
            checked[name], options[name] = checked_of(entry.source), entry.options
        trace = run_scenario(checked[name], parse_scenario(scenario.text), options[name])
        assert trace_json(trace) == _dumped(trace)


def test_trace_json_rejects_a_value_outside_the_trace_shape():
    checked = checked_of(ACCOUNT_LIKE)
    trace = run_scenario(checked, parse_scenario("create acc : ACCOUNT\ncall acc.deposit(5)\n"))
    for value in (True, None, frozenset(), frozenset({"b", "a"})):
        trace.objects["acc"].fields["balance"] = value
        assert trace_json(trace) == _dumped(trace), value
    for odd in (1.5, [1, "a"], {"ref": "ACCOUNT"}, object()):
        trace.objects["acc"].fields["balance"] = odd
        with pytest.raises(TypeError):
            trace_json(trace)


# -- monitor plans -------------------------------------------------------------------

# SHA-256 of [[scenario, trace_text, trace_json], ...] over an entry's
# built-in scenarios, at its manifest options and with width-8 overflow
# monitoring, taken from the monitor that rendered every label on every
# call: cached plans and compiled code must not move a byte (every entry
# with scenarios is here, so each trace_json is also checked against
# the indented dump)
_ACCOUNT_TRACES = "d862f3945d96082773fb88e743fc7233783ce1dc1024e20add21115c340b3d2a"
_TOKENEER_TRACES = "93d5c4f943046b4b20948c4010650f7a6576cdaa9be610f48912c522f3c1dfb9"
TRACE_DIGESTS = {
    "account": _ACCOUNT_TRACES,
    "account_noguard_mutant": _ACCOUNT_TRACES,
    "account_overflow_mutant": _ACCOUNT_TRACES,
    "tokeneer_enrolment": _TOKENEER_TRACES,
    "tokeneer_noprecond_mutant": _TOKENEER_TRACES,
    "tokeneer_frame_mutant": "2c5e4217e0423b77c621b0939c15966f4f710e6f1d0c1221d4264a241c231272",
}


@pytest.mark.parametrize("width8", [False, True], ids=["manifest", "width8"])
@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_builtin_scenario_traces_are_pinned(name, width8, entries, checked_programs):
    entry = entries[name]
    opts = entry.options
    if width8:
        opts = opts.replace(check_overflow=True, overflow_width=8)
    parts = []
    for scenario, text in entry.scenarios.items():
        trace = run_scenario(checked_programs[name], parse_scenario(text), opts)
        assert trace_json(trace) == _dumped(trace), scenario
        parts.append([scenario, trace_text(trace), trace_json(trace)])
    digest = hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()
    assert digest == TRACE_DIGESTS[name]


def test_overflow_scenario_trace_is_pinned(entries, checked_programs):
    # overflow labels, old snapshots and violation environments on one run
    scenario = parse_scenario(
        "create acc : ACCOUNT\n"
        "call acc.deposit(50)\n"
        "call acc.deposit(40)\n"
        "expect_violation balance + amount + amount\n"
        "call acc.withdraw(20)\n"
        "call acc.deposit(120)\n"
        "expect_violation balance + amount\n"
        "call acc.withdraw(200)\n"
        "expect_violation enough_balance\n"
    )
    name = "account_overflow_mutant"
    trace = run_scenario(checked_programs[name], scenario, entries[name].options)
    text = json.dumps([trace_text(trace), trace_json(trace)])
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "fd7aed34fe754cf5e06bf8d9fa4721c2bae65414132f4c99890e10f7bdd30d2c"
    )
    environments = [list(s.violation.environment.items()) for s in trace.steps if s.violation]
    assert environments == [
        [("balance", 50), ("amount", 40)],
        [("balance", 30), ("amount", 120)],
        [("balance", 30), ("amount", 200)],
    ]


def test_recorded_violations_keep_no_frames(entries, checked_programs):
    """A step keeps its violation but not the traceback or the overflow
    it was raised from, whose frames would stay alive with the trace."""
    scenario = parse_scenario(
        "create acc : ACCOUNT\n"
        "call acc.deposit(50)\n"
        "call acc.deposit(40)\n"
        "expect_violation balance + amount + amount\n"
        "call acc.withdraw(200)\n"
        "expect_violation enough_balance\n"
    )
    name = "account_overflow_mutant"
    trace = run_scenario(checked_programs[name], scenario, entries[name].options)
    violations = [s.violation for s in trace.steps if s.violation]
    assert [(v.kind, v.label) for v in violations] == [
        ("overflow", "balance + amount + amount"),
        ("precondition", "enough_balance"),
    ]
    assert all(v.__traceback__ is None and v.__context__ is None for v in violations)


def _first_match_labels(feat, provenance):
    """Reference search: the first arithmetic body node whose text is the
    provenance, statement by statement, expression by expression, in
    postorder; its labels and those of the nodes nested inside it."""
    for s in ast.walk_statements(feat.body):
        for e in ast.statement_exprs(s):
            for node in ast.arith_postorder(e):
                if expr_text(node) == provenance:
                    return frozenset(expr_text(n) for n in ast.arith_postorder(node))
    return frozenset((provenance,))


REPEATS = (
    "class D\n"
    "create make\n"
    "feature\n"
    "  x : INTEGER\n"
    "  make\n"
    "    do\n"
    "    end\n"
    "  twice (a : INTEGER)\n"
    "    do\n"
    "      x := a + 1\n"
    "      if a + 1 > 0 then\n"
    "        x := (a + 1) * (a + 1)\n"
    "      end\n"
    "      x := (a + 1) * (a + 1) - x\n"
    "    end\n"
    "end\n"
)


@pytest.mark.parametrize(
    "source",
    [
        REPEATS,
        REACH,
        load_builtin("account_overflow_mutant").source,
        load_builtin("tokeneer_enrolment").source,
    ],
    ids=["repeats", "reach", "account_overflow_mutant", "tokeneer_enrolment"],
)
def test_plan_overflow_labels_keep_the_first_match(source):
    checked = checked_of(source)
    for info in checked.classes.values():
        for feat in info.routines.values():
            plan = monitor_plan(checked, info.name, feat)
            texts = {
                expr_text(node)
                for s in ast.walk_statements(feat.body)
                for e in ast.statement_exprs(s)
                for node in ast.arith_postorder(e)
            }
            for provenance in texts | {"no such node"}:
                assert plan.overflow_labels(provenance) == _first_match_labels(feat, provenance)


def test_plan_labels_every_arithmetic_node():
    checked = checked_of(REPEATS)
    plan = monitor_plan(checked, "D", checked.info("D").routines["twice"])
    assert sorted(set(plan.arith_labels.values())) == [
        "(a + 1) * (a + 1)",
        "(a + 1) * (a + 1) - x",
        "a + 1",
    ]
    assert len(plan.arith_labels) == 9  # one label per node, repeats included
    assert plan.overflow_labels("(a + 1) * (a + 1) - x") == {
        "(a + 1) * (a + 1) - x",
        "(a + 1) * (a + 1)",
        "a + 1",
    }


def test_plan_is_built_once_and_cached_on_the_program():
    checked = checked_of(ACCOUNT_LIKE)
    assert checked.monitor_plans == {}
    interp = Interpreter(checked)
    acc = interp.create("ACCOUNT")
    interp.call(acc, "deposit", [5])
    plan = checked.monitor_plans[("ACCOUNT", "deposit")]
    assert plan.olds == ("balance",)
    Interpreter(checked).call(acc, "deposit", [5])
    assert checked.monitor_plans[("ACCOUNT", "deposit")] is plan
    assert sorted(checked.monitor_plans) == [("ACCOUNT", "deposit"), ("ACCOUNT", "make")]


def _bump_program(body: str, post: str) -> str:
    return (
        "class C\n"
        "create make\n"
        "feature\n"
        "  a : INTEGER\n"
        "  b : INTEGER\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  set (v : INTEGER)\n"
        "    do\n"
        "      a := v\n"
        "      b := v\n"
        "    end\n"
        "  bump\n"
        "    do\n"
        f"      {body}\n"
        "    ensure\n"
        f"      post: {post}\n"
        "    end\n"
        "end\n"
    )


def test_programs_with_the_same_names_get_their_own_plans():
    first = checked_of(_bump_program("a := a + 1", "a = old a + 1"))
    second = checked_of(_bump_program("a := b * 3", "a = old b * 3"))
    opts = VerifyOptions(check_overflow=True, overflow_width=8)
    labels = []
    for checked in (first, second):
        interp = Interpreter(checked, opts)
        obj = interp.create("C")
        interp.call(obj, "set", [2])
        interp.call(obj, "bump", [])  # postcondition holds: old keys resolve
        interp.call(obj, "set", [127])
        with pytest.raises(ContractViolation) as exc:
            interp.call(obj, "bump", [])
        labels.append(exc.value.label)
    assert labels == ["a + 1", "b * 3"]
    plans = [c.monitor_plans[("C", "bump")] for c in (first, second)]
    assert [p.olds for p in plans] == [("a",), ("b",)]


def _count_compiles(monkeypatch) -> list:
    """Record (class, feature, bounds) of every feature compilation."""
    compiled = []
    real = runtime._compile_feature

    def counting(info, feat, plan, bounds):
        compiled.append((info.name, feat.name, bounds))
        return real(info, feat, plan, bounds)

    monkeypatch.setattr(runtime, "_compile_feature", counting)
    return compiled


def test_code_is_compiled_once_per_plan_and_shared(monkeypatch):
    compiled = _count_compiles(monkeypatch)
    checked = checked_of(ACCOUNT_LIKE)
    first, second = Interpreter(checked), Interpreter(checked)
    acc = first.create("ACCOUNT")
    first.call(acc, "deposit", [5])
    second.call(acc, "deposit", [5])
    plan = checked.monitor_plans[("ACCOUNT", "deposit")]
    code = plan.code[None]
    obligation = next(
        o for o in generate_obligations(checked, VerifyOptions()) if o.id == "ACCOUNT.deposit.postcondition.0"
    )
    assert replay_counterexample(checked, obligation, {"amount": 5, "balance": 0}) is False
    assert plan.code == {None: code} and plan.code[None] is code
    assert compiled == [("ACCOUNT", "make", None), ("ACCOUNT", "deposit", None)]

    # a second program with the same names compiles its own code
    other = checked_of(ACCOUNT_LIKE)
    Interpreter(other).call(Interpreter(other).create("ACCOUNT"), "deposit", [5])
    assert other.monitor_plans[("ACCOUNT", "deposit")].code[None] is not code
    assert compiled[2:] == [("ACCOUNT", "make", None), ("ACCOUNT", "deposit", None)]


def test_overflow_monitoring_gets_its_own_code(monkeypatch):
    compiled = _count_compiles(monkeypatch)
    checked = checked_of(_bump_program("a := a + 1", "a = old a + 1"))
    width8 = VerifyOptions(check_overflow=True, overflow_width=8)
    for opts in (None, width8, None, width8):
        interp = Interpreter(checked, opts)
        obj = interp.create("C")
        interp.call(obj, "set", [127])
        if opts is None:
            interp.call(obj, "bump", [])
            assert obj.fields["a"] == 128
        else:
            with pytest.raises(ContractViolation) as exc:
                interp.call(obj, "bump", [])
            assert (exc.value.kind, exc.value.label) == ("overflow", "a + 1")
    plan = checked.monitor_plans[("C", "bump")]
    assert sorted(plan.code, key=str) == [(-128, 127), None]
    assert plan.code[None] is not plan.code[(-128, 127)]
    assert [c for c in compiled if c[1] == "bump"] == [("C", "bump", None), ("C", "bump", (-128, 127))]


def _deep_program(guard_terms: int, sum_terms: int, nesting: int = 0) -> str:
    """``deep: p = 0 or r.x + ... + r.x > 0`` and ``x := p + ... + p``,
    the chains as long as given, the assignment inside that many nested
    ``if p > 0``."""
    chain, total = " + ".join(["r.x"] * guard_terms), " + ".join(["p"] * sum_terms)
    body = "      if p > 0 then\n" * nesting + f"      x := {total}\n" + "      end\n" * nesting
    return (
        "class CELL\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n    end\nend\n"
        "class D\ncreate make\nfeature\n  r : CELL\n  x : INTEGER\n  make\n    do\n    end\n"
        f"  guarded (p : INTEGER)\n    require\n      deep: p = 0 or {chain} > 0\n    do\n    end\n"
        f"  sum (p : INTEGER)\n    do\n{body}    end\nend\n"
    )


def test_the_deepest_expressions_are_compiled_whole():
    """At the deepest expressions the parser accepts, the monitor's code
    is not cut into pieces worked out eagerly: with r Void, ``p = 0``
    skips the 49 Void reads after it, and at width 8 the 51-term sum
    fits Python's bracket limit and names the innermost sum that leaves
    [-128, 127], 43 times 3, also inside the deepest nest of `if`s, which
    the feature's driver indents as deep."""
    with pytest.raises(ParseError):
        parse(_deep_program(50, 51))
    with pytest.raises(ParseError):
        parse(_deep_program(49, 52))
    with pytest.raises(ParseError):
        parse(_deep_program(49, 51, MAX_NESTING + 1))
    width8 = VerifyOptions(check_overflow=True, overflow_width=8)
    interp = Interpreter(checked_of(_deep_program(49, 51)), width8)
    obj = interp.create("D")
    interp.call(obj, "guarded", [0])
    with pytest.raises(VoidDereference):
        interp.call(obj, "guarded", [1])
    for nesting in (0, MAX_NESTING):
        interp = Interpreter(checked_of(_deep_program(49, 51, nesting)), width8)
        obj = interp.create("D")
        interp.call(obj, "sum", [2])
        assert obj.fields["x"] == 102
        with pytest.raises(ContractViolation) as exc:
            interp.call(obj, "sum", [3])
        assert (exc.value.kind, exc.value.label) == ("overflow", " + ".join(["p"] * 43))


def _record_compiles(monkeypatch) -> list:
    """Record (expression or None, `old` paths, function) of every
    function ``runtime._compile`` returns, as the drivers call them."""
    compiled = []
    real = runtime._compile

    def recording(params, e=None, olds=(), bounds=None, labels=None):
        ev = real(params, e, olds, bounds, labels)
        compiled.append((e, olds, ev))
        return ev

    monkeypatch.setattr(runtime, "_compile", recording)
    return compiled


def _clause_function(compiled: list, clause):
    return next(ev for e, _, ev in compiled if e is clause.expr)


def test_programs_of_one_shape_share_monitor_code_but_not_values(monkeypatch):
    """Clauses that differ only in names and literals compile to one code
    object, and so do the drivers of features that differ only in them;
    each function reads its own names and literals."""
    compiled = _record_compiles(monkeypatch)
    first = checked_of(_bump_program("a := a + 1", "a = old a + 1"))
    second = checked_of(_bump_program("b := b + 5", "b = old b + 5"))
    drivers, posts, olds = [], [], []
    for checked, name, bumped in ((first, "a", 3), (second, "b", 7)):
        interp = Interpreter(checked)
        obj = interp.create("C")
        interp.call(obj, "set", [2])
        interp.call(obj, "bump", [])  # its postcondition holds
        assert obj.fields[name] == bumped
        drivers.append(checked.monitor_plans[("C", "bump")].code[None])
        posts.append(_clause_function(compiled, checked.info("C").routines["bump"].ensure[0]))
        olds.append(next(ev for e, paths, ev in compiled if paths == (name,)))
    assert drivers[0].__code__ is drivers[1].__code__
    post_a, post_b = posts
    assert post_a.__code__ is post_b.__code__ and olds[0].__code__ is olds[1].__code__
    assert post_a({}, {"a": 3, "b": 3}, {"a": 2, "b": 2}) is True
    assert post_b({}, {"a": 3, "b": 3}, {"a": 2, "b": 2}) is False
    assert olds[0]({}, {"a": 1, "b": 2}, None) == {"a": 1}
    assert olds[1]({}, {"a": 1, "b": 2}, None) == {"b": 2}


LONG_CLAUSE = (
    "class CELL\ncreate make\nfeature\n  x : INTEGER\n  y : INTEGER\n  make\n    do\n    end\nend\n"
    "class L\ncreate make\nfeature\n  r : CELL\n  make\n    do\n      create r\n    end\n"
    "  f\n    require\n"
    f"      long: {' and '.join(['r.x = r.y'] * 40)}\n"
    "      short: r.x = 0\n"
    "    do\n    end\nend\n"
)


def test_a_long_monitor_source_is_compiled_for_its_clause_alone(monkeypatch):
    """A clause whose source is longer than ``_MAX_CACHED_SOURCE`` is
    compiled for its program alone, never through the process cache,
    while a short clause's code is shared by both programs."""
    from miniproof import formula as F

    cached = []
    real = F._scan_code
    monkeypatch.setattr(F, "_scan_code", lambda source: cached.append(source) or real(source))
    compiled = _record_compiles(monkeypatch)
    requires = []
    for _ in range(2):
        checked = checked_of(LONG_CLAUSE)
        interp = Interpreter(checked)
        interp.call(interp.create("L"), "f", [])
        requires.append([_clause_function(compiled, c) for c in checked.info("L").routines["f"].require])
    (long_1, short_1), (long_2, short_2) = requires
    assert long_1.__code__ is not long_2.__code__ and long_1.__code__.co_code == long_2.__code__.co_code
    assert short_1.__code__ is short_2.__code__
    assert cached and all(len(source) <= F._MAX_CACHED_SOURCE for source in cached)


def test_monitored_failures_leave_no_reference_cycles():
    """The overflow and the Void read that the monitor's code raises are
    freed by reference counting once the run has recorded them, as a
    replay raises one each: an exception kept in the frame it was raised
    from would be a cycle per replay, which only the collector frees."""
    import gc

    checked = checked_of(_deep_program(49, 51))
    label = " + ".join(["p"] * 43)
    scenario = parse_scenario(f"create d : D\ncall d.sum(3)\nexpect_violation {label}\ncall d.guarded(1)\n")
    width8 = VerifyOptions(check_overflow=True, overflow_width=8)
    run_scenario(checked, scenario, width8)  # compiles the monitor's code
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            trace = run_scenario(checked, scenario, width8)
            assert [s.outcome for s in trace.steps][1:] == [
                f"violation overflow {label}",
                "error VoidDereference: Void dereference at r.x",
            ]
            del trace
        assert gc.collect() == 0
    finally:
        gc.enable()
