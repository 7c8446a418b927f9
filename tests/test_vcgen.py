"""Obligation generation: the frozen ACCOUNT obligation list, one obligation
per clause-kind occurrence, provenance labels, and determinism."""

import hashlib
import json

import pytest

from miniproof import analyze, ast, parse
from miniproof import formula as F
from miniproof import vcgen
from miniproof.vcgen import (
    CALLEE_PRECONDITION,
    CHECK_ASSERTION,
    FRAME,
    INVARIANT_MAINTENANCE,
    OVERFLOW,
    POSTCONDITION,
    UNSUPPORTED,
    UNSUPPORTED_REASON,
    VOID_DEREFERENCE,
    VerifyOptions,
    generate_obligations,
)

# Frozen expectation, derived by hand from the account contract before the
# generator existed: one Postcondition per ensure clause and one
# InvariantMaintenance per (feature, invariant clause) pair; no modify
# clauses anywhere means no Frame obligations.
ACCOUNT_EXPECTED = [
    ("ACCOUNT.make.postcondition.0", POSTCONDITION, "balance_set"),
    ("ACCOUNT.make.invariant_maintenance.0", INVARIANT_MAINTENANCE, "non_negative_balance"),
    ("ACCOUNT.deposit.postcondition.0", POSTCONDITION, "balance_increased"),
    ("ACCOUNT.deposit.invariant_maintenance.0", INVARIANT_MAINTENANCE, "non_negative_balance"),
    ("ACCOUNT.withdraw.postcondition.0", POSTCONDITION, "balance_decreased"),
    ("ACCOUNT.withdraw.invariant_maintenance.0", INVARIANT_MAINTENANCE, "non_negative_balance"),
]


def generate(checked_programs, name, **overrides):
    return generate_obligations(checked_programs[name], VerifyOptions(**overrides))


def test_account_obligations_match_frozen_list(checked_programs):
    got = [
        (o.id, o.kind, o.provenance)
        for o in generate(checked_programs, "account")
    ]
    assert sorted(got) == sorted(ACCOUNT_EXPECTED)
    assert len(got) == 6


def test_obligation_ids_are_unique_across_corpus(checked_programs, entries):
    for name, checked in checked_programs.items():
        obligations = generate_obligations(checked, entries[name].options)
        ids = [o.id for o in obligations]
        assert len(ids) == len(set(ids)), name


def test_overflow_adds_one_obligation_per_arithmetic_node(checked_programs):
    base = generate(checked_programs, "account")
    with_overflow = generate(checked_programs, "account", check_overflow=True, overflow_width=8)
    extra = [o for o in with_overflow if o.kind == OVERFLOW]
    # deposit: balance + amount; withdraw: balance - amount; make: none
    assert len(with_overflow) == len(base) + 2
    assert sorted(o.id for o in extra) == [
        "ACCOUNT.deposit.overflow.0",
        "ACCOUNT.withdraw.overflow.0",
    ]
    # provenance is the source text of the arithmetic node
    assert {o.provenance for o in extra} == {"balance + amount", "balance - amount"}


def test_overflow_mutant_has_one_obligation_per_nested_node(checked_programs, entries):
    obligations = generate_obligations(
        checked_programs["account_overflow_mutant"], entries["account_overflow_mutant"].options
    )
    deposit_overflow = [
        o for o in obligations if o.kind == OVERFLOW and o.feature_name == "deposit"
    ]
    # balance + amount + amount - amount has three arithmetic nodes
    assert [o.id for o in deposit_overflow] == [
        f"ACCOUNT.deposit.overflow.{i}" for i in range(3)
    ]
    assert [o.provenance for o in deposit_overflow] == [
        "balance + amount",
        "balance + amount + amount",
        "balance + amount + amount - amount",
    ]


def test_set_current_display_invariant_maintenance_formula(checked_programs):
    obligations = generate_obligations(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    )
    (maintenance,) = [
        o
        for o in obligations
        if o.class_name == "ID_STATION"
        and o.feature_name == "set_current_display"
        and o.kind == INVARIANT_MAINTENANCE
        and o.provenance == "invariant_1"
    ]
    text = F.to_text(maintenance.formula)
    # assumes the precondition on v, asserts the invariant with v substituted
    # for current_display
    assert "constants.display_message.has(v)" in text
    syms = F.free_syms(maintenance.formula)
    assert "v" in syms


def test_creation_in_contract_yields_one_unsupported_obligation(checked_programs):
    obligations = generate_obligations(
        checked_programs["contract_creation_error"], VerifyOptions()
    )
    unsupported = [o for o in obligations if o.kind == UNSUPPORTED]
    assert len(unsupported) == 1
    (bad,) = unsupported
    assert bad.id == "BAD_CONTRACT.make.unsupported.0"
    assert bad.provenance == "helper_fresh"
    # the clause that does not mention creation still gets its normal obligation
    assert any(
        o.id == "BAD_CONTRACT.make.postcondition.0" and o.provenance == "helper_attached"
        for o in obligations
    )


def test_empty_modify_emits_frame_obligation_per_model_query(checked_programs):
    obligations = generate_obligations(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    )
    frames = [
        o
        for o in obligations
        if o.class_name == "ID_STATION"
        and o.feature_name == "update_screen"
        and o.kind == FRAME
    ]
    # update_screen declares an empty modify: every model query is framed
    assert sorted(o.provenance for o in frames) == [
        "current_display",
        "enclave_status",
        "floppy_presence",
        "token_removal_timeout",
    ]


def test_partial_modify_frames_only_unlisted_queries(checked_programs):
    obligations = generate_obligations(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    )
    frames = [
        o
        for o in obligations
        if o.feature_name == "set_current_display" and o.kind == FRAME
    ]
    # modify current_display leaves the other three queries framed
    assert sorted(o.provenance for o in frames) == [
        "enclave_status",
        "floppy_presence",
        "token_removal_timeout",
    ]


def test_absent_modify_emits_no_frame_obligations(checked_programs):
    obligations = generate(checked_programs, "account")
    assert not [o for o in obligations if o.kind == FRAME]


def test_call_emits_callee_precondition_with_callee_label(checked_programs):
    obligations = generate_obligations(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    )
    callee_pre = [
        o
        for o in obligations
        if o.feature_name == "update_screen" and o.kind == CALLEE_PRECONDITION
    ]
    assert [o.provenance for o in callee_pre] == ["message_exists"]


def test_qualified_access_emits_void_dereference_obligations(checked_programs):
    obligations = generate_obligations(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    )
    update_screen_vd = [
        o
        for o in obligations
        if o.feature_name == "update_screen" and o.kind == VOID_DEREFERENCE
    ]
    # the call current_screen.set_screen_msg (m) dereferences current_screen
    assert any(
        o.provenance == "current_screen.set_screen_msg" for o in update_screen_vd
    )


def test_dereferences_and_callee_clauses_in_the_obligations():
    source = (
        "class CELL\n"
        "create make\n"
        "feature\n"
        "  v : INTEGER\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  inc\n"
        "    do\n"
        "      v := v + 1\n"
        "    ensure\n"
        "      up: v = old v + 1\n"
        "    end\n"
        "end\n"
        "class C\n"
        "create make\n"
        "feature\n"
        "  r : CELL\n"
        "  s : CELL\n"
        "  make\n"
        "    do\n"
        "      create r\n"
        "    end\n"
        "  go\n"
        "    do\n"
        "      r.inc ()\n"
        "      s := r\n"
        "    ensure\n"
        "      grew: r.v = old r.v + 1\n"
        "      kept: s.v = old s.v\n"
        "      made: s.v = 0 or s = create CELL\n"
        "    end\n"
        "invariant\n"
        "  attached: Void /= r\n"
        "end\n"
    )
    obligations = generate_obligations(analyze(parse(source)), VerifyOptions())
    go = [(o.id, o.provenance, F.to_text(o.formula)) for o in obligations if o.feature_name == "go"]
    # `Void /= r` guards every read through r; the callee's `old v` is the
    # pre-call r.v; `old s.v` is dereferenced at entry, `s.v` at exit; an
    # Unsupported clause dereferences nothing
    assert go == [
        ("C.go.postcondition.0", "grew", "Void /= r implies r.v@1 = r.v + 1 implies r.v@1 = r.v + 1"),
        ("C.go.postcondition.1", "kept", "Void /= r implies r.v@1 = r.v + 1 implies s.v = s.v"),
        ("C.go.invariant_maintenance.0", "attached", "Void /= r implies r.v@1 = r.v + 1 implies Void /= r"),
        ("C.go.void_dereference.0", "s.v", "Void /= r implies s /= Void"),
        ("C.go.void_dereference.1", "s.v", "Void /= r implies r.v@1 = r.v + 1 implies r /= Void"),
        ("C.go.unsupported.0", "made", "true"),
    ]


def test_require_clause_with_a_creation_dereferences_nothing():
    source = (
        "class CELL\n"
        "create make\n"
        "feature\n"
        "  v : INTEGER\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "end\n"
        "class C\n"
        "create make\n"
        "feature\n"
        "  r : CELL\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  go\n"
        "    require\n"
        "      fresh: r.v = 0 or r = create CELL\n"
        "    do\n"
        "    end\n"
        "end\n"
    )
    obligations = generate_obligations(analyze(parse(source)), VerifyOptions())
    assert [(o.id, o.provenance) for o in obligations if o.feature_name == "go"] == [
        ("C.go.unsupported.0", "fresh")
    ]


def test_creation_reads_the_creators_old_as_the_default_state():
    source = (
        "class D\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  p : D\n"
        "  make\n"
        "    do\n"
        "      x := x + 1\n"
        "    ensure\n"
        "      up: x = old x + 1\n"
        "      no_entry: x = old p.x\n"
        "    end\n"
        "end\n"
        "class C\n"
        "create make\n"
        "feature\n"
        "  d : D\n"
        "  make\n"
        "    do\n"
        "      create d.make\n"
        "    ensure\n"
        "      one: d.x = 1\n"
        "    end\n"
        "end\n"
    )
    obligations = generate_obligations(analyze(parse(source)), VerifyOptions())
    made = [(o.id, F.to_text(o.formula)) for o in obligations if o.class_name == "C"]
    # `old x` is the default 0; `old p.x` has no entry value in a fresh
    # object, so `no_entry` is not assumed; then d is D's one object
    assert made == [
        ("C.make.postcondition.0", "d.x@1 = 0 + 1 implies d.x@1 = 1"),
        ("C.make.void_dereference.0", "d.x@1 = 0 + 1 implies <D> /= Void"),
    ]


def test_creation_asserts_each_require_clause_of_the_creator_in_the_default_state():
    source = (
        "class D\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  p : D\n"
        "  make\n"
        "    require\n"
        "      one: x = 1\n"
        "      two: p = Void\n"
        "      deep: p.x = 0\n"
        "    do\n"
        "    end\n"
        "end\n"
        "class C\n"
        "create make\n"
        "feature\n"
        "  d : D\n"
        "  make\n"
        "    do\n"
        "      create d.make\n"
        "    end\n"
        "  again\n"
        "    do\n"
        "      create d\n"
        "    end\n"
        "end\n"
    )
    obligations = generate_obligations(analyze(parse(source)), VerifyOptions())
    made = [(o.id, o.kind, o.provenance, F.to_text(o.formula)) for o in obligations if o.class_name == "C"]
    # a fresh D has x = 0 and p = Void; p.x has no defined value in a
    # fresh object, so `deep` is not asserted
    assert made == [
        ("C.make.callee_precondition.0", CALLEE_PRECONDITION, "one", "0 = 1"),
        ("C.make.callee_precondition.1", CALLEE_PRECONDITION, "two", "Void = Void"),
        ("C.again.callee_precondition.0", CALLEE_PRECONDITION, "one", "0 = 1"),
        ("C.again.callee_precondition.1", CALLEE_PRECONDITION, "two", "Void = Void"),
    ]


def test_call_havocs_its_modify_list_and_attributes_outside_the_model():
    source = (
        "class CELL\n"
        "note\n"
        "  model: a, b\n"
        "create make\n"
        "feature\n"
        "  a : INTEGER\n"
        "  b : INTEGER\n"
        "  p : CELL\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  bump\n"
        "    modify\n"
        "      a\n"
        "    do\n"
        "      a := a + 1\n"
        "    ensure\n"
        "      up: a = old a + 1\n"
        "      same: p.a = old p.a\n"
        "    end\n"
        "end\n"
        "class C\n"
        "create make\n"
        "feature\n"
        "  r : CELL\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "  go\n"
        "    do\n"
        "      r.bump ()\n"
        "      r.bump ()\n"
        "    ensure\n"
        "      two: r.a = old r.a + 2 and r.b = old r.b\n"
        "    end\n"
        "invariant\n"
        "  attached: r /= Void\n"
        "end\n"
    )
    obligations = generate_obligations(analyze(parse(source)), VerifyOptions())
    post = [F.to_text(o.formula) for o in obligations if o.id == "C.go.postcondition.0"]
    # bump may modify a (its modify list) and p (outside the model), not
    # b; the first call renames neither r.a@2 nor r.p.a@2 of the second
    assert post == [
        "r /= Void implies r.a@1 = r.a + 1 and r.p.a@1 = r.p.a"
        " implies r.a@2 = r.a@1 + 1 and r.p.a@2 = r.p.a@1"
        " implies r.a@2 = r.a + 2 and r.b = r.b"
    ]


def test_check_statement_emits_check_assertion():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 1\n"
        "      check positive: x > 0 end\n"
        "    end\n"
        "end\n"
    )
    obligations = generate_obligations(analyze(parse(source)), VerifyOptions())
    checks = [o for o in obligations if o.kind == CHECK_ASSERTION]
    assert [(o.id, o.provenance) for o in checks] == [
        ("C.make.check_assertion.0", "positive")
    ]


def test_generation_is_deterministic(checked_programs, entries):
    for name in ("account", "tokeneer_enrolment"):
        opts = entries[name].options
        first = generate_obligations(checked_programs[name], opts)
        second = generate_obligations(checked_programs[name], opts)
        assert [(o.id, F.to_text(o.formula)) for o in first] == [
            (o.id, F.to_text(o.formula)) for o in second
        ]


def test_obligation_indices_count_within_feature_and_kind(checked_programs):
    obligations = generate_obligations(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    )
    make_posts = [
        o
        for o in obligations
        if o.class_name == "ID_STATION"
        and o.feature_name == "make"
        and o.kind == POSTCONDITION
    ]
    assert [o.id for o in make_posts] == [
        f"ID_STATION.make.postcondition.{i}" for i in range(3)
    ]
    assert [o.provenance for o in make_posts] == ["ensure_1", "ensure_2", "ensure_3"]


@pytest.mark.parametrize(
    "feature,expected",
    [("make", 1), ("deposit", 1), ("withdraw", 1)],
)
def test_one_postcondition_obligation_per_ensure_clause(
    checked_programs, feature, expected
):
    obligations = generate(checked_programs, "account")
    posts = [
        o
        for o in obligations
        if o.feature_name == feature and o.kind == POSTCONDITION
    ]
    assert len(posts) == expected


def _if_chain_creator(n: int) -> str:
    """A class whose creator runs n sequential `if` statements over three
    attributes. Its ensure clauses state the values the body ends with,
    but for y, which is off by one."""
    import operator

    ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "=": operator.eq, "/=": operator.ne}
    state = {"x": 0, "y": 0, "z": 0}
    lines = []
    for k in range(n):
        op, c = list(ops)[k % len(ops)], k % 4
        lines += [
            f"      if x {op} y + {c} then",
            f"        x := x + {1 + k % 3}",
            "        z := z + 1",
            "      else",
            f"        y := y - {1 + k % 2}",
            "        z := z - 1",
            "      end",
        ]
        if ops[op](state["x"], state["y"] + c):
            state["x"] += 1 + k % 3
            state["z"] += 1
        else:
            state["y"] -= 1 + k % 2
            state["z"] -= 1
    return (
        "class CHAIN\ncreate make\nfeature\n  x : INTEGER\n  y : INTEGER\n  z : INTEGER\n"
        "  make\n    do\n" + "\n".join(lines) + "\n    ensure\n"
        f"      x_final: x = {state['x']}\n"
        f"      y_off_by_one: y = {state['y'] + 1}\n"
        f"      z_final: z = {state['z']}\n"
        "    end\n"
        f"invariant\n  spread: x - y >= {state['x'] - state['y']}\nend\n"
    )


def test_if_chain_obligations_stay_linear_in_size():
    """Each post is shared by both branches of an `if`, so 40 sequential
    `if`s (an expanded tree of about 2^40 leaves) give formulas whose
    distinct nodes grow linearly. No formula here is printed: its text is
    exponential."""
    from miniproof.discharge import DISCHARGED, FAILED, verify_program

    n = 40
    checked = analyze(parse(_if_chain_creator(n)))
    obligations = generate_obligations(checked, VerifyOptions())
    seen: set[int] = set()
    stack = [o.formula for o in obligations]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            stack.extend(F.children(f))
    assert len(seen) <= 100 * n

    report = verify_program(checked, VerifyOptions())
    verdicts = {row.id: (row.verdict.status, row.verdict.counterexample) for row in report.rows}
    assert verdicts == {
        "CHAIN.make.postcondition.0": (DISCHARGED, None),
        "CHAIN.make.postcondition.1": (FAILED, {}),
        "CHAIN.make.postcondition.2": (DISCHARGED, None),
        "CHAIN.make.invariant_maintenance.0": (DISCHARGED, None),
    }


_ONE_PASS = (
    "class CELL\n"
    "create make\n"
    "feature\n"
    "  v : INTEGER\n"
    "  make\n"
    "    do\n"
    "    end\n"
    "  inc\n"
    "    do\n"
    "      v := v + 1\n"
    "    ensure\n"
    "      up: v = old v + 1\n"
    "    end\n"
    "end\n"
    "class C\n"
    "create make\n"
    "feature\n"
    "  r : CELL\n"
    "  s : CELL\n"
    "  n : INTEGER\n"
    "  make\n"
    "    do\n"
    "    end\n"
    "  go (k : INTEGER)\n"
    "    do\n"
    "      r.inc ()\n"
    "      create s.make\n"
    "      if k > 0 then\n"
    "        s.v := k + r.v\n"
    "      else\n"
    "        n := n + 1\n"
    "      end\n"
    "      check counted: n >= 0 end\n"
    "    ensure\n"
    "      grew: r.v = old r.v + 1\n"
    "      set: k > 0 implies s.v = k + r.v\n"
    "    end\n"
    "invariant\n"
    "  small: n < 5\n"
    "end\n"
)


def test_lowering_covers_every_expression_class_and_refuses_others():
    """formula.lower looks its rule up by the expression's class: each
    class of ast.Expr lowers to its formula, a creation raises Creation,
    and a class the table lacks raises TypeError, not KeyError."""
    x, b, s = F.Sym("x", ast.T_INT), F.Sym("b", ast.T_BOOL), F.Sym("s", ast.T_SET)
    name_x = ast.Name("x", ty=ast.T_INT)
    cases = {
        ast.IntLit: (ast.IntLit(3), F.Lit(3)),
        ast.BoolLit: (ast.BoolLit(True), F.TRUE),
        ast.StrLit: (ast.StrLit("t"), F.Lit("t")),
        ast.VoidLit: (ast.VoidLit(), F.Lit(None)),
        ast.SetLit: (ast.SetLit(("t", "u")), F.Lit(frozenset({"t", "u"}))),
        ast.Name: (name_x, x),
        ast.Qualified: (ast.Qualified("r", "a", ty=ast.T_INT), F.Sym("r.a", ast.T_INT)),
        ast.Old: (ast.Old(name_x), F.Sym(F.OLD + "x", ast.T_INT)),
        ast.Unary: (ast.Unary("not", ast.Name("b", ty=ast.T_BOOL)), F.Not(b)),
        ast.Binary: (ast.Binary("<", name_x, ast.IntLit(3)), F.Cmp("<", x, F.Lit(3))),
        ast.Has: (ast.Has(ast.Name("s", ty=ast.T_SET), ast.StrLit("t")), F.HasF(s, F.Lit("t"))),
    }
    classes, stack = set(), [ast.Expr]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__ == ast.__name__:
                classes.add(sub)
                stack.append(sub)
    assert classes == {*cases, ast.CreateExpr}
    for e, expected in cases.values():
        assert F.lower(e) == expected
    with pytest.raises(F.Creation):
        F.lower(ast.Binary("=", name_x, ast.CreateExpr("C")))

    class Unlisted(ast.Expr):
        __slots__ = ()

    for e in (Unlisted(), ast.Expr(), ast.Unary("not", Unlisted())):
        with pytest.raises(TypeError, match="unexpected expression"):
            F.lower(e)


def test_pulling_goals_together_equals_pulling_each_alone():
    """One pull carries every pending goal through the body; each comes
    out as it would alone, after the same body assertions."""
    checked = analyze(parse(_ONE_PASS))
    info = checked.info("C")
    feat = info.routines["go"]
    pass_ = vcgen._FeatureVCs(checked, info, feat, VerifyOptions(check_overflow=True))
    clauses = [*feat.ensure, *info.decl.invariant]
    goals = [(POSTCONDITION, c.label, F.lower(c.expr)) for c in clauses]

    def texts(items):
        return [(kind, prov, F.to_text(f)) for kind, prov, f in items]

    together = texts(pass_.pull(feat.body, goals))
    alone = [texts(pass_.pull(feat.body, [goal])) for goal in goals]
    asserts = together[: -len(goals)]
    # the call, the assignments and the `check` assert something
    assert {kind for kind, _, _ in asserts} == {VOID_DEREFERENCE, OVERFLOW, CHECK_ASSERTION}
    assert all(one[:-1] == asserts for one in alone)
    assert together[-len(goals):] == [one[-1] for one in alone]


def test_each_call_and_creation_rule_is_built_once(checked_programs, monkeypatch):
    calls = []
    build = vcgen._FeatureVCs._call_rule

    def counted(self, s):
        calls.append(s)
        return build(self, s)

    monkeypatch.setattr(vcgen._FeatureVCs, "_call_rule", counted)
    generate_obligations(checked_programs["tokeneer_enrolment"], VerifyOptions())
    assert len(calls) == len({id(s) for s in calls}) == 6


def _straight_line_creator(n: int) -> str:
    return (
        "class C\ncreate make\nfeature\n  x : INTEGER\n  make\n    do\n"
        + "      x := x + 1\n" * n
        + "    ensure\n      x >= 0\n    end\nend\n"
    )


def test_substitution_calls_grow_linearly_with_straight_line_code(monkeypatch):
    """Each assignment wraps the post in one Let, whatever came before it;
    composing a Let's mappings re-substituted every earlier bind."""
    calls = []
    subst = F.subst

    def counted(f, mapping):
        calls.append(f)
        return subst(f, mapping)

    monkeypatch.setattr(F, "subst", counted)
    counts = []
    for n in (100, 400):
        calls.clear()
        generate_obligations(analyze(parse(_straight_line_creator(n))), VerifyOptions())
        counts.append(len(calls))
    assert counts[1] <= 4.5 * counts[0]


def test_obligations_of_2000_assignments_in_a_row():
    (obligation,) = generate_obligations(analyze(parse(_straight_line_creator(2000))), VerifyOptions())
    assert obligation.id == "C.make.postcondition.0"
    assert F.fold(obligation.formula) == F.TRUE


# SHA-256 of the JSON list of [id, kind, provenance, formula text] of each
# corpus entry's obligations at --check-overflow --overflow-width 8, and of
# [program, id, kind, provenance, formula text] over a vc_scaling seed's
# programs. Obligations share their hypothesis node and skip unify_old when
# the goal has no `old` leaf; neither may change an obligation's text.
WIDTH8_DIGESTS = {
    "account": "ed0be455916d9951761bcf709cd7658ce609e073b5b8f068b1549c0e0da66527",
    "account_noguard_mutant": "45b3bd9a65188b2d7c74ea7c3dddbef4a0c3fab992297e7ac1bec27996fa9f06",
    "account_overflow_mutant": "1d13966cbd4e095a09b2edb538d874c61e84f9bec465e97ddb2f5c8878847238",
    "tokeneer_enrolment": "398d38b45159151aecdc7b9bb662e4f5f4f6b95ffd8463b0c6cea72c5496def6",
    "tokeneer_noprecond_mutant": "f633a839d805ea1254690e6ce2cd7e993a2be06984c3353b6db9b76e52febda1",
    "tokeneer_frame_mutant": "4e1d05fc61410591ba978e7a6fe9e9f9ca7e996f66bab1ab696190af2fca10d8",
    "contract_creation_error": "568c8d73bdfbd0f80d4986bb52bc611ac6b56049e4e523af2437392a7e3771bf",
}
VC_SCALING_DIGESTS = {
    1: "af61e34e8108dfb485892502cd82bbe8af7c0e23f816472aef7c3e7bcb61d655",
    2: "98d78a2f56756c150bd85c49fe752e16c86012f6bbbbeb6d34147467a953c9cf",
    3: "6ead59a0edead7d9b87a702070dcbc096b937cdf94d5f2c429c5671cb2dc7b2b",
    4: "c36d069cfa33d8f018b9d401c07b5df7f0d0053ce7573f7875a5255f1beffe8d",
}


def _digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(WIDTH8_DIGESTS))
def test_obligation_texts_at_width_8_are_pinned(name, entries, checked_programs):
    opts = entries[name].options.replace(check_overflow=True, overflow_width=8)
    obligations = generate_obligations(checked_programs[name], opts)
    rows = [[o.id, o.kind, o.provenance, F.to_text(o.formula)] for o in obligations]
    assert _digest(rows) == WIDTH8_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(VC_SCALING_DIGESTS))
def test_vc_scaling_obligation_texts_are_pinned(seed, vc_scaling_programs):
    opts = VerifyOptions(int_range=vc_scaling_programs.INT_RANGE)
    rows = [
        [program.name, o.id, o.kind, o.provenance, F.to_text(o.formula)]
        for program in vc_scaling_programs.generate(seed)
        for o in generate_obligations(analyze(parse(program.source)), opts)
    ]
    assert _digest(rows) == VC_SCALING_DIGESTS[seed]


def test_obligations_of_a_feature_share_their_hypotheses(checked_programs):
    """``withdraw`` assumes the invariant and its precondition in each of
    its obligations, through one node."""
    obligations = generate(checked_programs, "account", check_overflow=True, overflow_width=8)
    withdraw = [o.formula for o in obligations if o.feature_name == "withdraw"]
    assert len(withdraw) > 2 and all(type(f) is F.Implies for f in withdraw)
    assert type(withdraw[0].left) is F.And and all(f.left is withdraw[0].left for f in withdraw)
