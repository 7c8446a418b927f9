"""Bounded exhaustive discharge: enumeration order and size, verdicts with
first-falsifier counterexamples, Error verdicts, report arithmetic, and the
JSON report writer.

Counterexample expectations are computed by independent brute-force loops
inside this file, not by re-running the engine under test.
"""

import itertools
import json

import pytest

from miniproof import analyze, parse
from miniproof import formula as F
from miniproof.ast import T_BOOL, T_INT, T_STRING
from miniproof.discharge import (
    DISCHARGED,
    ERROR,
    FAILED,
    Domains,
    Verdict,
    build_report,
    derive_domains,
    discharge,
    enumerate_environments,
    render_json,
    render_text,
    report_payload,
    summary_line,
    symbol_domain,
    verify_program,
)
from miniproof.vcgen import Obligation, VerifyOptions, generate_obligations


def oracle_noguard_falsifier():
    """Brute force, written before the engine ran: with the amount guard
    deleted, the first environment (amount outer loop, balance inner)
    satisfying the entry invariant but breaking it on exit.  The entry
    invariant rules out negative balances, so the search lands on
    balance=0 with the most negative amount."""
    for amount in range(-8, 9):
        for balance in range(-8, 9):
            if balance >= 0 and not balance + amount >= 0:
                return {"amount": amount, "balance": balance}
    raise AssertionError("mutant unexpectedly safe")


assert oracle_noguard_falsifier() == {"amount": -8, "balance": 0}


# -- enumeration -----------------------------------------------------------------


def _obligation_over(formula):
    return Obligation(
        id="T.f.postcondition.0",
        kind="Postcondition",
        class_name="T",
        feature_name="f",
        formula=formula,
        provenance="c",
    )


def test_boolean_symbol_has_two_environments():
    formula = F.Sym("b", T_BOOL)
    envs = list(enumerate_environments(_obligation_over(formula), Domains((-1, 1), ())))
    assert envs == [{"b": False}, {"b": True}]


def test_two_ints_in_unit_range_give_nine_environments():
    formula = F.Cmp("=", F.Sym("x", T_INT), F.Sym("y", T_INT))
    envs = list(enumerate_environments(_obligation_over(formula), Domains((-1, 1), ())))
    assert len(envs) == 9
    assert envs[0] == {"x": -1, "y": -1}
    assert envs[-1] == {"x": 1, "y": 1}


def test_string_symbol_ranges_over_pool_plus_void(checked_programs):
    domains = derive_domains(checked_programs["tokeneer_enrolment"], VerifyOptions())
    assert len(domains.string_pool) == 12
    values = symbol_domain(T_STRING, domains)
    assert len(values) == 13
    assert values[-1] is None  # Void comes last


def test_set_domain_is_the_powerset_of_the_pool():
    domains = Domains((-1, 1), ("a", "b"))
    from miniproof.ast import T_SET

    sets = symbol_domain(T_SET, domains)
    assert len(sets) == 4
    assert frozenset() in sets and frozenset({"a", "b"}) in sets


def test_reference_domain_is_representative_then_void():
    from miniproof.ast import ref

    domains = Domains((-1, 1), ())
    assert symbol_domain(ref("CONST"), domains) == (F.Ref("CONST"), None)


def test_domains_are_built_once_and_shared():
    from miniproof.ast import T_SET

    domains = Domains((-1, 1), ("a", "b", "c"))
    sets = symbol_domain(T_SET, domains)
    assert isinstance(sets, tuple) and len(sets) == 8
    assert symbol_domain(T_SET, domains) is sets


# -- verdicts --------------------------------------------------------------------


def test_account_deposit_postcondition_discharges(checked_programs):
    opts = VerifyOptions(int_range=(-8, 8))
    obligations = generate_obligations(checked_programs["account"], opts)
    (post,) = [o for o in obligations if o.id == "ACCOUNT.deposit.postcondition.0"]
    verdict = discharge(post, derive_domains(checked_programs["account"], opts))
    assert verdict.status == DISCHARGED
    assert verdict.counterexample is None


def test_noguard_mutant_counterexample_matches_brute_force(checked_programs):
    opts = VerifyOptions(int_range=(-8, 8))
    checked = checked_programs["account_noguard_mutant"]
    obligations = generate_obligations(checked, opts)
    (maintenance,) = [
        o for o in obligations if o.id == "ACCOUNT.deposit.invariant_maintenance.0"
    ]
    verdict = discharge(maintenance, derive_domains(checked, opts))
    assert verdict.status == FAILED
    assert verdict.counterexample == oracle_noguard_falsifier()


def test_unsupported_obligation_is_an_error(checked_programs):
    opts = VerifyOptions()
    checked = checked_programs["contract_creation_error"]
    obligations = generate_obligations(checked, opts)
    (bad,) = [o for o in obligations if o.kind == "Unsupported"]
    verdict = discharge(bad, derive_domains(checked, opts))
    assert verdict.status == ERROR
    assert verdict.reason == "creation expression in contract"


def test_pruned_search_agrees_with_naive_enumeration(checked_programs, entries):
    """Differential oracle: for every account-family obligation, the engine's
    verdict and counterexample must equal a naive evaluate-all-environments
    sweep."""
    for name in ("account", "account_noguard_mutant", "account_overflow_mutant"):
        checked = checked_programs[name]
        opts = entries[name].options
        if name == "account_overflow_mutant":
            opts = VerifyOptions(
                int_range=(-8, 8), check_overflow=True, overflow_width=8
            )
        domains = derive_domains(checked, opts)
        for obligation in generate_obligations(checked, opts):
            if obligation.kind == "Unsupported":
                continue
            naive = None
            for env in enumerate_environments(obligation, domains):
                if F.evaluate(obligation.formula, env) is not True:
                    naive = env
                    break
            verdict = discharge(obligation, domains)
            if naive is None:
                assert verdict.status == DISCHARGED, obligation.id
            else:
                assert verdict.status == FAILED, obligation.id
                assert verdict.counterexample == naive, obligation.id


def test_unresolved_old_is_an_error():
    formula = F.Cmp("=", F.Sym("x", T_INT), F.Sym("old x", T_INT))
    verdict = discharge(_obligation_over(formula), Domains((-1, 1), ()))
    assert verdict.status == ERROR
    assert verdict.reason == "entry snapshot left unresolved"


def test_exceptions_inside_the_search_propagate(monkeypatch):
    import pytest

    from miniproof import discharge as discharge_module

    def broken(formula, domains):
        raise RuntimeError("bug in the search")

    monkeypatch.setattr(discharge_module, "_search", broken)
    with pytest.raises(RuntimeError, match="bug in the search"):
        discharge(_obligation_over(F.Sym("b", T_BOOL)), Domains((-1, 1), ()))


def test_formula_that_does_not_fold_is_an_internal_error():
    """An integer-valued formula never folds to true or false; that is a
    bug upstream, not bad input, so it must not surface as ValueError
    (which the command line reports as a usage error)."""
    import pytest

    from miniproof.errors import InternalError

    assert not issubclass(InternalError, ValueError)
    for formula in (F.Lit(5), F.Arith("+", F.Sym("x", T_INT), F.Lit(1))):
        with pytest.raises(InternalError, match="did not fold"):
            discharge(_obligation_over(formula), Domains((-1, 1), ()))


def test_deep_residual_is_compiled_in_pieces():
    """A residual over few symbols but deeper than one generated Python
    expression can nest still gets the first falsifier."""
    i, j = F.Sym("i", T_INT), F.Sym("j", T_INT)
    formula = F.Cmp("<", F.Arith("+", i, j), F.Lit(3))
    for k in range(300):
        hyp = F.Cmp("<=", i, F.Lit(3)) if k % 2 else F.Cmp(">=", j, F.Lit(-4))
        formula = F.Implies(hyp, formula)
    obligation = _obligation_over(formula)
    domains = Domains((-3, 3), ())
    naive = next(
        env
        for env in enumerate_environments(obligation, domains)
        if F.evaluate(formula, env) is not True
    )
    verdict = discharge(obligation, domains)
    assert verdict.status == FAILED
    assert verdict.counterexample == naive == {"i": 0, "j": 3}


def test_compiled_deep_residual_agrees_with_evaluate():
    """A residual several times deeper than one generated function may
    nest is compiled in pieces, and its scan finds the leaves where it
    holds, and those where it fails, as F.evaluate does."""
    from miniproof.discharge import _MAX_INLINE_DEPTH, _leaves_where

    i, j = F.Sym("i", T_INT), F.Sym("j", T_INT)
    term = F.Arith("+", i, j)
    for k in range(80):
        term = F.Arith("-" if k % 2 else "+", term, j if k % 3 else i)
    formula = F.Cmp("<", term, F.Lit(4))
    for k in range(80):
        side = F.Cmp("<=", i, F.Lit(k % 5 - 2))
        formula = (F.Not(formula), F.And((side, formula)), F.Or((formula, side)), F.Implies(side, formula))[k % 4]

    def depth(f):
        return 1 + max(map(depth, F.children(f)), default=0)

    assert depth(formula) > 120 > 2 * _MAX_INLINE_DEPTH
    values = range(-3, 4)
    for truth in (True, False):
        found = list(_leaves_where(formula, ["i", "j"], [values, values], truth))
        expected = [
            (a, b) for a, b in itertools.product(values, repeat=2) if F.evaluate(formula, {"i": a, "j": b}) is truth
        ]
        assert found == expected, truth


_DEEP_LEVELS = 60_000


def _deep_sum() -> F.Formula:
    """``i + j + ... + j >= 0``, ``_DEEP_LEVELS`` levels deep."""
    i, j = F.Sym("i", T_INT), F.Sym("j", T_INT)
    term = F.Arith("+", i, j)
    for _ in range(_DEEP_LEVELS - 1):
        term = F.Arith("+", term, j)
    return F.Cmp(">=", term, F.Lit(0))


def test_compiled_residual_runs_in_one_frame_however_deep():
    """``i + j + ... + j >= 0``, 60,000 levels deep: more pieces of
    ``_MAX_INLINE_DEPTH`` levels than the recursion limit allows frames,
    so the scan must work them out in its one frame, not one call per
    piece. F.evaluate recurses once per level, so the expected leaves
    are computed here."""
    import sys

    from miniproof.discharge import _MAX_INLINE_DEPTH, _leaves_where

    assert _DEEP_LEVELS > sys.getrecursionlimit() * _MAX_INLINE_DEPTH
    lists = [(-3, 0, 3), (-1, 0, 1)]
    found = list(_leaves_where(_deep_sum(), ["i", "j"], lists, True))
    assert found == [(a, b) for a, b in itertools.product(*lists) if a + _DEEP_LEVELS * b >= 0]


def test_a_long_scan_source_is_not_kept():
    """The 60,000-level residual's source is far longer than
    ``_MAX_CACHED_SOURCE``: it is compiled for its scan alone, and the
    process cache of compiled scans neither grows nor is consulted."""
    from miniproof.discharge import _leaves_where
    from miniproof.formula import _scan_code

    before = _scan_code.cache_info()
    found = list(_leaves_where(_deep_sum(), ["i", "j"], [(0,), (-1, 0)], True))
    assert found == [(0, 0)]
    assert _scan_code.cache_info() == before


def _record_scans(monkeypatch) -> list:
    """(source, code) of each scan compiled or fetched from the process
    cache from now on."""
    scans = []
    real = F._scan_code

    def recording(source):
        code = real(source)
        scans.append((source, code))
        return code

    monkeypatch.setattr(F, "_scan_code", recording)
    return scans


def test_residuals_of_one_shape_share_code_but_not_literals(monkeypatch):
    """Code is compiled once per source per process, and each residual
    binds its own literals and symbols: ``i + j < 3`` and ``a + b < -2``
    share the code object of one scan and each gets its own first
    falsifier. The Domains keeps no code."""
    scans = _record_scans(monkeypatch)
    domains = Domains((-3, 3), ())
    assert domains._built == {}
    found = []
    for x, y, bound in (("i", "j", 3), ("a", "b", -2)):
        formula = F.Cmp("<", F.Arith("+", F.Sym(x, T_INT), F.Sym(y, T_INT)), F.Lit(bound))
        obligation = _obligation_over(formula)
        naive = next(
            env
            for env in enumerate_environments(obligation, domains)
            if F.evaluate(formula, env) is not True
        )
        assert discharge(obligation, domains).counterexample == naive
        found.append(naive)
    assert found == [{"i": 0, "j": 3}, {"a": -3, "b": 1}]
    sources = {source for source, _ in scans}
    assert len(sources) == 1 and sources.pop().startswith("def scan(")
    assert len(scans) == 2 and scans[0][1] is scans[1][1]
    assert list(domains._built) == [T_INT]
    assert Domains((-3, 3), ())._built == {}


def test_scan_nests_its_loops_in_symbol_order(monkeypatch):
    """``a + 2 * b + 4 * c < 7`` over -1..1 fails only at the last leaf of
    the nest, a = b = c = 1, which the scan of three live symbols must
    reach; and the leaves where it holds come out in enumeration order,
    the first symbol's loop outermost."""
    from miniproof.discharge import _leaves_where

    scans = _record_scans(monkeypatch)
    a, b, c = (F.Sym(n, T_INT) for n in "abc")
    weighted = F.Arith("+", F.Arith("+", a, F.Arith("*", F.Lit(2), b)), F.Arith("*", F.Lit(4), c))
    formula = F.Cmp("<", weighted, F.Lit(7))
    obligation = _obligation_over(formula)
    domains = Domains((-1, 1), ())
    envs = list(enumerate_environments(obligation, domains))
    falsifiers = [env for env in envs if F.evaluate(formula, env) is not True]
    assert falsifiers == [envs[-1]] == [{"a": 1, "b": 1, "c": 1}]
    assert discharge(obligation, domains) == Verdict(FAILED, counterexample=falsifiers[0])
    assert [source for source, _ in scans if source.startswith("def scan(l0, l1, l2)")]
    values = [symbol_domain(T_INT, domains)] * 3
    holds = list(_leaves_where(formula, ["a", "b", "c"], values, True))
    assert holds == [tuple(env.values()) for env in envs[:-1]]


def test_two_runs_share_the_code_of_one_shape(monkeypatch):
    """Each run has its own Domains, and a shape's code outlives it: the
    second run's scan of ``i + j < 3`` is the first run's code object."""
    scans = _record_scans(monkeypatch)
    formula = F.Cmp("<", F.Arith("+", F.Sym("i", T_INT), F.Sym("j", T_INT)), F.Lit(3))
    for _ in range(2):
        domains = Domains((-3, 3), ())
        verdict = discharge(_obligation_over(formula), domains)
        assert verdict == Verdict(FAILED, counterexample={"i": 0, "j": 3})
    assert len(scans) == 2 and scans[0] == scans[1] and scans[0][1] is scans[1][1]


def test_more_scan_shapes_than_the_process_keeps():
    """``i op j op j ... < 1``, its operators spelled by the bits of a
    number, gives a shape per number: more of them than the cache of
    compiled scans holds, then the first ones again, once evicted. Each
    verdict and first falsifier is enumeration's, and the cache never
    holds more than its bound."""
    from miniproof.formula import _SCAN_CACHE_SIZE, _scan_code

    count = _SCAN_CACHE_SIZE + 40
    i, j = F.Sym("i", T_INT), F.Sym("j", T_INT)
    shapes = []
    for n in range(count):
        term = i
        for bit in range(count.bit_length()):
            term = F.Arith("-" if n >> bit & 1 else "+", term, j)
        shapes.append(F.Cmp("<", term, F.Lit(1)))
    domains = Domains((-2, 2), ())
    misses = _scan_code.cache_info().misses
    for formula in shapes + shapes[:40]:
        obligation = _obligation_over(formula)
        naive = next(
            (env for env in enumerate_environments(obligation, domains) if F.evaluate(formula, env) is not True),
            None,
        )
        expected = Verdict(DISCHARGED) if naive is None else Verdict(FAILED, counterexample=naive)
        assert discharge(obligation, domains) == expected
        assert _scan_code.cache_info().currsize <= _SCAN_CACHE_SIZE
    # every shape compiled, and the first 40 again after their eviction
    assert _scan_code.cache_info().misses - misses == count + 40


def test_a_pin_in_one_branch_stays_out_of_the_next():
    """With a = -2 the residual is ``e = 2 implies ...``, which pins e and
    then holds; with a = -1 it is ``b < -5``, false at b = -2, so e keeps
    its first value there."""
    a, b, c, d, e = (F.Sym(n, T_INT) for n in "abcde")
    total = F.Arith("+", F.Arith("+", b, c), F.Arith("+", d, e))
    formula = F.And(
        (
            F.Implies(F.Cmp("=", a, F.Lit(-2)), F.Implies(F.Cmp("=", e, F.Lit(2)), F.Cmp("<=", total, F.Lit(100)))),
            F.Implies(F.Cmp("/=", a, F.Lit(-2)), F.Cmp("<", b, F.Lit(-5))),
        )
    )
    obligation = _obligation_over(formula)
    domains = Domains((-2, 2), ())
    naive = next(
        env
        for env in enumerate_environments(obligation, domains)
        if F.evaluate(formula, env) is not True
    )
    verdict = discharge(obligation, domains)
    assert verdict.counterexample == naive == {"a": -1, "b": -2, "c": -2, "d": -2, "e": -2}


def test_tokeneer_search_builds_no_set_domain(checked_programs, entries):
    """Every SET_OF_STRING symbol of the Tokeneer entries is pinned to a
    literal, narrowed away or left at its first value, so the 4096-value
    domain over their 12-string pool is never built."""
    from miniproof.ast import T_SET

    for name in ("tokeneer_enrolment", "tokeneer_noprecond_mutant", "tokeneer_frame_mutant"):
        checked, opts = checked_programs[name], entries[name].options
        domains = derive_domains(checked, opts)
        for obligation in generate_obligations(checked, opts):
            discharge(obligation, domains)
        assert T_SET not in domains._built, name


def test_a_goal_its_hypotheses_state_is_settled_without_a_scan(checked_programs, entries, monkeypatch):
    """``update_screen`` maintains an invariant it never touches: once
    folded, every conjunct of the consequent is one of the hypotheses, so
    the obligation is Discharged before any scan is compiled."""
    from miniproof import discharge as discharge_module

    compiled = []
    original = discharge_module._compile

    def counting(*args):
        compiled.append(args)
        return original(*args)

    monkeypatch.setattr(discharge_module, "_compile", counting)
    checked, opts = checked_programs["tokeneer_enrolment"], entries["tokeneer_enrolment"].options
    (obligation,) = [
        o
        for o in generate_obligations(checked, opts)
        if o.id == "ID_STATION.update_screen.invariant_maintenance.0"
    ]
    assert discharge(obligation, derive_domains(checked, opts)) == Verdict(DISCHARGED)
    assert compiled == []


def test_a_goal_that_restates_only_some_hypotheses_is_searched():
    """``x >= 0 and y < x implies (x >= 0 and x + y <= 1)``: the first
    conjunct of the goal, rebuilt as a new node, is a hypothesis, the
    second is not, so the search goes on and finds enumeration's first
    falsifier, x = 2 and y = 0."""
    x, y = F.Sym("x", T_INT), F.Sym("y", T_INT)
    restated = F.Cmp(">=", F.Sym("x", T_INT), F.Lit(0))
    hypotheses = F.And((F.Cmp(">=", x, F.Lit(0)), F.Cmp("<", y, x)))
    formula = F.Implies(hypotheses, F.And((restated, F.Cmp("<=", F.Arith("+", x, y), F.Lit(1)))))
    assert restated in hypotheses.items and all(restated is not h for h in hypotheses.items)
    obligation = _obligation_over(formula)
    domains = Domains((-2, 2), ())
    naive = next(
        env
        for env in enumerate_environments(obligation, domains)
        if F.evaluate(formula, env) is not True
    )
    assert naive == {"x": 2, "y": 0}
    assert discharge(obligation, domains) == Verdict(FAILED, counterexample=naive)


def test_deep_copies_of_one_residual_compare_equal_in_one_frame():
    """Folding rebuilds each occurrence of a subformula it binds in, so a
    hypothesis and a goal can hold two copies of a chain as deep as the
    routine is long; they compare without recursing, and a copy that
    differs at the bottom does not match."""
    from miniproof.discharge import _entailed

    def chain(bottom):
        f = F.Sym(bottom, T_INT)
        for _ in range(5000):
            f = F.Arith("+", f, F.Sym("p", T_INT))
        return F.Cmp(">=", f, F.Lit(0))

    assert _entailed([chain("acc")], chain("acc"))
    assert not _entailed([chain("acc")], chain("old_acc"))


def test_a_pinned_routine_600_assignments_long_gets_its_verdict():
    """``step`` pins p and q to 0 and adds p to acc 600 times, so its check
    ``acc >= 1`` fails at the one leaf left. Narrowing meets each pinning
    hypothesis, a node as deep as the routine is long, and looks it up in
    its memo by identity; hashing it would recurse through the node."""
    body = "            acc := acc + p\n" * 600
    source = (
        "class A\ncreate\n    make\nfeature\n    acc : INTEGER\n    make\n        do\n            acc := 0\n"
        "        end\n    step (p : INTEGER; q : INTEGER)\n        require\n            p = 0\n            q = 0\n"
        f"        do\n{body}            if acc >= q then\n                check c: acc >= 1 end\n            end\n"
        "        end\nend\n"
    )
    report = verify_program(analyze(parse(source)), VerifyOptions())
    assert [(r.id, r.verdict) for r in report.rows] == [
        ("A.step.check_assertion.0", Verdict(FAILED, counterexample={"acc": 0, "p": 0, "q": 0}))
    ]
    assert report.exit_status == 1


def test_overflow_failure_bounds(checked_programs):
    opts = VerifyOptions(int_range=(-128, 127), check_overflow=True, overflow_width=8)
    checked = checked_programs["account"]
    obligations = generate_obligations(checked, opts)
    (deposit_overflow,) = [
        o for o in obligations if o.id == "ACCOUNT.deposit.overflow.0"
    ]
    verdict = discharge(deposit_overflow, derive_domains(checked, opts))
    assert verdict.status == FAILED
    cx = verdict.counterexample
    assert cx["balance"] + cx["amount"] > 127


# -- reports ---------------------------------------------------------------------


def test_percentages_round_half_away_and_sum_near_100():
    # 38 obligations split 22/8/8 renders 58% / 21% / 21%
    from miniproof.discharge import _percent

    assert _percent(22, 38) == 58
    assert _percent(8, 38) == 21
    assert 58 + 21 + 21 == 100


def test_empty_report_renders_zero_percentages():
    report = build_report([], Domains((-8, 8), ()), duration_ms=0)
    assert report.total == 0
    assert summary_line(report) == (
        "0 obligations: 0 discharged (0%), 0 failed (0%), 0 errors (0%)"
    )
    assert render_text(report).endswith("(0%)")
    assert report.exit_status == 0


@pytest.mark.parametrize("overflow", [False, True], ids=["manifest", "width8"])
def test_json_report_is_the_indented_dump_of_its_payload_for_the_corpus(checked_programs, entries, overflow):
    for name, entry in entries.items():
        opts = entry.options.replace(check_overflow=True, overflow_width=8) if overflow else entry.options
        report = verify_program(checked_programs[name], opts)
        assert render_json(report) == json.dumps(report_payload(report), indent=2), name


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_json_report_is_the_indented_dump_of_its_payload_for_vc_scaling(seed, vc_scaling_programs):
    opts = VerifyOptions(int_range=vc_scaling_programs.INT_RANGE)
    for program in vc_scaling_programs.generate(seed):
        report = verify_program(analyze(parse(program.source)), opts)
        assert render_json(report) == json.dumps(report_payload(report), indent=2), program.name


def _masked(report) -> dict:
    payload = report_payload(report)
    del payload["duration_ms"]
    return payload


def _assert_runs_match_fresh_domains(checked, opts, label):
    """Two runs in one process report what discharging each obligation in
    a Domains of its own, from an empty cache of compiled scans, reports,
    and each Failed counterexample lists every free symbol of its formula
    in sorted-name order."""
    from miniproof.formula import _scan_code

    obligations = generate_obligations(checked, opts)
    by_id = {o.id: o for o in obligations}
    _scan_code.cache_clear()
    fresh = build_report(
        [(o, discharge(o, derive_domains(checked, opts))) for o in obligations], derive_domains(checked, opts)
    )
    for run in (1, 2):
        report = verify_program(checked, opts)
        assert _masked(report) == _masked(fresh), (label, run)
        for row in report.rows:
            if row.verdict.status == FAILED:
                names = sorted(F.free_syms(by_id[row.id].formula))
                assert list(row.verdict.counterexample) == names, (label, run, row.id)


@pytest.mark.parametrize("overflow", [False, True], ids=["manifest", "width8"])
def test_runs_in_one_process_carry_nothing_over_for_the_corpus(checked_programs, entries, overflow):
    for name, entry in entries.items():
        opts = entry.options.replace(check_overflow=True, overflow_width=8) if overflow else entry.options
        _assert_runs_match_fresh_domains(checked_programs[name], opts, name)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_runs_in_one_process_carry_nothing_over_for_vc_scaling(seed, vc_scaling_programs):
    opts = VerifyOptions(int_range=vc_scaling_programs.INT_RANGE)
    for program in vc_scaling_programs.generate(seed):
        _assert_runs_match_fresh_domains(analyze(parse(program.source)), opts, program.name)


def test_json_report_writes_every_value_encoding_as_the_indented_dump():
    """Sets (empty too), references, Void, booleans, negative integers and
    strings that need escaping in a counterexample; an empty counterexample;
    an Error row's reason; an empty report."""
    formula = F.Cmp("=", F.Sym("x", T_INT), F.Lit(0))

    def row(oid, verdict):
        return Obligation(oid, "Postcondition", "C", "f", formula, 'q"uote'), verdict

    values = {
        "n": -7,
        "b": True,
        "f": False,
        "s": 'a "quoted" \\ line\n\u00e9\u2603\x01',
        "v": None,
        "set": frozenset({"welcome", "blank"}),
        "empty": frozenset(),
        "r": F.Ref("CELL"),
    }
    pairs = [
        row("C.f.postcondition.0", Verdict(FAILED, counterexample=values)),
        row("C.f.postcondition.1", Verdict(FAILED, counterexample={})),
        row("C.f.postcondition.2", Verdict(DISCHARGED)),
        row("C.f.postcondition.3", Verdict(ERROR, reason="unsupported \u00ab construct \u00bb")),
    ]
    for report in (
        build_report(pairs, Domains((-3, 4), ("blank", "welcome", "\u00e9t\u00e9")), duration_ms=12),
        build_report([], Domains((-8, 8), ()), duration_ms=0),
    ):
        assert render_json(report) == json.dumps(report_payload(report), indent=2)


def test_report_rows_are_ordered_and_counts_add_up(checked_programs, entries):
    report = verify_program(
        checked_programs["account_overflow_mutant"],
        entries["account_overflow_mutant"].options,
    )
    assert report.total == len(report.rows) == 10
    assert sum(report.counts.values()) == report.total
    ids = [r.id for r in report.rows]
    assert ids == sorted(ids, key=lambda i: (i.rsplit(".", 1)[0], int(i.rsplit(".", 1)[1])))
    assert report.exit_status == 1


def test_exit_status_precedence(pinned_reports):
    assert pinned_reports("account").exit_status == 0
    assert pinned_reports("account_noguard_mutant").exit_status == 1
    # an Error verdict wins over Failed and Discharged
    assert pinned_reports("contract_creation_error").exit_status == 2


def test_int_range_must_contain_zero():
    import pytest

    with pytest.raises(ValueError):
        VerifyOptions(int_range=(1, 8))


def test_first_falsifier_is_lexicographically_least():
    """The counterexample the engine reports is the first failing
    environment in enumeration order."""
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 0\n"
        "    end\n"
        "  bump (a : INTEGER, b : INTEGER)\n"
        "    do\n"
        "      x := a * b\n"
        "    ensure\n"
        "      small: x <= 4\n"
        "    end\n"
        "end\n"
    )
    checked = analyze(parse(source))
    opts = VerifyOptions(int_range=(-3, 3))
    obligations = generate_obligations(checked, opts)
    (post,) = [o for o in obligations if o.id == "C.bump.postcondition.0"]
    domains = derive_domains(checked, opts)
    verdict = discharge(post, domains)
    assert verdict.status == FAILED

    naive = next(
        env
        for env in enumerate_environments(post, domains)
        if F.evaluate(post.formula, env) is not True
    )
    assert verdict.counterexample == naive
    # independent check: a*b > 4 first happens at a=-3, b=-3 (product 9)
    assert verdict.counterexample["a"] * verdict.counterexample["b"] > 4
    assert verdict.counterexample["a"] == -3 and verdict.counterexample["b"] == -3
