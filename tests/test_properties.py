"""Property-based checks: constant folding and substitution preserve meaning,
wp of an assignment agrees with operational substitution, printing is
parse-stable, the JSON report and trace writers match the indented dumps
of their payloads, enumeration visits minimums first, the search finds the
first falsifier of enumeration however its hypotheses narrow the domains
or restate its goal, a pin's lazy domain lookup agrees with the built
domain, delayed substitution reads exactly as eager substitution, and the
monitor's compiled evaluator agrees with the formula evaluator on lowered
expressions, `old` included."""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from miniproof import analyze, ast, parse
from miniproof import formula as F
from miniproof.ast import T_BOOL, T_INT, T_SET, T_STRING, ref
from miniproof.discharge import (
    DISCHARGED,
    ERROR,
    FAILED,
    Domains,
    Verdict,
    _member,
    build_report,
    discharge,
    enumerate_environments,
    render_json,
    report_payload,
    symbol_domain,
)
from miniproof.pretty import expr_text
from miniproof.runtime import RuntimeObject, Step, Trace, _compile, eval_expr, trace_json, trace_payload
from miniproof.vcgen import Obligation, wp

X = F.Sym("x", T_INT)
Y = F.Sym("y", T_INT)
B = F.Sym("b", T_BOOL)


def int_terms(depth: int):
    base = st.one_of(
        st.integers(-5, 5).map(F.Lit),
        st.sampled_from([X, Y]),
    )
    if depth == 0:
        return base
    sub = int_terms(depth - 1)
    return st.one_of(
        base,
        st.builds(F.Arith, st.sampled_from(["+", "-", "*"]), sub, sub),
    )


def bool_terms(depth: int):
    cmps = st.builds(
        F.Cmp,
        st.sampled_from(["=", "/=", "<", "<=", ">", ">="]),
        int_terms(1),
        int_terms(1),
    )
    base = st.one_of(st.booleans().map(F.Lit), st.just(B), cmps)
    if depth == 0:
        return base
    sub = bool_terms(depth - 1)
    return st.one_of(
        base,
        st.builds(F.Not, sub),
        st.builds(lambda a, c: F.And((a, c)), sub, sub),
        st.builds(lambda a, c: F.Or((a, c)), sub, sub),
        st.builds(F.Implies, sub, sub),
    )


ENVS = st.fixed_dictionaries(
    {"x": st.integers(-8, 8), "y": st.integers(-8, 8), "b": st.booleans()}
)


@given(formula=bool_terms(3), env=ENVS)
def test_fold_preserves_meaning(formula, env):
    assert F.evaluate(F.fold(formula), env) == F.evaluate(formula, env)


@given(formula=bool_terms(3))
def test_folding_a_folded_formula_returns_it(formula):
    folded = F.fold(formula)
    assert F.fold(folded) is folded


@given(formula=bool_terms(2), env=ENVS, replacement=int_terms(1))
def test_substitution_then_evaluation_commutes(formula, env, replacement):
    substituted = F.subst(formula, {"x": replacement})
    direct = F.evaluate(substituted, env)
    via_value = F.evaluate(formula, {**env, "x": F.evaluate(replacement, env)})
    assert direct == via_value


@given(env=st.fixed_dictionaries({"balance": st.integers(-8, 8), "amount": st.integers(-8, 8)}))
def test_wp_of_assignment_agrees_with_execution(env):
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  balance : INTEGER\n"
        "  make\n"
        "    do\n"
        "      balance := 0\n"
        "    end\n"
        "  move (amount : INTEGER)\n"
        "    do\n"
        "      balance := balance * 2 - amount\n"
        "    end\n"
        "end\n"
    )
    checked = analyze(parse(source))
    body = checked.info("C").routines["move"].body
    post = F.Cmp(">=", F.Sym("balance", T_INT), F.Lit(0))
    pre = wp(checked, "C", "move", body, post)
    executed = env["balance"] * 2 - env["amount"] >= 0
    assert F.evaluate(pre, env) is executed


@settings(max_examples=40)
@given(formula=bool_terms(3))
def test_formula_text_is_stable(formula):
    assert F.to_text(formula) == F.to_text(formula)
    # rendering never crashes and mentions every free symbol
    text = F.to_text(formula)
    for name in F.free_syms(formula):
        assert name in text


@given(lo=st.integers(-6, 0), hi=st.integers(0, 6))
def test_enumeration_starts_at_minimums(lo, hi):
    if hi - lo + 1 < 2:
        hi = lo + 1
        if hi > 0 and lo > 0:
            return
    formula = F.Cmp("=", X, Y)
    obligation = Obligation(
        id="T.f.postcondition.0",
        kind="Postcondition",
        class_name="T",
        feature_name="f",
        formula=formula,
        provenance="c",
    )
    envs = list(enumerate_environments(obligation, Domains((lo, hi), ())))
    size = hi - lo + 1
    assert len(envs) == size * size
    assert envs[0] == {"x": lo, "y": lo}
    assert envs[-1] == {"x": hi, "y": hi}


IDENTIFIERS = st.sampled_from(["x", "y", "balance", "_t1"])

# every kind of expression the parser makes; a unary minus before a
# literal is folded into it, so it shows as a negative IntLit
EXPR_TREES = st.recursive(
    st.one_of(
        st.integers(-20, 20).map(ast.IntLit),
        st.booleans().map(ast.BoolLit),
        st.sampled_from(["", "a b", "and"]).map(ast.StrLit),
        st.builds(ast.VoidLit),
        st.lists(st.sampled_from(["a", "b"]), max_size=2).map(lambda items: ast.SetLit(tuple(items))),
        IDENTIFIERS.map(ast.Name),
        st.builds(ast.Qualified, IDENTIFIERS, IDENTIFIERS),
        st.sampled_from(["C", "ACCOUNT"]).map(ast.CreateExpr),
    ),
    lambda sub: st.one_of(
        st.builds(ast.Binary, st.sampled_from([op for _, ops in ast.BINARY_LEVELS for op in ops]), sub, sub),
        sub.map(lambda e: ast.Unary("not", e)),
        sub.map(ast.Old),
        st.builds(ast.Has, sub, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(tree=EXPR_TREES)
def test_printed_expressions_reparse_to_the_same_tree(tree):
    """Over every binary operator (comparisons as operands of comparisons
    included), not, old, negative literals, has and qualified names:
    printed text reparses to the tree, and printing is a fixpoint."""
    from miniproof import expr_text

    def parse_expr(text: str) -> ast.Expr:
        host = f"class H\nfeature\n  f\n    do\n    ensure\n      c: {text}\n    end\nend\n"
        return parse(host).classes[0].features[0].ensure[0].expr

    printed = expr_text(tree)
    reparsed = parse_expr(printed)
    assert reparsed == tree
    assert expr_text(reparsed) == printed


@given(
    values=st.lists(
        st.one_of(
            st.integers(-100, 100),
            st.booleans(),
            st.sampled_from(["blank", "welcome", None]),
            st.just(F.Ref("CONST")),
            st.builds(frozenset, st.sets(st.sampled_from(["a", "b", "c"]))),
        ),
        max_size=6,
    )
)
def test_encode_decode_round_trip(values):
    from miniproof.formula import decode_value, encode_value

    for value in values:
        assert decode_value(encode_value(value)) == value


# -- the JSON report writer -------------------------------------------------------
# Any text, so strings that need escaping: quotes, backslashes, control
# characters and characters outside ASCII.

REPORT_TEXT = st.text(max_size=6)
REPORT_VALUES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.none(),
    REPORT_TEXT,
    st.frozensets(REPORT_TEXT, max_size=3),
    REPORT_TEXT.map(F.Ref),
)
REPORT_VERDICTS = st.one_of(
    st.just(Verdict(DISCHARGED)),
    st.dictionaries(REPORT_TEXT, REPORT_VALUES, max_size=4).map(lambda cx: Verdict(FAILED, counterexample=cx)),
    REPORT_TEXT.map(lambda reason: Verdict(ERROR, reason=reason)),
)
REPORT_ROWS = st.lists(
    st.tuples(
        st.builds("{}.{}".format, REPORT_TEXT, st.integers(0, 99)),
        REPORT_TEXT,
        REPORT_TEXT,
        REPORT_TEXT,
        REPORT_TEXT,
        REPORT_VERDICTS,
    ),
    max_size=4,
)


@settings(max_examples=200)
@given(
    rows=REPORT_ROWS,
    pool=st.lists(REPORT_TEXT, max_size=3, unique=True),
    lo=st.integers(-50, 0),
    duration=st.integers(0, 10**6),
)
def test_json_report_is_the_indented_dump_of_its_payload(rows, pool, lo, duration):
    pairs = [(Obligation(oid, kind, cls, feat, F.TRUE, prov), v) for oid, kind, cls, feat, prov, v in rows]
    report = build_report(pairs, Domains((lo, lo + 5), tuple(pool)), duration)
    assert render_json(report) == json.dumps(report_payload(report), indent=2)


# -- the JSON trace writer ----------------------------------------------------------

TRACE_TEXT = st.one_of(REPORT_TEXT, st.sampled_from(['say "hi"', "back\\slash", "\n\t\x00\x1f", "é€😀", ""]))
TRACE_VALUES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.none(),
    TRACE_TEXT,
    st.frozensets(TRACE_TEXT, max_size=3),
    TRACE_TEXT.map(lambda class_name: RuntimeObject(class_name, {})),
)
TRACE_STEPS = st.lists(st.builds(Step, TRACE_TEXT, TRACE_TEXT, TRACE_TEXT, st.booleans()), max_size=3)
TRACE_OBJECTS = st.dictionaries(
    TRACE_TEXT,
    st.builds(RuntimeObject, TRACE_TEXT, st.dictionaries(TRACE_TEXT, TRACE_VALUES, max_size=4)),
    max_size=3,
)


@settings(max_examples=200)
@given(steps=TRACE_STEPS, objects=TRACE_OBJECTS, ok=st.booleans())
def test_json_trace_is_the_indented_dump_of_its_payload(steps, objects, ok):
    trace = Trace(steps, objects, ok)
    assert trace_json(trace) == json.dumps(trace_payload(trace), indent=2)


# -- discharge against the naive oracle --------------------------------------------
# A small pool of symbols of every enumerable type, named so that sorted-name
# order interleaves the types; literals include values outside each domain.

SEARCH_DOMAINS = Domains((-2, 2), ("a", "b"))
SYMS = {
    "a": F.Sym("a", T_INT),
    "c": F.Sym("c", T_BOOL),
    "e": F.Sym("e", T_STRING),
    "g": F.Sym("g", T_SET),
    "k": F.Sym("k", T_INT),
    "m": F.Sym("m", ref("CELL")),
    "p": F.Sym("p", T_BOOL),
    "s": F.Sym("s", T_STRING),
}
LITERALS = {
    "INTEGER": st.integers(-3, 3),
    "BOOLEAN": st.booleans(),
    "STRING": st.sampled_from(["a", "b", "z", None]),
    "SET_OF_STRING": st.sampled_from(
        [frozenset(), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"z"})]
    ),
    "REF": st.sampled_from([F.Ref("CELL"), None]),
}


def typed_term(kind: str):
    syms = [f for f in SYMS.values() if f.ty.kind == kind]
    return st.one_of(st.sampled_from(syms), LITERALS[kind].map(F.Lit))


def search_int_terms():
    base = typed_term("INTEGER")
    return st.one_of(base, st.builds(F.Arith, st.sampled_from(["+", "-", "*"]), base, base))


PINS = st.sampled_from(list(SYMS.values())).flatmap(
    lambda sym: st.builds(
        lambda value, flip: F.Cmp("=", F.Lit(value), sym) if flip else F.Cmp("=", sym, F.Lit(value)),
        LITERALS[sym.ty.kind],
        st.booleans(),
    )
)

SEARCH_ATOMS = st.one_of(
    st.builds(F.Cmp, st.sampled_from(["=", "/=", "<", "<=", ">", ">="]), search_int_terms(), search_int_terms()),
    st.sampled_from([SYMS["c"], SYMS["p"]]),
    st.sampled_from(list(LITERALS)).flatmap(
        lambda kind: st.builds(F.Cmp, st.sampled_from(["=", "/="]), typed_term(kind), typed_term(kind))
    ),
    st.builds(F.HasF, typed_term("SET_OF_STRING"), typed_term("STRING")),
    # symbols that fold away: reflexive comparisons
    st.builds(lambda t, op: F.Cmp(op, t, t), search_int_terms(), st.sampled_from(["=", "<", ">="])),
    PINS,
)


def _sym_against_literal(op: str, kinds: tuple[str, ...]):
    """sym op literal, either way round, for a symbol of one of the kinds."""
    syms = [f for f in SYMS.values() if f.ty.kind in kinds]
    return st.sampled_from(syms).flatmap(
        lambda sym: st.builds(
            lambda value, flip: F.Cmp(op, F.Lit(value), sym) if flip else F.Cmp(op, sym, F.Lit(value)),
            LITERALS[sym.ty.kind],
            st.booleans(),
        )
    )


# hypotheses over one symbol, any of them (the later ones in sorted-name
# order too), which the search narrows that symbol's domain by
NARROWS = st.one_of(
    PINS,
    _sym_against_literal("/=", tuple(LITERALS)),
    st.sampled_from(["<", ">="]).flatmap(lambda op: _sym_against_literal(op, ("INTEGER",))),
    st.builds(F.HasF, st.just(SYMS["g"]), LITERALS["STRING"].map(F.Lit)),
    st.builds(F.HasF, LITERALS["SET_OF_STRING"].map(F.Lit), st.sampled_from([SYMS["e"], SYMS["s"]])),
    st.just(F.Cmp("/=", SYMS["m"], F.Lit(None))),
    st.sampled_from([SYMS["c"], SYMS["p"], F.Not(SYMS["p"])]),
)


def _hypothesis_and(narrows, rest):
    return F.And((*narrows, rest))


def _fresh_leaf(f: F.Formula) -> F.Formula:
    """A new leaf equal to f: copied with it (see ``_eager``), a formula
    shares no node with the original."""
    return F.Sym(f.name, f.ty) if isinstance(f, F.Sym) else F.Lit(f.value)


def _all(items) -> F.Formula:
    return items[0] if len(items) == 1 else F.And(tuple(items))


def _restating(conjuncts, cut, picks, others):
    """``A implies C``, or ``A implies (B implies C)`` with the conjuncts
    cut in two, whose consequent C restates the picked conjuncts, rebuilt
    from fresh nodes, followed by the other formulas, which it need not
    restate."""
    goal = _all([_eager(conjuncts[i % len(conjuncts)], _fresh_leaf) for i in picks] + others)
    cut %= len(conjuncts) + 1
    if 0 < cut < len(conjuncts):
        return F.Implies(_all(conjuncts[:cut]), F.Implies(_all(conjuncts[cut:]), goal))
    return F.Implies(_all(conjuncts), goal)


SEARCH_FORMULAS = st.recursive(
    SEARCH_ATOMS,
    lambda sub: st.one_of(
        st.builds(F.Not, sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: F.And(tuple(items))),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: F.Or(tuple(items))),
        st.builds(F.Implies, sub, sub),
        # an antecedent with one-symbol conjuncts, or disjuncts, which narrow nothing
        st.builds(
            lambda join, narrows, rest, body: F.Implies(join(tuple(narrows) + (rest,)), body),
            st.sampled_from([F.And, F.Or]),
            st.lists(NARROWS, min_size=1, max_size=3),
            sub,
            sub,
        ),
        # an implication chain A implies (B implies C)
        st.builds(
            lambda a, b, c: F.Implies(a, F.Implies(b, c)),
            st.builds(_hypothesis_and, st.lists(NARROWS, min_size=1, max_size=2), sub),
            st.builds(_hypothesis_and, st.lists(NARROWS, min_size=1, max_size=2), sub),
            sub,
        ),
        # not (A and B), what A implies false folds to
        st.builds(_hypothesis_and, st.lists(NARROWS, min_size=1, max_size=3), sub).map(F.Not),
        # a consequent that restates all or some of the hypotheses
        st.builds(
            _restating,
            st.lists(st.one_of(NARROWS, sub), min_size=1, max_size=3),
            st.integers(0, 3),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
            st.lists(sub, max_size=2),
        ),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(formula=SEARCH_FORMULAS)
def test_search_finds_the_first_falsifier_of_enumeration(formula):
    obligation = Obligation(
        id="T.f.postcondition.0",
        kind="Postcondition",
        class_name="T",
        feature_name="f",
        formula=formula,
        provenance="c",
    )
    naive = next(
        (
            env
            for env in enumerate_environments(obligation, SEARCH_DOMAINS)
            if F.evaluate(formula, env) is not True
        ),
        None,
    )
    verdict = discharge(obligation, SEARCH_DOMAINS)
    if naive is None:
        assert verdict.status == DISCHARGED
    else:
        assert verdict.status == FAILED
        assert verdict.counterexample == naive


LITERAL_VALUES = st.sampled_from(list(LITERALS)).flatmap(lambda kind: LITERALS[kind])
DOMAIN_TYPES = st.sampled_from([T_INT, T_BOOL, T_STRING, T_SET, ref("CELL"), ref("OTHER")])


@settings(max_examples=300)
@given(lit=LITERAL_VALUES, ty=DOMAIN_TYPES)
def test_lazy_membership_agrees_with_the_built_domain(lit, ty):
    """A pin finds its literal's domain value without building the domain,
    as a dict of the built domain would: 1 finds the INTEGER 1 and the
    BOOLEAN true, a set must lie in the pool, a reference must be of the
    class."""
    domains = Domains((-2, 2), ("a", "b"))
    found = _member(lit, ty, domains)
    assert domains._built == {}
    index = {v: v for v in symbol_domain(ty, domains)}
    expected = (index[lit],) if lit in index else ()
    assert found == expected
    assert [type(v) for v in found] == [type(v) for v in expected]


# -- delayed substitution against eager substitution -------------------------------
# F.subst and F.unify_old build Let nodes. Every consumer must read a Let as
# the tree that eager, copying substitution would have built, so each step
# below is applied both ways and the results are compared through the
# public consumers.

LET_INTS = {name: F.Sym(name, T_INT) for name in ("x", "y", "z")}
LET_BOOL = F.Sym("b", T_BOOL)
LET_DOMAINS = Domains((-2, 2), ())


def _eager(f: F.Formula, leaf) -> F.Formula:
    """Copy f with every leaf replaced by leaf(leaf node), as substitution
    worked before it was delayed."""
    if isinstance(f, (F.Sym, F.Lit)):
        return leaf(f)
    if isinstance(f, F.Not):
        return F.Not(_eager(f.operand, leaf))
    if isinstance(f, F.And):
        return F.And(tuple(_eager(c, leaf) for c in f.items))
    if isinstance(f, F.Or):
        return F.Or(tuple(_eager(c, leaf) for c in f.items))
    if isinstance(f, F.Implies):
        return F.Implies(_eager(f.left, leaf), _eager(f.right, leaf))
    if isinstance(f, F.Cmp):
        return F.Cmp(f.op, _eager(f.left, leaf), _eager(f.right, leaf))
    if isinstance(f, F.Arith):
        return F.Arith(f.op, _eager(f.left, leaf), _eager(f.right, leaf))
    if isinstance(f, F.HasF):
        return F.HasF(_eager(f.set_expr, leaf), _eager(f.item, leaf))
    raise AssertionError(f"unexpected node {f!r}")


def eager_subst(f: F.Formula, mapping: dict) -> F.Formula:
    return _eager(f, lambda leaf: mapping.get(leaf.name, leaf) if isinstance(leaf, F.Sym) else leaf)


def eager_unify_old(f: F.Formula) -> F.Formula:
    def unified(leaf):
        if isinstance(leaf, F.Sym) and leaf.name.startswith("old "):
            return F.Sym(leaf.name[len("old "):], leaf.ty)
        return leaf

    return _eager(f, unified)


LET_INT_LEAVES = st.one_of(
    st.sampled_from(list(LET_INTS.values())),
    st.sampled_from([F.Sym("old x", T_INT), F.Sym("old y", T_INT)]),
    st.integers(-3, 3).map(F.Lit),
)
LET_INT_TERMS = st.one_of(
    LET_INT_LEAVES,
    st.builds(F.Arith, st.sampled_from(["+", "-", "*"]), LET_INT_LEAVES, LET_INT_LEAVES),
)
LET_ATOMS = st.one_of(
    st.builds(F.Cmp, st.sampled_from(["=", "/=", "<", "<=", ">", ">="]), LET_INT_TERMS, LET_INT_TERMS),
    st.sampled_from([LET_BOOL, F.Sym("old b", T_BOOL), F.TRUE, F.FALSE]),
)
LET_FORMULAS = st.recursive(
    LET_ATOMS,
    lambda sub: st.one_of(
        st.builds(F.Not, sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: F.And(tuple(items))),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: F.Or(tuple(items))),
        st.builds(F.Implies, sub, sub),
    ),
    max_leaves=6,
)
# a mapping hits literals, symbols and compound terms, and names that an
# earlier step already bound; its values may mention the names it binds
LET_MAPPINGS = st.dictionaries(
    st.sampled_from(["x", "y", "z", "b"]), st.just(None), min_size=1, max_size=3
).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: (LET_ATOMS if k == "b" else LET_INT_TERMS) for k in keys}
    )
)
LET_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("subst"), LET_MAPPINGS),
        # wp of an if: both branches share the post
        st.tuples(st.just("branch"), LET_ATOMS, LET_MAPPINGS),
        # wp of a check
        st.tuples(st.just("check"), LET_ATOMS),
    ),
    min_size=1,
    max_size=5,
)
LET_ENVS = st.fixed_dictionaries(
    {"x": st.integers(-3, 3), "y": st.integers(-3, 3), "z": st.integers(-3, 3), "b": st.booleans()}
)


def _step(f, step, subst):
    if step[0] == "subst":
        return subst(f, step[1])
    if step[0] == "branch":
        _, cond, mapping = step
        return F.conj(F.implies(cond, subst(f, mapping)), F.implies(F.neg(cond), f))
    return F.conj(step[1], f)


@settings(max_examples=300, deadline=None)
@given(
    formula=LET_FORMULAS,
    steps=LET_STEPS,
    partial=st.dictionaries(st.sampled_from(["x", "y", "b"]), st.integers(-2, 2)),
    envs=st.lists(LET_ENVS, min_size=1, max_size=3),
)
def test_delayed_substitution_reads_as_eager_substitution(formula, steps, partial, envs):
    lazy, eager = formula, formula
    for step in steps:
        lazy, eager = _step(lazy, step, F.subst), _step(eager, step, eager_subst)
        assert F.free_syms(lazy) == F.free_syms(eager)
        assert F.old_syms(lazy) == F.old_syms(eager)
        assert F.to_text(lazy) == F.to_text(eager)
    lazy, eager = F.unify_old(lazy), eager_unify_old(eager)

    assert F.free_syms(lazy) == F.free_syms(eager)
    assert F.old_syms(lazy) == F.old_syms(eager) == {}
    assert F.to_text(lazy) == F.to_text(eager)
    assert F.fold(lazy) == F.fold(eager)
    binding = {name: (value > 0 if name == "b" else value) for name, value in partial.items()}
    assert F.specialize(lazy, binding) == F.specialize(eager, binding)
    for env in envs:
        assert F.evaluate(lazy, env) == F.evaluate(eager, env)

    def obligation(f):
        return Obligation(
            id="T.f.postcondition.0",
            kind="Postcondition",
            class_name="T",
            feature_name="f",
            formula=f,
            provenance="c",
        )

    assert discharge(obligation(lazy), LET_DOMAINS) == discharge(obligation(eager), LET_DOMAINS)


# one attribute of each value type, read by name and through the
# reference r, as the analyzer types them
AGREE_TYPES = {"i": T_INT, "b": T_BOOL, "s": T_STRING, "t": T_SET}


def _reads(name: str):
    ty = AGREE_TYPES[name]
    return st.sampled_from([ast.Name(name, ty=ty), ast.Qualified("r", name, ty=ty)])


def _agree_families(plain=None):
    """Strategies of (int, bool, string, set) expressions; given the plain
    families, each family also has `old` of a plain expression of its type
    among its leaves, so that no `old` nests inside another."""

    def leaves(*options, family=None):
        olds = [plain[family].map(ast.Old)] if plain else []
        return st.one_of(*options, *olds)

    strings = leaves(st.sampled_from(["a", "b"]).map(ast.StrLit), st.builds(ast.VoidLit), _reads("s"), family=2)
    sets = leaves(
        st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True).map(lambda items: ast.SetLit(tuple(items))),
        _reads("t"),
        family=3,
    )
    ints = st.recursive(
        leaves(st.integers(-5, 5).map(ast.IntLit), _reads("i"), family=0),
        lambda sub: st.builds(ast.Binary, st.sampled_from(["+", "-", "*"]), sub, sub),
        max_leaves=6,
    )
    bools = st.recursive(
        leaves(
            st.booleans().map(ast.BoolLit),
            _reads("b"),
            st.builds(ast.Binary, st.sampled_from(["=", "/=", "<", "<=", ">", ">="]), ints, ints),
            st.builds(ast.Binary, st.sampled_from(["=", "/="]), strings, strings),
            st.builds(ast.Binary, st.sampled_from(["=", "/="]), sets, sets),
            st.builds(ast.Has, sets, strings),
            family=1,
        ),
        lambda sub: st.one_of(
            sub.map(lambda e: ast.Unary("not", e)),
            st.builds(ast.Binary, st.sampled_from(["and", "or", "implies", "=", "/="]), sub, sub),
        ),
        max_leaves=6,
    )
    return ints, bools, strings, sets


AGREE_EXPRS = _agree_families(_agree_families())
AGREE_VALUES = st.fixed_dictionaries(
    {
        "i": st.integers(-8, 8),
        "b": st.booleans(),
        "s": st.sampled_from(["a", "b", "c", None]),
        "t": st.frozensets(st.sampled_from(["a", "b", "c"])),
    }
)


def _agree_env(own: dict, through_r: dict) -> tuple[dict, dict]:
    """The monitor's flat env and the formula evaluator's path values."""
    env = {**own, "r": RuntimeObject("R", dict(through_r))}
    return env, {**own, **{f"r.{name}": value for name, value in through_r.items()}}


def _agree_inputs(expr, own, through_r, entry_own, entry_r):
    """The monitor's env and `old` snapshot, which its emitted snapshot
    took in the entry state, keyed by path, and the formula evaluator's
    values of the path symbols and their entry-state symbols."""
    env, paths = _agree_env(own, through_r)
    entry_env, entry_paths = _agree_env(entry_own, entry_r)
    lowered = F.lower(expr)
    snapshot = _compile((), olds=tuple(F.old_syms(lowered)))(entry_env, entry_env, None)
    paths.update((F.OLD + name, value) for name, value in entry_paths.items())
    return lowered, env, snapshot, paths


@settings(max_examples=300)
@given(
    expr=st.one_of(*AGREE_EXPRS),
    own=AGREE_VALUES,
    through_r=AGREE_VALUES,
    entry_own=AGREE_VALUES,
    entry_r=AGREE_VALUES,
)
def test_monitor_and_formula_evaluators_agree(expr, own, through_r, entry_own, entry_r):
    """The monitor's emitted code evaluates an expression, reading each
    path under `old` from the snapshot; the formula evaluator reads the
    lowered expression over path symbols and their entry-state symbols."""
    lowered, env, snapshot, paths = _agree_inputs(expr, own, through_r, entry_own, entry_r)
    assert eval_expr(expr, env, snapshot) == F.evaluate(lowered, paths)


@settings(max_examples=300)
@given(
    expr=st.one_of(*AGREE_EXPRS),
    own=AGREE_VALUES,
    through_r=AGREE_VALUES,
    entry_own=AGREE_VALUES,
    entry_r=AGREE_VALUES,
)
def test_bounds_checked_monitor_and_formula_evaluators_agree(expr, own, through_r, entry_own, entry_r):
    """As above, with every arithmetic result bounds-checked at width 128,
    wider than any value drawn: six leaves, each at most 8 or the `old`
    of six such, make less than 2**108. The inline range tests neither
    fire nor change a value."""
    lowered, env, snapshot, paths = _agree_inputs(expr, own, through_r, entry_own, entry_r)
    labels = {id(node): expr_text(node) for node in ast.arith_postorder(expr)}
    bounds = F.VerifyOptions(overflow_width=128).overflow_bounds
    assert _compile((), expr, bounds=bounds, labels=labels)(env, env, snapshot) == F.evaluate(lowered, paths)
