"""Property-based checks: constant folding and substitution preserve meaning,
wp of an assignment agrees with operational substitution, printing is
parse-stable, enumeration visits minimums first, the search finds the
first falsifier of enumeration, and delayed substitution reads exactly as
eager substitution."""

import hypothesis.strategies as st
from hypothesis import given, settings

from miniproof import analyze, parse
from miniproof import formula as F
from miniproof.ast import T_BOOL, T_INT, T_SET, T_STRING, ref
from miniproof.discharge import DISCHARGED, FAILED, Domains, discharge, enumerate_environments
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


EXPR_TEXTS = st.recursive(
    st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(["x", "y"]),
    ),
    lambda sub: st.builds(
        lambda a, op, c: f"({a} {op} {c})",
        sub,
        st.sampled_from(["+", "-", "*"]),
        sub,
    ),
    max_leaves=8,
)


@settings(max_examples=60)
@given(text=EXPR_TEXTS)
def test_printed_expressions_reparse_to_the_same_tree(text):
    def parse_expr(t: str):
        host = (
            "class H\n"
            "create make\n"
            "feature\n"
            "  x : INTEGER\n"
            "  y : INTEGER\n"
            "  make\n"
            "    do\n"
            "      x := 0\n"
            "      y := 0\n"
            "    ensure\n"
            f"      c: x = {t}\n"
            "    end\n"
            "end\n"
        )
        clause = parse(host).classes[0].features[0].ensure[0].expr
        return clause.right  # the generated integer term

    from miniproof import expr_text

    tree = parse_expr(text)
    printed = expr_text(tree)
    assert parse_expr(printed) == tree


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

SEARCH_FORMULAS = st.recursive(
    SEARCH_ATOMS,
    lambda sub: st.one_of(
        st.builds(F.Not, sub),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: F.And(tuple(items))),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: F.Or(tuple(items))),
        st.builds(F.Implies, sub, sub),
        # an antecedent with sym = literal conjuncts, or disjuncts, which pin nothing
        st.builds(
            lambda join, pins, rest, body: F.Implies(join(tuple(pins) + (rest,)), body),
            st.sampled_from([F.And, F.Or]),
            st.lists(PINS, min_size=1, max_size=3),
            sub,
            sub,
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
    if isinstance(f, (F.Sym, F.OldSym, F.Lit)):
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
    return _eager(f, lambda leaf: F.Sym(leaf.name, leaf.ty) if isinstance(leaf, F.OldSym) else leaf)


LET_INT_LEAVES = st.one_of(
    st.sampled_from(list(LET_INTS.values())),
    st.sampled_from([F.OldSym("x", T_INT), F.OldSym("y", T_INT)]),
    st.integers(-3, 3).map(F.Lit),
)
LET_INT_TERMS = st.one_of(
    LET_INT_LEAVES,
    st.builds(F.Arith, st.sampled_from(["+", "-", "*"]), LET_INT_LEAVES, LET_INT_LEAVES),
)
LET_ATOMS = st.one_of(
    st.builds(F.Cmp, st.sampled_from(["=", "/=", "<", "<=", ">", ">="]), LET_INT_TERMS, LET_INT_TERMS),
    st.sampled_from([LET_BOOL, F.OldSym("b", T_BOOL), F.TRUE, F.FALSE]),
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
