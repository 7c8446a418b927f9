"""Weakest-precondition calculus: assignment is substitution, conditionals
split into guarded branches, and wp agrees with direct execution."""

import itertools

from miniproof import analyze, parse
from miniproof import formula as F
from miniproof.ast import T_INT
from miniproof.vcgen import wp

SOURCE = (
    "class ACCOUNT\n"
    "create make\n"
    "feature\n"
    "  balance : INTEGER\n"
    "  flag : BOOLEAN\n"
    "  make\n"
    "    do\n"
    "      balance := 0\n"
    "    end\n"
    "  deposit (amount : INTEGER)\n"
    "    do\n"
    "      balance := balance + amount\n"
    "    end\n"
    "  withdraw (amount : INTEGER)\n"
    "    do\n"
    "      balance := balance - amount\n"
    "    end\n"
    "  branchy (amount : INTEGER)\n"
    "    do\n"
    "      if flag then\n"
    "        balance := 1\n"
    "      else\n"
    "        balance := 2\n"
    "      end\n"
    "    end\n"
    "end\n"
)

CHECKED = analyze(parse(SOURCE))

BALANCE = F.Sym("balance", T_INT)
OLD_BALANCE = F.Sym("old balance", T_INT)
AMOUNT = F.Sym("amount", T_INT)


def body_of(feature: str):
    return CHECKED.info("ACCOUNT").routines[feature].body


def assert_valid_over(formula: F.Formula, lo: int = -8, hi: int = 8):
    """Brute-force validity oracle over every integer assignment."""
    syms = F.free_syms(formula)
    names = sorted(syms)
    for values in itertools.product(range(lo, hi + 1), repeat=len(names)):
        env = dict(zip(names, values))
        assert F.evaluate(formula, env) is True, env


def test_wp_of_assignment_is_substitution():
    # post: balance = old balance + amount
    post = F.Cmp("=", BALANCE, F.Arith("+", OLD_BALANCE, AMOUNT))
    got = wp(CHECKED, "ACCOUNT", "deposit", body_of("deposit"), post)
    # balance := balance + amount turns the post into an identity between
    # the same entry-state sum on both sides
    expected_lhs = F.Arith("+", BALANCE, AMOUNT)
    assert got == F.Cmp("=", expected_lhs, F.Arith("+", OLD_BALANCE, AMOUNT)) or got == F.Cmp(
        "=", expected_lhs, F.Arith("+", BALANCE, AMOUNT)
    )
    # once old-state and entry-state symbols are unified, it is valid
    assert_valid_over(F.unify_old(got))


def test_wp_of_withdraw_against_nonnegativity():
    post = F.Cmp(">=", BALANCE, F.Lit(0))
    got = wp(CHECKED, "ACCOUNT", "withdraw", body_of("withdraw"), post)
    assert got == F.Cmp(">=", F.Arith("-", BALANCE, AMOUNT), F.Lit(0))
    # implied by the guard amount <= balance together with balance >= 0
    guarded = F.implies(
        F.conj(F.Cmp("<=", AMOUNT, BALANCE), F.Cmp(">=", BALANCE, F.Lit(0))),
        got,
    )
    assert_valid_over(guarded)


def test_wp_of_conditional_is_guarded_conjunction():
    post = F.Cmp(">", BALANCE, F.Lit(0))
    got = wp(CHECKED, "ACCOUNT", "branchy", body_of("branchy"), post)
    # (flag implies 1 > 0) and (not flag implies 2 > 0): valid outright
    for flag in (False, True):
        for balance in range(-8, 9):
            env = {"flag": flag, "balance": balance}
            assert F.evaluate(got, env) is True, env


def test_wp_of_empty_body_is_the_postcondition():
    post = F.Cmp("=", BALANCE, F.Lit(3))
    assert wp(CHECKED, "ACCOUNT", "deposit", [], post) == post


def test_wp_agrees_with_direct_execution():
    """Differential oracle: wp(body, post) holds at entry iff executing the
    body concretely makes post hold at exit."""
    cases = [
        ("deposit", ["balance := balance + amount", "balance := balance * 2"]),
        ("withdraw", ["balance := balance - amount", "balance := balance + 1"]),
        ("branchy", None),  # use the real conditional body
    ]
    post = F.Cmp(">=", BALANCE, AMOUNT)

    for feature, lines in cases:
        if lines is None:
            body = body_of(feature)
        else:
            body = parse(
                SOURCE.replace(
                    "      balance := balance + amount\n",
                    "".join(f"      {line}\n" for line in lines),
                    1,
                )
            ).classes[0].features[1].body
            feature = "deposit"
        pre = wp(CHECKED, "ACCOUNT", feature, body, post)

        for balance, amount, flag in itertools.product(
            range(-4, 5), range(-4, 5), (False, True)
        ):
            env = {"balance": balance, "amount": amount, "flag": flag}
            # execute the body directly
            state = dict(env)
            for stmt in body:
                _execute(stmt, state)
            direct = state["balance"] >= state["amount"]
            assert F.evaluate(pre, env) is direct, (feature, env)


def _execute(stmt, state):
    from miniproof import ast

    if isinstance(stmt, ast.Assign):
        state[stmt.target] = _eval(stmt.value, state)
    elif isinstance(stmt, ast.IfStmt):
        branch = stmt.then_branch if _eval(stmt.cond, state) else stmt.else_branch
        for s in branch:
            _execute(s, state)
    else:
        raise AssertionError(f"unexpected statement {stmt!r}")


def _eval(expr, state):
    from miniproof import ast

    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.Name):
        return state[expr.name]
    if isinstance(expr, ast.Binary):
        left, right = _eval(expr.left, state), _eval(expr.right, state)
        return {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
        }[expr.op]()
    raise AssertionError(f"unexpected expression {expr!r}")


def test_wp_is_deterministic():
    post = F.Cmp("=", BALANCE, F.Arith("+", OLD_BALANCE, AMOUNT))
    first = wp(CHECKED, "ACCOUNT", "deposit", body_of("deposit"), post)
    second = wp(CHECKED, "ACCOUNT", "deposit", body_of("deposit"), post)
    assert first == second
    assert F.to_text(first) == F.to_text(second)
