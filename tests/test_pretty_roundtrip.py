"""Pretty-printer: reparsing printed output reproduces the same tree, and
printing is a fixpoint after one round."""

import pytest

from miniproof import ast, expr_text, parse, program_text
from miniproof.corpus import names


def strip_synthesized_labels(program: ast.Program) -> None:
    """Synthesized labels are a parse artifact; equality of everything else
    is what round-tripping must preserve.  AST equality already ignores
    positions and the synthesized flag, so nothing to do — kept as
    documentation of that fact."""


# every statement form the corpus lacks: nested `if`s with and without
# `else`, a qualified assignment, a call without arguments and a
# labelled `check`
STATEMENTS = """class CELL
create make
feature
  a: INTEGER
feature
  make
    note status: creator
    do
    end

  bump
    do
      a := a + 1
    end
end

class H
create make
feature
  r: CELL
  n: INTEGER
feature
  make
    note status: creator
    do
      create r
    end

  step (k: INTEGER)
    require
      attached: r /= Void
    do
      if k > 0 then
        if k > 5 then
          r.a := k - 5
        else
          r.a := (k + 1) * 2
        end
        r.bump
      else
        n := 0
      end
      if n > 3 then
        n := 3
      end
      check positive: n >= 0 end
    end
invariant
  n >= 0
end
"""


@pytest.mark.parametrize("name", [*names(), "statements"])
def test_roundtrip_every_corpus_entry(name, entries):
    source = entries[name].source if name in entries else STATEMENTS
    tree = parse(source)
    printed = program_text(tree)
    reparsed = parse(printed)
    assert reparsed.classes == tree.classes
    # printing is a fixpoint after the first normalization
    assert program_text(reparsed) == printed


@pytest.mark.parametrize("name", names())
def test_string_pool_survives_roundtrip(name, entries):
    tree = parse(entries[name].source)
    assert parse(program_text(tree)).string_pool == tree.string_pool


EXPRESSIONS = [
    "balance = old balance + amount",
    "amount <= balance",
    "not (a and b) implies c",
    "x * (y + z) - 1 = 0",
    'constants.display_message.has("welcome")',
    '{"a", "b"}.has(v)',
    "r /= Void",
    "helper = create HELPER",
    "x < -3",
    "(-3).has(v)",
]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_expr_text_reparses_to_same_tree(text):
    wrapped = (
        "class T\n"
        "create make\n"
        "feature\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "end\n"
    )
    # parse the expression through a syntactic host that accepts any names

    def parse_expr(t: str) -> ast.Expr:
        host = (
            "class HOST\n"
            "create make\n"
            "feature\n"
            "  make\n"
            "    do\n"
            "    ensure\n"
            f"      c: {t}\n"
            "    end\n"
            "end\n"
        )
        return parse(host).classes[0].features[0].ensure[0].expr

    del wrapped
    tree = parse_expr(text)
    printed = expr_text(tree)
    assert parse_expr(printed) == tree
    assert expr_text(parse_expr(printed)) == printed


def test_parentheses_only_where_needed():
    def parse_expr(t: str) -> ast.Expr:
        host = (
            "class HOST\n"
            "create make\n"
            "feature\n"
            "  make\n"
            "    do\n"
            "    ensure\n"
            f"      c: {t}\n"
            "    end\n"
            "end\n"
        )
        return parse(host).classes[0].features[0].ensure[0].expr

    assert expr_text(parse_expr("x = 1 + 2 * 3")) == "x = 1 + 2 * 3"
    assert expr_text(parse_expr("x = (1 + 2) * 3")) == "x = (1 + 2) * 3"
    # a negative literal prints with a prefix minus, looser than .has
    assert expr_text(parse_expr("(-3).has(v)")) == "(-3).has(v)"
    assert expr_text(parse_expr("x - -3 * -2")) == "x - -3 * -2"


NESTED_COMPARISON = """class T
create make
feature
  x: INTEGER
feature
  make
    do
    ensure
      c: (x = 0) = true
      d: true = (x /= 0)
    end
end
"""


def test_nested_comparison_round_trips():
    """Comparisons do not chain, so a comparison operand of a comparison
    keeps its parentheses on either side."""
    tree = parse(NESTED_COMPARISON)
    printed = program_text(tree)
    assert "c: (x = 0) = true" in printed
    assert "d: true = (x /= 0)" in printed
    assert parse(printed) == tree
    assert program_text(parse(printed)) == printed


def test_unlabeled_clause_opening_with_a_minus_stays_a_clause():
    """Printed bare, `-7 < x` on the line after another clause would
    continue it as a subtraction."""
    source = NESTED_COMPARISON.replace("      d: true = (x /= 0)\n", "      (-7 < x)\n      (-1)\n")
    tree = parse(source)
    printed = program_text(tree)
    assert "      c: (x = 0) = true\n      (-7 < x)\n      (-1)\n" in printed
    assert parse(printed) == tree
    assert program_text(parse(printed)) == printed


def test_printed_account_keeps_contract_order(entries):
    printed = program_text(parse(entries["account"].source))
    # within deposit: require precedes the body, ensure follows it
    guard = printed.index("amount_not_negative: amount >= 0")
    body = printed.index("balance := balance + amount")
    post = printed.index("balance_increased:")
    assert guard < body < post
    # the invariant section closes the class
    assert printed.rstrip().endswith(
        "invariant\n  non_negative_balance: balance >= 0\nend"
    )
