"""Lexing and parsing: token stream shape, program structure, synthesized
clause labels, and syntax-error positions."""

import re
from pathlib import Path

import pytest

from miniproof import ast, parse
from miniproof.errors import ParseError
from miniproof.lexer import KEYWORDS, tokenize


def wrap_expr(text: str) -> str:
    """A minimal program whose single ensure clause holds the expression."""
    return (
        "class T\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 0\n"
        "    ensure\n"
        f"      c: {text}\n"
        "    end\n"
        "end\n"
    )


def parse_expr(text: str) -> ast.Expr:
    program = parse(wrap_expr(text))
    return program.classes[0].features[0].ensure[0].expr


# -- lexer -----------------------------------------------------------------------


def test_tokenize_keywords_identifiers_and_symbols():
    tokens = tokenize('class A create make feature x := x + 1 -- note\n"s"')
    kinds = [t.kind for t in tokens]
    values = [t.value for t in tokens]
    assert "class" in values and "create" in values and "feature" in values
    assert ":=" in values and "+" in values
    assert '"s"' not in values  # strings carry their unquoted text
    assert "s" in values
    assert "note" not in values  # comments are skipped entirely
    assert kinds[-1] == "eof" or values[-1] == "s" or tokens[-1].kind  # stream terminates


def test_tokenize_positions_line_and_col():
    tokens = tokenize("class A\n  x : INTEGER")
    first = tokens[0]
    assert (first.line, first.col) == (1, 1)
    x_token = next(t for t in tokens if t.value == "x")
    assert x_token.line == 2


def test_unterminated_string_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        tokenize('class A feature s : STRING end "oops')
    assert "unterminated" in str(exc.value)


def test_unexpected_character_is_a_parse_error():
    with pytest.raises(ParseError):
        tokenize("class A ? end")


@pytest.mark.parametrize(
    "text, stream",
    [
        (
            "class A\r\n  x\r\nend",
            [("KEYWORD", "class", 1, 1), ("IDENT", "A", 1, 7), ("IDENT", "x", 2, 3), ("KEYWORD", "end", 3, 1),
             ("EOF", "", 3, 4)],
        ),
        ("\tx :=\t1", [("IDENT", "x", 1, 2), ("SYMBOL", ":=", 1, 4), ("INT", "1", 1, 7), ("EOF", "", 1, 8)]),
        ("x -- trailing comment", [("IDENT", "x", 1, 1), ("EOF", "", 1, 22)]),
        ("x--1", [("IDENT", "x", 1, 1), ("EOF", "", 1, 5)]),
        ("3abc", [("INT", "3", 1, 1), ("IDENT", "abc", 1, 2), ("EOF", "", 1, 5)]),
        ("café := é2", [("IDENT", "café", 1, 1), ("SYMBOL", ":=", 1, 6), ("IDENT", "é2", 1, 9), ("EOF", "", 1, 11)]),
        ("x = \u0663", [("IDENT", "x", 1, 1), ("SYMBOL", "=", 1, 3), ("INT", "\u0663", 1, 5), ("EOF", "", 1, 6)]),
        (
            '"a b" "" >=<',
            [("STRING", "a b", 1, 1), ("STRING", "", 1, 7), ("SYMBOL", ">=", 1, 10), ("SYMBOL", "<", 1, 12),
             ("EOF", "", 1, 13)],
        ),
        ("", [("EOF", "", 1, 1)]),
        ("a\n\n  ", [("IDENT", "a", 1, 1), ("EOF", "", 3, 3)]),
    ],
    ids=["crlf", "tabs", "comment-at-eof", "comment-after-name", "int-then-ident", "letters", "arabic-indic-digit",
         "strings-and-symbols", "empty", "trailing-blank-lines"],
)
def test_token_stream_is_exact(text, stream):
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(text)] == stream


@pytest.mark.parametrize(
    "text, message",
    [
        ('x "abc', "1:3: unterminated string literal"),
        ('x\n  "ab\n"', "2:3: unterminated string literal"),
        ("x \u00bd", "1:3: unexpected character '\u00bd'"),
        ("x\r\n?", "2:1: unexpected character '?'"),
        ("x\f", "1:2: unexpected character '\\x0c'"),
    ],
    ids=["string-at-eof", "string-before-newline", "vulgar-fraction", "question-mark", "form-feed"],
)
def test_lexical_error_text_is_exact(text, message):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert str(exc.value) == message


def test_decimal_digits_of_any_script_are_integers():
    assert parse_expr("x = \u0663").right == ast.IntLit(3)


def test_superscript_digit_is_a_parse_error():
    """A superscript two passes str.isdigit but is no decimal digit, so it
    is no integer: it is reported where it stands, not by int()."""
    with pytest.raises(ParseError) as exc:
        parse("class A\nfeature\n  x : INTEGER\n  f do x := 2\u00b2 end\nend\n")
    assert str(exc.value) == "4:14: unexpected character '\u00b2'"


# -- program structure -----------------------------------------------------------


def test_account_parses_to_one_class_three_features(entries):
    program = parse(entries["account"].source)
    assert len(program.classes) == 1
    account = program.classes[0]
    assert account.name == "ACCOUNT"
    assert [f.name for f in account.features] == ["make", "deposit", "withdraw"]
    assert [c.label for c in account.invariant] == ["non_negative_balance"]


def test_empty_class_parses():
    program = parse("class EMPTY\nend\n")
    assert len(program.classes) == 1
    assert program.classes[0].attributes == []
    assert program.classes[0].features == []


def test_truncated_source_is_a_parse_error(entries):
    source = entries["account"].source.rstrip()
    assert source.endswith("end")
    with pytest.raises(ParseError):
        parse(source[: source.rfind("end")])


def test_creator_marked_by_create_section(entries):
    program = parse(entries["account"].source)
    make = program.classes[0].features[0]
    assert make.is_creator
    assert program.classes[0].create_name == "make"


def test_creator_marked_by_feature_note():
    source = (
        "class C\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    note status: creator\n"
        "    do\n"
        "      x := 0\n"
        "    end\n"
        "end\n"
    )
    program = parse(source)
    assert program.classes[0].features[0].is_creator


def test_model_note_is_recorded(entries):
    program = parse(entries["tokeneer_enrolment"].source)
    station = program.class_named("ID_STATION")
    assert station.model_note == [
        "current_display",
        "enclave_status",
        "floppy_presence",
        "token_removal_timeout",
    ]
    account = parse(entries["account"].source).classes[0]
    assert account.model_note is None


def test_absent_vs_empty_modify():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 0\n"
        "    end\n"
        "  a\n"
        "    do\n"
        "      x := 1\n"
        "    end\n"
        "  b\n"
        "    modify\n"
        "    do\n"
        "    end\n"
        "  c\n"
        "    modify x\n"
        "    do\n"
        "      x := 2\n"
        "    end\n"
        "end\n"
    )
    features = {f.name: f for f in parse(source).classes[0].features}
    assert features["a"].modify is None  # absent: may modify everything
    assert features["b"].modify == []  # empty: may modify nothing
    assert features["c"].modify == ["x"]


# -- synthesized labels ----------------------------------------------------------


def test_unlabeled_clauses_get_positional_labels():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    require\n"
        "      true\n"
        "      named: true\n"
        "      true\n"
        "    do\n"
        "      x := 0\n"
        "    ensure\n"
        "      x = 0\n"
        "    end\n"
        "invariant\n"
        "  x >= 0\n"
        "  true\n"
        "end\n"
    )
    cls = parse(source).classes[0]
    make = cls.features[0]
    assert [c.label for c in make.require] == ["require_1", "named", "require_3"]
    assert [c.label for c in make.ensure] == ["ensure_1"]
    assert [c.label for c in cls.invariant] == ["invariant_1", "invariant_2"]


def test_unlabeled_check_gets_synthesized_label():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  x : INTEGER\n"
        "  make\n"
        "    do\n"
        "      x := 0\n"
        "      check x = 0 end\n"
        "      check verified: x >= 0 end\n"
        "    end\n"
        "end\n"
    )
    body = parse(source).classes[0].features[0].body
    checks = [s for s in body if isinstance(s, ast.CheckStmt)]
    assert [c.label for c in checks] == ["check_1", "verified"]


# -- statements and expressions --------------------------------------------------


def test_creation_statement_forms():
    source = (
        "class C\n"
        "create make\n"
        "feature\n"
        "  r : D\n"
        "  make\n"
        "    do\n"
        "      create r\n"
        "      create r.make\n"
        "    end\n"
        "end\n"
        "class D\n"
        "create make\n"
        "feature\n"
        "  make\n"
        "    do\n"
        "    end\n"
        "end\n"
    )
    body = parse(source).classes[0].features[0].body
    assert isinstance(body[0], ast.CreateStmt) and body[0].creator is None
    assert isinstance(body[1], ast.CreateStmt) and body[1].creator == "make"


def test_creation_expression_in_contract_parses():
    expr = parse_expr("x = 0 and create T = create T")
    creations = [e for e in ast.walk_expr(expr) if isinstance(e, ast.CreateExpr)]
    assert len(creations) == 2
    assert creations[0].class_name == "T"


def test_set_literal():
    expr = parse_expr('{"a", "b"}.has("a")')
    assert isinstance(expr, ast.Has)
    assert isinstance(expr.receiver, ast.SetLit)
    assert expr.receiver.items == ("a", "b")


def test_one_level_qualification_and_has(entries):
    program = parse(entries["tokeneer_enrolment"].source)
    station = program.class_named("ID_STATION")
    guard = station.invariant[0].expr
    assert isinstance(guard, ast.Has)
    assert isinstance(guard.receiver, ast.Qualified)
    assert (guard.receiver.receiver, guard.receiver.attr) == (
        "constants",
        "display_message",
    )


def test_old_only_parses_in_ensure_position(entries):
    program = parse(entries["account"].source)
    deposit = program.classes[0].features[1]
    ensure_expr = deposit.ensure[0].expr
    olds = [e for e in ast.walk_expr(ensure_expr) if isinstance(e, ast.Old)]
    assert len(olds) == 1


def test_arithmetic_precedence():
    expr = parse_expr("x = 1 + 2 * 3")
    assert isinstance(expr, ast.Binary) and expr.op == "="
    rhs = expr.right
    assert rhs.op == "+"
    assert isinstance(rhs.right, ast.Binary) and rhs.right.op == "*"


def test_boolean_precedence_not_binds_tightest():
    expr = parse_expr("not true and false")
    # not applies to the nearest operand: (not true) and false
    assert isinstance(expr, ast.Binary) and expr.op == "and"
    assert isinstance(expr.left, ast.Unary) and expr.left.op == "not"
    assert isinstance(expr.left.expr, ast.BoolLit)


def test_implies_binds_loosest():
    expr = parse_expr("x = 0 and true implies x = 0 or false")
    assert isinstance(expr, ast.Binary) and expr.op == "implies"
    assert expr.left.op == "and"
    assert expr.right.op == "or"


def test_a_string_literal_is_never_an_operator():
    clauses = parse(wrap_expr('x = 0 "and" true')).classes[0].features[0].ensure
    assert [type(c.expr) for c in clauses] == [ast.Binary, ast.StrLit, ast.BoolLit]


def test_string_pool_collects_every_literal_sorted():
    source = wrap_expr('x = 0 and {"b", "a"}.has("c")')
    assert parse(source).string_pool == ("a", "b", "c")


def _literals(program: ast.Program) -> set[str]:
    """Every string literal of a program, found by walking its tree."""
    exprs = []
    for cls in program.classes:
        exprs += [c.expr for c in cls.invariant]
        for feat in cls.features:
            exprs += [c.expr for c in feat.require + feat.ensure]
            exprs += [e for s in ast.walk_statements(feat.body) for e in ast.statement_exprs(s)]
    found = set()
    for node in (n for e in exprs for n in ast.walk_expr(e)):
        if isinstance(node, ast.StrLit):
            found.add(node.value)
        elif isinstance(node, ast.SetLit):
            found.update(node.items)
    return found


def test_string_pool_is_every_literal_in_the_tree(entries):
    for name, entry in entries.items():
        program = parse(entry.source)
        assert program.string_pool == tuple(sorted(_literals(program))), name


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("class C\nfeature\n  x : INTEGER\n  f do x := end\nend\n")
    assert exc.value.line == 4


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "x = 0" + ")" * n,
        lambda n: "not " * n + "true",
        lambda n: " implies ".join(["true"] * (n + 1)),
    ],
    ids=["parentheses", "not", "implies"],
)
def test_nesting_is_limited(nest):
    from miniproof.parser import MAX_NESTING

    parse_expr(nest(MAX_NESTING))
    with pytest.raises(ParseError, match="nested more than"):
        parse_expr(nest(MAX_NESTING + 1))


@pytest.mark.parametrize("op", ["+", "*", "and", "or"])
def test_flat_chains_are_limited(op):
    """A flat chain parses into a left-deep tree, as deep as it is long."""
    from miniproof.parser import MAX_NESTING

    def chain(n):
        return f" {op} ".join(["x"] * (n + 1))

    parse_expr(chain(MAX_NESTING))
    with pytest.raises(ParseError, match="expression nested more than"):
        parse_expr(chain(MAX_NESTING + 1))


def test_if_nesting_is_limited():
    from miniproof.parser import MAX_NESTING

    def program(n):
        body = "      if x < 5 then\n" * n + "      x := 1\n" + "      end\n" * n
        return wrap_expr("x >= 0").replace("      x := 0\n", body)

    parse(program(MAX_NESTING))
    with pytest.raises(ParseError, match="statements nested more than") as exc:
        parse(program(MAX_NESTING + 1))
    assert exc.value.line == 6 + MAX_NESTING + 1


def test_readme_states_the_lexer_and_parser_tables():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| \d \| `(.+?)` \| (\w+)", readme, re.MULTILINE)
    assert [(assoc, tuple(ops.split("` `"))) for ops, assoc in rows] == list(ast.BINARY_LEVELS)
    keywords = re.search(r"These words are\s+keywords: `([^`]+)`", readme).group(1)
    assert sorted(keywords.split()) == sorted(KEYWORDS)
