"""Lexing and parsing: token stream shape, program structure, synthesized
clause labels, and syntax-error positions; token streams, trees and
error texts pinned with their positions, and the analyzer's types and
issues pinned alike; and the printer round trip of seeded generated
programs."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from miniproof import analyze, ast, parse, program_text
from miniproof.errors import ParseError, SemanticError
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


# -- pinned front-end output -------------------------------------------------------
#
# Equality of tree nodes skips positions, so these pins compare text that
# shows them: the token stream as (kind, value, line, col) tuples, and the
# repr of the parsed program, which names every field, pos included. The
# digests were recorded before the scanner and the expression parser were
# last rewritten; any change to a token, a tree or a position shows here.

_SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\n    ", "\r\n  ", " -- a comment\n  ", "--\n", "\n\n")
_GLUE = set("(){},;")
_BINARY_OPS = [op for _, ops in ast.BINARY_LEVELS for op in ops]


def _gen_expr(rng, depth: int) -> tuple[list[str], int]:
    """A random expression as a token list, with the binding level it
    prints at (ast.ATOM_PREC for an atom)."""
    if depth == 0 or rng.random() < 0.25:
        atom = rng.choice([
            ["x"], ["y_1"], ["r", ".", "a"], [str(rng.randint(0, 999))], ['"s t"'], ['""'], ["true"], ["false"],
            ["Void"], ["-", str(rng.randint(0, 9))], ["{", "}"], ["{", '"a"', ",", '"b"', "}"], ["create", "CELL"],
        ])
        return atom, ast.ATOM_PREC
    kind = rng.random()
    if kind < 0.1:
        inner, _ = _gen_expr(rng, depth - 1)
        return ["("] + inner + [")"], ast.ATOM_PREC
    if kind < 0.25:
        word = rng.choice(["not", "old"])
        inner, prec = _gen_expr(rng, depth - 1)
        if prec < ast.UNARY_PREC:
            inner = ["("] + inner + [")"]
        return [word] + inner, ast.UNARY_PREC
    if kind < 0.32:
        receiver, prec = _gen_expr(rng, depth - 1)
        if prec < ast.ATOM_PREC or receiver[0] == "-":
            receiver = ["("] + receiver + [")"]
        item, _ = _gen_expr(rng, depth - 1)
        return receiver + [".", "has", "("] + item + [")"], ast.ATOM_PREC
    op = rng.choice(_BINARY_OPS)
    left_min, right_min = ast.operand_precs(op)
    left, lprec = _gen_expr(rng, depth - 1)
    right, rprec = _gen_expr(rng, depth - 1)
    if lprec < left_min:
        left = ["("] + left + [")"]
    if rprec < right_min:
        right = ["("] + right + [")"]
    return left + [op] + right, ast.BINARY_PREC[op]


def _gen_clause_expr(rng) -> list[str]:
    tokens, _ = _gen_expr(rng, rng.randint(0, 4))
    # a clause starting with a minus would continue the clause before it
    return ["("] + tokens + [")"] if tokens[0] == "-" else tokens


def _gen_clauses(rng, keyword: str) -> list[str]:
    tokens = [keyword]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            tokens += [rng.choice(["ok", "in_range", "c1"]), ":"]
        tokens += _gen_clause_expr(rng)
    return tokens


def _gen_statements(rng, depth: int) -> list[str]:
    tokens = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(6 if depth else 5)
        if kind == 0:
            tokens += ["x", ":="] + _gen_clause_expr(rng)
        elif kind == 1:
            tokens += ["r", ".", "a", ":="] + _gen_clause_expr(rng)
        elif kind == 2:
            tokens += ["create", "r"] + ([".", "make"] if rng.random() < 0.5 else [])
        elif kind == 3:
            args = [["x"], ["1", "+", "y"], ['"z"']][: rng.randint(0, 3)]
            call = ["r", ".", "set"]
            if args or rng.random() < 0.5:
                call += ["("] + [t for i, a in enumerate(args) for t in ([","] if i else []) + a] + [")"]
            tokens += call
        elif kind == 4:
            label = [rng.choice(["here", "sane"]), ":"] if rng.random() < 0.5 else []
            tokens += ["check"] + label + _gen_clause_expr(rng) + ["end"]
        else:
            tokens += ["if"] + _gen_clause_expr(rng) + ["then"] + _gen_statements(rng, depth - 1)
            if rng.random() < 0.5:
                tokens += ["else"] + _gen_statements(rng, depth - 1)
            tokens += ["end"]
    return tokens


def _gen_feature(rng, name: str) -> list[str]:
    tokens = [name]
    if rng.random() < 0.5:
        tokens += ["(", "p", ":", "INTEGER"]
        for extra in rng.sample([["q", ":", "BOOLEAN"], ["c", ":", "CELL"], ["t", ":", "STRING"]], rng.randint(0, 2)):
            tokens += [rng.choice([";", ","])] + extra
        tokens += [")"]
    if rng.random() < 0.2:
        tokens += ["note", "status", ":", "creator"]
    if rng.random() < 0.6:
        tokens += _gen_clauses(rng, "require")
    if rng.random() < 0.5:
        tokens += ["modify"] + [t for i, n in enumerate(rng.sample(["x", "r", "s"], rng.randint(0, 3)))
                                for t in ([","] if i else []) + [n]]
    tokens += ["do"] + _gen_statements(rng, 2)
    if rng.random() < 0.6:
        tokens += _gen_clauses(rng, "ensure")
    return tokens + ["end"]


def _gen_class(rng, name: str) -> list[str]:
    tokens = ["class", name]
    if rng.random() < 0.3:
        tokens += ["note", "model", ":", "x"] + [",", "s"] * rng.randint(0, 1)
    if rng.random() < 0.6:
        tokens += ["create", "make"]
    features = 0
    for _ in range(rng.randint(1, 2)):
        tokens += ["feature"]
        for attr, ty in rng.sample([("x", "INTEGER"), ("b", "BOOLEAN"), ("s", "STRING"), ("t", "SET_OF_STRING"),
                                    ("r", "CELL")], rng.randint(0, 3)):
            tokens += [attr, ":", ty]
        for _ in range(rng.randint(0, 3)):
            tokens += _gen_feature(rng, rng.choice(["make", "go", "f"]) + str(features))
            features += 1
    if rng.random() < 0.6:
        tokens += _gen_clauses(rng, "invariant")
    return tokens + ["end"]


def generated_source(seed: int) -> str:
    """A seeded random program that parses, though it need not analyze:
    every kind of declaration, statement and expression, with blanks,
    tabs, CRLF line ends and comments of every shape between tokens."""
    rng = random.Random(seed)
    tokens = [t for k in range(rng.randint(1, 3)) for t in _gen_class(rng, f"C{k}")]
    out = [rng.choice(["", "-- header\n", "\n"])]
    for prev, tok in zip([None] + tokens, tokens):
        if prev is not None:
            glue = prev in _GLUE or tok in _GLUE
            sep = "" if glue and rng.random() < 0.5 else rng.choice(_SEPARATORS)
            out.append(" " + sep if prev == "-" else sep)  # "-" then "--" would open a comment
        out.append(tok)
    return "".join(out) + rng.choice(["", "\n", " -- trailer"])


def front_end_digest(source: str) -> str:
    stream = [(t.kind, t.value, t.line, t.col) for t in tokenize(source)]
    text = json.dumps(stream, ensure_ascii=False) + "\n" + repr(parse(source))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


FRONT_END_DIGESTS = {
    "account": "6a2c66019845b53d13851a264ae2c4bad0f74d9ee8d7ea5b4a72ba4a0df77632",
    "account_noguard_mutant": "9266ca8e2b15251bce962ecefc8c058d709d6541691b5e4f125a2a7d80101301",
    "account_overflow_mutant": "4162c6af93a4f415d7f69e82eb95a25a82643837f557dd39509bed3cd01001a4",
    "tokeneer_enrolment": "49ba65d1f12d56717a48738d84707c46cbc367bd241b0aaa144f29990884d0f6",
    "tokeneer_noprecond_mutant": "a56b7baeda683fcabb66cfc7ffd9e7a579005851c2a41a8458e645c95770ac75",
    "tokeneer_frame_mutant": "441b1b90549f24f417b0724d0f7d16131719ad3fd0525ec55743705ddae96d2c",
    "contract_creation_error": "13e5679467ba59c7c53fefd7dcc3991974c527ef6cc8881daf01d5f3ab837833",
}

GENERATED_DIGESTS = {
    0: "f4ef5324bdefe5d4106f3938b20515469e247923364c0e0ed4a7eadad36aafd5",
    1: "c7f4bbb3e19a6207fbcd65ab6c4f6544de92b3cc2cb6eafd0b4349eae6960d10",
    2: "4bafe2da232ecca8284a3e51370710600bee69624642eacceea681af01dacaf8",
    3: "9cc09399fa76cfe9edc2ed66d6bf30edb7cdbec8fb00188d0a67fffcae5d9769",
    4: "83585b84662f51bb652d3e1469af2e0bfa255473db63e47a189a4700df310e90",
    5: "fddba2d7f61a20982755d9e59a4637f45307add00ea4411685ec350746d1fd88",
    6: "2fb96bf40f30b13271622ebe7a96038fde47f5572e37275cca7860afb9d7e464",
    7: "a8bbf8b97431f1d5a256eaa04862a48ac328a6d76c93ebdf2ddd42cc8ee8d0b4",
}


@pytest.mark.parametrize("name", sorted(FRONT_END_DIGESTS))
def test_corpus_front_end_output_is_pinned(name, entries):
    assert front_end_digest(entries[name].source) == FRONT_END_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(GENERATED_DIGESTS))
def test_generated_front_end_output_is_pinned(seed):
    assert front_end_digest(generated_source(seed)) == GENERATED_DIGESTS[seed]


def test_generated_programs_round_trip_through_the_printer():
    for seed in range(200):
        tree = parse(generated_source(seed))
        printed = program_text(tree)
        assert parse(printed) == tree, seed
        assert program_text(parse(printed)) == printed, seed


def test_corpus_front_end_pins_cover_every_entry(entries):
    assert sorted(FRONT_END_DIGESTS) == sorted(entries)


# The analyzer's output, pinned the same way: the repr of an analyzed
# program shows the type it set on each expression (``ty``), and the issues
# follow it. The generated programs never reach typing, as each one fails
# in its tables (no creator, unknown types), so they pin issue texts and
# positions; the corpus entries and the vc_scaling programs pin types.


def analyzed_digest(source: str) -> str:
    program = parse(source)
    try:
        analyze(program)
        issues = []
    except SemanticError as exc:
        issues = exc.issues
    text = repr(program) + "\n" + json.dumps(issues, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ANALYZED_DIGESTS = {
    "account": "1e0fdc0fe1a2118dde7727dee7234a0129905b14fd6ab2fae53e340092887c47",
    "account_noguard_mutant": "d4eb616f94baf0d119b6a4d66dfdcafa60af91371736b79bd130326d144fd465",
    "account_overflow_mutant": "7b174342c53ada413338943380571140dc6bd3116ee9f98aa4fc5e13f99f0fcd",
    "tokeneer_enrolment": "2edb8ea0fa379855eafb75a5415f657a1fa1f557110621c27cfac78e7d4627ac",
    "tokeneer_noprecond_mutant": "4ef70da83042af4aa828818db1615b5f23a41785f895960a944ed07927aafb60",
    "tokeneer_frame_mutant": "fff2557d5364e3853596696e44a5cd2cd0495c5d08de07ea9b4599d604c2ad9a",
    "contract_creation_error": "24db372f0793f499997e95f4ff5d752944ed9ce88ca6dc8afa4c0f16f54a036a",
}

GENERATED_ANALYZED_DIGESTS = {
    0: "16e93a03449e2ff5e188e6037322e1d4fadcfa4e56ee89a738bd54de5c57eabc",
    1: "e30d43197040d8af83a6771d198a7cb37a5250e6c7dfe6054794cd97179d3ee5",
    2: "abde2ffe486f89219a231718d54dee0095b57f48135255fe551615280b8fcbf1",
    3: "a6c8147172b638c86f305331ddcbc171c4d7c1f2b59c726804fb2f47d4ec08a8",
    4: "be5913323a1a8a2543287b9305bb657704cb846d372df9bb03e2a75cc486da20",
    5: "e1c2b1a40545ea4f62db19c0fef058959785962d6cfdfaa4241398b1e85c23f0",
    6: "f01bbd2fd7580d259022956a6b6f4e86b4da382cfe269535805f4b74e96c247c",
    7: "4b6bcd5e3d8580535a278af511a3c59ea05483c2312520cb75bfb2b8cfc6de84",
}

# one digest over the digests of a seed's vc_scaling programs, in order
VC_SCALING_ANALYZED_DIGESTS = {
    1: "4632c516ca93e468a8a7fae9cc34334f53eb2679f5816017fa791daa59da00df",
    2: "f0093e7f93c8d564b9ed933dcd291398ba09e52bbf0ee734da2092fd3c52f61b",
}


# a program that analyzes and holds every form of expression and every
# operator, with old and has over each type they take
EVERY_FORM = """\
class CELL
create
    make
feature
    v : INTEGER
    make
        do
            v := 0
        end
    bump (d : INTEGER)
        do
            v := v + d
        ensure
            v = old v + d
        end
end

class ALL
create
    make
feature
    n : INTEGER
    b : BOOLEAN
    s : STRING
    pool : SET_OF_STRING
    r : CELL
    make
        do
            n := 0
            b := false
            s := Void
            pool := {}
            create r.make
        end
    step (k : INTEGER; t : STRING)
        require
            k_small: k * 2 <= 10 and k >= -3
            known: pool.has (t) or t = Void
            alive: r /= Void
        modify n, b, s
        do
            n := n + k * 2 - 1
            b := not b or n > 3 implies s = "x"
            s := t
            if r.v < n then
                r.bump (k)
            else
                check positive: n >= 0 end
            end
        ensure
            grows: n = old n + k * 2 - 1
            same_pool: pool = old pool
            kept: r.v >= old r.v
            fresh: create CELL /= Void
            str: s = t
            flag: b = (not old b or n > 3 implies old s = "x")
        end
invariant
    pool_known: pool.has ("a") or not pool.has ("b")
end
"""

EVERY_FORM_ANALYZED_DIGEST = "b331b8c3243a3272da59a78074dde7ff4b3a4c8433b60f39b1f90532d69e621a"


def test_analyzer_output_on_every_form_is_pinned():
    analyze(parse(EVERY_FORM))  # no issues: every expression gets its type
    assert analyzed_digest(EVERY_FORM) == EVERY_FORM_ANALYZED_DIGEST


@pytest.mark.parametrize("name", sorted(ANALYZED_DIGESTS))
def test_corpus_analyzer_output_is_pinned(name, entries):
    assert analyzed_digest(entries[name].source) == ANALYZED_DIGESTS[name]


def test_corpus_analyzer_pins_cover_every_entry(entries):
    assert sorted(ANALYZED_DIGESTS) == sorted(entries)


@pytest.mark.parametrize("seed", sorted(GENERATED_ANALYZED_DIGESTS))
def test_generated_analyzer_output_is_pinned(seed):
    assert analyzed_digest(generated_source(seed)) == GENERATED_ANALYZED_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(VC_SCALING_ANALYZED_DIGESTS))
def test_vc_scaling_analyzer_output_is_pinned(seed, vc_scaling_programs):
    digests = "".join(analyzed_digest(p.source) for p in vc_scaling_programs.generate(seed))
    assert hashlib.sha256(digests.encode()).hexdigest() == VC_SCALING_ANALYZED_DIGESTS[seed]


# (id, source, message, line, col) of the first error in each malformed
# input, recorded like the digests above
MALFORMED = [
    ("empty", "",
     "expected 'class', found ''", 1, 1),
    ("no-class", "feature x : INTEGER end",
     "expected 'class', found 'feature'", 1, 1),
    ("class-without-name", "class\nend",
     "expected class name, found 'end'", 2, 1),
    ("missing-end", "class A\nfeature\n  x : INTEGER\n",
     "expected feature or attribute name, found ''", 4, 1),
    ("trailing-token", "class A\nend\nx",
     "expected 'class' or end of input, found 'x'", 3, 1),
    ("unknown-class-note", "class A note owner: x end",
     "unknown class note 'owner'", 1, 14),
    ("unknown-feature-note", "class A feature f note kind: creator do end end",
     "unknown feature note 'kind'", 1, 24),
    ("unknown-status", "class A feature f note status: query do end end",
     "unknown status 'query'", 1, 32),
    ("unclosed-params", "class A feature f (p : INTEGER do end end",
     "expected ')', found 'do'", 1, 32),
    ("param-without-type", "class A feature f (p) do end end",
     "expected ':', found ')'", 1, 21),
    ("expected-statement", "class A feature f do x end end",
     "expected statement, found 'x'", 1, 22),
    ("statement-keyword", "class A feature f do then end end",
     "expected statement, found 'then'", 1, 22),
    ("assign-without-value", "class A feature f do x := end end",
     "expected expression, found 'end'", 1, 27),
    ("call-unclosed", "class A feature f do r.g(1, 2 end end",
     "expected ')', found 'end'", 1, 31),
    ("check-without-end", "class A feature f do check x = 1 end",
     "expected 'end', found ''", 1, 37),
    ("if-without-then", "class A feature f do if x = 1 x := 2 end end end",
     "expected 'then', found 'x'", 1, 31),
    ("chained-equality", wrap_expr("x = 1 = 2"),
     "expected expression, found '='", 9, 16),
    ("chained-comparisons", wrap_expr("x < 1 <= 2"),
     "expected expression, found '<='", 9, 16),
    ("comparison-after-sum", wrap_expr("x + 1 = 2 /= true"),
     "expected expression, found '/='", 9, 20),
    ("dangling-operator", wrap_expr("x = 1 +"),
     "expected expression, found 'end'", 10, 5),
    ("dangling-implies", wrap_expr("true implies"),
     "expected expression, found 'end'", 10, 5),
    ("minus-on-name", wrap_expr("x = -x"),
     'unary minus applies to integer literals only', 9, 14),
    ("minus-on-parenthesized-sum", wrap_expr("x = -(1 + 2)"),
     'unary minus applies to integer literals only', 9, 14),
    ("not-at-end", wrap_expr("not"),
     "expected expression, found 'end'", 10, 5),
    ("old-without-operand", wrap_expr("old = 1"),
     "expected expression, found '='", 9, 14),
    ("two-level-qualification", wrap_expr("r.a.b = 1"),
     'only one level of qualification is supported (receiver.attr or set.has(..))', 9, 13),
    ("has-unclosed", wrap_expr('{"a"}.has("a"'),
     "expected ')', found 'end'", 10, 5),
    ("set-of-integers", wrap_expr('{"a", 1}.has("a")'),
     'set displays hold string literals only', 9, 16),
    ("set-unclosed", wrap_expr('{"a" "b"}.has("a")'),
     "expected '}', found 'b'", 9, 15),
    ("unclosed-parenthesis", wrap_expr("(x = 1"),
     "expected ')', found 'end'", 10, 5),
    ("operator-first", wrap_expr("* 2 = x"),
     "expected expression, found '*'", 9, 10),
    ("deep-parentheses", wrap_expr("(" * 51 + "x" + ")" * 51),
     'expression nested more than 50 levels deep', 9, 60),
    ("deep-implies", wrap_expr(" implies ".join(["true"] * 52)),
     'expression nested more than 50 levels deep', 9, 665),
    ("long-sum", wrap_expr("x = " + " + ".join(["1"] * 52)),
     'expression nested more than 50 levels deep', 9, 10),
    ("deep-not", wrap_expr("not " * 51 + "true"),
     'expression nested more than 50 levels deep', 9, 210),
    ("deep-has", wrap_expr("x" + ".has(x" * 51 + ")" * 51),
     'expression nested more than 50 levels deep', 9, 315),
    ("unterminated-string", wrap_expr('"abc'),
     'unterminated string literal', 9, 10),
    ("bad-character", wrap_expr("x = 1 ? 2"),
     "unexpected character '?'", 9, 16),
]


@pytest.mark.parametrize("source, message, line, col", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_parse_error_text_and_position_are_pinned(source, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
