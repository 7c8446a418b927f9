"""parse_scenario against a reference reader that reads every line afresh.

``reference_parse_scenario`` is the line-at-a-time reader parse_scenario
replaced, with one change: ``expect_ok`` followed by text is an error. It
splits, strips and parses each line whether or not it has read the same
line before, then shares equal commands in a pass at the end. The
property below runs both readers on generated scripts and asks for equal
commands, lines, sharing and errors.
"""

from __future__ import annotations

import re
import sys
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from miniproof.errors import ParseError
from miniproof.runtime import Command, Scenario, parse_scenario


def _parse_literal(token: str, line_no: int):
    token = token.strip()
    if token == "Void":
        return None
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad scenario literal {token!r}", line_no, 1) from None


def _split_unquoted(text: str, sep: str) -> list[str]:
    if sep not in text or '"' not in text:
        return text.split(sep)
    masked = re.sub(r'"[^"]*"?', lambda m: "_" * len(m.group()), text)
    cuts = [-1, *(m.start() for m in re.finditer(sep, masked)), len(text)]
    return [text[a + 1 : b] for a, b in zip(cuts, cuts[1:])]


def reference_parse_scenario(text: str) -> Scenario:
    commands: list[Command] = []
    lines = array("I")
    args_by_text: dict[str, tuple] = {}
    expect_by_label: dict[str, tuple] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (_split_unquoted(raw, "#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "create":
            var, sep, class_name = rest.partition(":")
            if not sep or not var.strip() or not class_name.strip():
                raise ParseError("expected: create <var> : <class>", line_no, 1)
            var, class_name = sys.intern(var.strip()), sys.intern(class_name.strip())
            commands.append(Command("create", var, class_name))
            lines.append(line_no)
        elif head == "call":
            target, paren, arg_text = rest.partition("(")
            if not paren or not arg_text.endswith(")"):
                raise ParseError("expected: call <var>.<feature>(<args>)", line_no, 1)
            var, dot, feature = target.strip().partition(".")
            if not dot or not var or not feature:
                raise ParseError("expected: call <var>.<feature>(<args>)", line_no, 1)
            arg_text = arg_text[:-1].strip()
            args = args_by_text.get(arg_text)
            if args is None:
                args = args_by_text[arg_text] = (
                    tuple([_parse_literal(t, line_no) for t in _split_unquoted(arg_text, ",")]) if arg_text else ()
                )
            var, feature = sys.intern(var), sys.intern(feature)
            commands.append(Command("call", var, feature, args))
            lines.append(line_no)
        elif head in ("expect_violation", "expect_ok"):
            if not commands or commands[-1].expect is not None:
                raise ParseError("expectation must follow a command", line_no, 1)
            if head == "expect_ok":
                if rest:
                    raise ParseError("expected: expect_ok, with nothing after it", line_no, 1)
                commands[-1].expect = ("ok",)
            elif not rest:
                raise ParseError("expected: expect_violation <label>", line_no, 1)
            else:
                expect = expect_by_label.get(rest)
                if expect is None:
                    expect = expect_by_label[rest] = ("violation", sys.intern(rest))
                commands[-1].expect = expect
        else:
            raise ParseError(f"unknown scenario command {head!r}", line_no, 1)
    shared: dict[tuple, Command] = {}
    commands = [shared.setdefault((c.kind, c.var, c.target, id(c.args), c.expect), c) for c in commands]
    return Scenario(commands, lines)


def _outcome(read, text: str):
    """What a reader makes of text: its error, or each command's fields
    (with the types of its arguments, since (1,) == (True,)), whether its
    names are interned, the lines, and which commands, argument tuples and
    expectations are one object."""
    try:
        scenario = read(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)
    commands = scenario.commands
    fields = [
        (c.kind, c.var, c.target, c.args, tuple(map(type, c.args)), c.expect, c.var is sys.intern(c.var))
        for c in commands
    ]
    sharing = [
        [(a is b, a.args is b.args, a.expect is b.expect) for b in commands]
        for a in commands
    ]
    return fields, list(scenario.lines), sharing


# every break str.splitlines splits on
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

BLANKS = ("", "   ", "\t", "# a comment", '  # "an unclosed quote')

COMMANDS = (
    "create a : A",
    "create  a :A  ",
    "\tcreate b : B # b",
    "create a.b : C",
    "call a.f(1)",
    "call a.f( 1 )",
    "call a.f(true)",
    "call a.f(1, 2)",
    "call a.f(1,2)",
    "call  a.f(1)\t",
    "call a.f()",
    "call a.f( )",
    "call a.g(Void, false)",
    'call a.f("x,y", "#1")',
    'call a.f("a,b")  # a comment, with "a quote',
    'call a.f("")',
    "call a .f(1)",
)

EXPECTATIONS = (
    "expect_ok",
    "expect_ok  # fine",
    "expect_violation low",
    "expect_violation  low ",
    "expect_violation high # why",
)

# malformed lines, and expectations that may land where none can go
NOISE = (
    "create a",
    "create : A",
    "create a :",
    "call a.f(x)",
    'call a.f(")',
    'call a.f("unclosed)',
    "call a.f(1",
    "call af(1)",
    "call .f(1)",
    "call\ta.f(1)",
    "Call a.f(1)",
    "frobnicate",
    "expect_ok junk",
    "expect_ok\tjunk",
    "expect_okay",
    "expect_violation",
    "expect_violation # none",
    *EXPECTATIONS,
)

COMMAND_LINES = st.one_of(
    st.sampled_from(COMMANDS),
    st.builds("call a.f({})".format, st.integers(-3, 3)),
    st.builds(
        "call {}.{}({}, {})".format,
        st.sampled_from("ab"),
        st.sampled_from("fg"),
        st.integers(0, 2),
        st.sampled_from(("true", "false", "Void")),
    ),
)

# a command, with or without an expectation, after a blank line or not
STEPS = st.tuples(
    st.lists(st.sampled_from(BLANKS), max_size=1), COMMAND_LINES, st.lists(st.sampled_from(EXPECTATIONS), max_size=1)
).map(lambda step: [*step[0], step[1], *step[2]])


@st.composite
def scripts(draw):
    """Scripts of steps drawn from a few lines, so lines repeat, with a
    malformed or misplaced line at times, and any line break between."""
    lines = [line for step in draw(st.lists(STEPS, max_size=20)) for line in step]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE)))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


@settings(max_examples=400, deadline=None)
@given(scripts())
def test_reader_agrees_with_the_reference(text):
    assert _outcome(parse_scenario, text) == _outcome(reference_parse_scenario, text)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("create a : A\nexpect_ok junk\n", "expected: expect_ok, with nothing after it", 2),
        ("create a : A\ncall a.f(1)\nexpect_ok\ncall a.f(1)\nexpect_ok\nexpect_ok\n", "expectation must follow a command", 6),
        ("create a : A\ncall a.f(1)\nexpect_ok\nexpect_ok junk\n", "expectation must follow a command", 4),
        ("create a : A\ncall a.f(x)\n", "bad scenario literal 'x'", 2),
        ("create a : A\n\ncall a.f(1\n", "expected: call <var>.<feature>(<args>)", 3),
    ],
    ids=["expect_ok_text", "repeated_expectation", "position_first", "bad_literal", "unclosed_call"],
)
def test_reader_errors_name_their_line(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert (exc.value.message, exc.value.line) == (message, line)
