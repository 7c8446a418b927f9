"""Tokenizer for .ccl sources.

One compiled pattern scans the text. Its alternatives, tried in order at
each position, are: a run of blanks (space, tab, CR, LF) and line comments
(``--`` to the end of the line), which yields no token; a string literal
(double quotes around any characters but a quote or a newline, with no
escapes); an integer (decimal digits, ``str.isdecimal``); a word (``\\w``
characters, ``str.isalnum`` or ``_``), which is a keyword or an identifier
and must start with a letter or ``_``; and a symbol, longest first. Any
other character is an error. Newlines are not tokens; the grammar is
keyword-delimited. Lines and columns count from 1, a column in characters.
"""

from __future__ import annotations

import re

from .ast import Node
from .errors import ParseError

KEYWORDS = {
    "class",
    "create",
    "feature",
    "note",
    "require",
    "modify",
    "do",
    "ensure",
    "invariant",
    "end",
    "if",
    "then",
    "else",
    "check",
    "old",
    "not",
    "and",
    "or",
    "implies",
    "true",
    "false",
    "Void",
}

SYMBOLS = [
    ":=",
    "/=",
    "<=",
    ">=",
    "(",
    ")",
    "{",
    "}",
    ",",
    ";",
    ":",
    ".",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
]

_TOKEN = re.compile(
    r"(?P<SKIP>(?:[ \t\r\n]|--[^\n]*)+)"
    r'|"(?P<STRING>[^"\n]*)"'
    r"|(?P<INT>\d+)"
    r"|(?P<WORD>\w+)"
    r"|(?P<SYMBOL>" + "|".join(re.escape(s) for s in sorted(SYMBOLS, key=len, reverse=True)) + ")"
    r"|(?P<OTHER>.)"
)


class Token(Node, frozen=True):
    # kind: IDENT | INT | STRING | KEYWORD | SYMBOL | EOF
    __slots__ = ("kind", "value", "line", "col")

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            start, end = m.span()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
            continue
        value = m.group(kind)
        col = m.start() - line_start + 1
        if kind == "WORD":
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            kind = "KEYWORD" if value in KEYWORDS else "IDENT"
        elif kind == "OTHER":
            if value == '"':
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {value!r}", line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
