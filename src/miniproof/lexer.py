"""Tokenizer for .ccl sources.

One compiled pattern scans the text, and each of its matches is one
token. A match opens with a run of blanks (space, tab, CR, LF) and line
comments (``--`` to the end of the line), then takes the first of these
that fits: a string literal (double quotes around any characters but a
quote or a newline, with no escapes); an integer (decimal digits,
``str.isdecimal``); a word (``\\w`` characters, ``str.isalnum`` or
``_``), which is a keyword or an identifier and must start with a letter
or ``_``; a symbol, longest first; any other character, which is an
error; or the end of the text, which is the EOF token. Newlines are not
tokens; the grammar is keyword-delimited. Lines and columns count from 1,
a column in characters; a token's column is that of its first character,
a string's opening quote included.
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
    r"((?:[ \t\r\n]+|--[^\n]*)*)"
    r'(?:("[^"\n]*")'
    r"|(\d+)"
    r"|(\w+)"
    r"|(" + "|".join(re.escape(s) for s in sorted(SYMBOLS, key=len, reverse=True)) + ")"
    r"|(.)"
    r"|\Z)"
)


class Token(Node, frozen=True):
    # kind: IDENT | INT | STRING | KEYWORD | SYMBOL | EOF
    __slots__ = ("kind", "value", "line", "col")

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, at = 1, 0, 0  # at: where the current match's token starts
    for m in _TOKEN.finditer(text):  # one match at a time: findall's list of all matches costs memory
        blanks, string, integer, word, symbol, other = m.groups()
        if blanks:
            newlines = blanks.count("\n")
            if newlines:
                line += newlines
                line_start = at + blanks.rindex("\n") + 1
            at += len(blanks)
        col = at - line_start + 1
        if symbol:
            kind, value = "SYMBOL", symbol
        elif word:
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            kind, value = "KEYWORD" if word in KEYWORDS else "IDENT", word
        elif integer:
            kind, value = "INT", integer
        elif string:
            kind, value = "STRING", string[1:-1]
            at += 2
        elif other:
            if other == '"':
                raise ParseError("unterminated string literal", line, col)
            raise ParseError(f"unexpected character {other!r}", line, col)
        else:
            # the end of the text; finditer may add one more empty match there
            tokens.append(Token("EOF", "", line, col))
            break
        tokens.append(Token(kind, value, line, col))
        at += len(value)
    return tokens
