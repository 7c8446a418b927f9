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

Each alternative is a group of its own, so a match's ``lastindex`` names
its kind, and a word that starts with an ASCII letter or ``_`` (nearly
every one) has a group that needs no further test. Lines are counted in
the blank prefix. A token is a tuple (see ``Token``), built by
``tuple.__new__`` with no Python-level call.
"""

from __future__ import annotations

import re
from collections import namedtuple

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

# groups: 1 the blanks, 2 a string's text, 3 an integer, 4 a word that
# starts with an ASCII letter or _, 5 any other word, 6 a symbol, 7 any
# other character; the end of the text matches no group after the blanks
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|--[^\n]*)*)"
    r'(?:"([^"\n]*)"'
    r"|(\d+)"
    r"|([A-Za-z_]\w*)"
    r"|(\w+)"
    r"|(" + "|".join(re.escape(s) for s in sorted(SYMBOLS, key=len, reverse=True)) + ")"
    r"|(.)"
    r"|\Z)"
)


class Token(namedtuple("Token", "kind value line col")):
    """One token; kind is IDENT, INT, STRING, KEYWORD, SYMBOL or EOF. An
    immutable record that compares and hashes by value, like a frozen
    Node, but a tuple, so that the lexer can build one with no
    Python-level call."""

    __slots__ = ()

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


_new = tuple.__new__


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, base = 1, -1  # base: the offset just before the current line's first character
    for m in _TOKEN.finditer(text):  # one match at a time: findall's list of all matches costs memory
        k = m.lastindex  # the token's group (see _TOKEN)
        blanks = m[1]
        if "\n" in blanks:
            line += blanks.count("\n")
            base = m.start() + blanks.rindex("\n")
        if k == 4:
            word = m[4]
            append(_new(Token, ("KEYWORD" if word in KEYWORDS else "IDENT", word, line, m.start(4) - base)))
        elif k == 6:
            append(_new(Token, ("SYMBOL", m[6], line, m.start(6) - base)))
        elif k == 3:
            append(_new(Token, ("INT", m[3], line, m.start(3) - base)))
        elif k == 2:
            append(_new(Token, ("STRING", m[2], line, m.start(2) - base - 1)))  # at the opening quote
        elif k == 1:
            # the end of the text; finditer may add one more empty match there
            append(_new(Token, ("EOF", "", line, m.end() - base)))
            break
        else:
            char, col = m[k][0], m.start(k) - base
            if char.isalpha():  # a word that starts with a letter outside ASCII
                append(_new(Token, ("IDENT", m[k], line, col)))  # every keyword is ASCII
            elif char == '"':
                raise ParseError("unterminated string literal", line, col)
            else:
                raise ParseError(f"unexpected character {char!r}", line, col)
    return tokens
