"""Recursive-descent parser for .ccl sources.

Declarations and statements have one method each. Binary expressions are
parsed by precedence climbing (Clarke, "The top-down parsing of
expressions", 1986), in one method, parse_binary, driven by the operator
tables ast.BINARY_PREC and ast.BINARY_ASSOC: one loop takes the
operators that follow an operand, and each operator makes one recursive
call for its right operand, which takes every tighter operator (and, for
the right-associative implies, every one of its own level). After a
non-chaining comparison the loop accepts only looser operators, so
``a = b = c`` is an error. The program's string pool is the set of its
STRING tokens. Parsing stops at the first lexical or syntax error and
reports it with line and column.

The parser reads each token in place, as ``tokens[i]``, and tests its
kind and value there; only taking a token that must be there (``expect``,
``ident``) is a call, since it raises on a mismatch. A node's position is
the token's line and column sliced into a ``Pos`` tuple.
"""

from __future__ import annotations

from functools import partial

from . import ast
from .errors import ParseError
from .lexer import KEYWORDS, SYMBOLS, Token, tokenize

# keywords that terminate a clause or statement list
_CLAUSE_STOP = {"do", "modify", "end", "ensure", "invariant", "feature", "then", "else"}

# subexpressions (parentheses, prefix operators, the right side of
# implies, has arguments) nest at most this deep, and so do expression
# trees (a flat chain like 1 + 1 + 1 is a left-deep tree) and `if`
# statements, so that neither this recursive descent nor the recursive
# passes after it run out of stack
MAX_NESTING = 50

_PREC, _ASSOC = ast.BINARY_PREC, ast.BINARY_ASSOC
_TIGHTEST = len(ast.BINARY_LEVELS)

# the kind of each keyword and symbol token, by its spelling
_KIND = {**dict.fromkeys(KEYWORDS, "KEYWORD"), **dict.fromkeys(SYMBOLS, "SYMBOL")}

# a token's line and col, tok[2:], as a Pos, built with no Python-level call
_pos = partial(tuple.__new__, ast.Pos)


class _Parser:
    def __init__(self, tokens: list[Token]):
        # a second EOF, so that the token after the current one is always there
        self.tokens = tokens + tokens[-1:]
        self.i = 0
        self.nesting = 0
        self.blocks = 0

    def expect(self, word: str) -> Token:
        """Take the current token, which must be the keyword or symbol word."""
        tok = self.tokens[self.i]
        if tok.value != word or tok.kind != _KIND[word]:
            raise ParseError(f"expected '{word}', found {tok.value!r}", tok.line, tok.col)
        self.i += 1
        return tok

    def ident(self, what: str = "identifier") -> Token:
        """Take the current token, which must be an identifier."""
        tok = self.tokens[self.i]
        if tok.kind != "IDENT":
            raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
        self.i += 1
        return tok

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes = [self.parse_class()]
        tok = self.tokens[self.i]
        while tok.value == "class" and tok.kind == "KEYWORD":
            classes.append(self.parse_class())
            tok = self.tokens[self.i]
        if tok.kind != "EOF":
            raise ParseError(f"expected 'class' or end of input, found {tok.value!r}", tok.line, tok.col)
        # a parsed program holds every string token in a literal
        pool = {t.value for t in self.tokens if t.kind == "STRING"}
        return ast.Program(classes=classes, string_pool=tuple(sorted(pool)))

    def parse_class(self) -> ast.ClassDecl:
        tokens = self.tokens
        start = self.expect("class")
        name = self.ident("class name").value
        model_note = None
        tok = tokens[self.i]
        if tok.value == "note" and tok.kind == "KEYWORD":
            self.i += 1
            key = self.ident("note key")
            if key.value != "model":
                raise ParseError(f"unknown class note {key.value!r}", key.line, key.col)
            self.expect(":")
            model_note = self.parse_name_list()
        create_name = None
        tok = tokens[self.i]
        if tok.value == "create" and tok.kind == "KEYWORD":
            self.i += 1
            create_name = self.ident("creation feature name").value
        attributes: list[ast.Attribute] = []
        features: list[ast.Feature] = []
        tok = tokens[self.i]
        while tok.value == "feature" and tok.kind == "KEYWORD":
            self.i += 1
            tok = tokens[self.i]
            while not (tok.kind == "KEYWORD" and tok.value in ("feature", "invariant", "end")):
                self.parse_member(attributes, features)
                tok = tokens[self.i]
        invariant: list[ast.Clause] = []
        if tok.value == "invariant" and tok.kind == "KEYWORD":
            self.i += 1
            invariant = self.parse_clauses("invariant")
        self.expect("end")
        if create_name is not None:
            for feat in features:
                if feat.name == create_name:
                    feat.is_creator = True
        return ast.ClassDecl(
            name=name,
            model_note=model_note,
            create_name=create_name,
            attributes=attributes,
            features=features,
            invariant=invariant,
            pos=_pos(start[2:]),
        )

    def parse_name_list(self) -> list[str]:
        names = [self.ident().value]
        tok = self.tokens[self.i]
        while tok.value == "," and tok.kind == "SYMBOL":
            self.i += 1
            names.append(self.ident().value)
            tok = self.tokens[self.i]
        return names

    # -- class members ----------------------------------------------------

    def parse_member(self, attributes: list[ast.Attribute], features: list[ast.Feature]):
        name = self.ident("feature or attribute name")
        tok = self.tokens[self.i]
        if tok.value == ":" and tok.kind == "SYMBOL":
            self.i += 1
            ty = self.parse_type()
            attributes.append(ast.Attribute(name.value, ty, pos=_pos(name[2:])))
            return
        features.append(self.parse_routine(name))

    def parse_type(self) -> ast.Type:
        tok = self.ident("type name")
        if tok.value in ast.BUILTIN_TYPES:
            return ast.Type(tok.value)
        return ast.ref(tok.value)

    def parse_routine(self, name: Token) -> ast.Feature:
        tokens = self.tokens
        params: list[ast.Param] = []
        tok = tokens[self.i]
        if tok.value == "(" and tok.kind == "SYMBOL":
            self.i += 1
            while True:
                pname = self.ident("parameter name")
                self.expect(":")
                pty = self.parse_type()
                params.append(ast.Param(pname.value, pty, pos=_pos(pname[2:])))
                tok = tokens[self.i]
                if tok.value in (";", ",") and tok.kind == "SYMBOL":
                    self.i += 1
                    continue
                break
            self.expect(")")
        is_creator = False
        tok = tokens[self.i]
        if tok.value == "note" and tok.kind == "KEYWORD":
            self.i += 1
            key = self.ident("note key")
            if key.value != "status":
                raise ParseError(f"unknown feature note {key.value!r}", key.line, key.col)
            self.expect(":")
            status = self.ident("status value")
            if status.value != "creator":
                raise ParseError(f"unknown status {status.value!r}", status.line, status.col)
            is_creator = True
        require: list[ast.Clause] = []
        tok = tokens[self.i]
        if tok.value == "require" and tok.kind == "KEYWORD":
            self.i += 1
            require = self.parse_clauses("require")
        modify: list[str] | None = None
        tok = tokens[self.i]
        if tok.value == "modify" and tok.kind == "KEYWORD":
            self.i += 1
            modify = self.parse_name_list() if tokens[self.i].kind == "IDENT" else []
        self.expect("do")
        body = self.parse_statements()
        ensure: list[ast.Clause] = []
        tok = tokens[self.i]
        if tok.value == "ensure" and tok.kind == "KEYWORD":
            self.i += 1
            ensure = self.parse_clauses("ensure")
        self.expect("end")
        return ast.Feature(
            name=name.value,
            params=params,
            is_creator=is_creator,
            require=require,
            modify=modify,
            body=body,
            ensure=ensure,
            pos=_pos(name[2:]),
        )

    def parse_clauses(self, section: str) -> list[ast.Clause]:
        tokens = self.tokens
        clauses: list[ast.Clause] = []
        while True:
            tok = tokens[self.i]
            if tok.kind == "EOF" or tok.kind == "KEYWORD" and tok.value in _CLAUSE_STOP:
                return clauses
            after = tokens[self.i + 1]
            if tok.kind == "IDENT" and after.value == ":" and after.kind == "SYMBOL":
                self.i += 2
                clauses.append(ast.Clause(tok.value, self.parse_expr(), pos=_pos(tok[2:])))
            else:
                label = f"{section}_{len(clauses) + 1}"
                clauses.append(ast.Clause(label, self.parse_expr(), synthesized=True, pos=_pos(tok[2:])))

    # -- statements -------------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        tokens = self.tokens
        stmts: list[ast.Statement] = []
        while True:
            tok = tokens[self.i]
            if tok.kind == "KEYWORD" and tok.value in ("end", "else", "ensure") or tok.kind == "EOF":
                return stmts
            stmts.append(self.parse_statement())

    def parse_statement(self) -> ast.Statement:
        tokens = self.tokens
        tok = tokens[self.i]
        if tok.kind == "KEYWORD":
            if tok.value == "create":
                self.i += 1
                target = self.ident("creation target").value
                creator = None
                dot = tokens[self.i]
                if dot.value == "." and dot.kind == "SYMBOL":
                    self.i += 1
                    creator = self.ident("creator name").value
                return ast.CreateStmt(target, creator, pos=_pos(tok[2:]))
            if tok.value == "if":
                if self.blocks == MAX_NESTING:
                    raise ParseError(f"statements nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
                self.blocks += 1
                self.i += 1
                cond = self.parse_expr()
                self.expect("then")
                then_branch = self.parse_statements()
                else_branch: list[ast.Statement] = []
                word = tokens[self.i]
                if word.value == "else" and word.kind == "KEYWORD":
                    self.i += 1
                    else_branch = self.parse_statements()
                self.expect("end")
                self.blocks -= 1
                return ast.IfStmt(cond, then_branch, else_branch, pos=_pos(tok[2:]))
            if tok.value == "check":
                self.i += 1
                label, synthesized = "check_1", True
                first, after = tokens[self.i], tokens[self.i + 1]
                if first.kind == "IDENT" and after.value == ":" and after.kind == "SYMBOL":
                    label, synthesized = first.value, False
                    self.i += 2
                expr = self.parse_expr()
                self.expect("end")
                return ast.CheckStmt(label, expr, synthesized=synthesized, pos=_pos(tok[2:]))
        name = self.ident("statement")
        after = tokens[self.i]
        if after.kind == "SYMBOL":
            if after.value == ":=":
                self.i += 1
                return ast.Assign(name.value, self.parse_expr(), pos=_pos(name[2:]))
            if after.value == ".":
                self.i += 1
                return self.parse_qualified_statement(name)
        raise ParseError(f"expected statement, found {name.value!r}", name.line, name.col)

    def parse_qualified_statement(self, name: Token) -> ast.Statement:
        """The rest of ``name.member := value`` or ``name.member (args)``."""
        tokens = self.tokens
        member = self.ident("feature or attribute name").value
        tok = tokens[self.i]
        if tok.value == ":=" and tok.kind == "SYMBOL":
            self.i += 1
            return ast.QualifiedAssign(name.value, member, self.parse_expr(), pos=_pos(name[2:]))
        args: list[ast.Expr] = []
        if tok.value == "(" and tok.kind == "SYMBOL":
            self.i += 1
            tok = tokens[self.i]
            if not (tok.value == ")" and tok.kind == "SYMBOL"):
                args.append(self.parse_expr())
                tok = tokens[self.i]
                while tok.value == "," and tok.kind == "SYMBOL":
                    self.i += 1
                    args.append(self.parse_expr())
                    tok = tokens[self.i]
            self.expect(")")
        return ast.CallStmt(name.value, member, args, pos=_pos(name[2:]))

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        start = self.i
        expr = self.parse_binary()
        # each operator of a tree is a token of its own, so a tree over at
        # most MAX_NESTING tokens is no deeper than that
        if self.nesting == 0 and self.i - start > MAX_NESTING and _depth(expr) > MAX_NESTING:
            tok = self.tokens[start]
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
        return expr

    def nested(self, tok: Token, parse, *args) -> ast.Expr:
        """Run parse(*args) one nesting level deeper than the current one."""
        if self.nesting == MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
        self.nesting += 1
        expr = parse(*args)
        self.nesting -= 1
        return expr

    def parse_binary(self, min_prec: int = 1) -> ast.Expr:
        """Parse an operand and the operators after it that bind at
        min_prec or tighter (see ast.BINARY_LEVELS), each with its right
        operand."""
        left = self.parse_unary()
        limit = _TIGHTEST  # the tightest level the next operator may have
        tokens = self.tokens
        while True:
            tok = tokens[self.i]
            # the string literal "and" is no operator, hence the kind test
            prec = _PREC.get(tok.value, 0) if tok.kind != "STRING" else 0
            if not min_prec <= prec <= limit:
                return left
            self.i += 1
            assoc = _ASSOC[tok.value]
            if assoc == "right":
                right = self.nested(tok, self.parse_binary, prec)
            else:
                right = self.parse_binary(prec + 1)
            left = ast.Binary(tok.value, left, right, pos=_pos(tok[2:]))
            # the right operand took every tighter operator; a left operator
            # may be followed by one of its own level, a comparison does not
            # chain, and the right operand of implies took all of its level
            limit = prec if assoc == "left" else prec - 1

    def parse_unary(self) -> ast.Expr:
        """Parse a prefix operator with its operand, or an atom with the
        ``.has`` calls after it."""
        tokens = self.tokens
        tok = tokens[self.i]
        self.i += 1
        kind, value = tok.kind, tok.value
        if kind == "IDENT":
            dot, attr = tokens[self.i], tokens[self.i + 1]
            if dot.value == "." and dot.kind == "SYMBOL" and attr.kind == "IDENT" and attr.value != "has":
                self.i += 2
                expr = ast.Qualified(value, attr.value, pos=_pos(tok[2:]))
            else:
                expr = ast.Name(value, pos=_pos(tok[2:]))
        elif kind == "INT":
            expr = ast.IntLit(int(value), pos=_pos(tok[2:]))
        elif kind == "STRING":
            expr = ast.StrLit(value, pos=_pos(tok[2:]))
        elif kind == "KEYWORD" and value == "not":
            return ast.Unary("not", self.nested(tok, self.parse_unary), pos=_pos(tok[2:]))
        elif kind == "KEYWORD" and value == "old":
            return ast.Old(self.nested(tok, self.parse_unary), pos=_pos(tok[2:]))
        elif kind == "SYMBOL" and value == "-":
            operand = self.nested(tok, self.parse_unary)
            if isinstance(operand, ast.IntLit):
                return ast.IntLit(-operand.value, pos=_pos(tok[2:]))
            raise ParseError("unary minus applies to integer literals only", tok.line, tok.col)
        else:
            expr = self.parse_atom(tok)
        dot = tokens[self.i]
        while dot.value == "." and dot.kind == "SYMBOL":
            has = tokens[self.i + 1]
            if not (has.kind == "IDENT" and has.value == "has"):
                raise ParseError(
                    "only one level of qualification is supported (receiver.attr or set.has(..))",
                    dot.line,
                    dot.col,
                )
            self.i += 2
            item = self.nested(self.expect("("), self.parse_expr)
            self.expect(")")
            expr = ast.Has(expr, item, pos=_pos(dot[2:]))
            dot = tokens[self.i]
        return expr

    def parse_atom(self, tok: Token) -> ast.Expr:
        """The atom that tok, already taken, opens, other than a name, an
        integer or a string."""
        kind, value = tok.kind, tok.value
        if kind == "KEYWORD":
            if value == "true" or value == "false":
                return ast.BoolLit(value == "true", pos=_pos(tok[2:]))
            if value == "Void":
                return ast.VoidLit(pos=_pos(tok[2:]))
            if value == "create":
                return ast.CreateExpr(self.ident("class name").value, pos=_pos(tok[2:]))
        elif kind == "SYMBOL":
            if value == "(":
                inner = self.nested(tok, self.parse_expr)
                self.expect(")")
                return inner
            if value == "{":
                return self.parse_set(tok)
        raise ParseError(f"expected expression, found {value!r}", tok.line, tok.col)

    def parse_set(self, brace: Token) -> ast.SetLit:
        tokens = self.tokens
        items: list[str] = []
        tok = tokens[self.i]
        if not (tok.value == "}" and tok.kind == "SYMBOL"):
            while True:
                if tok.kind != "STRING":
                    raise ParseError("set displays hold string literals only", tok.line, tok.col)
                items.append(tok.value)
                self.i += 1
                tok = tokens[self.i]
                if not (tok.value == "," and tok.kind == "SYMBOL"):
                    break
                self.i += 1
                tok = tokens[self.i]
        self.expect("}")
        return ast.SetLit(tuple(items), pos=_pos(brace[2:]))


def _depth(e: ast.Expr) -> int:
    """Depth of an expression tree (a leaf is 0), found without recursion."""
    deepest, stack = 0, [(e, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in ast.expr_children(node))
    return deepest


def parse(text: str) -> ast.Program:
    """Parse a .ccl source into a Program. Raises ParseError on the first
    lexical or syntactic problem."""
    return _Parser(tokenize(text)).parse_program()
