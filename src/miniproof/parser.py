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
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import Token, tokenize

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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens + tokens[-1:]  # a second EOF, so that peek(1) needs no bounds check
        self.i = 0
        self.nesting = 0
        self.blocks = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.value in words

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYMBOL" and tok.value == sym

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "KEYWORD" or tok.value != word:
            raise ParseError(f"expected '{word}', found {tok.value!r}", tok.line, tok.col)
        return tok

    def expect_symbol(self, sym: str) -> Token:
        tok = self.next()
        if tok.kind != "SYMBOL" or tok.value != sym:
            raise ParseError(f"expected '{sym}', found {tok.value!r}", tok.line, tok.col)
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.next()
        if tok.kind != "IDENT":
            raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
        return tok

    @staticmethod
    def pos(tok: Token) -> ast.Pos:
        return ast.Pos(tok.line, tok.col)

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes = [self.parse_class()]
        while self.at_keyword("class"):
            classes.append(self.parse_class())
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"expected 'class' or end of input, found {tok.value!r}", tok.line, tok.col)
        # a parsed program holds every string token in a literal
        pool = {t.value for t in self.tokens if t.kind == "STRING"}
        return ast.Program(classes=classes, string_pool=tuple(sorted(pool)))

    def parse_class(self) -> ast.ClassDecl:
        start = self.expect_keyword("class")
        name = self.expect_ident("class name").value
        model_note = None
        if self.at_keyword("note"):
            self.next()
            key = self.expect_ident("note key")
            if key.value != "model":
                raise ParseError(f"unknown class note {key.value!r}", key.line, key.col)
            self.expect_symbol(":")
            model_note = self.parse_name_list()
        create_name = None
        if self.at_keyword("create"):
            self.next()
            create_name = self.expect_ident("creation feature name").value
        attributes: list[ast.Attribute] = []
        features: list[ast.Feature] = []
        while self.at_keyword("feature"):
            self.next()
            while not self.at_keyword("feature", "invariant", "end"):
                self.parse_member(attributes, features)
        invariant: list[ast.Clause] = []
        if self.at_keyword("invariant"):
            self.next()
            invariant = self.parse_clauses("invariant")
        self.expect_keyword("end")
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
            pos=self.pos(start),
        )

    def parse_name_list(self) -> list[str]:
        names = [self.expect_ident().value]
        while self.at_symbol(","):
            self.next()
            names.append(self.expect_ident().value)
        return names

    # -- class members ----------------------------------------------------

    def parse_member(self, attributes: list[ast.Attribute], features: list[ast.Feature]):
        name = self.expect_ident("feature or attribute name")
        if self.at_symbol(":"):
            self.next()
            ty = self.parse_type()
            attributes.append(ast.Attribute(name.value, ty, pos=self.pos(name)))
            return
        features.append(self.parse_routine(name))

    def parse_type(self) -> ast.Type:
        tok = self.expect_ident("type name")
        if tok.value in ast.BUILTIN_TYPES:
            return ast.Type(tok.value)
        return ast.ref(tok.value)

    def parse_routine(self, name: Token) -> ast.Feature:
        params: list[ast.Param] = []
        if self.at_symbol("("):
            self.next()
            while True:
                pname = self.expect_ident("parameter name")
                self.expect_symbol(":")
                pty = self.parse_type()
                params.append(ast.Param(pname.value, pty, pos=self.pos(pname)))
                if self.at_symbol(";") or self.at_symbol(","):
                    self.next()
                    continue
                break
            self.expect_symbol(")")
        is_creator = False
        if self.at_keyword("note"):
            self.next()
            key = self.expect_ident("note key")
            if key.value != "status":
                raise ParseError(f"unknown feature note {key.value!r}", key.line, key.col)
            self.expect_symbol(":")
            status = self.expect_ident("status value")
            if status.value != "creator":
                raise ParseError(f"unknown status {status.value!r}", status.line, status.col)
            is_creator = True
        require: list[ast.Clause] = []
        if self.at_keyword("require"):
            self.next()
            require = self.parse_clauses("require")
        modify: list[str] | None = None
        if self.at_keyword("modify"):
            self.next()
            modify = self.parse_name_list() if self.peek().kind == "IDENT" else []
        self.expect_keyword("do")
        body = self.parse_statements()
        ensure: list[ast.Clause] = []
        if self.at_keyword("ensure"):
            self.next()
            ensure = self.parse_clauses("ensure")
        self.expect_keyword("end")
        return ast.Feature(
            name=name.value,
            params=params,
            is_creator=is_creator,
            require=require,
            modify=modify,
            body=body,
            ensure=ensure,
            pos=self.pos(name),
        )

    def parse_clauses(self, section: str) -> list[ast.Clause]:
        clauses: list[ast.Clause] = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind == "KEYWORD" and tok.value in _CLAUSE_STOP:
                break
            label = None
            if tok.kind == "IDENT" and self.peek(1).kind == "SYMBOL" and self.peek(1).value == ":":
                label = self.next().value
                self.next()
            expr = self.parse_expr()
            if label is None:
                clauses.append(
                    ast.Clause(f"{section}_{len(clauses) + 1}", expr, synthesized=True, pos=self.pos(tok))
                )
            else:
                clauses.append(ast.Clause(label, expr, pos=self.pos(tok)))
        return clauses

    # -- statements -------------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        stmts: list[ast.Statement] = []
        while True:
            tok = self.peek()
            if tok.kind == "KEYWORD" and tok.value in ("end", "else", "ensure"):
                break
            if tok.kind == "EOF":
                break
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> ast.Statement:
        tok = self.peek()
        if self.at_keyword("create"):
            self.next()
            target = self.expect_ident("creation target").value
            creator = None
            if self.at_symbol("."):
                self.next()
                creator = self.expect_ident("creator name").value
            return ast.CreateStmt(target, creator, pos=self.pos(tok))
        if self.at_keyword("if"):
            if self.blocks == MAX_NESTING:
                raise ParseError(f"statements nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
            self.blocks += 1
            self.next()
            cond = self.parse_expr()
            self.expect_keyword("then")
            then_branch = self.parse_statements()
            else_branch: list[ast.Statement] = []
            if self.at_keyword("else"):
                self.next()
                else_branch = self.parse_statements()
            self.expect_keyword("end")
            self.blocks -= 1
            return ast.IfStmt(cond, then_branch, else_branch, pos=self.pos(tok))
        if self.at_keyword("check"):
            self.next()
            label = "check_1"
            synthesized = True
            if self.peek().kind == "IDENT" and self.peek(1).kind == "SYMBOL" and self.peek(1).value == ":":
                label = self.next().value
                self.next()
                synthesized = False
            expr = self.parse_expr()
            self.expect_keyword("end")
            return ast.CheckStmt(label, expr, synthesized=synthesized, pos=self.pos(tok))
        name = self.expect_ident("statement")
        if self.at_symbol(":="):
            self.next()
            return ast.Assign(name.value, self.parse_expr(), pos=self.pos(name))
        if self.at_symbol("."):
            self.next()
            member = self.expect_ident("feature or attribute name").value
            if self.at_symbol(":="):
                self.next()
                return ast.QualifiedAssign(name.value, member, self.parse_expr(), pos=self.pos(name))
            args: list[ast.Expr] = []
            if self.at_symbol("("):
                self.next()
                if not self.at_symbol(")"):
                    args.append(self.parse_expr())
                    while self.at_symbol(","):
                        self.next()
                        args.append(self.parse_expr())
                self.expect_symbol(")")
            return ast.CallStmt(name.value, member, args, pos=self.pos(name))
        raise ParseError(f"expected statement, found {name.value!r}", name.line, name.col)

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
        while True:
            tok = self.tokens[self.i]
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
            left = ast.Binary(tok.value, left, right, pos=self.pos(tok))
            # the right operand took every tighter operator; a left operator
            # may be followed by one of its own level, a comparison does not
            # chain, and the right operand of implies took all of its level
            limit = prec if assoc == "left" else prec - 1

    def parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.i]
        if tok.kind == "KEYWORD":
            if tok.value == "not":
                self.i += 1
                return ast.Unary("not", self.nested(tok, self.parse_unary), pos=self.pos(tok))
            if tok.value == "old":
                self.i += 1
                return ast.Old(self.nested(tok, self.parse_unary), pos=self.pos(tok))
        elif tok.value == "-" and tok.kind == "SYMBOL":
            self.i += 1
            operand = self.nested(tok, self.parse_unary)
            if isinstance(operand, ast.IntLit):
                return ast.IntLit(-operand.value, pos=self.pos(tok))
            raise ParseError("unary minus applies to integer literals only", tok.line, tok.col)
        expr = self.parse_atom()
        while self.at_symbol("."):
            dot = self.peek()
            if self.peek(1).kind == "IDENT" and self.peek(1).value == "has":
                self.i += 2
                item = self.nested(self.expect_symbol("("), self.parse_expr)
                self.expect_symbol(")")
                expr = ast.Has(expr, item, pos=self.pos(dot))
                continue
            raise ParseError(
                "only one level of qualification is supported (receiver.attr or set.has(..))",
                dot.line,
                dot.col,
            )
        return expr

    def parse_atom(self) -> ast.Expr:
        tok = self.next()
        kind, value = tok.kind, tok.value
        if kind == "IDENT":
            if self.at_symbol(".") and self.peek(1).kind == "IDENT" and self.peek(1).value != "has":
                self.i += 1
                attr = self.expect_ident().value
                return ast.Qualified(value, attr, pos=self.pos(tok))
            return ast.Name(value, pos=self.pos(tok))
        if kind == "INT":
            return ast.IntLit(int(value), pos=self.pos(tok))
        if kind == "STRING":
            return ast.StrLit(value, pos=self.pos(tok))
        if kind == "KEYWORD":
            if value == "true" or value == "false":
                return ast.BoolLit(value == "true", pos=self.pos(tok))
            if value == "Void":
                return ast.VoidLit(pos=self.pos(tok))
            if value == "create":
                cname = self.expect_ident("class name").value
                return ast.CreateExpr(cname, pos=self.pos(tok))
        elif kind == "SYMBOL":
            if value == "(":
                inner = self.nested(tok, self.parse_expr)
                self.expect_symbol(")")
                return inner
            if value == "{":
                items: list[str] = []
                if not self.at_symbol("}"):
                    while True:
                        item = self.next()
                        if item.kind != "STRING":
                            raise ParseError("set displays hold string literals only", item.line, item.col)
                        items.append(item.value)
                        if self.at_symbol(","):
                            self.next()
                            continue
                        break
                self.expect_symbol("}")
                return ast.SetLit(tuple(items), pos=self.pos(tok))
        raise ParseError(f"expected expression, found {value!r}", tok.line, tok.col)


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
