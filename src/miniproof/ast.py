"""Syntax tree for the contract class language.

Expression and statement nodes compare structurally; source positions and
analyzer annotations are excluded from equality so that a program and its
pretty-printed reparse are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Pos:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types

INTEGER = "INTEGER"
BOOLEAN = "BOOLEAN"
STRING = "STRING"
SET_OF_STRING = "SET_OF_STRING"
REF = "REF"
VOID_TYPE = "VOID"  # type of the Void literal before unification

BUILTIN_TYPES = (INTEGER, BOOLEAN, STRING, SET_OF_STRING)


@dataclass(frozen=True)
class Type:
    kind: str
    class_name: str | None = None

    def __str__(self):
        if self.kind == REF:
            return self.class_name or "?"
        return self.kind

    @property
    def is_nullable(self):
        # strings and references may hold Void; integers, booleans and sets may not
        return self.kind in (STRING, REF, VOID_TYPE)


T_INT = Type(INTEGER)
T_BOOL = Type(BOOLEAN)
T_STRING = Type(STRING)
T_SET = Type(SET_OF_STRING)
T_VOID = Type(VOID_TYPE)


def ref(class_name: str) -> Type:
    return Type(REF, class_name)


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    pos: Pos | None = field(default=None, compare=False, kw_only=True)
    ty: Type | None = field(default=None, compare=False, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class VoidLit(Expr):
    pass


@dataclass
class SetLit(Expr):
    """String-set display, e.g. {"blank", "welcome"}. Members keep source order."""

    items: tuple[str, ...] = ()


@dataclass
class Name(Expr):
    """Unqualified read of an attribute or parameter."""

    name: str = ""


@dataclass
class Qualified(Expr):
    """Single-level qualified read: receiver.attr where receiver names an
    attribute or parameter of reference type."""

    receiver: str = ""
    attr: str = ""


@dataclass
class Old(Expr):
    """Value of the operand at feature entry; only legal inside ensure."""

    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    op: str = "not"
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = "+"  # + - * = /= < <= > >= and or implies
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Has(Expr):
    """Set membership test: receiver.has(item)."""

    receiver: Expr = None  # type: ignore[assignment]
    item: Expr = None  # type: ignore[assignment]


@dataclass
class CreateExpr(Expr):
    """Creation expression inside an expression context (never dischargeable)."""

    class_name: str = ""


COMPARISON_OPS = ("=", "/=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*")
BOOL_OPS = ("and", "or", "implies")

# The binary operators by binding power, loosest first, each level with its
# associativity: "none" marks operators that do not chain. The parser, the
# pretty-printer and formula.to_text all read this one table. Prefix
# operators (not, old, unary minus) bind tighter than every binary one, and
# atoms (literals, names, parenthesized expressions, has calls) tightest.
BINARY_LEVELS = (
    ("right", ("implies",)),
    ("left", ("or",)),
    ("left", ("and",)),
    ("none", COMPARISON_OPS),
    ("left", ("+", "-")),
    ("left", ("*",)),
)
BINARY_PREC = {op: level for level, (_, ops) in enumerate(BINARY_LEVELS, 1) for op in ops}
BINARY_ASSOC = {op: assoc for assoc, ops in BINARY_LEVELS for op in ops}
UNARY_PREC = len(BINARY_LEVELS) + 1
ATOM_PREC = UNARY_PREC + 1


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Statement:
    pos: Pos | None = field(default=None, compare=False, kw_only=True)


@dataclass
class Assign(Statement):
    target: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class QualifiedAssign(Statement):
    receiver: str = ""
    attr: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class CreateStmt(Statement):
    """Creation instruction: create target or create target.make."""

    target: str = ""
    creator: str | None = None


@dataclass
class CallStmt(Statement):
    receiver: str = ""
    feature: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class IfStmt(Statement):
    cond: Expr = None  # type: ignore[assignment]
    then_branch: list[Statement] = field(default_factory=list)
    else_branch: list[Statement] = field(default_factory=list)


@dataclass
class CheckStmt(Statement):
    """Inlined assertion."""

    label: str = ""
    expr: Expr = None  # type: ignore[assignment]
    synthesized: bool = field(default=False, compare=False)


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class Clause:
    """Labeled boolean contract clause. Unlabeled clauses get positional
    labels such as invariant_1 so violations can always be named."""

    label: str
    expr: Expr
    synthesized: bool = field(default=False, compare=False)
    pos: Pos | None = field(default=None, compare=False)


@dataclass
class Param:
    name: str
    ty: Type
    pos: Pos | None = field(default=None, compare=False)


@dataclass
class Attribute:
    name: str
    ty: Type
    pos: Pos | None = field(default=None, compare=False)


@dataclass
class Feature:
    name: str
    params: list[Param] = field(default_factory=list)
    is_creator: bool = False
    require: list[Clause] = field(default_factory=list)
    modify: list[str] | None = None  # None means "may modify every model query"
    body: list[Statement] = field(default_factory=list)
    ensure: list[Clause] = field(default_factory=list)
    pos: Pos | None = field(default=None, compare=False)


@dataclass
class ClassDecl:
    name: str
    model_note: list[str] | None = None  # None means "every attribute is a query"
    # surface spelling only; the creator is the feature with is_creator set
    create_name: str | None = field(default=None, compare=False)
    attributes: list[Attribute] = field(default_factory=list)
    features: list[Feature] = field(default_factory=list)
    invariant: list[Clause] = field(default_factory=list)
    pos: Pos | None = field(default=None, compare=False)


@dataclass
class Program:
    classes: list[ClassDecl] = field(default_factory=list)
    # every string literal syntactically present, in sorted order
    string_pool: tuple[str, ...] = ()

    def class_named(self, name: str) -> ClassDecl | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None


def expr_children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Old, Unary)):
        return (e.expr,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, Has):
        return (e.receiver, e.item)
    return ()


def walk_expr(e: Expr):
    """Yield e and every subexpression."""
    yield e
    for child in expr_children(e):
        yield from walk_expr(child)


def arith_postorder(e: Expr):
    """Yield the arithmetic nodes of e, children before parents."""
    for child in expr_children(e):
        yield from arith_postorder(child)
    if isinstance(e, Binary) and e.op in ARITH_OPS:
        yield e


def walk_statements(stmts: list[Statement]):
    """Yield every statement, descending into conditionals in source order."""
    for s in stmts:
        yield s
        if isinstance(s, IfStmt):
            yield from walk_statements(s.then_branch)
            yield from walk_statements(s.else_branch)


def statement_exprs(s: Statement):
    if isinstance(s, Assign):
        yield s.value
    elif isinstance(s, QualifiedAssign):
        yield s.value
    elif isinstance(s, CallStmt):
        yield from s.args
    elif isinstance(s, IfStmt):
        yield s.cond
    elif isinstance(s, CheckStmt):
        yield s.expr
