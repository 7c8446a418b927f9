"""Syntax tree for the contract class language, and ``Node``, the base
of every tree node and record in miniproof but two: a source position
(``Pos``) and a token (``lexer.Token``) are tuples.

Expression and statement nodes compare structurally; source positions and
analyzer annotations are excluded from equality so that a program and its
pretty-printed reparse are equal.
"""

from __future__ import annotations

from collections import namedtuple


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class Node:
    """The base of every tree node and record. A class's fields are its
    bases' followed by its own ``__slots__`` (or by its ``_fields``, when
    other slots hold state outside the fields, such as a cache); their
    defaults are in ``_defaults``, and a list or dict default is copied
    per instance. Class keywords: ``frozen`` refuses assignment after
    construction and hashes by value, also in subclasses; ``kw_only``
    names fields passed by keyword only; ``uncompared`` names fields that
    equality and hashing skip. Nodes are equal when of one class with
    equal compared fields, and the repr shows every field by name. An
    ``__init__`` written in a class's own body is kept (a formula node
    writes its own, which sets its leaf keys in the same call); every
    other class gets one derived from its fields, subclasses of such a
    class included."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _kw_only: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen=False, kw_only=(), uncompared=()):
        base, own = cls.__mro__[1], cls.__dict__
        cls._fields = base._fields + own.get("_fields", own.get("__slots__", ()))
        cls._defaults = {**base._defaults, **own.get("_defaults", {})}
        cls._kw_only = base._kw_only + kw_only
        cls._uncompared = base._uncompared + uncompared
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        # each class compiles its own on first use (see _derive), but for
        # an __init__ written in its body
        if "__init__" not in own:
            cls.__init__ = _first_init
        cls.__eq__ = _first_eq
        cls.__hash__ = _first_hash if cls.__setattr__ is _refuse else None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, made (and so checked) by
        the constructor."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})


def _first_init(self, *args, **kwargs):
    _derive(type(self), "__init__")(self, *args, **kwargs)


def _first_eq(self, other):
    return _derive(type(self), "__eq__")(self, other)


def _first_hash(self):
    return _derive(type(self), "__hash__")(self)


def _derive(cls, name: str):
    """Compile a Node class's __init__, __eq__ or __hash__ into it on its
    first use: generic methods that look the fields up by name cost
    about twice as much per call, and a method a command never calls
    costs it nothing. __init__ sets a frozen class's fields straight
    into their slots, then runs ``__post_init__`` if the class has one."""
    fields, defaults = cls._fields, cls._defaults
    key = "(" + "".join(f"self.{f}, " for f in fields if f not in cls._uncompared) + ")"
    scope = {"_d": defaults, **{f"_s_{f}": getattr(cls, f).__set__ for f in fields}}
    if name == "__eq__":
        source = (
            "def __eq__(self, other):\n  if other.__class__ is self.__class__:\n"
            f"    return {key} == {key.replace('self.', 'other.')}\n  return NotImplemented"
        )
    elif name == "__hash__":
        source = f"def __hash__(self):\n  return hash({key})"
    else:
        param = {f: f"{f}=_d[{f!r}]" if f in defaults else f for f in fields}
        params = ["self", *(param[f] for f in fields if f not in cls._kw_only)]
        if cls._kw_only:
            params += ["*", *(param[f] for f in cls._kw_only)]
        body = []
        for f in fields:
            value = f"{f}.copy() if {f} is _d[{f!r}] else {f}" if isinstance(defaults.get(f), (list, dict)) else f
            body.append(f"_s_{f}(self, {value})" if cls.__setattr__ is _refuse else f"self.{f} = {value}")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        source = f"def __init__({', '.join(params)}):\n  " + "\n  ".join(body or ["pass"])
    exec(source, scope)
    setattr(cls, name, scope[name])
    return scope[name]


class Pos(namedtuple("Pos", "line col")):
    """A source position. An immutable record that compares and hashes by
    value, like a frozen Node, but a tuple, so that the parser can build
    one with no Python-level call."""

    __slots__ = ()

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


class Type(Node, frozen=True):
    __slots__ = ("kind", "class_name")
    _defaults = {"class_name": None}

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


class Expr(Node, kw_only=("pos", "ty"), uncompared=("pos", "ty")):
    __slots__ = ("pos", "ty")
    _defaults = {"pos": None, "ty": None}


class IntLit(Expr):
    __slots__ = ("value",)
    _defaults = {"value": 0}


class BoolLit(Expr):
    __slots__ = ("value",)
    _defaults = {"value": False}


class StrLit(Expr):
    __slots__ = ("value",)
    _defaults = {"value": ""}


class VoidLit(Expr):
    __slots__ = ()


class SetLit(Expr):
    """String-set display, e.g. {"blank", "welcome"}. Members keep source order."""

    __slots__ = ("items",)
    _defaults = {"items": ()}


class Name(Expr):
    """Unqualified read of an attribute or parameter."""

    __slots__ = ("name",)
    _defaults = {"name": ""}


class Qualified(Expr):
    """Single-level qualified read: receiver.attr where receiver names an
    attribute or parameter of reference type."""

    __slots__ = ("receiver", "attr")
    _defaults = {"receiver": "", "attr": ""}


class Old(Expr):
    """Value of the operand at feature entry; only legal inside ensure."""

    __slots__ = ("expr",)
    _defaults = {"expr": None}


class Unary(Expr):
    __slots__ = ("op", "expr")
    _defaults = {"op": "not", "expr": None}


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: + - * = /= < <= > >= and or implies
    _defaults = {"op": "+", "left": None, "right": None}


class Has(Expr):
    """Set membership test: receiver.has(item), `item in receiver` in
    every evaluator; sets hold only strings, so a Void item is in none."""

    __slots__ = ("receiver", "item")
    _defaults = {"receiver": None, "item": None}


class CreateExpr(Expr):
    """Creation expression inside an expression context (never dischargeable)."""

    __slots__ = ("class_name",)
    _defaults = {"class_name": ""}


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


def operand_precs(op: str) -> tuple[int, int]:
    """The loosest binding level the left and the right operand of a
    binary operator may print at without parentheses: an operand at the
    operator's own level is wrapped unless the operator chains on that
    side; comparisons chain on neither."""
    prec, assoc = BINARY_PREC[op], BINARY_ASSOC[op]
    return (prec if assoc == "left" else prec + 1, prec if assoc == "right" else prec + 1)


# ---------------------------------------------------------------------------
# Statements


class Statement(Node, kw_only=("pos",), uncompared=("pos",)):
    __slots__ = ("pos",)
    _defaults = {"pos": None}


class Assign(Statement):
    __slots__ = ("target", "value")
    _defaults = {"target": "", "value": None}


class QualifiedAssign(Statement):
    __slots__ = ("receiver", "attr", "value")
    _defaults = {"receiver": "", "attr": "", "value": None}


class CreateStmt(Statement):
    """Creation instruction: create target or create target.make."""

    __slots__ = ("target", "creator")
    _defaults = {"target": "", "creator": None}


class CallStmt(Statement):
    __slots__ = ("receiver", "feature", "args")
    _defaults = {"receiver": "", "feature": "", "args": []}


class IfStmt(Statement):
    __slots__ = ("cond", "then_branch", "else_branch")
    _defaults = {"cond": None, "then_branch": [], "else_branch": []}


class CheckStmt(Statement, uncompared=("synthesized",)):
    """Inlined assertion."""

    __slots__ = ("label", "expr", "synthesized")
    _defaults = {"label": "", "expr": None, "synthesized": False}


# ---------------------------------------------------------------------------
# Declarations


class Clause(Node, uncompared=("synthesized", "pos")):
    """Labeled boolean contract clause. Unlabeled clauses get positional
    labels such as invariant_1 so violations can always be named."""

    __slots__ = ("label", "expr", "synthesized", "pos")
    _defaults = {"synthesized": False, "pos": None}


class Param(Node, uncompared=("pos",)):
    __slots__ = ("name", "ty", "pos")
    _defaults = {"pos": None}


class Attribute(Node, uncompared=("pos",)):
    __slots__ = ("name", "ty", "pos")
    _defaults = {"pos": None}


class Feature(Node, uncompared=("pos",)):
    # modify None means "may modify every model query"
    __slots__ = ("name", "params", "is_creator", "require", "modify", "body", "ensure", "pos")
    _defaults = {
        "params": [], "is_creator": False, "require": [], "modify": None, "body": [], "ensure": [], "pos": None
    }


class ClassDecl(Node, uncompared=("create_name", "pos")):
    # model_note None means "every attribute is a query"; create_name is
    # the surface spelling only, the creator is the feature with is_creator
    __slots__ = ("name", "model_note", "create_name", "attributes", "features", "invariant", "pos")
    _defaults = {
        "model_note": None, "create_name": None, "attributes": [], "features": [], "invariant": [], "pos": None
    }


class Program(Node):
    # string_pool: every string literal syntactically present, in sorted order
    __slots__ = ("classes", "string_pool")
    _defaults = {"classes": [], "string_pool": ()}

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
    """Yield e and every subexpression, in preorder."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(expr_children(e)))


def arith_postorder(e: Expr):
    """The arithmetic nodes of e, children before parents: the reverse of
    a preorder that visits right children first."""
    found, stack = [], [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Binary) and e.op in ARITH_OPS:
            found.append(e)
        stack.extend(expr_children(e))
    return reversed(found)


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
