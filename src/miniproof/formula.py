"""First-order formulas over finite-domain symbols.

Proof obligations are closed formulas whose leaves are symbols standing
for entry-state values. A symbol's name is a path such as ``balance`` or
``constants.display_message``: paths are atoms here, there is no
dereference operator, so a formula never gets stuck. The heap model this
encodes is deliberately coarse - every non-Void reference of class C is
one representative object - which is documented where domains are built.

Values are Python values: int, bool, str, frozenset[str], Ref, and None
for Void. Arithmetic is unbounded; overflow is expressed by explicit
bound-comparison obligations, not by wrapping here.

Substitution is delayed. ``subst`` wraps a compound formula, a ``Let``
too, in a ``Let`` that records the mapping instead of copying the
formula, so each substitution costs the same however many came before
it. Weakest preconditions can then share one postcondition between both
branches of an ``if``, so a formula is a DAG whose size grows linearly
with the program. Every consumer reads a ``Let`` as the formula it
stands for, and every walk takes it the same way, in a loop: merge the
binds into its environment, then go on with the body. ``expand`` carries
the substitutions out; ``to_text`` prints the text of the expanded
formula without building it, each bind printed once.

Every node keeps the keys of its free leaves, worked out when it is
built from its children's (see ``_leaves``), so ``subst``, ``free_syms``,
``old_syms`` and ``has_old`` read them without a walk. A node that adds
no key to one child's shares that child's dict, so ``not X`` or
``x < 3`` costs no dict of its own.

This module also holds what vcgen, discharge and the runtime monitor
share: the one lowering of expressions (``lower``: vcgen proves its
formulas, the monitor compiles them), the one emitter of formulas as
Python source (``emit``: discharge's scans, the monitor's checks) and
its compile rule, the verification options, the obligation kinds, each
type's default value, and the one JSON encoding of values
(``encode_value``/``decode_value``) with its type check (``fits``) and
its writer (``json_text``).
"""

from __future__ import annotations

import functools
import json
import operator

from . import ast


class Ref(ast.Node, frozen=True):
    """The representative object of a class; compares equal to itself."""

    __slots__ = ("class_name",)

    def __str__(self):
        return f"<{self.class_name}>"


# read only in annotations, which are never evaluated; a typing.Union here
# would be kept in typing's cache with this import's Ref, and through it
# this module and ast, after the package is imported again
Value = "int | bool | str | frozenset[str] | Ref | None"


class Formula(ast.Node, frozen=True):
    # the keys of the free leaves of the formula this node stands for,
    # with their types, set when the node is built (see ``_leaves``);
    # nodes share these dicts, so none is ever changed
    __slots__ = ("_leafkeys",)
    _fields = ()


_set_leafkeys = Formula._leafkeys.__set__
_NO_LEAVES: dict = {}


class Sym(Formula):
    """The one leaf class, keyed by its name: a path, or ``OLD`` and a
    path for its entry-state value until ``unify_old``."""

    __slots__ = ("name", "ty")

    def __post_init__(self):
        _set_leafkeys(self, {self.name: self.ty})


class Lit(Formula):
    __slots__ = ("value",)

    def __post_init__(self):
        _set_leafkeys(self, _NO_LEAVES)


class Not(Formula):
    __slots__ = ("operand",)

    def __post_init__(self):
        _set_leafkeys(self, self.operand._leafkeys)


class And(Formula):
    __slots__ = ("items",)

    def __post_init__(self):
        _set_leafkeys(self, _union([c._leafkeys for c in self.items]))


class Or(Formula):
    __slots__ = ("items",)

    def __post_init__(self):
        _set_leafkeys(self, _union([c._leafkeys for c in self.items]))


class Implies(Formula):
    __slots__ = ("left", "right")

    def __post_init__(self):
        _set_leafkeys(self, _union((self.left._leafkeys, self.right._leafkeys)))


class Cmp(Formula):
    __slots__ = ("op", "left", "right")  # op: = /= < <= > >=

    def __post_init__(self):
        _set_leafkeys(self, _union((self.left._leafkeys, self.right._leafkeys)))


class Arith(Formula):
    __slots__ = ("op", "left", "right")  # op: + - *

    def __post_init__(self):
        _set_leafkeys(self, _union((self.left._leafkeys, self.right._leafkeys)))


class HasF(Formula):
    __slots__ = ("set_expr", "item")

    def __post_init__(self):
        _set_leafkeys(self, _union((self.set_expr._leafkeys, self.item._leafkeys)))


class Let(Formula):
    """The delayed simultaneous substitution subst(body, binds). A bind's
    key is a leaf's name, ``old`` ones included (see ``Sym``). ``subst``
    binds only keys the body mentions. The body may be a Let: n
    assignments in a row give n nested Lets."""

    __slots__ = ("binds", "body")

    def __post_init__(self):
        _set_leafkeys(self, _own_leaves(self))


TRUE = Lit(True)
FALSE = Lit(False)

# the meaning of every comparison and arithmetic operator: the function,
# which folding and evaluation apply, and its Python spelling, which
# ``emit`` writes
OPS = {
    "=": (operator.eq, "=="),
    "/=": (operator.ne, "!="),
    "<": (operator.lt, "<"),
    "<=": (operator.le, "<="),
    ">": (operator.gt, ">"),
    ">=": (operator.ge, ">="),
    "+": (operator.add, "+"),
    "-": (operator.sub, "-"),
    "*": (operator.mul, "*"),
}


# -- verification options and obligation kinds ---------------------------------

POSTCONDITION = "Postcondition"
INVARIANT_MAINTENANCE = "InvariantMaintenance"
FRAME = "Frame"
CALLEE_PRECONDITION = "CalleePrecondition"
OVERFLOW = "Overflow"
VOID_DEREFERENCE = "VoidDereference"
CHECK_ASSERTION = "CheckAssertion"
UNSUPPORTED = "Unsupported"

ALL_KINDS = (
    POSTCONDITION,
    INVARIANT_MAINTENANCE,
    FRAME,
    CALLEE_PRECONDITION,
    OVERFLOW,
    VOID_DEREFERENCE,
    CHECK_ASSERTION,
    UNSUPPORTED,
)


class VerifyOptions(ast.Node, frozen=True):
    __slots__ = ("int_range", "check_overflow", "overflow_width")
    _defaults = {"int_range": (-8, 8), "check_overflow": False, "overflow_width": 32}

    def __post_init__(self):
        lo, hi = self.int_range
        if not lo <= 0 <= hi:
            raise ValueError(f"int_range [{lo}, {hi}] must contain 0")
        if self.overflow_width < 2 or self.overflow_width & (self.overflow_width - 1):
            raise ValueError(f"overflow_width {self.overflow_width} must be a power of two")

    @property
    def overflow_bounds(self) -> tuple[int, int]:
        half = 1 << (self.overflow_width - 1)
        return -half, half - 1


def type_default(ty: ast.Type) -> Value:
    if ty.kind == ast.INTEGER:
        return 0
    if ty.kind == ast.BOOLEAN:
        return False
    if ty.kind == ast.SET_OF_STRING:
        return frozenset()
    return None  # STRING and REF start detached


# -- smart constructors -------------------------------------------------------


def _flatten(cls: type, unit: Lit, zero: Lit, items) -> Formula:
    """The connective cls (And or Or) of items: nested cls nodes spliced
    in, the unit dropped, and the zero deciding the whole."""
    flat: list[Formula] = []
    for f in items:
        if type(f) is cls:
            flat.extend(f.items)
        elif type(f) is Lit and f.value == zero.value:
            return zero
        elif type(f) is not Lit or f.value != unit.value:
            flat.append(f)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def conj(*items: Formula) -> Formula:
    return _flatten(And, TRUE, FALSE, items)


def disj(*items: Formula) -> Formula:
    return _flatten(Or, FALSE, TRUE, items)


def neg(f: Formula) -> Formula:
    if type(f) is Lit and isinstance(f.value, bool):
        return FALSE if f.value else TRUE
    if type(f) is Not:
        return f.operand
    return Not(f)


def implies(left: Formula, right: Formula) -> Formula:
    if type(left) is Lit and left.value == TRUE.value:
        return right
    if type(left) is Lit and left.value == FALSE.value or type(right) is Lit and right.value == TRUE.value:
        return TRUE
    if type(right) is Lit and right.value == FALSE.value:
        return neg(left)
    return Implies(left, right)


# -- traversal ----------------------------------------------------------------


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.operand,)
    if isinstance(f, (And, Or)):
        return f.items
    if isinstance(f, (Implies, Cmp, Arith)):
        return (f.left, f.right)
    if isinstance(f, HasF):
        return (f.set_expr, f.item)
    if isinstance(f, Let):
        return (*(value for _, value in f.binds), f.body)
    return ()


# the prefix of an entry-state leaf's name; paths hold no spaces, so an
# old name never clashes with a path
OLD = "old "


def _leaves(f: Formula) -> dict[str, ast.Type]:
    """Keys of the free leaves of f with their types, worked out once, when
    f was built, from its children's: a literal has none, a symbol its
    name, ``not X`` those of X, a Let those of ``_own_leaves``, and any
    other node those of its children (see ``_union``)."""
    return f._leafkeys


def _union(parts: list[dict] | tuple[dict, ...]) -> dict[str, ast.Type]:
    """The leaf keys of a node whose children have the given keys: the
    child's dict that holds all the others, shared, and a new dict only
    when none does, so a node whose other children are literals or
    mention nothing new costs no dict. A dict made here is extended in
    place, so a wide conjunction is merged in one pass."""
    out, fresh = _NO_LEAVES, False
    for keys in parts:
        if out.keys() >= keys.keys():
            continue
        if keys.keys() >= out.keys():
            out, fresh = keys, False
        elif fresh:
            out.update(keys)
        else:
            out, fresh = {**out, **keys}, True
    return out


def _own_leaves(g: Let) -> dict[str, ast.Type]:
    """The leaf keys of a Let: those of its body that it does not bind,
    and those of each bind, since ``subst`` binds only keys the body
    mentions."""
    bound = {k for k, _ in g.binds}
    found = {k: ty for k, ty in g.body._leafkeys.items() if k not in bound}
    for _, value in g.binds:
        found.update(value._leafkeys)
    return found


def free_syms(f: Formula) -> dict[str, ast.Type]:
    """Symbols of the formula keyed by name, in sorted-name order."""
    return dict(sorted((k, ty) for k, ty in _leaves(f).items() if not k.startswith(OLD)))


def old_syms(f: Formula) -> dict[str, ast.Type]:
    return dict(sorted((k[len(OLD):], ty) for k, ty in _leaves(f).items() if k.startswith(OLD)))


def has_old(f: Formula) -> bool:
    """Whether f has an entry-state leaf: ``old_syms(f)`` is not empty."""
    return any(k.startswith(OLD) for k in _leaves(f))


# -- lowering analyzed expressions ----------------------------------------------


class Creation(Exception):
    """Raised, with the name of the class created, when lowering meets a
    creation expression, which no formula stands for."""


def lower(e: ast.Expr, read=None, in_old: bool = False, sites: list | None = None) -> Formula:
    """Lower an analyzed expression, or raise Creation. read(leaf,
    in_old), when given, lowers each Name and Qualified leaf. Without it,
    the expression belongs to the feature it is read in: its reads become
    path symbols, and under `old` entry-state symbols. sites, when given,
    collects each qualified read and each arithmetic node with its
    formula, in evaluation order."""
    if isinstance(e, (ast.IntLit, ast.BoolLit, ast.StrLit)):
        return Lit(e.value)
    if isinstance(e, ast.VoidLit):
        return Lit(None)
    if isinstance(e, ast.SetLit):
        return Lit(frozenset(e.items))
    if isinstance(e, (ast.Name, ast.Qualified)):
        path = e.name if isinstance(e, ast.Name) else f"{e.receiver}.{e.attr}"
        f = read(e, in_old) if read else Sym(OLD + path if in_old else path, e.ty)
        if sites is not None and isinstance(e, ast.Qualified):
            sites.append((e, f))
        return f
    if isinstance(e, ast.Old):
        return lower(e.expr, read, True, sites)
    if isinstance(e, ast.Unary):
        return Not(lower(e.expr, read, in_old, sites))
    if isinstance(e, ast.Has):
        return HasF(lower(e.receiver, read, in_old, sites), lower(e.item, read, in_old, sites))
    if isinstance(e, ast.Binary):
        left, right = lower(e.left, read, in_old, sites), lower(e.right, read, in_old, sites)
        if e.op in ast.ARITH_OPS:
            f = Arith(e.op, left, right)
            if sites is not None:
                sites.append((e, f))
            return f
        if e.op in ast.COMPARISON_OPS:
            return Cmp(e.op, left, right)
        if e.op == "and":
            return And((left, right))
        if e.op == "or":
            return Or((left, right))
        return Implies(left, right)
    if isinstance(e, ast.CreateExpr):
        raise Creation(e.class_name)
    raise TypeError(f"unexpected expression {e!r}")


# -- substitution and folding ---------------------------------------------------


def _rebuild(f: Formula, parts: list[Formula]) -> Formula:
    if isinstance(f, Not):
        return Not(parts[0])
    if isinstance(f, And):
        return And(tuple(parts))
    if isinstance(f, Or):
        return Or(tuple(parts))
    if isinstance(f, Implies):
        return Implies(parts[0], parts[1])
    if isinstance(f, Cmp):
        return Cmp(f.op, parts[0], parts[1])
    if isinstance(f, Arith):
        return Arith(f.op, parts[0], parts[1])
    if isinstance(f, HasF):
        return HasF(parts[0], parts[1])
    raise TypeError(f"unexpected formula node {f!r}")


def subst(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Replace the leaves whose keys the mapping has, simultaneously; a
    path's key leaves its ``old`` leaf alone (see ``Sym``). Nothing is
    copied: a compound formula, a Let included, is wrapped in a Let of
    the keys it mentions, so each substitution costs the same however
    many came before it."""
    if isinstance(f, Sym):
        return mapping.get(f.name, f)
    if isinstance(f, Lit):
        return f
    leaves = _leaves(f)
    live = {k: value for k, value in mapping.items() if k in leaves}
    return Let(tuple(live.items()), f) if live else f


def unify_old(f: Formula) -> Formula:
    """Turn every entry-state leaf into the symbol of the same path: at
    the entry point the current value is the old value."""
    return subst(f, {OLD + name: Sym(name, ty) for name, ty in old_syms(f).items()})


def expand(f: Formula, env: dict[str, Formula] | None = None) -> Formula:
    """The Let-free formula f stands for, every substitution carried out
    (env: leaf keys to formulas already expanded). Exponential in the
    number of shared posts; for tests and ``wp``."""
    while isinstance(f, Let):
        env = {**(env or {}), **{k: expand(v, env) for k, v in f.binds}}
        f = f.body
    if isinstance(f, Sym):
        return env.get(f.name, f) if env else f
    if isinstance(f, Lit):
        return f
    return _rebuild(f, [expand(c, env) for c in children(f)])


def fold(f: Formula, env: dict[str, Formula] | None = None) -> Formula:
    """Bottom-up constant folding of the formula f stands for, with the
    leaf keys in env bound to folded formulas. Conjunctions, disjunctions
    and implications collapse as soon as one operand decides them, so a
    formula can fold to a literal while some symbols are still unbound,
    and the operands after the deciding one are never folded. A Let's
    body and an implication's consequent are folded in the same frame,
    so a closed chain of `if`s costs about one Python frame per `if`.
    Any node whose parts fold to themselves, and which its smart
    constructor would keep as it is, is returned as it is, with the leaf
    keys it keeps, without building a node: an ``and`` or ``or`` of two
    or more items, none a literal or of its own class, an implication
    with no literal side, a negation of neither a literal nor a
    negation, and any comparison, arithmetic or has node. A comparison
    or has of two literals folds to the shared TRUE or FALSE."""
    while True:
        t = type(f)
        if t is Sym:
            return env.get(f.name, f) if env else f
        if t is Cmp or t is Arith:
            left, right = fold(f.left, env), fold(f.right, env)
            if type(left) is Lit and type(right) is Lit:
                value = OPS[f.op][0](left.value, right.value)
                return Lit(value) if t is Arith else TRUE if value else FALSE
            if t is Cmp and type(left) is type(right) and left == right:
                # reflexivity: values are total, x = x regardless of binding
                return TRUE if f.op in ("=", "<=", ">=") else FALSE
            return f if left is f.left and right is f.right else t(f.op, left, right)
        if t is Lit:
            return f
        if t is And or t is Or:
            unit, decides = (TRUE, FALSE) if t is And else (FALSE, TRUE)
            parts, keep = [], len(f.items) > 1
            for c in f.items:
                part = fold(c, env)
                if type(part) is Lit:
                    if part.value == decides.value:
                        return decides
                    keep = False
                elif part is not c or type(part) is t:
                    keep = False
                parts.append(part)
            return f if keep else _flatten(t, unit, decides, parts)
        if t is Implies:
            left = fold(f.left, env)
            if type(left) is Lit:
                if left.value == FALSE.value:
                    return TRUE
                if left.value == TRUE.value:
                    f = f.right
                    continue
            right = fold(f.right, env)
            if left is f.left and right is f.right and type(left) is not Lit and type(right) is not Lit:
                return f
            return implies(left, right)
        if t is HasF:
            s, item = fold(f.set_expr, env), fold(f.item, env)
            if type(s) is Lit and type(item) is Lit:
                return TRUE if item.value in s.value else FALSE
            return f if s is f.set_expr and item is f.item else HasF(s, item)
        if t is Let:
            env = {**(env or {}), **{k: fold(v, env) for k, v in f.binds}}
            f = f.body
            continue
        if t is Not:
            operand = fold(f.operand, env)
            if operand is f.operand and type(operand) is not Lit and type(operand) is not Not:
                return f
            return neg(operand)
        raise TypeError(f"unexpected formula node {f!r}")


def specialize(f: Formula, env: dict[str, Value]) -> Formula:
    """Bind some symbols to values and fold."""
    return fold(f, {name: Lit(value) for name, value in env.items()})


def evaluate(f: Formula, env: dict[str, Value]) -> Value:
    """Total evaluation; every free symbol must be bound."""
    while isinstance(f, Let):
        env = {**env, **{k: evaluate(v, env) for k, v in f.binds}}
        f = f.body
    if isinstance(f, Sym):
        return env[f.name]
    if isinstance(f, Lit):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.operand, env)
    if isinstance(f, And):
        return all(evaluate(c, env) for c in f.items)
    if isinstance(f, Or):
        return any(evaluate(c, env) for c in f.items)
    if isinstance(f, Implies):
        return (not evaluate(f.left, env)) or bool(evaluate(f.right, env))
    if isinstance(f, (Cmp, Arith)):
        return OPS[f.op][0](evaluate(f.left, env), evaluate(f.right, env))
    if isinstance(f, HasF):
        return evaluate(f.item, env) in evaluate(f.set_expr, env)
    raise TypeError(f"unexpected formula node {f!r}")


# -- compiling to Python --------------------------------------------------------


def emit(f: Formula, leaf, const, arith=None, cut=None) -> str:
    """The Python expression of the Let-free formula f, with ``fold``'s
    meaning on well-typed formulas, operands left to right and has as
    `in`, its item first. leaf(sym) is the text of a symbol, const(value)
    the global name of a literal, and arith(node, text), when given, the
    text of an Arith node from its bare ``left op right``. cut, when
    given, is (depth, piece): a subformula that deep is named by
    piece(subformula), as Python's parser refuses source nested 200 deep."""
    limit, piece = cut or (None, None)

    def src(f: Formula, depth: int) -> str:
        if depth == limit:
            return piece(f)
        depth += 1
        t = type(f)
        if t is Sym:
            return leaf(f)
        if t is Lit:
            return const(f.value)
        if t is Not:
            return f"(not {src(f.operand, depth)})"
        if t is And or t is Or:
            return "(" + (" and " if t is And else " or ").join([src(c, depth) for c in f.items]) + ")"
        if t is Implies:
            return f"(not {src(f.left, depth)} or {src(f.right, depth)})"
        if t is HasF:
            return f"({src(f.item, depth)} in {src(f.set_expr, depth)})"
        if t is Cmp or t is Arith:
            text = f"{src(f.left, depth)} {OPS[f.op][1]} {src(f.right, depth)}"
            return arith(f, text) if arith and t is Arith else f"({text})"
        raise TypeError(f"unexpected formula node {f!r}")

    return src(f, 0)


# the most sources kept compiled. A source names its literals by position
# and holds no value of a run, so all runs of a process share its code:
# the corpus's scans have 14 sources, a vc_scaling seed's 8 to 11, and the
# monitor's 752 functions (drivers included) for every built-in scenario,
# with and without overflow checks, 36. The bound caps what a long-lived
# process keeps.
_SCAN_CACHE_SIZE = 256

# the longest source kept compiled, a longer one being compiled for its
# formula alone: the corpus's and vc_scaling's scans run to about 1,100
# characters, while a 60,000-level residual's 458,721 compile to 53 MiB
_MAX_CACHED_SOURCE = 4096


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan_code(source: str):
    return compile(source, "<formula>", "exec")


def compile_source(source: str):
    """The code of source, written with ``emit``: compiled once per process
    (``_scan_code``) unless it is longer than ``_MAX_CACHED_SOURCE``."""
    return _scan_code(source) if len(source) <= _MAX_CACHED_SOURCE else compile(source, "<formula>", "exec")


# -- rendering ----------------------------------------------------------------


def value_text(v: Value) -> str:
    if v is None:
        return "Void"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, frozenset):
        return "{" + ", ".join(f'"{s}"' for s in sorted(v)) + "}"
    if isinstance(v, Ref):
        return str(v)
    raise TypeError(f"unexpected value {v!r}")


def encode_value(v: Value):
    """The one JSON encoding of a value, used by reports and traces. Any
    other object raises TypeError."""
    t = type(v)
    if t is int or t is bool or t is str or v is None:
        return v
    if t is frozenset:
        return sorted(v)
    if t is Ref:
        return {"ref": v.class_name}
    raise TypeError(f"Object of type {t.__name__} is not a value")


json_string = json.encoder.encode_basestring_ascii


def json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value written at indentation
    pad, made of dicts with string keys, lists, strings, ints, booleans
    and None: the one writer of reports and traces. With an indent the
    json module encodes in pure Python; here each string goes through its
    C encoder."""
    t = type(value)
    if t is str:
        return json_string(value)
    if t is int:
        return repr(value)
    if value is None:
        return "null"
    if t is bool:
        return "true" if value else "false"
    if not value:
        return "{}" if t is dict else "[]"
    inner = pad + "  "
    if t is dict:
        items = ",\n".join(f"{inner}{json_string(k)}: {json_text(v, inner)}" for k, v in value.items())
        return f"{{\n{items}\n{pad}}}"
    items = ",\n".join(inner + json_text(v, inner) for v in value)
    return f"[\n{items}\n{pad}]"


def decode_value(raw) -> Value:
    if isinstance(raw, dict):
        return Ref(raw["ref"])
    if isinstance(raw, list):
        return frozenset(raw)
    return raw


def fits(raw, ty: ast.Type) -> bool:
    """Whether raw is the JSON encoding of a value of type ty. A scenario
    literal (an integer, a boolean, a string or Void) is its own
    encoding."""
    if ty.kind == ast.INTEGER:
        return type(raw) is int
    if ty.kind == ast.BOOLEAN:
        return type(raw) is bool
    if ty.kind == ast.STRING:
        return raw is None or type(raw) is str
    if ty.kind == ast.SET_OF_STRING:
        return type(raw) is list and all(type(s) is str for s in raw)
    return raw is None or raw == {"ref": ty.class_name}


def to_text(f: Formula) -> str:
    return _text(f)[0]


def _text(f: Formula, env: dict[str, tuple[str, int]] | None = None) -> tuple[str, int]:
    """The text and precedence of ``expand(f)``, env binding leaf keys to
    those of their values."""
    while isinstance(f, Let):
        env = {**(env or {}), **{k: _text(v, env) for k, v in f.binds}}
        f = f.body
    if isinstance(f, Sym):
        if env and f.name in env:
            return env[f.name]
        return f.name, ast.UNARY_PREC if f.name.startswith(OLD) else ast.ATOM_PREC
    if isinstance(f, Lit):
        return value_text(f.value), ast.ATOM_PREC
    if isinstance(f, Not):
        return f"not {_wrap(f.operand, ast.UNARY_PREC, env)}", ast.UNARY_PREC
    if isinstance(f, (And, Or)):
        op = "and" if isinstance(f, And) else "or"
        prec = ast.BINARY_PREC[op]
        return f" {op} ".join(_wrap(c, prec, env) for c in f.items), prec
    if isinstance(f, (Implies, Cmp, Arith)):
        op = "implies" if isinstance(f, Implies) else f.op
        left, right = ast.operand_precs(op)
        return f"{_wrap(f.left, left, env)} {op} {_wrap(f.right, right, env)}", ast.BINARY_PREC[op]
    if isinstance(f, HasF):
        return f"{_wrap(f.set_expr, ast.ATOM_PREC, env)}.has({_text(f.item, env)[0]})", ast.ATOM_PREC
    raise TypeError(f"unexpected formula node {f!r}")


def _wrap(f: Formula, min_prec: int, env) -> str:
    text, prec = _text(f, env)
    if prec < min_prec:
        return f"({text})"
    return text
