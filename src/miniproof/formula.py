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

Substitution is delayed. ``subst`` wraps a compound formula in a ``Let``
that records the mapping instead of copying the formula, and substituting
into a ``Let`` composes the mappings without entering its body. Weakest
preconditions can then share one postcondition between both branches of
an ``if``, so a formula is a DAG whose size grows linearly with the
program. Every consumer reads a ``Let`` as the formula it stands for:
``expand`` carries the substitutions out, and ``to_text`` prints that.

This module also holds what vcgen, discharge and the runtime monitor
share about values and obligations: the verification options, the
obligation kinds, each type's default value, and the one JSON encoding
of values (``encode_value``/``decode_value``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Union

from . import ast


@dataclass(frozen=True)
class Ref:
    """The representative object of a class; compares equal to itself."""

    class_name: str

    def __str__(self):
        return f"<{self.class_name}>"


Value = Union[int, bool, str, frozenset, Ref, None]


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Sym(Formula):
    name: str
    ty: ast.Type


@dataclass(frozen=True)
class OldSym(Formula):
    """Entry-state value of a path, produced while lowering ensure
    clauses; replaced by a plain Sym once weakest preconditions reach
    the entry point."""

    name: str
    ty: ast.Type


@dataclass(frozen=True)
class Lit(Formula):
    value: Value


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Cmp(Formula):
    op: str  # = /= < <= > >=
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Arith(Formula):
    op: str  # + - *
    left: Formula
    right: Formula


@dataclass(frozen=True)
class HasF(Formula):
    set_expr: Formula
    item: Formula


@dataclass(frozen=True)
class Let(Formula):
    """The delayed simultaneous substitution subst(body, binds). A bind's
    key is a leaf key (see ``_key``), so it may replace an OldSym too.
    Only binds of keys the body mentions take part. The keys of the
    body's free leaves and of the Let's own, with their types, are kept
    so that walks and further substitutions stop here."""

    binds: tuple[tuple[str, Formula], ...]
    body: Formula
    body_leaves: dict | None = field(default=None, compare=False, repr=False)
    leaves: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        body_leaves = self.body_leaves if self.body_leaves is not None else _leaves(self.body)
        bound = {k for k, _ in self.binds}
        leaves = {k: ty for k, ty in body_leaves.items() if k not in bound}
        for k, value in self.binds:
            if k in body_leaves:
                leaves.update(_leaves(value))
        object.__setattr__(self, "body_leaves", body_leaves)
        object.__setattr__(self, "leaves", leaves)


TRUE = Lit(True)
FALSE = Lit(False)

# the meaning of every comparison and arithmetic operator, for formulas
# and for the runtime monitor alike
OPS = {
    "=": operator.eq,
    "/=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
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


@dataclass(frozen=True)
class VerifyOptions:
    int_range: tuple[int, int] = (-8, 8)
    check_overflow: bool = False
    overflow_width: int = 32

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


def conj(*items: Formula) -> Formula:
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, And):
            flat.extend(f.items)
        elif f == TRUE:
            continue
        elif f == FALSE:
            return FALSE
        else:
            flat.append(f)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*items: Formula) -> Formula:
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, Or):
            flat.extend(f.items)
        elif f == FALSE:
            continue
        elif f == TRUE:
            return TRUE
        else:
            flat.append(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(f: Formula) -> Formula:
    if isinstance(f, Lit) and isinstance(f.value, bool):
        return Lit(not f.value)
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def implies(left: Formula, right: Formula) -> Formula:
    if left == TRUE:
        return right
    if left == FALSE or right == TRUE:
        return TRUE
    if right == FALSE:
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


_OLD = "old "


def _key(leaf: Sym | OldSym) -> str:
    """A Sym is keyed by its name, an OldSym by ``old`` and its name;
    names hold no spaces, so the two never clash."""
    return leaf.name if isinstance(leaf, Sym) else _OLD + leaf.name


def _leaves(f: Formula) -> dict[str, ast.Type]:
    """Keys of the free leaves of f with their types. Visits each shared
    node once and stops at a Let, which knows its own."""
    if isinstance(f, Let):
        return f.leaves
    found: dict[str, ast.Type] = {}
    seen: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        cls = type(g)
        if cls is Sym:
            found[g.name] = g.ty
        elif cls is OldSym:
            found[_OLD + g.name] = g.ty
        elif cls is Let:
            found.update(g.leaves)
        elif cls is not Lit and id(g) not in seen:
            seen.add(id(g))
            stack.extend(children(g))
    return found


def free_syms(f: Formula) -> dict[str, ast.Type]:
    """Symbols of the formula keyed by name, in sorted-name order."""
    return dict(sorted((k, ty) for k, ty in _leaves(f).items() if not k.startswith(_OLD)))


def old_syms(f: Formula) -> dict[str, ast.Type]:
    return dict(sorted((k[len(_OLD):], ty) for k, ty in _leaves(f).items() if k.startswith(_OLD)))


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
    """Replace the leaves whose keys the mapping has, simultaneously. A
    plain name keys a Sym, so OldSym leaves are left alone unless the key
    is ``old`` and a name (see ``_key``). Nothing is copied: a compound
    formula is wrapped in a Let of the keys it mentions, and a Let gets
    the composed mapping."""
    if isinstance(f, (Sym, OldSym)):
        return mapping.get(_key(f), f)
    if isinstance(f, Lit):
        return f
    leaves = _leaves(f)
    live = {k: value for k, value in mapping.items() if k in leaves}
    if not live:
        return f
    if not isinstance(f, Let):
        return Let(tuple(live.items()), f, leaves)
    binds = {k: subst(value, mapping) for k, value in f.binds}
    for k, value in mapping.items():
        if k not in binds and k in f.body_leaves:
            binds[k] = value
    return Let(tuple(binds.items()), f.body, f.body_leaves)


def unify_old(f: Formula) -> Formula:
    """Turn every OldSym into the plain Sym of the same path: at the
    entry point the current value is the old value."""
    mapping = {_OLD + name: Sym(name, ty) for name, ty in old_syms(f).items()}
    return subst(f, mapping) if mapping else f


def expand(f: Formula, env: dict[str, Formula] | None = None) -> Formula:
    """The Let-free formula f stands for, every substitution carried out
    (env: leaf keys to formulas already expanded). Exponential in the
    number of shared posts; for printing and tests."""
    if isinstance(f, (Sym, OldSym)):
        return env.get(_key(f), f) if env else f
    if isinstance(f, Lit):
        return f
    if isinstance(f, Let):
        return expand(f.body, {**(env or {}), **{k: expand(v, env) for k, v in f.binds}})
    return _rebuild(f, [expand(c, env) for c in children(f)])


def fold(f: Formula, env: dict[str, Formula] | None = None) -> Formula:
    """Bottom-up constant folding of the formula f stands for, with the
    leaf keys in env bound to folded formulas. Conjunctions, disjunctions
    and implications collapse as soon as one operand decides them, so a
    formula can fold to a literal while some symbols are still unbound,
    and the operands after the deciding one are never folded. A Let's
    body and an implication's consequent are folded in the same frame,
    so a closed chain of `if`s costs about one Python frame per `if`."""
    while True:
        if isinstance(f, (Sym, OldSym)):
            return env.get(_key(f), f) if env else f
        if isinstance(f, Lit):
            return f
        if isinstance(f, Let):
            env = {**(env or {}), **{k: fold(v, env) for k, v in f.binds}}
            f = f.body
            continue
        if isinstance(f, Not):
            return neg(fold(f.operand, env))
        if isinstance(f, (And, Or)):
            decides = FALSE if isinstance(f, And) else TRUE
            parts = []
            for c in f.items:
                part = fold(c, env)
                if part == decides:
                    return decides
                parts.append(part)
            return conj(*parts) if isinstance(f, And) else disj(*parts)
        if isinstance(f, Implies):
            left = fold(f.left, env)
            if left == FALSE:
                return TRUE
            if left == TRUE:
                f = f.right
                continue
            return implies(left, fold(f.right, env))
        if isinstance(f, (Cmp, Arith)):
            left, right = fold(f.left, env), fold(f.right, env)
            if isinstance(left, Lit) and isinstance(right, Lit):
                return Lit(OPS[f.op](left.value, right.value))
            if isinstance(f, Cmp) and left == right:
                # reflexivity: values are total, x = x regardless of binding
                return TRUE if f.op in ("=", "<=", ">=") else FALSE
            return type(f)(f.op, left, right)
        if isinstance(f, HasF):
            s, item = fold(f.set_expr, env), fold(f.item, env)
            if isinstance(s, Lit) and isinstance(item, Lit):
                return Lit(item.value is not None and item.value in s.value)
            return HasF(s, item)
        raise TypeError(f"unexpected formula node {f!r}")


def specialize(f: Formula, env: dict[str, Value]) -> Formula:
    """Bind some symbols to values and fold."""
    return fold(f, {name: Lit(value) for name, value in env.items()})


def evaluate(f: Formula, env: dict[str, Value]) -> Value:
    """Total evaluation; every free symbol must be bound."""
    if isinstance(f, Sym):
        return env[f.name]
    if isinstance(f, OldSym):
        if _OLD + f.name in env:  # bound by an enclosing Let
            return env[_OLD + f.name]
        raise ValueError(f"old symbol {f.name} survived to evaluation")
    if isinstance(f, Lit):
        return f.value
    if isinstance(f, Let):
        return evaluate(f.body, {**env, **{k: evaluate(v, env) for k, v in f.binds}})
    if isinstance(f, Not):
        return not evaluate(f.operand, env)
    if isinstance(f, And):
        return all(evaluate(c, env) for c in f.items)
    if isinstance(f, Or):
        return any(evaluate(c, env) for c in f.items)
    if isinstance(f, Implies):
        return (not evaluate(f.left, env)) or bool(evaluate(f.right, env))
    if isinstance(f, (Cmp, Arith)):
        return OPS[f.op](evaluate(f.left, env), evaluate(f.right, env))
    if isinstance(f, HasF):
        item = evaluate(f.item, env)
        return item is not None and item in evaluate(f.set_expr, env)
    raise TypeError(f"unexpected formula node {f!r}")


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
    """The one JSON encoding of a value, used by reports and traces."""
    if isinstance(v, Ref):
        return {"ref": v.class_name}
    if isinstance(v, frozenset):
        return sorted(v)
    return v


def decode_value(raw) -> Value:
    if isinstance(raw, dict):
        return Ref(raw["ref"])
    if isinstance(raw, list):
        return frozenset(raw)
    return raw


_PREC = {
    "implies": 1,
    "or": 2,
    "and": 3,
    "cmp": 4,
    "+": 5,
    "-": 5,
    "*": 6,
}


def to_text(f: Formula) -> str:
    text, _ = _text(expand(f))
    return text


def _text(f: Formula) -> tuple[str, int]:
    atom = 9
    if isinstance(f, Sym):
        return f.name, atom
    if isinstance(f, OldSym):
        return f"old {f.name}", 7
    if isinstance(f, Lit):
        return value_text(f.value), atom
    if isinstance(f, Not):
        inner = _wrap(f.operand, 7)
        return f"not {inner}", 7
    if isinstance(f, And):
        return " and ".join(_wrap(c, _PREC["and"]) for c in f.items), _PREC["and"]
    if isinstance(f, Or):
        return " or ".join(_wrap(c, _PREC["or"]) for c in f.items), _PREC["or"]
    if isinstance(f, Implies):
        left = _wrap(f.left, _PREC["implies"] + 1)
        right = _wrap(f.right, _PREC["implies"])
        return f"{left} implies {right}", _PREC["implies"]
    if isinstance(f, Cmp):
        left = _wrap(f.left, _PREC["cmp"] + 1)
        right = _wrap(f.right, _PREC["cmp"] + 1)
        return f"{left} {f.op} {right}", _PREC["cmp"]
    if isinstance(f, Arith):
        prec = _PREC[f.op]
        left = _wrap(f.left, prec)
        right = _wrap(f.right, prec + 1)
        return f"{left} {f.op} {right}", prec
    if isinstance(f, HasF):
        recv = _wrap(f.set_expr, 9)
        return f"{recv}.has({_text(f.item)[0]})", 9
    raise TypeError(f"unexpected formula node {f!r}")


def _wrap(f: Formula, min_prec: int) -> str:
    text, prec = _text(f)
    if prec < min_prec:
        return f"({text})"
    return text
