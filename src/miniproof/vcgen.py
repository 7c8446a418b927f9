"""Verification-condition generation.

Every provable fact about a feature becomes one Obligation: a closed
formula over the feature's entry state (attributes, parameters, and
entry snapshots), produced by one weakest-precondition pass over the
body.

State paths are formula atoms. ``balance`` is the attribute, ``r.a`` is
one level of dereference, and ``r.a@3`` is the unknown value path
``r.a`` holds right after statement 3 rebound it (creation or call
havoc).

The pass, ``pull``, carries every pending ``(kind, provenance,
formula)`` - postconditions, invariants, frames and exit-site
dereferences - from the exit of the body to its entry in one backward
walk, and picks up the assertions that arise on the way (dereferences,
overflow bounds, callee preconditions, `check` statements), which the
statements before them then pull too. Each statement's transformer is
built once, whatever number of formulas passes through it; an ``if``
pulls them through each branch once and joins the two results.

Calls and creations share one modular rule, ``_call_rule``: assert the
callee's precondition, rename each path under the receiver whose first
attribute the callee may modify to its ``path@k`` unknown, and assume
the callee's postcondition and class invariant read through the
receiver. A creation havocs every attribute, reads the creator's entry
state (its precondition and `old`) as the default state, then replaces
the receiver by its class's one representative object. The model names
paths, not objects, so two paths to one object are independent symbols
(README, "How calls and creations are modelled"). Every dereference
asserts its receiver attached through one function, ``_deref``, unless
the class invariant guarantees it.

One function, ``formula.lower``, lowers every contract and body
expression to a formula; the runtime monitor compiles the same
formulas. Only the reading of Name and Qualified leaves varies: the
feature's own expressions read its paths, and the clauses of a callee
or of a created object read through the receiver path (``_through``).
A class's own expressions are lowered once each (``_own``); the one
walk also collects the qualified reads, which assert dereferences, and
the arithmetic nodes, which assert overflow bounds, and a creation
expression stops it, making the clause Unsupported. The invariants of
the objects a class's attributes reference are lowered once per class.

Substitution is delayed (``formula.Let``), so the two branches of an
``if`` share one postcondition object instead of two copies, and each
obligation is a DAG whose size grows linearly with the body. Obligations
keep these DAGs; the public ``wp`` helper returns the expanded tree.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from operator import itemgetter

from . import ast
from . import formula as F
from .analyzer import CheckedProgram, ClassInfo
from .formula import (
    ALL_KINDS,
    CALLEE_PRECONDITION,
    CHECK_ASSERTION,
    FRAME,
    INVARIANT_MAINTENANCE,
    OVERFLOW,
    POSTCONDITION,
    UNSUPPORTED,
    VOID_DEREFERENCE,
    VerifyOptions,
    type_default,
)
from .pretty import expr_text

# the tag an obligation id carries for each kind: its snake_case form
_ID_TAGS = {kind: re.sub(r"(?<!^)(?=[A-Z])", "_", kind).lower() for kind in ALL_KINDS}

UNSUPPORTED_REASON = "creation expression in contract"


class Obligation(ast.Node, frozen=True):
    __slots__ = ("id", "kind", "class_name", "feature_name", "formula", "provenance")


def _obligation(class_name: str, feature_name: str, kind: str, index: int, formula, provenance):
    """The obligation with id ``class.feature.tag.index``."""
    oid = f"{class_name}.{feature_name}.{_ID_TAGS[kind]}.{index}"
    return Obligation(oid, kind, class_name, feature_name, formula, provenance)


# -- lowering expressions to formulas ------------------------------------------


def _own(memo: dict, e: ast.Expr) -> tuple[F.Formula | None, list]:
    """The formula and sites (see ``formula.lower``) of one of a class's own
    contract or body expressions, lowered once into memo (keyed by node
    id); formula None, and no sites, if it holds a creation expression."""
    if id(e) not in memo:
        sites: list = []
        try:
            memo[id(e)] = F.lower(e, sites=sites), sites
        except F.Creation:
            memo[id(e)] = None, []
    return memo[id(e)]


def _lowered(clauses, read, in_old: bool = False) -> list[tuple[ast.Clause, F.Formula]]:
    """(clause, formula) for each clause of another class that lowers
    through read; one holding a creation is flagged Unsupported where it
    lives."""
    out = []
    for clause in clauses:
        try:
            out.append((clause, F.lower(clause.expr, read, in_old)))
        except F.Creation:
            pass
    return out


def _through(
    prefix: str,
    param_map: dict[str, F.Formula],
    rename_post,
    old_to_default: ClassInfo | None = None,
):
    """The leaf reader for a clause of another class as seen through a
    receiver path.

    Parameters become their lowered arguments (param_map). Attribute
    reads of that class become ``prefix.attr`` symbols, passed through
    rename_post in the current (post) state; under `old` they are either
    the pre-call path unrenamed, or - for creators, where the entry state
    is the default state - default-value literals (old_to_default gives
    the class to look the defaults up in).
    """

    def read(e: ast.Name | ast.Qualified, in_old: bool) -> F.Formula:
        if isinstance(e, ast.Name):
            if e.name in param_map:
                return param_map[e.name]
            if in_old and old_to_default is not None:
                return F.Lit(type_default(old_to_default.attributes[e.name]))
            path = f"{prefix}.{e.name}"
        else:
            if in_old and old_to_default is not None:
                # the receiver defaults to Void in a fresh object; its
                # fields have no defined entry value: no lowering
                raise F.Creation(old_to_default.name)
            path = f"{prefix}.{e.receiver}.{e.attr}"
        return F.Sym(path if in_old else rename_post(path), e.ty)

    return read


# -- the weakest-precondition pass ----------------------------------------------


class _FeatureVCs:
    """The weakest-precondition pass over one feature, and the
    obligations generated from it. lifted, when given, is
    ``_lifted_invariants`` of the class's attributes, and memo the
    class's lowerings (see ``_own``)."""

    def __init__(
        self,
        checked: CheckedProgram,
        info: ClassInfo,
        feat: ast.Feature,
        opts: VerifyOptions = VerifyOptions(),
        lifted: list | None = None,
        memo: dict | None = None,
    ):
        self.checked = checked
        self.info = info
        self.feat = feat
        self.opts = opts
        self.memo = {} if memo is None else memo
        # a stable index per statement so havoc symbols like r.a@3 are
        # identical across all obligations of the feature
        self.stmt_index = {
            id(s): k for k, s in enumerate(ast.walk_statements(feat.body), start=1)
        }
        self.out: list[Obligation] = []
        self.next_index: defaultdict[str, itertools.count] = defaultdict(itertools.count)
        # the creator cannot assume the invariant
        invariant = [] if feat.is_creator else [clause.expr for clause in info.decl.invariant]
        # receivers a class-invariant clause `r /= Void`, either way
        # round, guarantees attached
        void = ast.VoidLit()
        self.attached = {
            r
            for r in info.attributes
            if ast.Binary("/=", ast.Name(r), void) in invariant
            or ast.Binary("/=", void, ast.Name(r)) in invariant
        }
        hyps = (_own(self.memo, e)[0] for e in (*invariant, *(c.expr for c in feat.require)))
        self.hyps = [h for h in hyps if h is not None]
        self.hyp_syms = {name for h in self.hyps for name in F._leaves(h)}
        if lifted is None:
            lifted = _lifted_invariants(checked, info.attributes.items())
        params = _lifted_invariants(checked, [(p.name, p.ty) for p in feat.params])
        # nor the invariants of the objects it references
        self.lifted = [] if feat.is_creator else sorted(lifted + params, key=itemgetter(0))
        # per tuple of the indices of the lifted invariants an obligation
        # takes, the conjunction of its hypotheses, shared (see _close)
        self.hyp_conj: dict[tuple[int, ...], F.Formula] = {}
        self.defaults = {name: F.Lit(type_default(ty)) for name, ty in info.attributes.items()}

    def receiver_class(self, name: str) -> ClassInfo:
        return self.checked.info(self.info.name_type(name, self.feat).class_name)

    def pull(self, stmts: list[ast.Statement], items: list) -> list:
        """Carry each pending (kind, provenance, formula) in items from
        the exit of stmts to its entry. Returns the assertions arising
        inside stmts, in program order and expressed at the entry,
        followed by the pulled items."""
        for s in reversed(stmts):
            if isinstance(s, ast.IfStmt):
                items = self._pull_if(s, items)
            else:
                asserts, back = self._rule(s)
                items = asserts + [(kind, prov, back(f)) for kind, prov, f in items]
        return items

    def _pull_if(self, s: ast.IfStmt, items: list) -> list:
        cond = _own(self.memo, s.cond)[0]
        not_cond = F.neg(cond)
        then, orelse = self.pull(s.then_branch, items), self.pull(s.else_branch, items)
        k, j = len(then) - len(items), len(orelse) - len(items)
        return [
            *self._value_asserts([s.cond]),
            *((kind, prov, F.implies(cond, f)) for kind, prov, f in then[:k]),
            *((kind, prov, F.implies(not_cond, f)) for kind, prov, f in orelse[:j]),
            *(
                (kind, prov, F.conj(F.implies(cond, t), F.implies(not_cond, e)))
                for (kind, prov, t), (_, _, e) in zip(then[k:], orelse[j:])
            ),
        ]

    def _rule(self, s: ast.Statement):
        """The assertions of a statement other than an `if`, at its
        entry, and its transformer of one post."""
        if isinstance(s, (ast.Assign, ast.QualifiedAssign)):
            asserts = self._value_asserts([s.value])
            if isinstance(s, ast.QualifiedAssign):
                asserts += self._deref(s.receiver, s.attr)
            target = s.target if isinstance(s, ast.Assign) else f"{s.receiver}.{s.attr}"
            binding = {target: _own(self.memo, s.value)[0]}
            return asserts, lambda post: F.subst(post, binding)
        if isinstance(s, ast.CreateStmt):
            return self._call_rule(s)
        if isinstance(s, ast.CallStmt):
            pre, back = self._call_rule(s)
            return self._deref(s.receiver, s.feature) + self._value_asserts(s.args) + pre, back
        if isinstance(s, ast.CheckStmt):
            checked = _own(self.memo, s.expr)[0]
            if checked is None:
                return [], lambda post: post  # flagged as Unsupported elsewhere
            asserts = self._derefs(s.expr) + [(CHECK_ASSERTION, s.label, checked)]
            return asserts, lambda post: F.conj(checked, post)
        raise TypeError(f"unexpected statement {s!r}")

    def _call_rule(self, s: ast.CreateStmt | ast.CallStmt):
        """The one rule for calls and creations: the callee's
        precondition assertions, and the transformer that renames every
        path under the receiver whose first attribute is havocked to its
        post-statement unknown ``path@k`` and assumes the callee's
        postcondition and class invariant, read through the receiver. A
        creation reads the creator's entry state as the default state,
        then replaces the receiver by its class's one object."""
        creating = isinstance(s, ast.CreateStmt)
        receiver = s.target if creating else s.receiver
        callee_info = self.receiver_class(receiver)
        if creating:
            callee = callee_info.routines[callee_info.creator]
            param_map: dict[str, F.Formula] = {}
            havocked = set(callee_info.attributes)
        else:
            callee = callee_info.routines[s.feature]
            param_map = {p.name: _own(self.memo, a)[0] for p, a in zip(callee.params, s.args)}
            # what the callee may change: every attribute outside its frame
            havocked = set(callee_info.attributes).difference(callee_info.frame(callee))
        k = self.stmt_index[id(s)]

        def rename(path: str) -> str:
            # paths already anchored to a later statement (containing @)
            # are left alone
            if "@" in path or not path.startswith(receiver + "."):
                return path
            first = path[len(receiver) + 1 :].split(".", 1)[0]
            return f"{path}@{k}" if first in havocked else path

        read = _through(receiver, param_map, rename, callee_info if creating else None)
        # the precondition reads the pre-call state, as `old` does
        pre = [(CALLEE_PRECONDITION, c.label, f) for c, f in _lowered(callee.require, read, True)]
        clauses = (*callee.ensure, *callee_info.decl.invariant)
        assumed = F.conj(*(f for _, f in _lowered(clauses, read)))
        created = {receiver: F.Lit(F.Ref(callee_info.name))}

        def back(post: F.Formula) -> F.Formula:
            fresh = {
                name: F.Sym(rename(name), ty)
                for name, ty in F.free_syms(post).items()
                if rename(name) != name
            }
            out = F.implies(assumed, F.subst(post, fresh))
            return F.subst(out, created) if creating else out

        return pre, back

    # -- assertions (facts that must hold mid-body) -----------------------------

    def _deref(self, receiver: str, member: str) -> list[tuple[str, str, F.Formula]]:
        """The VoidDereference assertion of reaching member through
        receiver, unless the class invariant already guarantees it."""
        if receiver in self.attached:
            return []
        not_void = F.Cmp("/=", F.Sym(receiver, self.info.name_type(receiver, self.feat)), F.Lit(None))
        return [(VOID_DEREFERENCE, f"{receiver}.{member}", not_void)]

    def _derefs(self, e: ast.Expr, under_old: bool = False) -> list[tuple[str, str, F.Formula]]:
        """VoidDereference assertions for the qualified reads of e in the
        current state, or with under_old for those under `old` (evaluated
        at entry), in evaluation order."""
        return [
            a
            for n, f in _own(self.memo, e)[1]
            if isinstance(n, ast.Qualified) and f.name.startswith(F.OLD) == under_old
            for a in self._deref(n.receiver, n.attr)
        ]

    def _value_asserts(self, exprs: list[ast.Expr]) -> list[tuple[str, str, F.Formula]]:
        """The dereference and, when checked, overflow assertions of
        evaluating exprs."""
        out = []
        lo, hi = map(F.Lit, self.opts.overflow_bounds)
        for e in exprs:
            out += self._derefs(e)
            for n, f in _own(self.memo, e)[1] if self.opts.check_overflow else ():
                if isinstance(n, ast.Binary):
                    out.append((OVERFLOW, expr_text(n), F.And((F.Cmp(">=", f, lo), F.Cmp("<=", f, hi)))))
        return out

    # -- obligation generation --------------------------------------------------

    def emit(self, kind: str, provenance: str, entry_formula: F.Formula):
        index = next(self.next_index[kind])
        closed = self._close(entry_formula) if kind != UNSUPPORTED else entry_formula
        self.out.append(_obligation(self.info.name, self.feat.name, kind, index, closed, provenance))

    def _close(self, goal: F.Formula) -> F.Formula:
        """Unify entry snapshots, attach the hypotheses and the lifted
        invariants in the goal's scope, and for creators replace
        attribute symbols by their default values. Obligations that take
        the same lifted invariants share one hypothesis node."""
        if F.has_old(goal):
            goal = F.unify_old(goal)
        taken = ()
        if self.lifted:
            scope = self.hyp_syms.union(F._leaves(goal))
            taken = tuple(i for i, (r, syms, _) in enumerate(self.lifted) if r in scope and syms <= scope)
        hyp = self.hyp_conj.get(taken)
        if hyp is None:
            hyp = self.hyp_conj[taken] = F.conj(*self.hyps, *(self.lifted[i][2] for i in taken))
        closed = F.implies(hyp, goal)
        return F.subst(closed, self.defaults) if self.feat.is_creator else closed

    def generate(self) -> list[Obligation]:
        """Postconditions, invariants and frames, then entry-site
        dereferences, body assertions and exit-site dereferences; the
        Unsupported clauses last."""
        feat, info = self.feat, self.info
        kinds = ((POSTCONDITION, feat.ensure), (INVARIANT_MAINTENANCE, info.decl.invariant))
        goals = [
            (kind, clause.label, f)
            for kind, clauses in kinds
            for clause in clauses
            if (f := _own(self.memo, clause.expr)[0]) is not None
        ]
        for q in info.frame(feat):
            ty = info.attributes[q]
            goals.append((FRAME, q, F.Cmp("=", F.Sym(q, ty), F.Sym(F.OLD + q, ty))))
        # a clause holding a creation expression is Unsupported and
        # dereferences nothing
        entry = [a for clause in feat.require for a in self._derefs(clause.expr)]
        entry += [a for clause in feat.ensure for a in self._derefs(clause.expr, under_old=True)]
        at_exit = [a for clause in feat.ensure for a in self._derefs(clause.expr)]
        pulled = self.pull(feat.body, goals + at_exit)
        n = len(pulled) - len(goals) - len(at_exit)
        body, goals, at_exit = pulled[:n], pulled[n : n + len(goals)], pulled[n + len(goals) :]
        for kind, provenance, entry_f in (*goals, *entry, *body, *at_exit):
            self.emit(kind, provenance, entry_f)
        checks = [s for s in ast.walk_statements(feat.body) if isinstance(s, ast.CheckStmt)]
        for labelled in (*feat.require, *feat.ensure, *checks):
            if _own(self.memo, labelled.expr)[0] is None:
                self.emit(UNSUPPORTED, labelled.label, F.TRUE)
        return self.out


def wp(
    checked: CheckedProgram,
    class_name: str,
    feature_name: str,
    statements: list[ast.Statement],
    post: F.Formula,
) -> F.Formula:
    """Weakest precondition of a statement list against a postcondition
    formula, in the scope of the named feature."""
    info = checked.info(class_name)
    vcs = _FeatureVCs(checked, info, info.routines[feature_name])
    [*_, (_, _, pre)] = vcs.pull(statements, [(POSTCONDITION, "", post)])
    return F.expand(pre)


# -- obligation generation ------------------------------------------------------


def _lifted_invariants(checked: CheckedProgram, names) -> list[tuple[str, set[str], F.Formula]]:
    """Invariants of the objects the named references point to, guarded
    by their attachment, each with its receiver and symbols, by receiver
    name: an obligation takes those whose symbols it already mentions -
    anything else would only widen the search. Those of a class's
    attributes are built once per class."""
    out = []
    for r, ty in sorted(names):
        if ty.kind != ast.REF:
            continue
        invariant = checked.info(ty.class_name).decl.invariant
        for _, lifted in _lowered(invariant, _through(r, {}, lambda p: p)):
            guarded = F.disj(F.Cmp("=", F.Sym(r, ty), F.Lit(None)), lifted)
            out.append((r, set(F._leaves(lifted)), guarded))
    return out


def generate_obligations(checked: CheckedProgram, opts: VerifyOptions) -> list[Obligation]:
    """Every obligation of the program, in a deterministic order:
    classes and features as declared; within a feature postconditions,
    invariant maintenance, frames, then assertions in program order;
    invariant clauses that cannot be expressed come last."""
    obligations: list[Obligation] = []
    for cls in checked.program.classes:
        info = checked.info(cls.name)
        lifted = _lifted_invariants(checked, info.attributes.items())
        memo: dict = {}
        for feat in cls.features:
            obligations.extend(_FeatureVCs(checked, info, feat, opts, lifted, memo).generate())
        for i, clause in enumerate(cls.invariant):
            if _own(memo, clause.expr)[0] is None:
                obligations.append(_obligation(cls.name, "invariant", UNSUPPORTED, i, F.TRUE, clause.label))
    return obligations
