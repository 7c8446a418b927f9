"""Verification-condition generation.

Every provable fact about a feature becomes one Obligation: a closed
formula over the feature's entry state (attributes, parameters, and
entry snapshots), produced by a weakest-precondition pass over the body.

State paths are formula atoms. ``balance`` is the attribute, ``r.a`` is
one level of dereference, and ``r.a@3`` is the unknown value path
``r.a`` holds right after statement 3 rebound it (creation or call
havoc).

Calls and creations share one modular rule, ``_after_call``: assert the
callee's precondition, rename each path under the receiver whose first
attribute the callee may modify to its ``path@k`` unknown, and assume
the callee's postcondition and class invariant read through the
receiver. A creation havocs every attribute, reads the creator's `old`
as the default state, then replaces the receiver by its class's one
representative object. The model names paths, not objects, so two paths
to one object are independent symbols (README, "How calls and creations
are modelled"). Every dereference asserts its receiver attached through
one function, ``_deref``, unless the class invariant guarantees it.

One function, ``_lower``, lowers every contract and body expression to
a formula. Only the reading of Name and Qualified leaves varies: the
feature's own expressions read its paths, and the clauses of a callee
or of a created object read through the receiver path (``_through``).

Substitution is delayed (``formula.Let``), so the two branches of an
``if`` share one postcondition object instead of two copies, and each
obligation is a DAG whose size grows linearly with the body. Obligations
keep these DAGs; the public ``wp`` helper returns the expanded tree.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Obligation:
    id: str
    kind: str
    class_name: str
    feature_name: str
    formula: F.Formula
    provenance: str
    unsupported_reason: str | None = None


def mentions_creation(e: ast.Expr) -> bool:
    return any(isinstance(n, ast.CreateExpr) for n in ast.walk_expr(e))


class _Creation(Exception):
    """Raised when lowering hits a creation expression."""


# -- lowering expressions to formulas ------------------------------------------


def _lower(e: ast.Expr, read=None, in_old: bool = False) -> F.Formula:
    """Lower an analyzed expression. read(leaf, in_old), when given,
    lowers each Name and Qualified leaf (see ``_through``). Without it,
    the expression belongs to the feature under verification: its reads
    become path symbols, and under `old` entry-snapshot symbols."""
    if isinstance(e, (ast.IntLit, ast.BoolLit, ast.StrLit)):
        return F.Lit(e.value)
    if isinstance(e, ast.VoidLit):
        return F.Lit(None)
    if isinstance(e, ast.SetLit):
        return F.Lit(frozenset(e.items))
    if isinstance(e, (ast.Name, ast.Qualified)):
        if read is not None:
            return read(e, in_old)
        path = e.name if isinstance(e, ast.Name) else f"{e.receiver}.{e.attr}"
        return (F.OldSym if in_old else F.Sym)(path, e.ty)
    if isinstance(e, ast.Old):
        return _lower(e.expr, read, True)
    if isinstance(e, ast.Unary):
        return F.Not(_lower(e.expr, read, in_old))
    if isinstance(e, ast.Has):
        return F.HasF(_lower(e.receiver, read, in_old), _lower(e.item, read, in_old))
    if isinstance(e, ast.Binary):
        left, right = _lower(e.left, read, in_old), _lower(e.right, read, in_old)
        if e.op in ast.ARITH_OPS:
            return F.Arith(e.op, left, right)
        if e.op in ast.COMPARISON_OPS:
            return F.Cmp(e.op, left, right)
        if e.op == "and":
            return F.And((left, right))
        if e.op == "or":
            return F.Or((left, right))
        return F.Implies(left, right)
    if isinstance(e, ast.CreateExpr):
        raise _Creation
    raise TypeError(f"unexpected expression {e!r}")


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
                # fields have no defined entry value
                raise _Creation
            path = f"{prefix}.{e.receiver}.{e.attr}"
        return F.Sym(path if in_old else rename_post(path), e.ty)

    return read


# -- the weakest-precondition transformer ---------------------------------------


def _havoc_set(callee_info: ClassInfo, callee: ast.Feature) -> set[str]:
    # what the callee may change: its modify list, or every model
    # query when it declares none - plus attributes outside the
    # model, which no frame condition ever constrains
    base = set(callee.modify) if callee.modify is not None else set(callee_info.model_queries)
    non_model = set(callee_info.attributes) - set(callee_info.model_queries)
    return base | non_model


class _FeatureVCs:
    """The weakest-precondition transformer of one feature, and the
    obligations generated from it."""

    def __init__(self, checked: CheckedProgram, info: ClassInfo, feat: ast.Feature):
        self.checked = checked
        self.info = info
        self.feat = feat
        # a stable index per statement so havoc symbols like r.a@3 are
        # identical across all obligations of the feature
        self.stmt_index = {
            id(s): k for k, s in enumerate(ast.walk_statements(feat.body), start=1)
        }
        self.out: list[Obligation] = []
        self.next_index: defaultdict[str, itertools.count] = defaultdict(itertools.count)

    def ref_type(self, name: str) -> ast.Type:
        """The declared type of a parameter or attribute of the feature."""
        for p in self.feat.params:
            if p.name == name:
                return p.ty
        return self.info.attributes[name]

    def receiver_class(self, name: str) -> ClassInfo:
        return self.checked.info(self.ref_type(name).class_name)

    def wp_all(self, stmts: list[ast.Statement], post: F.Formula) -> F.Formula:
        for s in reversed(stmts):
            post = self.wp(s, post)
        return post

    def wp(self, s: ast.Statement, post: F.Formula) -> F.Formula:
        if isinstance(s, ast.Assign):
            return F.subst(post, {s.target: _lower(s.value)})
        if isinstance(s, ast.QualifiedAssign):
            return F.subst(post, {f"{s.receiver}.{s.attr}": _lower(s.value)})
        if isinstance(s, ast.CreateStmt):
            created = self.receiver_class(s.target)
            creator = created.routines[created.creator]
            out = self._after_call(s, s.target, created, creator, {}, set(created.attributes), post)
            return F.subst(out, {s.target: F.Lit(F.Ref(created.name))})
        if isinstance(s, ast.CallStmt):
            callee_info = self.receiver_class(s.receiver)
            callee = callee_info.routines[s.feature]
            param_map = {p.name: _lower(a) for p, a in zip(callee.params, s.args)}
            havocked = _havoc_set(callee_info, callee)
            return self._after_call(s, s.receiver, callee_info, callee, param_map, havocked, post)
        if isinstance(s, ast.IfStmt):
            cond = _lower(s.cond)
            return F.conj(
                F.implies(cond, self.wp_all(s.then_branch, post)),
                F.implies(F.neg(cond), self.wp_all(s.else_branch, post)),
            )
        if isinstance(s, ast.CheckStmt):
            if mentions_creation(s.expr):
                return post  # flagged as Unsupported elsewhere
            return F.conj(_lower(s.expr), post)
        raise TypeError(f"unexpected statement {s!r}")

    def _after_call(
        self,
        stmt: ast.CreateStmt | ast.CallStmt,
        receiver: str,
        callee_info: ClassInfo,
        callee: ast.Feature,
        param_map: dict[str, F.Formula],
        havocked: set[str],
        post: F.Formula,
    ) -> F.Formula:
        """The call rule after its precondition is asserted (see
        ``_callee_precondition_asserts``): every path under receiver whose
        first attribute is havocked becomes its post-statement unknown
        ``path@k``, and the callee's postcondition and class invariant,
        read through receiver, are assumed. A creation reads the
        creator's `old` as the default state."""
        k = self.stmt_index[id(stmt)]

        def rename(path: str) -> str:
            # paths already anchored to a later statement (containing @)
            # are left alone
            if "@" in path or not path.startswith(receiver + "."):
                return path
            first = path[len(receiver) + 1 :].split(".", 1)[0]
            return f"{path}@{k}" if first in havocked else path

        defaults = callee_info if isinstance(stmt, ast.CreateStmt) else None
        read = _through(receiver, param_map, rename, old_to_default=defaults)
        assumed: list[F.Formula] = []
        for clause in (*callee.ensure, *callee_info.decl.invariant):
            try:
                assumed.append(_lower(clause.expr, read))
            except _Creation:
                pass  # flagged Unsupported where the clause lives
        fresh = {
            name: F.Sym(rename(name), ty)
            for name, ty in F.free_syms(post).items()
            if rename(name) != name
        }
        return F.implies(F.conj(*assumed), F.subst(post, fresh) if fresh else post)

    # -- assertion collection (facts that must hold mid-body) --------------------

    def collect_assertions(self, opts: VerifyOptions) -> list[tuple[str, str, F.Formula]]:
        """All (kind, provenance, entry-state formula) assertions of the
        feature, in program order: require-site dereferences, body-site
        obligations, then exit-site dereferences from ensure clauses."""
        out: list[tuple[str, str, F.Formula]] = []
        # a clause holding a creation expression is Unsupported and
        # dereferences nothing
        for clause in self.feat.require:
            if not mentions_creation(clause.expr):
                out.extend(a for _, a in self._deref_asserts(clause.expr))
        body_asserts = self._collect_body(self.feat.body, opts)
        exit_asserts: list[tuple[str, str, F.Formula]] = []
        for clause in self.feat.ensure:
            if mentions_creation(clause.expr):
                continue
            for under_old, a in self._deref_asserts(clause.expr):
                (out if under_old else exit_asserts).append(a)
        exit_at_entry = [
            (kind, prov, self.wp_all(self.feat.body, f)) for kind, prov, f in exit_asserts
        ]
        return out + body_asserts + exit_at_entry

    def _guaranteed_not_void(self, receiver: str) -> bool:
        """A class-invariant clause `receiver /= Void`, either way round,
        discharges the dereference obligation outright - except inside the
        creator, which cannot assume the invariant."""
        if self.feat.is_creator or receiver not in self.info.attributes:
            return False
        name, void = ast.Name(receiver), ast.VoidLit()
        attached = (ast.Binary("/=", name, void), ast.Binary("/=", void, name))
        return any(clause.expr in attached for clause in self.info.decl.invariant)

    def _deref(self, receiver: str, member: str) -> list[tuple[str, str, F.Formula]]:
        """The VoidDereference assertion of reaching member through
        receiver, unless the class invariant already guarantees it."""
        if self._guaranteed_not_void(receiver):
            return []
        not_void = F.Cmp("/=", F.Sym(receiver, self.ref_type(receiver)), F.Lit(None))
        return [(VOID_DEREFERENCE, f"{receiver}.{member}", not_void)]

    def _deref_asserts(self, e: ast.Expr) -> list[tuple[bool, tuple[str, str, F.Formula]]]:
        """VoidDereference assertions for the qualified reads of e, in
        preorder, each tagged with whether it sits under `old` (evaluated
        at entry rather than in the current state). e holds no creation
        expression: the analyzer allows none in a body, and callers skip
        contract clauses that hold one."""
        nodes = list(ast.walk_expr(e))
        old = {id(n) for o in nodes if isinstance(o, ast.Old) for n in ast.walk_expr(o.expr)}
        return [
            (id(n) in old, a)
            for n in nodes
            if isinstance(n, ast.Qualified)
            for a in self._deref(n.receiver, n.attr)
        ]

    def _collect_body(
        self, stmts: list[ast.Statement], opts: VerifyOptions
    ) -> list[tuple[str, str, F.Formula]]:
        """Assertions arising inside stmts, each expressed at the entry
        of stmts by pulling it back through the preceding statements."""
        collected: list[tuple[str, str, F.Formula]] = []
        for s in reversed(stmts):
            collected = [(kind, prov, self.wp(s, f)) for kind, prov, f in collected]
            collected = self._statement_asserts(s, opts) + collected
        return collected

    def _statement_asserts(
        self, s: ast.Statement, opts: VerifyOptions
    ) -> list[tuple[str, str, F.Formula]]:
        out: list[tuple[str, str, F.Formula]] = []

        def value_asserts(exprs: list[ast.Expr]):
            for e in exprs:
                out.extend(a for _, a in self._deref_asserts(e))
                if opts.check_overflow:
                    out.extend(self._overflow_asserts(e, opts))

        if isinstance(s, ast.Assign):
            value_asserts([s.value])
        elif isinstance(s, ast.QualifiedAssign):
            value_asserts([s.value])
            out.extend(self._deref(s.receiver, s.attr))
        elif isinstance(s, ast.CallStmt):
            out.extend(self._deref(s.receiver, s.feature))
            value_asserts(list(s.args))
            out.extend(self._callee_precondition_asserts(s))
        elif isinstance(s, ast.IfStmt):
            value_asserts([s.cond])
            cond = _lower(s.cond)
            for kind, prov, f in self._collect_body(s.then_branch, opts):
                out.append((kind, prov, F.implies(cond, f)))
            for kind, prov, f in self._collect_body(s.else_branch, opts):
                out.append((kind, prov, F.implies(F.neg(cond), f)))
        elif isinstance(s, ast.CheckStmt):
            if not mentions_creation(s.expr):
                out.extend(a for _, a in self._deref_asserts(s.expr))
                out.append((CHECK_ASSERTION, s.label, _lower(s.expr)))
        return out

    def _callee_precondition_asserts(self, s: ast.CallStmt) -> list[tuple[str, str, F.Formula]]:
        callee_info = self.receiver_class(s.receiver)
        callee = callee_info.routines[s.feature]
        param_map = {p.name: _lower(a) for p, a in zip(callee.params, s.args)}
        out = []
        for clause in callee.require:
            try:
                f = _lower(clause.expr, _through(s.receiver, param_map, lambda p: p))
            except _Creation:
                continue  # flagged Unsupported where the clause lives
            out.append((CALLEE_PRECONDITION, clause.label, f))
        return out

    def _overflow_asserts(self, e: ast.Expr, opts: VerifyOptions) -> list[tuple[str, str, F.Formula]]:
        lo, hi = opts.overflow_bounds
        out = []
        for node in ast.arith_postorder(e):
            lowered = _lower(node)
            bounds = F.And(
                (
                    F.Cmp(">=", lowered, F.Lit(lo)),
                    F.Cmp("<=", lowered, F.Lit(hi)),
                )
            )
            out.append((OVERFLOW, expr_text(node), bounds))
        return out

    # -- obligation generation --------------------------------------------------

    def emit(self, kind: str, provenance: str, entry_formula: F.Formula, reason: str | None = None):
        index = next(self.next_index[kind])
        closed = self._close(entry_formula) if kind != UNSUPPORTED else entry_formula
        self.out.append(
            Obligation(
                id=f"{self.info.name}.{self.feat.name}.{_ID_TAGS[kind]}.{index}",
                kind=kind,
                class_name=self.info.name,
                feature_name=self.feat.name,
                formula=closed,
                provenance=provenance,
                unsupported_reason=reason,
            )
        )

    def _close(self, goal: F.Formula) -> F.Formula:
        """Unify entry snapshots, attach hypotheses, and for creators
        replace attribute symbols by their default values."""
        goal = F.unify_old(goal)
        # the creator cannot assume the invariant
        invariant = [] if self.feat.is_creator else self.info.decl.invariant
        hyps = [
            _lower(clause.expr)
            for clause in (*invariant, *self.feat.require)
            if not mentions_creation(clause.expr)
        ]
        if not self.feat.is_creator:
            hyps.extend(self._referenced_invariants(goal, hyps))
        closed = F.implies(F.conj(*hyps), goal)
        if self.feat.is_creator:
            defaults = {
                name: F.Lit(type_default(ty)) for name, ty in self.info.attributes.items()
            }
            closed = F.subst(closed, defaults)
        return closed

    def _referenced_invariants(
        self, goal: F.Formula, hyps: list[F.Formula]
    ) -> list[F.Formula]:
        """Invariants of objects one dereference away, guarded by their
        attachment and sliced to the clauses whose symbols the obligation
        already mentions - anything else would only widen the search."""
        scope: dict[str, ast.Type] = dict(F.free_syms(goal))
        for h in hyps:
            scope.update(F.free_syms(h))
        names = [(p.name, p.ty) for p in self.feat.params] + list(self.info.attributes.items())
        out: list[F.Formula] = []
        for r, ty in sorted(names):
            if ty.kind != ast.REF or r not in scope:
                continue
            ref_info = self.checked.info(ty.class_name)
            for clause in ref_info.decl.invariant:
                if mentions_creation(clause.expr):
                    continue
                lifted = _lower(clause.expr, _through(r, {}, lambda p: p))
                if set(F.free_syms(lifted)) <= set(scope):
                    out.append(
                        F.disj(F.Cmp("=", F.Sym(r, ty), F.Lit(None)), lifted)
                    )
        return out

    def generate(self, opts: VerifyOptions) -> list[Obligation]:
        feat, info = self.feat, self.info
        goals = ((POSTCONDITION, feat.ensure), (INVARIANT_MAINTENANCE, info.decl.invariant))
        for kind, clauses in goals:
            for clause in clauses:
                if not mentions_creation(clause.expr):
                    goal = self.wp_all(feat.body, _lower(clause.expr))
                    self.emit(kind, clause.label, goal)
        if feat.modify is not None:
            modified = set(feat.modify)
            for q in info.model_queries:
                if q in modified:
                    continue
                ty = info.attributes[q]
                unchanged = F.Cmp("=", F.Sym(q, ty), F.OldSym(q, ty))
                goal = self.wp_all(feat.body, unchanged)
                self.emit(FRAME, q, goal)
        for kind, provenance, entry_f in self.collect_assertions(opts):
            self.emit(kind, provenance, entry_f)
        checks = [s for s in ast.walk_statements(feat.body) if isinstance(s, ast.CheckStmt)]
        for labelled in (*feat.require, *feat.ensure, *checks):
            if mentions_creation(labelled.expr):
                self.emit(UNSUPPORTED, labelled.label, F.TRUE, UNSUPPORTED_REASON)
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
    engine = _FeatureVCs(checked, info, info.routines[feature_name])
    return F.expand(engine.wp_all(statements, post))


# -- obligation generation ------------------------------------------------------


def generate_obligations(checked: CheckedProgram, opts: VerifyOptions) -> list[Obligation]:
    """Every obligation of the program, in a deterministic order:
    classes and features as declared; within a feature postconditions,
    invariant maintenance, frames, then body assertions in program
    order; invariant clauses that cannot be expressed come last."""
    obligations: list[Obligation] = []
    for cls in checked.program.classes:
        info = checked.info(cls.name)
        for feat in cls.features:
            obligations.extend(_FeatureVCs(checked, info, feat).generate(opts))
        for i, clause in enumerate(cls.invariant):
            if mentions_creation(clause.expr):
                obligations.append(
                    Obligation(
                        id=f"{cls.name}.invariant.unsupported.{i}",
                        kind=UNSUPPORTED,
                        class_name=cls.name,
                        feature_name="invariant",
                        formula=F.TRUE,
                        provenance=clause.label,
                        unsupported_reason=UNSUPPORTED_REASON,
                    )
                )
    return obligations
