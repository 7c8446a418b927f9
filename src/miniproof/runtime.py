"""Runtime contract monitoring.

The interpreter executes features under full monitoring: preconditions
in declaration order on entry, entry snapshots of every `old` operand
and every model query, a step budget over the body, then postconditions,
the frame condition, and the class invariant on exit. The invariant is
checked after creation and after every call, including nested ones.
Calls nest at most MAX_CALL_DEPTH deep.

One evaluator, ``eval_expr``, serves contracts and bodies, with the
operator meanings of ``formula.OPS``. Body expressions pass the overflow
bounds when overflow monitoring is on, so every arithmetic result in an
assignment value, `if` condition or call argument is bounds-checked;
contract clauses and `check` instructions pass none.

Replay turns a discharge counterexample back into a concrete execution:
it materializes the described entry state, invokes the owning feature
under monitoring, and reports whether the violation named by the
obligation fires. Every symbol path is walked by one rule: a reference
bound to Void ends it, and an unset reference gets its class's
representative object.

What monitoring needs from a feature's text is computed once per
analyzed program, in a MonitorPlan built on the feature's first
monitored call: the distinct `old` operands to snapshot and the text key
of every `old` node, the label of every arithmetic body node, the
arithmetic labels each Overflow provenance accepts on replay, and the
model queries the frame condition compares. A plan depends only on the
feature, and a CheckedProgram never changes after analysis, so the plan
is cached on the CheckedProgram and shared by every Interpreter and
every replay over it.

The monitor reads the verification options, the obligation kinds and
the value encoding from ``formula``; it imports neither vcgen nor
discharge, so running a scenario never loads them. Replay takes the
Obligation that vcgen made, but needs only its fields.
"""

from __future__ import annotations

import json
import re
import sys
from collections import ChainMap
from typing import TYPE_CHECKING, Mapping

from . import ast
from . import formula as F
from .analyzer import CheckedProgram, ClassInfo
from .errors import (
    ContractViolation,
    ParseError,
    ReplayImpossible,
    StepBudgetExceeded,
    UnsupportedInContract,
    VoidCall,
    VoidDereference,
)
from .formula import (
    CALLEE_PRECONDITION,
    CHECK_ASSERTION,
    FRAME,
    INVARIANT_MAINTENANCE,
    OVERFLOW,
    POSTCONDITION,
    VOID_DEREFERENCE,
    VerifyOptions,
    encode_value,
    type_default,
)
from .pretty import expr_text

if TYPE_CHECKING:
    from .vcgen import Obligation

DEFAULT_STEP_BUDGET = 10_000
# nested calls deeper than this stop the run like an exhausted step budget;
# each level costs a few Python frames, so the budget alone would let a
# self-creating class reach Python's recursion limit first
MAX_CALL_DEPTH = 100


class RuntimeObject:
    """One heap object: a class name and its mutable fields."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name: str, fields: dict):
        self.class_name = class_name
        self.fields = fields

    def __repr__(self):
        return f"<{self.class_name} {self.fields!r}>"


def blank_object(info: ClassInfo) -> RuntimeObject:
    return RuntimeObject(
        info.name, {name: type_default(ty) for name, ty in info.attributes.items()}
    )


# -- expression evaluation ------------------------------------------------------


class _Overflow(Exception):
    """An arithmetic result outside the monitored bounds; node is the
    innermost arithmetic expression that left them."""

    def __init__(self, node: ast.Binary):
        self.node = node


def eval_expr(
    expr: ast.Expr,
    env: Mapping,
    old_env: Mapping | None = None,
    bounds: tuple[int, int] | None = None,
    old_keys: Mapping[int, str] | None = None,
):
    """Strict evaluation of a contract or body expression. env maps
    parameter and attribute names to values; old_env maps the source
    text of each `old` operand to its entry snapshot, and old_keys, when
    given, maps id() of each `old` node to that text so it need not be
    rendered again. With bounds (lo, hi), every arithmetic result
    outside them raises _Overflow: the dynamic mirror of Overflow
    obligations."""
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op == "and":
            return eval_expr(expr.left, env, old_env, bounds, old_keys) and eval_expr(
                expr.right, env, old_env, bounds, old_keys
            )
        if op == "or":
            return eval_expr(expr.left, env, old_env, bounds, old_keys) or eval_expr(
                expr.right, env, old_env, bounds, old_keys
            )
        if op == "implies":
            return (not eval_expr(expr.left, env, old_env, bounds, old_keys)) or bool(
                eval_expr(expr.right, env, old_env, bounds, old_keys)
            )
        value = F.OPS[op][0](
            eval_expr(expr.left, env, old_env, bounds, old_keys),
            eval_expr(expr.right, env, old_env, bounds, old_keys),
        )
        if bounds is not None and op in ast.ARITH_OPS and not bounds[0] <= value <= bounds[1]:
            raise _Overflow(expr)
        return value
    if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.StrLit)):
        return expr.value
    if isinstance(expr, ast.VoidLit):
        return None
    if isinstance(expr, ast.SetLit):
        return frozenset(expr.items)
    if isinstance(expr, ast.Name):
        return env[expr.name]
    if isinstance(expr, ast.Qualified):
        receiver = env[expr.receiver]
        if receiver is None:
            raise VoidDereference(f"{expr.receiver}.{expr.attr}")
        return receiver.fields[expr.attr]
    if isinstance(expr, ast.Old):
        if old_env is None:
            raise ValueError("old outside a postcondition context")
        key = old_keys[id(expr)] if old_keys is not None else expr_text(expr.expr)
        return old_env[key]
    if isinstance(expr, ast.Unary):
        return not eval_expr(expr.expr, env, old_env, bounds, old_keys)
    if isinstance(expr, ast.Has):
        item = eval_expr(expr.item, env, old_env, bounds, old_keys)
        return item in eval_expr(expr.receiver, env, old_env, bounds, old_keys)
    if isinstance(expr, ast.CreateExpr):
        raise UnsupportedInContract(f"creation expression create {expr.class_name}")
    raise TypeError(f"unexpected expression {expr!r}")


# -- monitor plans ----------------------------------------------------------------


class MonitorPlan(ast.Node):
    """What monitoring one feature needs from its text. Node maps are
    keyed by id(): the plan lives in the CheckedProgram whose AST holds
    the nodes, so the ids stay valid for the plan's life."""

    # olds: the distinct `old` operands, first occurrence first; old_keys:
    # every `old` node -> its operand's text; arith_labels: every
    # arithmetic body node -> its text; frame_queries: the model queries
    # the frame condition compares
    __slots__ = ("olds", "old_keys", "arith_labels", "labels_by_provenance", "frame_queries")

    def overflow_labels(self, provenance: str) -> frozenset[str]:
        """Texts of the arithmetic node named by an Overflow obligation and
        of every arithmetic node nested inside it."""
        return self.labels_by_provenance.get(provenance) or frozenset((provenance,))


def monitor_plan(checked: CheckedProgram, class_name: str, feat: ast.Feature) -> MonitorPlan:
    """The plan of a feature, built on first use and cached on checked."""
    key = (class_name, feat.name)
    plan = checked.monitor_plans.get(key)
    if plan is None:
        plan = checked.monitor_plans[key] = _build_plan(checked.info(class_name), feat)
    return plan


def _build_plan(info: ClassInfo, feat: ast.Feature) -> MonitorPlan:
    olds: dict[str, ast.Expr] = {}
    old_keys: dict[int, str] = {}
    for clause in feat.ensure:
        for node in ast.walk_expr(clause.expr):
            if isinstance(node, ast.Old):
                key = old_keys[id(node)] = expr_text(node.expr)
                olds.setdefault(key, node.expr)
    # an Overflow provenance names the first node with its text, searched
    # statement by statement, expression by expression, in postorder
    labels: dict[int, str] = {}
    by_provenance: dict[str, frozenset[str]] = {}
    for s in ast.walk_statements(feat.body):
        for e in ast.statement_exprs(s):
            for node in ast.arith_postorder(e):
                text = labels[id(node)] = expr_text(node)
                if text not in by_provenance:
                    by_provenance[text] = frozenset(labels[id(n)] for n in ast.arith_postorder(node))
    return MonitorPlan(tuple(olds.items()), old_keys, labels, by_provenance, info.frame(feat))


def _violation(
    kind: str, label: str, info: ClassInfo, feat: ast.Feature, obj: RuntimeObject, params: dict
) -> ContractViolation:
    # the keys and values of dict(ChainMap(params, obj.fields)), built directly
    return ContractViolation(kind, label, info.name, feat.name, {**obj.fields, **params})


# -- the monitored interpreter ---------------------------------------------------


class Interpreter:
    def __init__(
        self,
        checked: CheckedProgram,
        options: VerifyOptions | None = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        self.checked = checked
        self.options = options or VerifyOptions()
        self.step_budget = step_budget
        self._bounds = self.options.overflow_bounds if self.options.check_overflow else None
        self._steps_left = 0
        self._frames: list[tuple[str, str]] = []  # (class, feature) call stack

    # entry points: each top-level create/call gets a fresh step budget

    def create(self, class_name: str) -> RuntimeObject:
        self._steps_left = self.step_budget
        return self._new(class_name)

    def call(self, obj: RuntimeObject | None, feature_name: str, args: list) -> None:
        if obj is None:
            raise VoidCall(feature_name)
        info = self.checked.info(obj.class_name)
        self.enter(obj, info.routines[feature_name], args)

    def enter(self, obj: RuntimeObject, feat: ast.Feature, args: list) -> None:
        """Invoke feat on obj as a top-level call, with a fresh step budget."""
        self._steps_left = self.step_budget
        self._invoke(obj, feat, args)

    # monitored invocation (shared by top-level and nested calls)

    def _new(self, class_name: str) -> RuntimeObject:
        """A blank object of the class, after its creator has run."""
        info = self.checked.info(class_name)
        obj = blank_object(info)
        self._invoke(obj, info.routines[info.creator], [])
        return obj

    def _invoke(self, obj: RuntimeObject, feat: ast.Feature, args: list):
        if len(self._frames) == MAX_CALL_DEPTH:
            raise StepBudgetExceeded(f"call depth limit of {MAX_CALL_DEPTH} nested calls exceeded")
        info = self.checked.info(obj.class_name)
        plan = monitor_plan(self.checked, info.name, feat)
        params = {p.name: v for p, v in zip(feat.params, args)}
        env = ChainMap(params, obj.fields)

        for clause in feat.require:
            if not eval_expr(clause.expr, env):
                raise _violation("precondition", clause.label, info, feat, obj, params)

        old_env = {key: eval_expr(operand, env) for key, operand in plan.olds}
        entry_queries = [obj.fields[q] for q in plan.frame_queries]

        self._frames.append((info.name, feat.name))
        try:
            self._exec_block(obj, env, feat.body)
        except _Overflow as exc:
            # only body expressions are bounds-checked; contracts are not
            label = plan.arith_labels[id(exc.node)]
            raise _violation("overflow", label, info, feat, obj, params) from None
        finally:
            self._frames.pop()

        for clause in feat.ensure:
            if not eval_expr(clause.expr, env, old_env, None, plan.old_keys):
                raise _violation("postcondition", clause.label, info, feat, obj, params)
        for q, before in zip(plan.frame_queries, entry_queries):
            if obj.fields[q] != before:
                raise _violation("frame", q, info, feat, obj, params)
        for clause in info.decl.invariant:
            if not eval_expr(clause.expr, env):
                raise _violation("invariant", clause.label, info, feat, obj, params)

    # body execution

    def _exec_block(self, obj: RuntimeObject, env, stmts: list[ast.Statement]):
        for s in stmts:
            self._exec(obj, env, s)

    def _exec(self, obj: RuntimeObject, env, s: ast.Statement):
        if self._steps_left <= 0:
            raise StepBudgetExceeded(
                f"step budget of {self.step_budget} statements exceeded"
            )
        self._steps_left -= 1
        if isinstance(s, ast.Assign):
            obj.fields[s.target] = eval_expr(s.value, env, None, self._bounds)
        elif isinstance(s, ast.QualifiedAssign):
            value = eval_expr(s.value, env, None, self._bounds)
            receiver = env[s.receiver]
            if receiver is None:
                raise VoidDereference(f"{s.receiver}.{s.attr}")
            receiver.fields[s.attr] = value
        elif isinstance(s, ast.CreateStmt):
            target_class = self.checked.info(obj.class_name).attributes[s.target].class_name
            obj.fields[s.target] = self._new(target_class)
        elif isinstance(s, ast.CallStmt):
            receiver = env[s.receiver]
            if receiver is None:
                raise VoidCall(f"{s.receiver}.{s.feature}")
            arg_values = [eval_expr(a, env, None, self._bounds) for a in s.args]
            callee_info = self.checked.info(receiver.class_name)
            self._invoke(receiver, callee_info.routines[s.feature], arg_values)
        elif isinstance(s, ast.IfStmt):
            if eval_expr(s.cond, env, None, self._bounds):
                self._exec_block(obj, env, s.then_branch)
            else:
                self._exec_block(obj, env, s.else_branch)
        elif isinstance(s, ast.CheckStmt):
            if not eval_expr(s.expr, env):
                cls, feat = self._frames[-1]
                raise ContractViolation("check", s.label, cls, feat, dict(env))
        else:
            raise TypeError(f"unexpected statement {s!r}")


# -- scenarios ------------------------------------------------------------------


class Command(ast.Node):
    # kind: "create" | "call"; target: class name for create, feature name
    # for call; expect: ("ok",) or ("violation", label)
    __slots__ = ("kind", "var", "target", "args", "expect", "line")
    _defaults = {"args": [], "expect": None, "line": 0}

    @property
    def text(self) -> str:
        if self.kind == "create":
            return f"create {self.var} : {self.target}"
        rendered = ", ".join(F.value_text(a) for a in self.args)
        return f"call {self.var}.{self.target}({rendered})"


class Scenario(ast.Node):
    __slots__ = ("commands",)


def _parse_literal(token: str, line_no: int):
    token = token.strip()
    if token == "Void":
        return None
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad scenario literal {token!r}", line_no, 1) from None


def _split_unquoted(text: str, sep: str) -> list[str]:
    """text split at each sep outside a double-quoted string. .ccl strings
    have no escapes; an unclosed one runs to the end of the line."""
    if sep not in text or '"' not in text:
        return text.split(sep)
    masked = re.sub(r'"[^"]*"?', lambda m: "_" * len(m.group()), text)
    cuts = [-1, *(m.start() for m in re.finditer(sep, masked)), len(text)]
    return [text[a + 1 : b] for a, b in zip(cuts, cuts[1:])]


def parse_scenario(text: str) -> Scenario:
    commands: list[Command] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (_split_unquoted(raw, "#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "create":
            var, sep, class_name = rest.partition(":")
            if not sep or not var.strip() or not class_name.strip():
                raise ParseError("expected: create <var> : <class>", line_no, 1)
            var, class_name = sys.intern(var.strip()), sys.intern(class_name.strip())
            commands.append(Command("create", var, class_name, line=line_no))
        elif head == "call":
            target, paren, arg_text = rest.partition("(")
            if not paren or not arg_text.endswith(")"):
                raise ParseError("expected: call <var>.<feature>(<args>)", line_no, 1)
            var, dot, feature = target.strip().partition(".")
            if not dot or not var or not feature:
                raise ParseError("expected: call <var>.<feature>(<args>)", line_no, 1)
            arg_text = arg_text[:-1].strip()
            args = (
                [_parse_literal(t, line_no) for t in _split_unquoted(arg_text, ",")] if arg_text else []
            )
            var, feature = sys.intern(var), sys.intern(feature)
            commands.append(Command("call", var, feature, args, line=line_no))
        elif head in ("expect_violation", "expect_ok"):
            if not commands or commands[-1].expect is not None:
                raise ParseError("expectation must follow a command", line_no, 1)
            if head == "expect_ok":
                commands[-1].expect = ("ok",)
            elif not rest:
                raise ParseError("expected: expect_violation <label>", line_no, 1)
            else:
                commands[-1].expect = ("violation", rest)
        else:
            raise ParseError(f"unknown scenario command {head!r}", line_no, 1)
    return Scenario(commands)


class Step(ast.Node):
    # outcome: "ok" | "violation <kind> <label>" | "error <text>"
    __slots__ = ("command", "expected", "outcome", "matched", "violation")
    _defaults = {"violation": None}


class Trace(ast.Node):
    __slots__ = ("steps", "objects", "ok")

    def final_state(self, var: str) -> dict:
        return dict(self.objects[var].fields)


def _check_command(checked: CheckedProgram, cmd: Command, objects: dict) -> None:
    """Raise ParseError at the command's line when it names an unknown
    variable, class or feature, or passes arguments that do not fit the
    feature's parameters."""
    if cmd.kind == "create":
        if cmd.target not in checked.classes:
            raise ParseError(f"unknown class {cmd.target}", cmd.line, 1)
        return
    obj = objects.get(cmd.var)
    if obj is None:
        raise ParseError(f"unknown scenario variable {cmd.var}", cmd.line, 1)
    info = checked.info(obj.class_name)
    feat = info.routines.get(cmd.target)
    if feat is None:
        raise ParseError(f"unknown feature {info.name}.{cmd.target}", cmd.line, 1)
    if len(cmd.args) != len(feat.params):
        raise ParseError(
            f"{info.name}.{feat.name} takes {len(feat.params)} argument(s), got {len(cmd.args)}",
            cmd.line,
            1,
        )
    for param, value in zip(feat.params, cmd.args):
        if not F.fits(value, param.ty):
            raise ParseError(
                f"argument {param.name} of {info.name}.{feat.name} is {param.ty}, "
                f"got {F.value_text(value)}",
                cmd.line,
                1,
            )


def run_scenario(
    checked: CheckedProgram,
    scenario: Scenario,
    options: VerifyOptions | None = None,
) -> Trace:
    interp = Interpreter(checked, options)
    objects: dict[str, RuntimeObject] = {}
    steps: list[Step] = []
    ok = True
    for cmd in scenario.commands:
        expected = "ok" if cmd.expect is None or cmd.expect[0] == "ok" else cmd.expect[1]
        violation = None
        outcome = "ok"
        _check_command(checked, cmd, objects)
        try:
            if cmd.kind == "create":
                objects[cmd.var] = interp.create(cmd.target)
            else:
                interp.call(objects[cmd.var], cmd.target, list(cmd.args))
        except ContractViolation as cv:
            violation = cv
            outcome = f"violation {cv.kind} {cv.label}"
        except (VoidDereference, StepBudgetExceeded, UnsupportedInContract) as exc:
            outcome = f"error {type(exc).__name__}: {exc}"
        if cmd.expect is not None and cmd.expect[0] == "violation":
            matched = violation is not None and violation.label == cmd.expect[1]
        else:
            matched = outcome == "ok"
        steps.append(Step(cmd.text, expected, outcome, matched, violation))
        if not matched:
            ok = False
            break
    return Trace(steps, objects, ok)


def trace_text(trace: Trace) -> str:
    lines = []
    for step in trace.steps:
        status = "ok" if step.matched else "MISMATCH"
        lines.append(f"{status:8s} {step.command}  ->  {step.outcome}")
    for var in trace.objects:
        fields = trace.objects[var].fields
        rendered = ", ".join(
            f"{name} = {F.value_text(_as_formula_value(fields[name]))}" for name in fields
        )
        lines.append(f"{var}: {rendered}")
    lines.append("scenario " + ("ok" if trace.ok else "failed"))
    return "\n".join(lines)


def _as_formula_value(v):
    if isinstance(v, RuntimeObject):
        return F.Ref(v.class_name)
    return v


def trace_payload(trace: Trace) -> dict:
    return {
        "steps": [
            {
                "command": s.command,
                "expected": s.expected,
                "outcome": s.outcome,
                "matched": s.matched,
            }
            for s in trace.steps
        ],
        "objects": {
            var: {name: encode_value(_as_formula_value(value)) for name, value in obj.fields.items()}
            for var, obj in trace.objects.items()
        },
        "ok": trace.ok,
    }


def trace_json(trace: Trace) -> str:
    return json.dumps(trace_payload(trace), indent=2)


# -- counterexample replay -------------------------------------------------------

_RUNTIME_KIND = {
    POSTCONDITION: "postcondition",
    INVARIANT_MAINTENANCE: "invariant",
    FRAME: "frame",
    CALLEE_PRECONDITION: "precondition",
    OVERFLOW: "overflow",
    CHECK_ASSERTION: "check",
}


def synthesize_entry_state(
    checked: CheckedProgram, obligation: Obligation, counterexample: dict
) -> tuple[RuntimeObject, list]:
    """Materialize the receiver object and argument list a counterexample
    describes, from every parameter and attribute at its type's default.
    Each symbol is a path from a parameter or attribute of the feature,
    and one rule walks every segment of it: the last segment takes the
    symbol's value; a reference the counterexample binds to Void ends the
    path, so the values under it, which describe no state, are skipped;
    an unset reference gets its class's representative object. One
    shared representative realizes all non-Void references of a class,
    matching the heap model the formulas were built on. Havoc symbols
    (name@k) describe mid-body states and are skipped too. Raises
    ReplayImpossible for a path through a non-reference or a name outside
    the feature's scope."""
    info = checked.info(obligation.class_name)
    feat = info.routines[obligation.feature_name]
    param_types = {p.name: p.ty for p in feat.params}
    params = {name: type_default(ty) for name, ty in param_types.items()}
    obj = blank_object(info)
    representatives: dict[str, RuntimeObject] = {}

    def representative(class_name: str) -> RuntimeObject:
        found = representatives.get(class_name)
        if found is None:
            found = representatives[class_name] = blank_object(checked.info(class_name))
        return found

    # in a fixed order, shallow paths first, so that paths meeting at one
    # representative build the same state whatever the order of the keys
    for name, value in sorted(counterexample.items(), key=lambda kv: (kv[0].count("."), kv[0])):
        if "@" in name:
            continue  # mid-body havoc value, not part of the entry state
        segments = name.split(".")
        fields, types = (params, param_types) if segments[0] in params else (obj.fields, info.attributes)
        prefix = ""
        for depth, seg in enumerate(segments, 1):
            ty = types.get(seg)
            if ty is None:
                raise ReplayImpossible(f"counterexample symbol {name} is not in scope")
            if depth == len(segments):
                fields[seg] = representative(value.class_name) if isinstance(value, F.Ref) else value
                break
            if ty.kind != ast.REF:
                raise ReplayImpossible(f"path {name} crosses non-reference {seg}")
            prefix = f"{prefix}.{seg}" if prefix else seg
            # a missing key reads False, so only a Void binding reads None
            if counterexample.get(prefix, False) is None:
                break
            current = fields.get(seg)
            if current is None:
                current = fields[seg] = representative(ty.class_name)
            fields, types = current.fields, checked.info(current.class_name).attributes
    return obj, list(params.values())


def replay_counterexample(
    checked: CheckedProgram,
    obligation: Obligation,
    counterexample: dict | None,
    options: VerifyOptions | None = None,
) -> bool:
    """True iff running the owning feature from the counterexample's
    entry state reproduces the violation the obligation stands for.
    Discharged obligations have no counterexample: replay is a no-op.
    Raises ReplayImpossible when the run meets a construct the monitor
    cannot evaluate or exceeds the step budget or call depth."""
    if counterexample is None:
        return False
    obj, args = synthesize_entry_state(checked, obligation, counterexample)
    info = checked.info(obligation.class_name)
    feat = info.routines[obligation.feature_name]
    try:
        Interpreter(checked, options).enter(obj, feat, args)
    except ContractViolation as cv:
        expected_kind = _RUNTIME_KIND.get(obligation.kind)
        if cv.kind != expected_kind:
            return False
        if obligation.kind == OVERFLOW:
            # the monitor reports the innermost node that leaves the
            # bounds, which may be a subexpression of the obligation's
            plan = monitor_plan(checked, info.name, feat)
            return cv.label in plan.overflow_labels(obligation.provenance)
        return cv.label == obligation.provenance
    except VoidDereference as exc:
        return obligation.kind == VOID_DEREFERENCE and exc.path == obligation.provenance
    except (UnsupportedInContract, StepBudgetExceeded) as exc:
        # the run stopped before it could show or rule out the violation
        raise ReplayImpossible(f"{type(exc).__name__}: {exc}") from None
    return False
