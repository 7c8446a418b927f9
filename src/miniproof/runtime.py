"""Runtime contract monitoring.

The interpreter executes features under full monitoring: preconditions
in declaration order on entry, entry snapshots of every path read under
`old` and of every model query, a step budget over the body, then
postconditions, the frame condition, and the class invariant on exit.
The invariant is checked after creation and after every call, including
nested ones. Calls nest at most MAX_CALL_DEPTH deep.

The monitor compiles each feature on its first monitored call, as the
formulas ``formula.lower`` builds, which vcgen proves: each clause, each
body expression and the `old` snapshot become one function, written by
``formula.emit`` as discharge's scans are, and the feature one generated
driver that calls them in order, its body as straight-line code with a
step of the budget before each statement. The clause functions stay
apart from the driver so that clauses of one shape share one code object
across programs. So verify, run and replay read one lowering and one
meaning of each operator: an `old` symbol reads the entry snapshot of
its path, taken in vcgen's entry-dereference order, and a clause holding
a creation expression, which vcgen marks Unsupported as a whole, refuses
to evaluate. Body expressions carry the overflow bounds when overflow
monitoring is on, so every arithmetic result in an assignment value,
`if` condition or call argument is bounds-checked; contract clauses and
`check` instructions carry none. ``eval_expr`` compiles one expression
over a flat env and evaluates it.

Replay turns a discharge counterexample back into a concrete execution:
it materializes the described entry state, invokes the owning feature
under monitoring, and reports whether the violation named by the
obligation fires. Every symbol path is walked by one rule: a reference
bound to Void ends it, and an unset reference gets its class's
representative object. The walk reads the values only in its Void tests
and Ref leaves, so it is planned once per feature and tuple of
counterexample keys (an EntryPlan: the paths in order, each resolved to
its container, the keys whose Void binding ends it and the class of each
representative) and each replay applies the plan to its values.

What monitoring needs from a feature's text is computed once per
analyzed program, in a MonitorPlan built on the feature's first
monitored call: the paths to snapshot for `old`, the label of every
arithmetic body node, the arithmetic labels each Overflow provenance
accepts on replay, the model queries the frame condition compares, the
driver, once per overflow-bounds value, and the entry plans of its
replays, once per key tuple. A plan depends only on the feature, and a
CheckedProgram never changes after analysis, so the plan, its driver
and its entry plans are cached on the CheckedProgram and
shared by every Interpreter and every replay over it. Only code objects,
which hold no value, are kept per process (``formula.compile_source``).

The monitor reads the lowering, the verification options, the obligation
kinds, and the value encoding and its writer from ``formula``; it
imports neither vcgen nor discharge, so running a scenario never loads
them. Replay takes the Obligation that vcgen made, but needs only its
fields.
"""

from __future__ import annotations

import contextlib
import re
import sys
from array import array
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

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
    json_string,
    json_text,
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


# -- compiled expressions -----------------------------------------------------------


class _Overflow(Exception):
    """An arithmetic result outside the monitored bounds; label is the
    text of the innermost arithmetic expression that left them."""

    def __init__(self, label: str):
        self.label = label


# emitted code raises through these; each builds its exception, as one
# passed in would stay in its own frame, a reference cycle per raise
def _void(path: str):
    raise VoidDereference(path)


def _overflow(label: str):
    raise _Overflow(label)


def _compile(params: tuple, e: ast.Expr | None = None, olds: tuple = (), bounds=None, labels=None):
    """``ev(p, f, o)`` of the expression e, as the formula ``F.lower``
    builds, the one vcgen proves, written by ``F.emit``; or without e, of
    the dict of each path of olds to its value, over the parameter dict p,
    the receiver's fields f and the `old` snapshot o (path -> entry value;
    None outside postconditions). A name is read from p if it is one of
    params, else from f, as no parameter shadows a feature; ``r.a`` raises
    VoidDereference when r is Void. With bounds (lo, hi), an arithmetic
    result outside them raises _Overflow with its AST node's text from
    labels (id() -> text). An expression holding a creation raises
    UnsupportedInContract whenever it is evaluated. Literals, names and
    labels are globals named by position, so one shape shares code."""
    consts: list = []

    def const(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    def leaf(sym: F.Sym) -> str:
        if sym.name.startswith(F.OLD):
            return f"o[{const(sym.name[len(F.OLD) :])}]"
        name, dot, attr = sym.name.partition(".")
        receiver = f"{'p' if name in params else 'f'}[{const(name)}]"
        if not dot:
            return receiver
        return f"(_void({const(sym.name)}) if (t := {receiver}) is None else t.fields[{const(attr)}])"

    def checked(h: F.Arith, text: str) -> str:
        return f"(t if lo <= (t := {text}) <= hi else _overflow({const(bounded[id(h)])}))"

    if e is None:
        text = "{" + "".join(f"{const(path)}: {leaf(F.Sym(path, None))}, " for path in olds) + "}"
    else:
        sites: list = []
        try:
            g = F.lower(e, sites=sites)
        except F.Creation as exc:
            message = f"creation expression create {exc.args[0]}"

            def refuse(p, f, o):
                raise UnsupportedInContract(message)

            return refuse
        bounded = {id(h): labels[id(n)] for n, h in sites if type(h) is F.Arith} if bounds else None
        text = F.emit(g, leaf, const, checked if bounds else None)
    lo, hi = bounds or (None, None)
    namespace = {"_void": _void, "_overflow": _overflow, "lo": lo, "hi": hi}
    namespace.update((f"k{i}", value) for i, value in enumerate(consts))
    exec(F.compile_source(f"def ev(p, f, o):\n return {text}\n"), namespace)
    return namespace["ev"]


def eval_expr(expr: ast.Expr, env: Mapping, old_env: Mapping | None = None):
    """Strict evaluation of one contract expression, compiled as the
    monitor compiles it, over one flat env of parameter and attribute
    names; old_env maps each path read under `old` to its entry value."""
    return _compile((), expr)(env, env, old_env)


# -- monitor plans and compiled features ------------------------------------------


class MonitorPlan(ast.Node):
    """What monitoring one feature needs from its text. Node maps are
    keyed by id(): the plan lives in the CheckedProgram whose AST holds
    the nodes, so the ids stay valid for the plan's life."""

    # params: the parameter names; olds: the distinct paths the lowered
    # ensure clauses read under `old`, in vcgen's entry-dereference order;
    # arith_labels: every arithmetic body node -> its text;
    # frame_queries: the model queries the frame condition compares;
    # code: overflow bounds (None when overflow is not monitored) -> the
    # feature's driver ``ev(interpreter, obj, args)`` (_compile_feature),
    # built by Interpreter._invoke on the first monitored call with those
    # bounds;
    # replays: a counterexample's keys, in its order -> the EntryPlan that
    # builds its entry state, built on the first replay with those keys
    __slots__ = (
        "params",
        "olds",
        "arith_labels",
        "labels_by_provenance",
        "frame_queries",
        "code",
        "replays",
    )
    _defaults = {"code": {}, "replays": {}}

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


def _old_paths(clauses) -> tuple[str, ...]:
    """The distinct paths the clauses that lower read under `old`, in the
    order of their formulas' leaves."""
    paths: dict[str, None] = {}
    stack = []
    for clause in reversed(clauses):
        with contextlib.suppress(F.Creation):  # else the clause reads nothing
            stack.append(F.lower(clause.expr))
    while stack:
        g = stack.pop()
        stack.extend(reversed(F.children(g)))
        if type(g) is F.Sym and g.name.startswith(F.OLD):
            paths[g.name[len(F.OLD) :]] = None
    return tuple(paths)


def _build_plan(info: ClassInfo, feat: ast.Feature) -> MonitorPlan:
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
    params = tuple(p.name for p in feat.params)
    return MonitorPlan(params, _old_paths(feat.ensure), labels, by_provenance, info.frame(feat))


# emitted drivers call these; each that raises builds its exception


def _fail(kind: str, label: str, owner: str, feature: str, f: dict, p: dict):
    # parameters and attributes in one dict; no parameter shadows an attribute
    raise ContractViolation(kind, label, owner, feature, {**f, **p}) from None


def _void_call(path: str):
    raise VoidCall(path)


def _step(i: Interpreter):
    """Take one statement's step of i's budget."""
    if i._steps_left <= 0:
        raise StepBudgetExceeded(f"step budget of {i.step_budget} statements exceeded")
    i._steps_left -= 1


def _call(i: Interpreter, obj: RuntimeObject, feature: str, args: tuple):
    info = i.checked.info(obj.class_name)
    callee = info.routines[feature]
    i._invoke(obj, callee, args, info, monitor_plan(i.checked, info.name, callee))


def _compile_feature(
    info: ClassInfo, feat: ast.Feature, plan: MonitorPlan, bounds: tuple[int, int] | None
) -> Callable:
    """The driver ``ev(i, obj, args)`` that runs feat on obj under the
    interpreter i: it binds the parameter dict p to args, checks each
    precondition, takes the `old` snapshot o and the frame queries, runs
    the body as straight-line code, one step of i's budget per statement
    (an `if` takes one, then its branch taken), and checks each
    postcondition, the frame and the invariant. Each clause, each body
    expression and the snapshot is a function ``_compile`` makes, called
    as a global named by position, as the driver's names and labels are,
    so features of one shape share one code object."""
    params = plan.params
    consts: list = []

    def const(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    # contracts and `check` are not bounds-checked; body expressions are
    def test(clause, o: str = "None") -> str:
        return f"{const(_compile(params, clause.expr))}(p, f, {o})"

    def expr(e: ast.Expr) -> str:
        return f"{const(_compile(params, e, bounds=bounds, labels=plan.arith_labels))}(p, f, None)"

    def fail(kind: str, label: str) -> str:
        return f"_fail({kind!r}, {label}, owner, feature, f, p)"

    def check(kind: str, clauses, o: str = "None"):
        lines.extend(f" if not {test(c, o)}: {fail(kind, const(c.label))}" for c in clauses)

    def receiver(name: str, member: str, void: str) -> str:
        # reads the receiver into t; void(path) raises when it is Void
        read = f"{'p' if name in params else 'f'}[{const(name)}]"
        return f"if (t := {read}) is None: {void}({const(f'{name}.{member}')})"

    def block(stmts, pad: str):
        if not stmts:
            lines.append(f"{pad}pass")
        for s in stmts:
            lines.append(f"{pad}_step(i)")
            if isinstance(s, ast.Assign):
                lines.append(f"{pad}f[{const(s.target)}] = {expr(s.value)}")
            elif isinstance(s, ast.QualifiedAssign):
                lines.append(f"{pad}v = {expr(s.value)}")
                lines.append(pad + receiver(s.receiver, s.attr, "_void"))
                lines.append(f"{pad}t.fields[{const(s.attr)}] = v")
            elif isinstance(s, ast.CreateStmt):
                class_name = info.attributes[s.target].class_name
                lines.append(f"{pad}f[{const(s.target)}] = i._new({const(class_name)})")
            elif isinstance(s, ast.CallStmt):
                lines.append(pad + receiver(s.receiver, s.feature, "_void_call"))
                args = "".join(f"{expr(a)}, " for a in s.args)
                lines.append(f"{pad}_call(i, t, {const(s.feature)}, ({args}))")
            elif isinstance(s, ast.IfStmt):
                lines.append(f"{pad}if {expr(s.cond)}:")
                block(s.then_branch, pad + " ")
                if s.else_branch:
                    lines.append(f"{pad}else:")
                    block(s.else_branch, pad + " ")
            elif isinstance(s, ast.CheckStmt):
                lines.append(f"{pad}if not {test(s)}: {fail('check', const(s.label))}")
            else:
                raise TypeError(f"unexpected statement {s!r}")

    lines = ["def ev(i, obj, args):", f" p = dict(zip({const(params)}, args))", " f = obj.fields"]
    check("precondition", feat.require)
    if plan.olds:
        lines.append(f" o = {const(_compile(params, olds=plan.olds))}(p, f, None)")
    queries = [const(q) for q in plan.frame_queries]
    lines.extend(f" q{j} = f[{k}]" for j, k in enumerate(queries))
    if feat.body:
        lines += [" i._depth += 1", " try:"]
        block(feat.body, "  ")
        lines += [" except _Overflow as exc:", "  " + fail("overflow", "exc.label"), " finally:", "  i._depth -= 1"]
    check("postcondition", feat.ensure, "o" if plan.olds else "None")
    lines.extend(f" if f[{k}] != q{j}: {fail('frame', k)}" for j, k in enumerate(queries))
    check("invariant", info.decl.invariant)
    namespace = {
        "_step": _step,
        "_call": _call,
        "_fail": _fail,
        "_void": _void,
        "_void_call": _void_call,
        "_Overflow": _Overflow,
        "owner": info.name,
        "feature": feat.name,
    }
    namespace.update((f"k{n}", value) for n, value in enumerate(consts))
    exec(F.compile_source("\n".join(lines) + "\n"), namespace)
    return namespace["ev"]

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
        self._steps_left = step_budget
        self._depth = 0  # monitored calls in progress

    # entry points: each top-level create/call gets a fresh step budget

    def create(self, class_name: str) -> RuntimeObject:
        self._steps_left = self.step_budget
        return self._new(class_name)

    def call(self, obj: RuntimeObject | None, feature_name: str, args: list) -> None:
        if obj is None:
            raise VoidCall(feature_name)
        info = self.checked.info(obj.class_name)
        self.enter(obj, info.routines[feature_name], args)

    def enter(self, obj: RuntimeObject, feat: ast.Feature, args: Sequence) -> None:
        """Invoke feat on obj as a top-level call, with a fresh step budget."""
        info = self.checked.info(obj.class_name)
        self._steps_left = self.step_budget
        self._invoke(obj, feat, args, info, monitor_plan(self.checked, info.name, feat))

    # monitored invocation (shared by top-level and nested calls)

    def _new(self, class_name: str) -> RuntimeObject:
        """A blank object of the class, after its creator has run."""
        info = self.checked.info(class_name)
        obj = blank_object(info)
        creator = info.routines[info.creator]
        self._invoke(obj, creator, [], info, monitor_plan(self.checked, class_name, creator))
        return obj

    def _invoke(self, obj: RuntimeObject, feat: ast.Feature, args: Sequence, info: ClassInfo, plan: MonitorPlan):
        """Run feat on obj under monitoring, through its driver (see
        ``_compile_feature``); info is obj's class and plan feat's, which
        every caller has looked up already."""
        if self._depth == MAX_CALL_DEPTH:
            raise StepBudgetExceeded(f"call depth limit of {MAX_CALL_DEPTH} nested calls exceeded")
        driver = plan.code.get(self._bounds)
        if driver is None:
            driver = plan.code[self._bounds] = _compile_feature(info, feat, plan, self._bounds)
        driver(self, obj, args)

# -- scenarios ------------------------------------------------------------------


class Command(ast.Node):
    # kind: "create" | "call"; target: class name for create, feature name
    # for call; args: a tuple of literals; expect: ("ok",) or
    # ("violation", label). A parsed scenario shares one Command among
    # its equal commands, so a command holds no line number
    __slots__ = ("kind", "var", "target", "args", "expect")
    _defaults = {"args": (), "expect": None}

    @property
    def text(self) -> str:
        if self.kind == "create":
            return f"create {self.var} : {self.target}"
        # most arguments are integers; bool, also an int, stays true/false
        rendered = ", ".join([str(a) if type(a) is int else F.value_text(a) for a in self.args])
        return f"call {self.var}.{self.target}({rendered})"


class Scenario(ast.Node):
    # commands in order, and the source line of each (an array of ints)
    __slots__ = ("commands", "lines")


_WORDS = {"Void": None, "true": True, "false": False}


def _parse_args(text: str, line_no: int) -> tuple:
    """The literals of a call's argument text, split at each ``,`` outside
    a string."""
    args = []
    for token in _split_unquoted(text, ","):
        token = token.strip()
        if token in _WORDS:
            args.append(_WORDS[token])
        elif len(token) >= 2 and token[0] == '"' == token[-1]:
            args.append(token[1:-1])
        else:
            try:
                args.append(int(token))
            except ValueError:
                raise ParseError(f"bad scenario literal {token!r}", line_no, 1) from None
    return tuple(args)


def _split_unquoted(text: str, sep: str) -> list[str]:
    """text split at each sep outside a double-quoted string. .ccl strings
    have no escapes; an unclosed one runs to the end of the line."""
    if sep not in text or '"' not in text:
        return text.split(sep)
    masked = re.sub(r'"[^"]*"?', lambda m: "_" * len(m.group()), text)
    cuts = [-1, *(m.start() for m in re.finditer(sep, masked)), len(text)]
    return [text[a + 1 : b] for a, b in zip(cuts, cuts[1:])]


def parse_scenario(text: str) -> Scenario:
    """The commands of a scenario script, in order, and the line of each.
    A line holds a command, an expectation of the command before it, or
    nothing; ``#`` outside a string starts a comment. A long script
    repeats its lines, so each distinct line is read once per call, into
    what it says: a command's key, an expectation, or None. Each
    (key, expectation) pair builds its Command once, so equal commands
    share one object."""
    commands: list[Command] = []
    lines = array("I")
    said: dict[str, tuple | None] = {}
    # equal argument texts share one tuple, which a key names by its text:
    # equality would take (1,) for (True,)
    args_by_text: dict[str, tuple] = {"": ()}
    expect_by_label: dict[str, tuple] = {}
    built: dict[tuple, Command] = {}

    def read(raw: str, line_no: int, orphan: bool) -> tuple | None:
        # an expectation with no command to follow is that error first,
        # whatever else is wrong with it
        line = (_split_unquoted(raw, "#")[0] if "#" in raw else raw).strip()
        if not line:
            return None
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "create":
            var, sep, target = rest.partition(":")
            var, target, arg_text = var.strip(), target.strip(), ""
            if not sep or not var or not target:
                raise ParseError("expected: create <var> : <class>", line_no, 1)
        elif head == "call":
            target, paren, arg_text = rest.partition("(")
            if not paren or not arg_text.endswith(")"):
                raise ParseError("expected: call <var>.<feature>(<args>)", line_no, 1)
            var, dot, target = target.strip().partition(".")
            if not dot or not var or not target:
                raise ParseError("expected: call <var>.<feature>(<args>)", line_no, 1)
            arg_text = arg_text[:-1].strip()
            if arg_text not in args_by_text:
                args_by_text[arg_text] = _parse_args(arg_text, line_no)
        elif head in ("expect_violation", "expect_ok"):
            if orphan:
                raise ParseError("expectation must follow a command", line_no, 1)
            if head == "expect_ok":
                if rest:
                    raise ParseError("expected: expect_ok, with nothing after it", line_no, 1)
                return ("ok",)
            if not rest:
                raise ParseError("expected: expect_violation <label>", line_no, 1)
            expect = expect_by_label.get(rest)
            if expect is None:
                expect = expect_by_label[rest] = ("violation", sys.intern(rest))
            return expect
        else:
            raise ParseError(f"unknown scenario command {head!r}", line_no, 1)
        return (head, sys.intern(var), sys.intern(target), arg_text)

    def build(key: tuple, expect: tuple | None) -> Command:
        cmd = built[key, expect] = Command(key[0], key[1], key[2], args_by_text[key[3]], expect)
        return cmd

    key = None  # the last command's key, until an expectation or the next command settles it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        what = said.get(raw, said)  # said itself: not read yet
        if what is said:
            what = said[raw] = read(raw, line_no, key is None)
        if what is None:
            continue
        if len(what) == 4:  # a command's key
            if key is not None:
                commands.append(built.get((key, None)) or build(key, None))
            key = what
            lines.append(line_no)
            continue
        if key is None:
            raise ParseError("expectation must follow a command", line_no, 1)
        commands.append(built.get((key, what)) or build(key, what))
        key = None
    if key is not None:
        commands.append(built.get((key, None)) or build(key, None))
    return Scenario(commands, lines)


class Step(ast.Node):
    # outcome: "ok" | "violation <kind> <label>" | "error <text>"
    __slots__ = ("command", "expected", "outcome", "matched", "violation")
    _defaults = {"violation": None}


class Trace(ast.Node):
    __slots__ = ("steps", "objects", "ok")

    def final_state(self, var: str) -> dict:
        return dict(self.objects[var].fields)


def _check_command(checked: CheckedProgram, cmd: Command, line: int, objects: dict) -> ast.Feature | None:
    """The feature a call command calls (None for a create). Raise
    ParseError at the command's line when it names an unknown variable,
    class or feature, calls a creator, which the analyzer refuses in
    program text too, or passes arguments that do not fit the feature's
    parameters."""
    if cmd.kind == "create":
        if cmd.target not in checked.classes:
            raise ParseError(f"unknown class {cmd.target}", line, 1)
        return None
    obj = objects.get(cmd.var)
    if obj is None:
        raise ParseError(f"unknown scenario variable {cmd.var}", line, 1)
    info = checked.info(obj.class_name)
    feat = info.routines.get(cmd.target)
    if feat is None:
        raise ParseError(f"unknown feature {info.name}.{cmd.target}", line, 1)
    if feat.is_creator:
        raise ParseError(f"creator {info.name}.{feat.name} cannot be called", line, 1)
    if len(cmd.args) != len(feat.params):
        raise ParseError(
            f"{info.name}.{feat.name} takes {len(feat.params)} argument(s), got {len(cmd.args)}",
            line,
            1,
        )
    for param, value in zip(feat.params, cmd.args):
        if not F.fits(value, param.ty):
            raise ParseError(
                f"argument {param.name} of {info.name}.{feat.name} is {param.ty}, "
                f"got {F.value_text(value)}",
                line,
                1,
            )
    return feat


def run_scenario(
    checked: CheckedProgram,
    scenario: Scenario,
    options: VerifyOptions | None = None,
) -> Trace:
    interp = Interpreter(checked, options)
    objects: dict[str, RuntimeObject] = {}
    steps: list[Step] = []
    ok = True
    for cmd, line in zip(scenario.commands, scenario.lines):
        expected = "ok" if cmd.expect is None or cmd.expect[0] == "ok" else cmd.expect[1]
        violation = None
        outcome = "ok"
        feat = _check_command(checked, cmd, line, objects)
        try:
            if feat is None:
                objects[cmd.var] = interp.create(cmd.target)
            else:
                interp.enter(objects[cmd.var], feat, cmd.args)
        except ContractViolation as cv:
            # the step keeps the violation but not the frames it passed
            # through (nor an overflow it replaced): they include this one,
            # whose steps hold the step, a cycle only the collector frees
            violation = cv.with_traceback(None)
            violation.__context__ = None
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


def _objects_payload(trace: Trace) -> dict:
    return {
        var: {name: encode_value(_as_formula_value(value)) for name, value in obj.fields.items()}
        for var, obj in trace.objects.items()
    }


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
        "objects": _objects_payload(trace),
        "ok": trace.ok,
    }


_STEP = (
    '    {\n      "command": %s,\n      "expected": %s,\n      "outcome": %s,\n      "matched": %s\n    }'
)


def trace_json(trace: Trace) -> str:
    """Exactly ``json.dumps(trace_payload(trace), indent=2)``, written by
    ``json_text`` but for the steps, which are many and all of one layout,
    so one template writes each. A field holding anything but a value
    raises TypeError (``encode_value``)."""
    tail = f',\n  "objects": {json_text(_objects_payload(trace), "  ")},\n  "ok": {json_text(trace.ok)}\n}}'
    steps = [
        _STEP % (json_string(s.command), json_string(s.expected), json_string(s.outcome), json_text(s.matched))
        for s in trace.steps
    ]
    if not steps:
        return '{\n  "steps": []' + tail
    # the text is allocated once, by the join, as long traces are kept
    steps[0] = '{\n  "steps": [\n' + steps[0]
    steps[-1] += "\n  ]" + tail
    return ",\n".join(steps)


# -- counterexample replay -------------------------------------------------------

_RUNTIME_KIND = {
    POSTCONDITION: "postcondition",
    INVARIANT_MAINTENANCE: "invariant",
    FRAME: "frame",
    CALLEE_PRECONDITION: "precondition",
    OVERFLOW: "overflow",
    CHECK_ASSERTION: "check",
}


class EntryPlan(ast.Node):
    """How a counterexample with one tuple of keys becomes the entry
    state of one feature, worked out from the keys alone (see
    synthesize_entry_state). It holds no object and nothing a replay
    changes: each replay copies params and makes its own objects."""

    # params: each parameter -> its type's default; steps: one per
    # non-havoc key, shallow paths first, each (key, whether the path
    # starts at a parameter, walk, last segment, ReplayImpossible message
    # or None); walk: (segment, the key whose Void binding ends the path
    # there or None, ClassInfo of the representative) per reference the
    # path crosses before its last segment or its impossible one
    __slots__ = ("params", "steps")


def _plan_entry_state(checked: CheckedProgram, info: ClassInfo, feat: ast.Feature, keys: tuple) -> EntryPlan:
    param_types = {p.name: p.ty for p in feat.params}
    steps = []
    # in a fixed order, shallow paths first, so that paths meeting at one
    # representative build the same state whatever the order of the keys
    for name in sorted(keys, key=lambda k: (k.count("."), k)):
        if "@" in name:
            continue  # mid-body havoc value, not part of the entry state
        segments = name.split(".")
        in_params = segments[0] in param_types
        types = param_types if in_params else info.attributes
        walk, prefix, message = [], "", None
        for seg in segments[:-1]:
            ty = types.get(seg)
            if ty is None:
                message = f"counterexample symbol {name} is not in scope"
                break
            if ty.kind != ast.REF:
                message = f"path {name} crosses non-reference {seg}"
                break
            prefix = f"{prefix}.{seg}" if prefix else seg
            target = checked.info(ty.class_name)
            walk.append((seg, prefix if prefix in keys else None, target))
            types = target.attributes
        else:
            if segments[-1] not in types:
                message = f"counterexample symbol {name} is not in scope"
        steps.append((name, in_params, tuple(walk), segments[-1], message))
    return EntryPlan({p.name: type_default(p.ty) for p in feat.params}, tuple(steps))


def _entry_state(
    checked: CheckedProgram, info: ClassInfo, feat: ast.Feature, plan: MonitorPlan, counterexample: dict
) -> tuple[RuntimeObject, list]:
    keys = tuple(counterexample)
    entry = plan.replays.get(keys)
    if entry is None:
        entry = plan.replays[keys] = _plan_entry_state(checked, info, feat, keys)
    params = dict(entry.params)
    obj = blank_object(info)
    representatives: dict[str, RuntimeObject] = {}

    def representative(target: ClassInfo) -> RuntimeObject:
        found = representatives.get(target.name)
        if found is None:
            found = representatives[target.name] = blank_object(target)
        return found

    for name, in_params, walk, attr, message in entry.steps:
        fields = params if in_params else obj.fields
        for seg, void_key, target in walk:
            if void_key is not None and counterexample[void_key] is None:
                break
            current = fields.get(seg)
            if current is None:
                current = fields[seg] = representative(target)
            fields = current.fields
        else:
            if message is not None:
                raise ReplayImpossible(message)
            value = counterexample[name]
            fields[attr] = representative(checked.info(value.class_name)) if isinstance(value, F.Ref) else value
    return obj, list(params.values())


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
    matching the heap model the formulas were built on; a Ref value names
    the class its path is declared with, as every counterexample's does.
    Havoc symbols (name@k) describe mid-body states and are skipped too.
    Raises ReplayImpossible for a path through a non-reference or a name
    outside the feature's scope, unless a Void reference ends it first.

    The walk depends on the values only through the Void tests and the
    Ref leaves, so its order and its segments are planned once per
    feature and tuple of keys (an EntryPlan, cached on the feature's
    MonitorPlan); each replay applies the plan to its values."""
    info = checked.info(obligation.class_name)
    feat = info.routines[obligation.feature_name]
    return _entry_state(checked, info, feat, monitor_plan(checked, info.name, feat), counterexample)


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
    info = checked.info(obligation.class_name)
    feat = info.routines[obligation.feature_name]
    plan = monitor_plan(checked, info.name, feat)
    obj, args = _entry_state(checked, info, feat, plan, counterexample)
    try:
        # a new Interpreter starts with a fresh step budget
        Interpreter(checked, options)._invoke(obj, feat, args, info, plan)
    except ContractViolation as cv:
        expected_kind = _RUNTIME_KIND.get(obligation.kind)
        if cv.kind != expected_kind:
            return False
        if obligation.kind == OVERFLOW:
            # the monitor reports the innermost node that leaves the
            # bounds, which may be a subexpression of the obligation's
            return cv.label in plan.overflow_labels(obligation.provenance)
        return cv.label == obligation.provenance
    except VoidDereference as exc:
        return obligation.kind == VOID_DEREFERENCE and exc.path == obligation.provenance
    except (UnsupportedInContract, StepBudgetExceeded) as exc:
        # the run stopped before it could show or rule out the violation
        raise ReplayImpossible(f"{type(exc).__name__}: {exc}") from None
    return False
