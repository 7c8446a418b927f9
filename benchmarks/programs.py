"""Seeded `.ccl` programs for the vc_scaling workload, with their oracle.

Each program is built as a small tree of expressions and statements that
renders to `.ccl` text and also runs here in plain Python. The oracle never
calls miniproof: it simulates every feature, works out which entry symbols
the obligation formula mentions, and enumerates their domains in
sorted-name order with values ascending, so it predicts each obligation's
verdict and, for a Failed one, the lexicographically first counterexample.

Three kinds of program:

* ``creator``: a creator whose body is a chain of N `if` statements over
  three attributes. Creators start from default values, so every formula is
  closed and the cost is in vcgen (the formula doubles with each `if`).
* ``routine``: a routine over an INTEGER attribute and an INTEGER
  parameter with a chain of `if` statements; discharge searches a large
  formula over 17 x 17 = 289 leaves.
* ``classes``: many small independent classes in one file, which loads
  the lexer, parser and analyzer.

The seed picks operators, constants and the planted failures' clauses;
the shape of each program (kind, N, class count) and the number of planted
failures are fixed, so every seed costs about the same.
"""

from __future__ import annotations

import itertools
import random

INT_RANGE = (-8, 8)

# One pass: (kind, size, count, planted). Sizes are if-chain lengths or
# class counts; `planted` of the `count` programs have one clause planted to
# fail. Failing obligations stop their search early, so they are kept out of
# the groups where op_p50_ms (creator 6) and op_p90_ms (creator 7) fall, and
# those percentiles sit inside a group of programs of one shape.
PASS_SHAPES = (
    ("creator", 4, 8, 4),
    ("routine", 2, 4, 2),
    ("creator", 6, 12, 0),
    ("classes", 30, 2, 1),
    ("routine", 3, 1, 0),
    ("creator", 7, 9, 0),
    ("creator", 8, 1, 0),
)


# -- expressions: ("var", n) ("old", n) ("int", v) ("bool", v) ("not", e) ("bin", op, a, b)


def var(name):
    return ("var", name)


def old(name):
    return ("old", name)


def lit(v):
    return ("bool" if isinstance(v, bool) else "int", v)


def bin_(op, a, b):
    return ("bin", op, a, b)


def text(e, top=True) -> str:
    tag = e[0]
    if tag == "var":
        return e[1]
    if tag == "old":
        return f"old {e[1]}"
    if tag == "int":
        return str(e[1])
    if tag == "bool":
        return "true" if e[1] else "false"
    if tag == "not":
        inner = f"not {text(e[1], False)}"
        return inner if top else f"({inner})"
    inner = f"{text(e[2], False)} {e[1]} {text(e[3], False)}"
    return inner if top else f"({inner})"


_CMP = {
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def value(e, env, entry):
    tag = e[0]
    if tag == "var":
        return env[e[1]]
    if tag == "old":
        return entry[e[1]]
    if tag in ("int", "bool"):
        return e[1]
    if tag == "not":
        return not value(e[1], env, entry)
    op, a, b = e[1], value(e[2], env, entry), value(e[3], env, entry)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "implies":
        return (not a) or b
    return _CMP[op](a, b)


def deps(e, depmap) -> frozenset:
    """Entry symbols an expression mentions once earlier assignments have
    been substituted into it (depmap: variable -> entry symbols)."""
    tag = e[0]
    if tag == "var":
        return depmap[e[1]]
    if tag == "old":
        return frozenset((e[1],))
    if tag in ("int", "bool"):
        return frozenset()
    if tag == "not":
        return deps(e[1], depmap)
    return deps(e[2], depmap) | deps(e[3], depmap)


# -- statements: ("assign", name, e) ("if", cond, then_list, else_list)


def stmt_lines(s, indent):
    pad = " " * indent
    if s[0] == "assign":
        return [f"{pad}{s[1]} := {text(s[2])}"]
    lines = [f"{pad}if {text(s[1])} then"]
    for t in s[2]:
        lines += stmt_lines(t, indent + 4)
    if s[3]:
        lines.append(f"{pad}else")
        for t in s[3]:
            lines += stmt_lines(t, indent + 4)
    lines.append(f"{pad}end")
    return lines


def execute(stmts, env):
    for s in stmts:
        if s[0] == "assign":
            env[s[1]] = value(s[2], env, None)
        elif value(s[1], env, None):
            execute(s[2], env)
        else:
            execute(s[3], env)


def flow(stmts, depmap, mentioned):
    """Forward dependency pass mirroring weakest preconditions: every
    `if` condition lands in the formula, and a variable's value after a
    branch may come from either side."""
    for s in stmts:
        if s[0] == "assign":
            depmap[s[1]] = deps(s[2], depmap)
            continue
        mentioned |= deps(s[1], depmap)
        left, right = dict(depmap), dict(depmap)
        flow(s[2], left, mentioned)
        flow(s[3], right, mentioned)
        for k in depmap:
            depmap[k] = left[k] | right[k]


# -- program structure ---------------------------------------------------------


class Feature:
    def __init__(self, name, params=(), require=(), body=(), ensure=(), creator=False):
        self.name = name
        self.params = list(params)  # [(name, type)]
        self.require = list(require)  # [(label, expr)]
        self.body = list(body)
        self.ensure = list(ensure)
        self.creator = creator


class ClassSpec:
    def __init__(self, name, attrs, features, invariant=()):
        self.name = name
        self.attrs = list(attrs)  # [(name, type)]
        self.features = list(features)
        self.invariant = list(invariant)

    def source(self) -> list[str]:
        creator = next(f.name for f in self.features if f.creator)
        lines = [f"class {self.name}", "create", f"    {creator}", "feature"]
        lines += [f"    {n} : {t}" for n, t in self.attrs]
        for f in self.features:
            head = f"    {f.name}"
            if f.params:
                head += " (" + "; ".join(f"{n} : {t}" for n, t in f.params) + ")"
            lines.append(head)
            if f.require:
                lines.append("        require")
                lines += [f"            {label}: {text(e)}" for label, e in f.require]
            lines.append("        do")
            for s in f.body:
                lines += stmt_lines(s, 12)
            if f.ensure:
                lines.append("        ensure")
                lines += [f"            {label}: {text(e)}" for label, e in f.ensure]
            lines.append("        end")
        if self.invariant:
            lines.append("invariant")
            lines += [f"    {label}: {text(e)}" for label, e in self.invariant]
        lines.append("end")
        return lines


_DEFAULT = {"INTEGER": 0, "BOOLEAN": False}


def _domain(ty):
    if ty == "INTEGER":
        return range(INT_RANGE[0], INT_RANGE[1] + 1)
    return (False, True)


def _holds(clauses, env, entry):
    return all(value(e, env, entry) for _, e in clauses)


def expected_rows(classes: list[ClassSpec]) -> dict[str, tuple[str, dict | None]]:
    """Obligation id -> (verdict, counterexample or None), by simulation."""
    rows = {}
    for cls in classes:
        for f in cls.features:
            goals = [(f"{cls.name}.{f.name}.postcondition.{i}", e) for i, (_, e) in enumerate(f.ensure)]
            goals += [
                (f"{cls.name}.{f.name}.invariant_maintenance.{i}", e)
                for i, (_, e) in enumerate(cls.invariant)
            ]
            if f.creator:
                entry = {n: _DEFAULT[t] for n, t in cls.attrs}
                env = dict(entry)
                execute(f.body, env)
                for oid, goal in goals:
                    ok = value(goal, env, entry)
                    rows[oid] = ("Discharged", None) if ok else ("Failed", {})
                continue
            types = dict(cls.attrs) | dict(f.params)
            depmap = {n: frozenset((n,)) for n in types}
            mentioned: set = set()
            flow(f.body, depmap, mentioned)
            hyps = list(cls.invariant) + list(f.require)
            hyp_syms = set().union(*(deps(e, {n: frozenset((n,)) for n in types}) for _, e in hyps))
            for oid, goal in goals:
                syms = sorted(mentioned | hyp_syms | deps(goal, depmap))
                rows[oid] = _search(f, syms, types, hyps, goal)
    return rows


def _search(f, syms, types, hyps, goal):
    for values in itertools.product(*(_domain(types[s]) for s in syms)):
        entry = {n: _DEFAULT[t] for n, t in types.items()}
        entry.update(zip(syms, values))
        if not _holds(hyps, entry, entry):
            continue
        env = dict(entry)
        execute(f.body, env)
        if not value(goal, env, entry):
            return ("Failed", dict(zip(syms, values)))
    return ("Discharged", None)


# -- generators ----------------------------------------------------------------


def _creator_chain(rng, n, name, plant):
    x, y, z = var("x"), var("y"), var("z")
    body = []
    for _ in range(n):
        cond = bin_(rng.choice(("<", "<=", ">", ">=", "=", "/=")), x, bin_("+", y, lit(rng.randint(0, 3))))
        body.append(
            (
                "if",
                cond,
                [("assign", "x", bin_("+", x, lit(rng.randint(1, 3)))), ("assign", "z", bin_("+", z, lit(1)))],
                [("assign", "y", bin_("-", y, lit(rng.randint(1, 3)))), ("assign", "z", bin_("-", z, lit(1)))],
            )
        )
    env = {"x": 0, "y": 0, "z": 0}
    execute(body, env)
    fx, fy, fz = env["x"], env["y"], env["z"]
    ensure = [
        ("x_final", bin_("=", x, lit(fx))),
        ("y_final", bin_("=", y, lit(fy))),
        ("z_final", bin_("=", z, lit(fz))),
    ]
    invariant = [("x_not_below_y", bin_(">=", bin_("-", x, y), lit(fx - fy)))]
    if plant == "post":
        ensure[2] = ("z_final", bin_("=", z, lit(fz + rng.choice((-2, 2)))))
    elif plant == "invariant":
        invariant[0] = ("x_not_below_y", bin_(">=", bin_("-", x, y), lit(fx - fy + 1)))
    make = Feature("make", body=body, ensure=ensure, creator=True)
    attrs = [("x", "INTEGER"), ("y", "INTEGER"), ("z", "INTEGER")]
    return [ClassSpec(name, attrs, [make], invariant)]


def _routine_chain(rng, n, name, plant):
    acc, p = var("acc"), var("p")
    body = []
    for _ in range(n):
        cond = bin_(rng.choice(("<", ">", "<=", ">=")), acc, bin_("+", p, lit(rng.randint(0, 2))))
        body.append(
            (
                "if",
                cond,
                [("assign", "acc", bin_("+", acc, lit(rng.randint(1, 2))))],
                [("assign", "acc", bin_("-", acc, p))],
            )
        )
    lo, hi = INT_RANGE
    deltas = []
    for a0 in range(lo, hi + 1):
        for p0 in range(lo, hi + 1):
            env = {"acc": a0, "p": p0}
            execute(body, env)
            deltas.append(env["acc"] - a0)
    up, down = max(deltas), min(deltas)
    if plant == "post":
        up -= rng.randint(1, 2)
    ensure = [
        ("not_too_high", bin_("<=", acc, bin_("+", old("acc"), lit(up)))),
        ("not_too_low", bin_(">=", acc, bin_("+", old("acc"), lit(down)))),
    ]
    make = Feature("make", body=[("assign", "acc", lit(0))], creator=True)
    step = Feature("step", params=[("p", "INTEGER")], body=body, ensure=ensure)
    return [ClassSpec(name, [("acc", "INTEGER")], [make, step])]


def _many_classes(rng, n, name, plant):
    planted = rng.randrange(n) if plant else -1
    classes = []
    for k in range(n):
        v, flag, amount = var("v"), var("flag"), var("amount")
        start = rng.randint(0, 3)
        floor = rng.randint(0, start)
        make = Feature(
            "make",
            body=[("assign", "v", lit(start)), ("assign", "flag", lit(bool(k % 2)))],
            ensure=[("v_set", bin_("=", v, lit(start)))],
            creator=True,
        )
        toggle = Feature(
            "toggle",
            body=[("assign", "flag", ("not", flag))],
            ensure=[("flipped", bin_("=", flag, ("not", old("flag"))))],
        )
        grown = bin_("+", old("v"), amount)
        if k == planted:
            grown = bin_("+", grown, lit(rng.randint(1, 2)))
        add = Feature(
            "add",
            params=[("amount", "INTEGER")],
            require=[("amount_not_negative", bin_(">=", amount, lit(0)))],
            body=[("assign", "v", bin_("+", v, amount))],
            ensure=[("added", bin_("=", v, grown))],
        )
        classes.append(
            ClassSpec(
                f"{name}_{k}",
                [("v", "INTEGER"), ("flag", "BOOLEAN")],
                [make, toggle, add],
                [("v_floor", bin_(">=", v, lit(floor)))],
            )
        )
    return classes


_GENERATORS = {"creator": _creator_chain, "routine": _routine_chain, "classes": _many_classes}


class Program:
    def __init__(self, name, kind, size, classes):
        self.name = name
        self.kind = kind
        self.size = size
        self.classes = classes
        self.source = "\n".join(line for c in classes for line in c.source() + [""])


def generate(seed: int, shapes=PASS_SHAPES) -> list[Program]:
    """One pass of programs; every seed gives the same shapes and the same
    number of planted failures."""
    rng = random.Random(seed)
    programs = []
    for kind, size, count, planted in shapes:
        for k in range(count):
            plant = None
            if k < planted:
                plant = rng.choice(("post", "invariant")) if kind == "creator" else "post"
            name = f"{kind.upper()}_{size}_{k}"
            programs.append(Program(name, kind, size, _GENERATORS[kind](rng, size, name, plant)))
    return programs
