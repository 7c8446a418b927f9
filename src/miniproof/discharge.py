"""Bounded exhaustive discharge of obligations.

An obligation is Discharged when its formula holds under every total
assignment of domain values to its free symbols, Failed with the
lexicographically first falsifying assignment otherwise (symbols in
sorted-name order, values in domain order), and Error when it cannot be
evaluated at all: an Unsupported construct or an unresolved ``old``.
Any other exception is a bug in miniproof and propagates.

The search binds one symbol at a time and constant-folds the residual. A
residual that folds to true holds on its whole subtree; one that folds to
false makes every leaf below it a falsifier, so the first is the current
prefix with each unbound symbol at its first domain value. Four rules cut
the work, and none of them can change which falsifier comes first:

1. Branch only on symbols the folded residual still mentions. Every value
   of any other symbol gives the same residual, so the first value stands
   for all of them.
2. Build each symbol domain once per ``Domains``.
3. Pin: when the residual is ``A implies B`` and a conjunct of ``A`` is
   ``s = literal`` for the next symbol ``s``, only that literal can falsify
   it; every other value makes ``A`` false and the implication true.
4. Once at most three symbols are live, compile the residual to a Python
   function and scan its leaves in order instead of re-folding.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product

from . import ast
from . import formula as F
from .analyzer import CheckedProgram
from .errors import InternalError
from .formula import UNSUPPORTED, VerifyOptions, decode_value, encode_value
from .vcgen import Obligation, UNSUPPORTED_REASON, generate_obligations

# the value encoding lives with the values in formula; reports are written
# here, so it is re-exported for their readers
__all__ = [
    "DISCHARGED",
    "FAILED",
    "ERROR",
    "COMPILE_AT",
    "Domains",
    "Verdict",
    "derive_domains",
    "symbol_domain",
    "enumerate_environments",
    "discharge",
    "verify_program",
    "ReportRow",
    "Report",
    "build_report",
    "summary_line",
    "render_text",
    "report_payload",
    "render_json",
    "encode_value",
    "decode_value",
]

DISCHARGED = "Discharged"
FAILED = "Failed"
ERROR = "Error"

# a residual with this many live symbols or fewer is compiled and scanned
COMPILE_AT = 3


@dataclass(frozen=True)
class Domains:
    int_range: tuple[int, int]
    string_pool: tuple[str, ...]
    max_refs: int = 1
    # per type: the domain values and a map from each value to itself
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.int_range
        if hi - lo + 1 < 2:
            raise ValueError(f"int_range [{lo}, {hi}] must span at least two values")


@dataclass(frozen=True)
class Verdict:
    status: str
    counterexample: dict | None = None
    reason: str | None = None

    @property
    def discharged(self) -> bool:
        return self.status == DISCHARGED


def derive_domains(checked: CheckedProgram, opts: VerifyOptions) -> Domains:
    return Domains(int_range=opts.int_range, string_pool=checked.program.string_pool)


def symbol_domain(ty: ast.Type, domains: Domains) -> tuple[F.Value, ...]:
    """Every value a symbol of the given type can take, in enumeration
    order: ints ascending, false before true, strings in pool order with
    Void last, sets in characteristic-bitvector order over the pool,
    references before Void. One representative object stands for all
    non-Void references of a class, a deliberately coarse heap model
    that ignores aliasing between distinct objects. Built once per
    Domains and shared, hence a tuple."""
    return _domain(ty, domains)[0]


def _domain(ty: ast.Type, domains: Domains) -> tuple[tuple, dict]:
    built = domains._built.get(ty)
    if built is None:
        values = tuple(_domain_values(ty, domains))
        built = domains._built[ty] = (values, {v: v for v in values})
    return built


def _domain_values(ty: ast.Type, domains: Domains):
    if ty.kind == ast.INTEGER:
        lo, hi = domains.int_range
        return range(lo, hi + 1)
    if ty.kind == ast.BOOLEAN:
        return (False, True)
    if ty.kind == ast.STRING:
        return (*domains.string_pool, None)
    if ty.kind == ast.SET_OF_STRING:
        pool = domains.string_pool
        return (
            frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
            for mask in range(1 << len(pool))
        )
    if ty.kind == ast.REF:
        return (F.Ref(ty.class_name), None)
    raise ValueError(f"no enumerable domain for type {ty}")


def enumerate_environments(obligation: Obligation, domains: Domains):
    """Every total assignment over the obligation's free symbols, in
    lexicographic order; assignments violating the hypotheses are
    included (the hypotheses live inside the formula)."""
    syms = F.free_syms(obligation.formula)
    names = list(syms)
    value_lists = [symbol_domain(syms[n], domains) for n in names]

    def rec(i: int, env: dict):
        if i == len(names):
            yield dict(env)
            return
        for v in value_lists[i]:
            env[names[i]] = v
            yield from rec(i + 1, env)
        del env[names[i]]

    yield from rec(0, {})


def discharge(obligation: Obligation, domains: Domains) -> Verdict:
    if obligation.kind == UNSUPPORTED:
        return Verdict(ERROR, reason=obligation.unsupported_reason or UNSUPPORTED_REASON)
    if F.old_syms(obligation.formula):
        return Verdict(ERROR, reason="entry snapshot left unresolved")
    return _search(obligation.formula, domains)


def _search(f: F.Formula, domains: Domains) -> Verdict:
    syms = F.free_syms(f)
    hit = _walk(F.fold(f), domains, {})
    if hit is None:
        return Verdict(DISCHARGED)
    counterexample = {
        name: hit[name] if name in hit else symbol_domain(ty, domains)[0]
        for name, ty in syms.items()
    }
    return Verdict(FAILED, counterexample=counterexample)


def _walk(g: F.Formula, domains: Domains, bound: dict[str, F.Value]) -> dict | None:
    """The first falsifying assignment below the folded residual g, merged
    into the symbols already bound, or None when g holds on its subtree.
    A module function rather than a closure: a recursive closure is a
    reference cycle, which would keep the domains alive until the cyclic
    garbage collector runs."""
    if g == F.TRUE:
        return None
    if g == F.FALSE:
        return dict(bound)
    live = F.free_syms(g)
    if not live:
        raise InternalError(f"formula did not fold under a total assignment: {F.to_text(g)}")
    name = next(iter(live))
    values, index = _domain(live[name], domains)
    pin = _pinned_literal(g, name)
    if pin is not _UNPINNED:
        values = (index[pin],) if pin in index else ()
    elif len(live) <= COMPILE_AT:
        return _scan(g, live, domains, bound)
    for v in values:
        bound[name] = v
        hit = _walk(F.specialize(g, {name: v}), domains, bound)
        if hit is not None:
            return hit
    bound.pop(name, None)
    return None


_UNPINNED = object()


def _pinned_literal(g: F.Formula, name: str):
    """The literal c of a conjunct ``name = c`` in the antecedent of an
    implication, or _UNPINNED."""
    if not isinstance(g, F.Implies):
        return _UNPINNED
    conjuncts = g.left.items if isinstance(g.left, F.And) else (g.left,)
    for c in conjuncts:
        if isinstance(c, F.Cmp) and c.op == "=":
            for s, lit in ((c.left, c.right), (c.right, c.left)):
                if isinstance(s, F.Sym) and s.name == name and isinstance(lit, F.Lit):
                    return lit.value
    return _UNPINNED


def _scan(g: F.Formula, live: dict, domains: Domains, bound: dict) -> dict | None:
    """The first falsifying leaf of g over its live symbols, scanned in
    enumeration order through a compiled g, merged into bound."""
    names = list(live)
    test = _compile(g, names)
    for values in product(*(symbol_domain(ty, domains) for ty in live.values())):
        result = test(*values)
        if result is True:
            continue
        if result is not False:
            raise InternalError(f"formula did not fold under a total assignment: {F.to_text(g)}")
        return {**bound, **dict(zip(names, values))}
    return None


_PY_OPS = {"=": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*"}

# generated source nests a bracket or two per formula level and Python's
# parser rejects deeply nested source, so deeper subformulas become
# functions of their own
_MAX_INLINE_DEPTH = 50


def _compile(g: F.Formula, names: list[str]):
    """g as a Python function of the named symbols with F.fold's meaning
    on well-typed formulas: connectives over booleans, has false on Void."""
    params = ", ".join(f"s{i}" for i in range(len(names)))
    arg = {name: f"s{i}" for i, name in enumerate(names)}
    consts: dict[str, object] = {}

    def const(value) -> str:
        key = f"k{len(consts)}"
        consts[key] = value
        return key

    def src(f: F.Formula, depth: int) -> str:
        if depth == _MAX_INLINE_DEPTH:
            return f"{const(_compile(f, names))}({params})"
        depth += 1
        if isinstance(f, F.Sym):
            return arg[f.name]
        if isinstance(f, F.Lit):
            return const(f.value)
        if isinstance(f, F.Not):
            return f"(not {src(f.operand, depth)})"
        if isinstance(f, (F.And, F.Or)):
            joiner = " and " if isinstance(f, F.And) else " or "
            return "(" + joiner.join(src(c, depth) for c in f.items) + ")"
        if isinstance(f, F.Implies):
            return f"(not {src(f.left, depth)} or {src(f.right, depth)})"
        if isinstance(f, (F.Cmp, F.Arith)):
            return f"({src(f.left, depth)} {_PY_OPS[f.op]} {src(f.right, depth)})"
        if isinstance(f, F.HasF):
            item = src(f.item, depth)
            return f"({item} is not None and {item} in {src(f.set_expr, depth)})"
        raise TypeError(f"unexpected formula node {f!r}")

    return eval(f"lambda {params}: {src(g, 0)}", consts)


def verify_program(checked: CheckedProgram, opts: VerifyOptions) -> "Report":
    started = time.perf_counter()
    obligations = generate_obligations(checked, opts)
    domains = derive_domains(checked, opts)
    pairs = [(o, discharge(o, domains)) for o in obligations]
    duration_ms = int((time.perf_counter() - started) * 1000)
    return build_report(pairs, domains, duration_ms)


# -- reporting ------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    id: str
    kind: str
    class_name: str
    feature_name: str
    provenance: str
    verdict: Verdict


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    counts: dict[str, int]
    percentages: dict[str, int]
    domains: Domains
    duration_ms: int

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def exit_status(self) -> int:
        if self.counts[ERROR]:
            return 2
        if self.counts[FAILED]:
            return 1
        return 0


def _percent(count: int, total: int) -> int:
    if total == 0:
        return 0
    # integer rounding, halves away from zero
    return (200 * count + total) // (2 * total)


def _row_key(row: ReportRow) -> tuple:
    head, _, index = row.id.rpartition(".")
    return (head, int(index)) if index.isdigit() else (row.id, 0)


def build_report(
    pairs: list[tuple[Obligation, Verdict]], domains: Domains, duration_ms: int = 0
) -> Report:
    rows = sorted(
        (
            ReportRow(o.id, o.kind, o.class_name, o.feature_name, o.provenance, v)
            for o, v in pairs
        ),
        key=_row_key,
    )
    counts = {DISCHARGED: 0, FAILED: 0, ERROR: 0}
    for row in rows:
        counts[row.verdict.status] += 1
    total = len(rows)
    percentages = {status: _percent(counts[status], total) for status in counts}
    return Report(tuple(rows), counts, percentages, domains, duration_ms)


def summary_line(report: Report) -> str:
    c, p = report.counts, report.percentages
    return (
        f"{report.total} obligations: "
        f"{c[DISCHARGED]} discharged ({p[DISCHARGED]}%), "
        f"{c[FAILED]} failed ({p[FAILED]}%), "
        f"{c[ERROR]} errors ({p[ERROR]}%)"
    )


def _counterexample_text(env: dict) -> str:
    return ", ".join(f"{name} = {F.value_text(env[name])}" for name in sorted(env))


def render_text(report: Report) -> str:
    lines = []
    if report.rows:
        id_width = max(len(r.id) for r in report.rows)
        kind_width = max(len(r.kind) for r in report.rows)
        for r in report.rows:
            line = f"{r.id:<{id_width}}  {r.kind:<{kind_width}}  {r.verdict.status}"
            if r.verdict.status == FAILED:
                line += f"  {_counterexample_text(r.verdict.counterexample)}"
            elif r.verdict.status == ERROR:
                line += f"  {r.verdict.reason}"
            lines.append(line)
        lines.append("")
    lines.append(summary_line(report))
    return "\n".join(lines)


def report_payload(report: Report) -> dict:
    rows = []
    for r in report.rows:
        v = r.verdict
        rows.append(
            {
                "id": r.id,
                "kind": r.kind,
                "class": r.class_name,
                "feature": r.feature_name,
                "provenance": r.provenance,
                "verdict": v.status,
                "counterexample": (
                    {name: encode_value(v.counterexample[name]) for name in sorted(v.counterexample)}
                    if v.counterexample is not None
                    else None
                ),
                "reason": v.reason,
            }
        )
    c, p = report.counts, report.percentages
    return {
        "summary": {
            "total": report.total,
            "discharged": c[DISCHARGED],
            "failed": c[FAILED],
            "error": c[ERROR],
            "percentages": {
                "discharged": p[DISCHARGED],
                "failed": p[FAILED],
                "error": p[ERROR],
            },
        },
        "rows": rows,
        "domains": {
            "int_range": list(report.domains.int_range),
            "string_pool": list(report.domains.string_pool),
            "max_refs": report.domains.max_refs,
        },
        "duration_ms": report.duration_ms,
    }


def render_json(report: Report) -> str:
    return json.dumps(report_payload(report), indent=2)
