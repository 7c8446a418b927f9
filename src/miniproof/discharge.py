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
prefix with each unbound symbol at its first domain value. Five rules cut
the work, and none of them can change which falsifier comes first:

1. Branch only on symbols the folded residual still mentions. Every value
   of any other symbol gives the same residual, so the first value stands
   for all of them.
2. Build a domain, once per ``Domains``, only to branch on, scan or
   filter it; pins and first values do without it.
3. Narrow by hypotheses, the conjuncts every falsifier satisfies (see
   ``_hypotheses``): one over a single live symbol keeps the values of its
   domain that make it true, in domain order. Symbols left with one value
   are bound together, and the step repeats. This is node consistency
   (Mackworth 1977), which generalises the unit propagation of DPLL.
4. Once at most three symbols are live, compile the residual into one
   generated loop nest, a loop per live symbol over its narrowed domain
   with the residual inlined in the innermost loop, that scans the leaves
   in order. The residual is written by ``formula.emit``, the emitter the
   runtime monitor compiles its checks with, and compiled by its one
   rule (``formula.compile_source``): residuals of one shape, whatever
   their literals and symbol names, share one code object, in every run.
5. Settle a goal its hypotheses already state, first at every step: when
   each conjunct of the residual's final consequent is structurally equal
   to one of its hypotheses (see ``_equal``), every assignment that
   satisfies the hypotheses satisfies the goal, so nothing is narrowed,
   branched on or compiled. This is the syntactic entailment a simplifier
   such as Frama-C's Qed (Correnson, NFM 2014) drops before a prover runs.
"""

from __future__ import annotations

import time
from itertools import product

from . import ast
from . import formula as F
from .analyzer import CheckedProgram
from .errors import InternalError
from .formula import UNSUPPORTED, VerifyOptions, decode_value, encode_value, json_string, json_text
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


class Domains(ast.Node, frozen=True):
    __slots__ = ("int_range", "string_pool", "_built")
    _fields = ("int_range", "string_pool")

    def __post_init__(self):
        lo, hi = self.int_range
        if hi - lo + 1 < 2:
            raise ValueError(f"int_range [{lo}, {hi}] must span at least two values")
        # per type, its domain values, built when first searched; per
        # hypothesis object and input values, the values it keeps (see
        # _narrow). Compiled scans hold no value and outlive a run, so
        # they are kept per process (see F.compile_source)
        object.__setattr__(self, "_built", {})


class Verdict(ast.Node, frozen=True):
    __slots__ = ("status", "counterexample", "reason")
    _defaults = {"counterexample": None, "reason": None}


def derive_domains(checked: CheckedProgram, opts: VerifyOptions) -> Domains:
    return Domains(int_range=opts.int_range, string_pool=checked.program.string_pool)


def symbol_domain(ty: ast.Type, domains: Domains) -> tuple[F.Value, ...]:
    """Every value a symbol of the given type can take, in enumeration
    order: ints ascending, false before true, strings in pool order with
    Void last, sets in characteristic-bitvector order over the pool,
    references before Void. Built on first use and shared per Domains,
    hence a tuple. One object stands for all non-Void references of a
    class, yet a field read is a symbol per access path, so paths that
    alias read independent values: a coarse model, unsound there."""
    built = domains._built.get(ty)
    if built is None:
        built = domains._built[ty] = tuple(_domain_values(ty, domains))
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
    for values in product(*(symbol_domain(ty, domains) for ty in syms.values())):
        yield dict(zip(syms, values))


def discharge(obligation: Obligation, domains: Domains) -> Verdict:
    if obligation.kind == UNSUPPORTED:
        return Verdict(ERROR, reason=UNSUPPORTED_REASON)
    if F.has_old(obligation.formula):
        return Verdict(ERROR, reason="entry snapshot left unresolved")
    return _search(obligation.formula, domains)


def _search(f: F.Formula, domains: Domains) -> Verdict:
    hit = _walk(F.fold(f), domains, {}, {})
    if hit is None:
        return Verdict(DISCHARGED)
    # the counterexample names every symbol of f, in sorted-name order
    counterexample = {
        name: hit[name] if name in hit else next(iter(_domain_values(ty, domains)))
        for name, ty in F.free_syms(f).items()
    }
    return Verdict(FAILED, counterexample=counterexample)


def _walk(g: F.Formula, domains: Domains, bound: dict, narrowed: dict) -> dict | None:
    """The first falsifying assignment below the folded residual g, merged
    into the symbols already bound, or None when g holds on its subtree.
    narrowed maps a live symbol to what the hypotheses above left of its
    domain. A module function rather than a closure: a recursive closure
    is a reference cycle, which would keep the domains alive until the
    cyclic garbage collector runs."""
    if type(g) is F.Lit and g.value == F.TRUE.value:
        return None
    if type(g) is F.Lit and g.value == F.FALSE.value:
        return dict(bound)
    live = F._leaves(g)  # folded residuals hold no old leaf (see discharge)
    if not live:
        raise InternalError(f"formula did not fold under a total assignment: {F.to_text(g)}")
    hypotheses, goal = _split(g)
    if _entailed(hypotheses, goal):
        return None
    pins = {}
    for h in hypotheses:
        syms = F._leaves(h)
        if len(syms) == 1 and next(iter(syms)) not in pins:
            ((name, ty),) = syms.items()
            values = _narrow(h, name, ty, narrowed.get(name), domains)
            if not values:
                return None
            if len(values) == 1:
                pins[name] = values[0]
            elif values is not narrowed.get(name):
                narrowed = {**narrowed, name: values}
    if pins:  # bound together, then narrowed again
        return _walk(F.specialize(g, pins), domains, {**bound, **pins}, narrowed)
    if len(live) <= COMPILE_AT:
        names = sorted(live)
        lists = [narrowed.get(n) or symbol_domain(live[n], domains) for n in names]
        hit = next(_leaves_where(g, names, lists, False), None)
        return None if hit is None else {**bound, **dict(zip(names, hit))}
    name = min(live)
    for v in narrowed.get(name) or symbol_domain(live[name], domains):
        bound[name] = v
        hit = _walk(F.specialize(g, {name: v}), domains, bound, narrowed)
        if hit is not None:
            return hit
    bound.pop(name, None)
    return None


def _split(g: F.Formula) -> tuple[list, F.Formula]:
    """The conjuncts that every falsifier of g satisfies, and what g then
    asserts of them: along an implication chain, the conjuncts of each
    antecedent and the final consequent; for ``not X``, those of X and
    false."""
    hypotheses = []
    while type(g) is F.Implies:
        hypotheses.extend(g.left.items if type(g.left) is F.And else (g.left,))
        g = g.right
    if type(g) is F.Not:
        hypotheses.extend(g.operand.items if type(g.operand) is F.And else (g.operand,))
        g = F.FALSE
    return hypotheses, g


def _entailed(hypotheses: list, goal: F.Formula) -> bool:
    """Whether every conjunct of goal is one of the hypotheses: then every
    assignment that satisfies the hypotheses satisfies the goal, and the
    residual has no falsifier."""
    return all(
        any(h is c or type(h) is type(c) and _equal(h, c) for h in hypotheses)
        for c in (goal.items if type(goal) is F.And else (goal,))
    )


def _equal(a: F.Formula, b: F.Formula) -> bool:
    """a == b for the Let-free formulas fold returns, worked through a stack
    of pairs: folding rebuilds each occurrence of a subformula it binds in,
    so a hypothesis and a goal can hold two copies of one residual as deep
    as the routine is long, too deep for the generated ``__eq__``, which
    recurses."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b):
            return False
        if t is F.Sym or t is F.Lit:
            if a != b:
                return False
            continue
        if t is F.Cmp or t is F.Arith:
            if a.op != b.op:
                return False
            pairs += ((a.left, b.left), (a.right, b.right))
            continue
        left, right = F.children(a), F.children(b)
        if len(left) != len(right):
            return False
        pairs += zip(left, right)
    return True


def _narrow(h: F.Formula, name: str, ty: ast.Type, values, domains: Domains) -> tuple:
    """The values of name, from values or else from its whole domain, that
    make h, a hypothesis over name alone, true, in domain order. ``name =
    literal`` is looked up without building the domain; any other h is
    scanned once per Domains, h object and input."""
    if isinstance(h, F.Cmp) and h.op == "=" and {type(h.left), type(h.right)} == {F.Sym, F.Lit}:
        found = _member((h.left if type(h.left) is F.Lit else h.right).value, ty, domains)
        return tuple(v for v in found if values is None or v in values)
    # keyed by identity: hashing h would walk it, recursively
    key, memo = (id(h), id(values)), domains._built
    if key not in memo:
        source = values or symbol_domain(ty, domains)
        kept = tuple(v for (v,) in _leaves_where(h, [name], [source], True))
        # h and the input stay alive with the result, so their ids are not
        # reused; an input that h leaves whole is returned as it is
        memo[key] = (h, values, values if values and len(kept) == len(values) else kept)
    return memo[key][2]


def _member(lit, ty: ast.Type, domains: Domains) -> tuple:
    """The value of ty's domain that a dict of that domain would find for
    lit, alone in a tuple, or no value; found without building the domain."""
    pool = domains.string_pool
    if ty.kind == ast.INTEGER:
        lo, hi = domains.int_range
        return (int(lit),) if isinstance(lit, int) and lo <= lit <= hi else ()
    if ty.kind == ast.BOOLEAN:
        return (bool(lit),) if lit in (False, True) else ()
    if ty.kind == ast.SET_OF_STRING:
        return (lit,) if isinstance(lit, frozenset) and lit.issubset(pool) else ()
    others = pool if ty.kind == ast.STRING else (F.Ref(ty.class_name),)
    return (lit,) if lit is None or lit in others else ()


def _leaves_where(g: F.Formula, names: list[str], value_lists: list, truth: bool):
    """Each tuple of values of the named symbols, in enumeration order,
    under which g is truth, found by g's compiled scan."""
    for values in _compile(g, names, truth)(*value_lists):
        if values is None:
            raise InternalError(f"formula did not fold under a total assignment: {F.to_text(g)}")
        yield values


# generated source nests a bracket or two per formula level and Python's
# parser rejects deeply nested source, so a subformula this deep becomes a
# piece of its own, computed into a local before the pieces that read it
_MAX_INLINE_DEPTH = 50


def _compile(g: F.Formula, names: list[str], truth: bool):
    """The scan of g over the named symbols: a generator function of one
    sequence of values per symbol, a loop nest in the order of names with g
    inlined in the innermost loop, written by ``F.emit``. It yields each
    tuple of values under which g is truth, in enumeration order, and
    None for one under which g is not a boolean. The source names
    symbols and literals by position, and the function binds the
    literals through its globals, so residuals of one shape share one
    code object (see ``F.compile_source``). A residual deeper than
    ``_MAX_INLINE_DEPTH`` is cut into pieces that the innermost loop
    works out deepest first, so a scan takes one frame however deep g
    is; a piece under a short-circuit is then worked out regardless,
    which on a well-typed formula costs time only."""
    arg = {name: f"s{i}" for i, name in enumerate(names)}
    consts: dict[str, object] = {}
    pieces = [g]  # each deeper piece is appended, and p<index> holds it

    def const(value) -> str:
        key = f"k{len(consts)}"
        consts[key] = value
        return key

    def piece(f: F.Formula) -> str:
        pieces.append(f)
        return f"p{len(pieces) - 1}"

    texts = [F.emit(f, lambda sym: arg[sym.name], const, cut=(_MAX_INLINE_DEPTH, piece)) for f in pieces]
    n, inner = len(names), " " * (len(names) + 1)
    # a piece reads only pieces found after it, so p0, g itself, comes last
    steps = "".join(f"{inner}p{i} = {texts[i]}\n" for i in reversed(range(len(texts))))
    source = (
        f"def scan({', '.join(f'l{i}' for i in range(n))}):\n"
        + "".join(f"{' ' * (i + 1)}for s{i} in l{i}:\n" for i in range(n))
        + f"{steps}{inner}if p0 is not {not truth}:\n"
        + f"{inner} yield ({''.join(f's{i}, ' for i in range(n))}) if p0 is {truth} else None"
    )
    exec(F.compile_source(source), consts)
    return consts["scan"]


def verify_program(checked: CheckedProgram, opts: VerifyOptions) -> "Report":
    started = time.perf_counter()
    obligations = generate_obligations(checked, opts)
    domains = derive_domains(checked, opts)
    pairs = [(o, discharge(o, domains)) for o in obligations]
    duration_ms = int((time.perf_counter() - started) * 1000)
    return build_report(pairs, domains, duration_ms)


# -- reporting ------------------------------------------------------------------


class ReportRow(ast.Node, frozen=True):
    __slots__ = ("id", "kind", "class_name", "feature_name", "provenance", "verdict")


class Report(ast.Node, frozen=True):
    __slots__ = ("rows", "counts", "percentages", "domains", "duration_ms")

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
            # the model has one object per class (symbol_domain)
            "max_refs": 1,
        },
        "duration_ms": report.duration_ms,
    }


def render_json(report: Report) -> str:
    """``json.dumps(report_payload(report), indent=2)``, written by
    ``json_text`` but for the rows, which are many and all of one layout,
    so one template writes each."""
    payload = report_payload(report)
    rows = ",\n".join(
        "    {\n"
        f'      "id": {json_string(row["id"])},\n'
        f'      "kind": {json_string(row["kind"])},\n'
        f'      "class": {json_string(row["class"])},\n'
        f'      "feature": {json_string(row["feature"])},\n'
        f'      "provenance": {json_string(row["provenance"])},\n'
        f'      "verdict": {json_string(row["verdict"])},\n'
        f'      "counterexample": {json_text(row["counterexample"], "      ")},\n'
        f'      "reason": {json_text(row["reason"], "      ")}\n'
        "    }"
        for row in payload["rows"]
    )
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return (
        f'{{\n  "summary": {json_text(payload["summary"], "  ")},\n  "rows": {rows},\n'
        f'  "domains": {json_text(payload["domains"], "  ")},\n'
        f'  "duration_ms": {json_text(payload["duration_ms"])}\n}}'
    )
