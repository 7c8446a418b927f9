"""Timing, tracing and result plumbing shared by the workloads.

The benchmark measures miniproof from outside: it imports the package from
the checkout's `src/`, calls its public functions, and, in a traced run,
wraps those functions so that every call leaves a span (name, start, end,
parent). A layer's self time is its spans' duration minus the time their
child spans cover.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def require_source() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (SRC / "miniproof" / "__init__.py").is_file():
        print(f"benchmark: no miniproof package under {SRC}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the default one-process discharge path is what users get
    os.environ.pop("MINIPROOF_WORKERS", None)


def import_fresh(modules=("miniproof",)):
    """Import miniproof as a new process would, so setup time includes it."""
    for name in [n for n in sys.modules if n == "miniproof" or n.startswith("miniproof.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for name in modules:
        importlib.import_module(name)
    return sys.modules["miniproof"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MINIPROOF_WORKERS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def percentile(samples: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quiet_heap() -> None:
    """Start each timed pass from a collected heap so passes compare."""
    gc.collect()


# -- machine speed -----------------------------------------------------------------
#
# The speed of a shared virtual CPU can change by a factor of two for seconds
# at a time (a fixed pure-Python loop runs in 7-8 ms or in 16-18 ms), so a
# wall time alone says as much about the host as about the program. A short
# fixed probe runs between operations every PROBE_EVERY_S; a timed interval
# is reported in reference seconds: each stretch between two probes is
# scaled by PROBE_REF_S over the probes' mean duration, and the probes'
# own time is left out.

PROBE_EVERY_S = 0.02
PROBE_REF_S = 0.001  # the probe's duration at reference speed, by definition
PROBE_LOOPS = 30
PROBE_FUNCTIONS = 300

# The probe calls 300 distinct small functions rather than one hot loop.
# Over four minutes of alternating probes and program work (replays,
# discharge, scenarios, vcgen), the ratio of program time to probe time
# stayed within +-4% of flat across a 2x range of machine speed with this
# probe, where a single recursive evaluator left the program 8-18% slower
# per doubling: on this host, how much a slow stretch hurts depends on the
# code's footprint, and the program's footprint is large.
_PROBE_SOURCE = "".join(
    f"def f{i}(a, b):\n"
    f"    c = (a {'+-*^&|'[i % 6]} b) & 1023\n"
    f"    if c > {i % 97}:\n"
    f"        return c - {i % 13}\n"
    f"    return c + {i % 7}\n"
    for i in range(PROBE_FUNCTIONS)
)
_probe_namespace: dict = {}
exec(compile(_PROBE_SOURCE, "<probe>", "exec"), _probe_namespace)
_PROBE_CALLS = tuple(_probe_namespace[f"f{i}"] for i in range(PROBE_FUNCTIONS))


def probe() -> int:
    """Fixed interpreter work with a code footprint like the program's."""
    s = 1
    for _ in range(PROBE_LOOPS):
        for f in _PROBE_CALLS:
            s = f(s, 37)
    return s


class Speed:
    """Probes taken during a run, and the reference-speed length of any
    interval between them."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.due = 0.0
        self.tracer = None  # set during a traced pass: probes get a span of their own

    def tick(self, force: bool = False) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe (or now,
        with force). Call it only between operations."""
        start = time.perf_counter()
        if force or start >= self.due:
            span = self.tracer.begin("probe") if self.tracer else None
            probe()
            if span is not None:
                self.tracer.end(span)
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.due = end + PROBE_EVERY_S

    def _rate(self, i: int) -> float:
        """Reference seconds per wall second in the gap after probe i."""
        last = len(self.starts) - 1
        a, b = min(max(i, 0), last), min(max(i + 1, 0), last)
        da, db = self.ends[a] - self.starts[a], self.ends[b] - self.starts[b]
        return PROBE_REF_S * 2.0 / (da + db)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], probes excluded."""
        if not self.starts:
            return t1 - t0
        i = bisect.bisect_right(self.ends, t0) - 1  # last probe ended by t0
        total = 0.0
        a = t0
        while a < t1:
            nxt = i + 1
            gap_end = self.starts[nxt] if nxt < len(self.starts) else math.inf
            b = min(t1, gap_end)
            if b > a:
                total += (b - a) * self._rate(i)
            if nxt >= len(self.starts):
                break
            a = max(a, self.ends[nxt])
            i = nxt
        return total

    def raw_probe_ms(self) -> list[float]:
        return [(e - s) * 1000.0 for s, e in zip(self.starts, self.ends)]


speed = Speed()


def tick() -> None:
    speed.tick()


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now: the
    virtual CPUs change speed independently, so a probe tracks only work
    done on its own CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            current = int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        current = allowed[0]
    os.sched_setaffinity(0, {current if current in allowed else allowed[0]})


class Clock:
    """Wall time of a run: keeps going in whole passes until the run has
    measured `seconds` and holds enough passes and samples."""

    def __init__(self, seconds: float, min_passes: int, min_samples: int):
        self.seconds = seconds
        self.min_passes = min_passes
        self.min_samples = min_samples
        self.start = time.perf_counter()

    def more(self, passes: int, samples: int) -> bool:
        if passes < self.min_passes or samples < self.min_samples:
            return True
        return time.perf_counter() - self.start < self.seconds


# -- tracing ---------------------------------------------------------------------


class Tracer:
    """Spans kept in memory; written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    def install(self, targets: list[tuple[object, str, str, object]]) -> None:
        """targets: (module, attribute, span name, on_result). Every
        miniproof module that holds the same function object gets the
        wrapper, so calls inside the program are seen too."""
        modules = [m for n, m in sys.modules.items() if n == "miniproof" or n.startswith("miniproof.")]
        for module, attr, name, on_result in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, on_result)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    self.patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self.patched):
            setattr(m, attr, original)
        self.patched.clear()

    def mark(self) -> tuple[int, dict]:
        return len(self.spans), dict(self.counts)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds of self time per span name over spans[since:]."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for s in spans:
            parent = s[3] - since
            if parent >= 0:
                child_time[parent] += s[2] - s[1]
        out: dict[str, float] = {}
        for s, covered in zip(spans, child_time):
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - covered
        return out

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name]

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


class Phase:
    """Per-layer totals of one setup or one pass, from a tracer mark."""

    def __init__(self, tracer: Tracer, start: tuple[int, dict]):
        index, counts = start
        self.self_s = tracer.self_times(index)
        self.counts = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
        self.discharge_s = tracer.durations("discharge", index)


def layer_metrics(setups: list[Phase], passes: list[Phase]) -> dict[str, float]:
    """Each layer's time and counts in one setup plus one pass (medians
    over the run's traced setups and passes)."""

    def per(phases, key, pick):
        return median([pick(p).get(key, 0.0) for p in phases])

    def both(key, pick, scale=1.0):
        return (per(setups, key, pick) + per(passes, key, pick)) * scale

    self_of = lambda p: p.self_s
    counts_of = lambda p: p.counts
    out = {}
    for layer in ("discharge", "vcgen", "lexer", "parser", "analyzer", "render"):
        out[f"{layer}.ms"] = both(layer, self_of, 1000.0)
    out["corpus.load_ms"] = both("corpus", self_of, 1000.0)
    out["runtime.scenario_ms"] = both("runtime.scenario", self_of, 1000.0)
    out["runtime.replay_ms"] = both("runtime.replay", self_of, 1000.0)
    out["runtime.trace_render_ms"] = both("runtime.trace_render", self_of, 1000.0)
    for key in (
        "vcgen.obligations",
        "vcgen.formula_nodes",
        "formula.free_syms",
        "lexer.tokens",
        "render.bytes",
        "runtime.commands",
        "runtime.replays",
    ):
        out[key] = both(key, counts_of)
    space = both("formula.space", counts_of)
    out["formula.log2_space"] = math.log2(space) if space > 0 else 0.0
    samples = [d * 1000.0 for p in passes for d in p.discharge_s]
    out["discharge.obligation_p50_ms"] = percentile(samples, 50) if samples else 0.0
    out["discharge.obligation_p90_ms"] = percentile(samples, 90) if samples else 0.0
    out["discharge.obligation_max_ms"] = max(samples) if samples else 0.0
    return out


def layer_targets(mp, tracer: Tracer) -> list[tuple[object, str, str, object]]:
    """The public functions of each layer, wrapped in a traced run."""
    F = mp.formula

    def on_tokens(tokens, *args):
        tracer.count("lexer.tokens", len(tokens))

    def on_obligations(obligations, checked, opts, *rest):
        domains = mp.discharge.derive_domains(checked, opts)
        seen: set[int] = set()
        stack = [o.formula for o in obligations]
        while stack:
            f = stack.pop()
            if id(f) not in seen:
                seen.add(id(f))
                stack.extend(F.children(f))
        tracer.count("vcgen.obligations", len(obligations))
        tracer.count("vcgen.formula_nodes", len(seen))
        for o in obligations:
            syms = _syms(F, o.formula)
            tracer.count("formula.free_syms", len(syms))
            tracer.count("formula.space", math.prod(_domain_size(ty, domains) for ty in syms.values()))

    def on_render(text, *args):
        tracer.count("render.bytes", len(text.encode("utf-8")))

    def on_trace(trace, *args):
        tracer.count("runtime.commands", len(trace.steps))

    def on_replay(result, *args):
        tracer.count("runtime.replays", 1)

    return [
        (mp.lexer, "tokenize", "lexer", on_tokens),
        (mp.parser, "parse", "parser", None),
        (mp.analyzer, "analyze", "analyzer", None),
        (mp.vcgen, "generate_obligations", "vcgen", on_obligations),
        (mp.discharge, "discharge", "discharge", None),
        (mp.discharge, "render_json", "render", on_render),
        (mp.discharge, "render_text", "render", on_render),
        (mp.runtime, "run_scenario", "runtime.scenario", on_trace),
        (mp.runtime, "replay_counterexample", "runtime.replay", on_replay),
        (mp.runtime, "trace_json", "runtime.trace_render", None),
        (mp.runtime, "trace_text", "runtime.trace_render", None),
        (mp.corpus, "load_builtin", "corpus", None),
    ]


def _syms(F, formula) -> dict:
    """Symbols of a formula by name, visiting each shared node once."""
    found = {}
    seen: set[int] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        if isinstance(f, F.Sym):
            found[f.name] = f.ty
        stack.extend(F.children(f))
    return found


def _domain_size(ty, domains) -> int:
    kind = ty.kind
    if kind == "INTEGER":
        lo, hi = domains.int_range
        return hi - lo + 1
    if kind == "STRING":
        return len(domains.string_pool) + 1
    if kind == "SET_OF_STRING":
        return 2 ** len(domains.string_pool)
    return 2  # BOOLEAN, and a reference is its class's object or Void


def cli_startup_ms(repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing miniproof.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import miniproof.cli"],
            env=child_env(),
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)
