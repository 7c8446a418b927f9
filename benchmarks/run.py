"""miniproof benchmark.

One run:
    python3 benchmarks/run.py --workload corpus_verify --seed 1 --seconds 15 --trace 0

prints a human-readable summary, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, measured from spans around calls into each layer, plus the tracing
overhead.

Other modes:
    --workload all       run every workload once (one child process each)
    --repeat K           run one workload K times with seeds seed..seed+K-1
                         and print each metric's median and quartiles

Run it from the root of a checkout: it imports miniproof from ./src.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SETUP_REPEATS = 9
MIN_SAMPLES = 100  # a run keeps going until op_p90_ms has ten samples beyond it

UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "formula.free_syms": "count",
    "formula.log2_space": "log2",
    "vcgen.obligations": "count",
    "vcgen.formula_nodes": "count",
    "lexer.tokens": "count",
    "render.bytes": "bytes",
    "runtime.commands": "count",
    "runtime.replays": "count",
    "trace.overhead_pct": "%",
}

CLI_KINDS = ("verify", "run", "replay")


def unit_of(name: str) -> str:
    return UNITS.get(name, "ms")


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    try:
        return _measure(name, workload, seed, seconds, trace)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


def _measure(name, workload, seed, seconds, trace) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, then run whole passes until the clock
    says stop; a traced run alternates untraced and traced passes. Times
    are wall times scaled to reference speed by the probes taken around and
    inside each setup and pass (harness.Speed); spans stay in wall time."""
    tracer = harness.Tracer() if trace else None
    speed = harness.speed = harness.Speed()
    setup_s, setup_phases, setup_walls = [], [], []
    for _ in range(SETUP_REPEATS):
        harness.quiet_heap()
        mark = tracer.mark() if tracer else None
        speed.tick(force=True)
        t0 = time.perf_counter()
        mp = harness.import_fresh(getattr(workload, "modules", ("miniproof",)))
        if tracer:
            tracer.uninstall()
            tracer.install(harness.layer_targets(mp, tracer))
        state = workload.setup(mp)
        t1 = time.perf_counter()
        speed.tick(force=True)
        setup_s.append(speed.scaled(t0, t1))
        setup_walls.append(t1 - t0)
        if tracer:
            setup_phases.append(harness.Phase(tracer, mark))
            tracer.uninstall()

    clock = harness.Clock(seconds, max(workload.min_passes, 2 if trace else 1), MIN_SAMPLES)
    walls = {False: [], True: []}  # reference seconds
    raw_walls = []
    pass_phases = []
    samples: list[float] = []
    by_kind: dict[str, list[float]] = {}
    attempted = failed = wrong = 0
    problems: list[str] = []
    passes = 0
    while clock.more(passes, len(samples)):
        traced = trace and passes % 2 == 1
        if traced:
            tracer.install(harness.layer_targets(mp, tracer))
            speed.tracer = tracer
        harness.quiet_heap()
        mark = tracer.mark() if traced else None
        speed.tick(force=True)
        t0 = time.perf_counter()
        ops = workload.run_pass(state)
        t1 = time.perf_counter()
        speed.tick(force=True)
        walls[traced].append(speed.scaled(t0, t1))
        if not traced:
            raw_walls.append(t1 - t0)
        if traced:
            in_process = getattr(workload, "in_process", None)
            if in_process is not None:
                mark = tracer.mark()
                in_process(state)
            pass_phases.append(harness.Phase(tracer, mark))
            tracer.uninstall()
            speed.tracer = None
        workload.check(state, ops)
        for op in ops:
            op.seconds = speed.scaled(op.t0, op.t1)
            attempted += 1
            samples.append(op.seconds)
            by_kind.setdefault(op.name, []).append(op.seconds)
            if op.problem is not None:
                failed += 1
                wrong += not op.problem.startswith(("raised ", "timed out"))
                if len(problems) < 20:
                    problems.append(f"{op.name}: {op.problem}")
        passes += 1

    cli = name == "cli_commands"
    if trace:
        metrics = harness.layer_metrics(setup_phases, pass_phases)
        for kind in CLI_KINDS:
            metrics[f"cli.{kind}_ms"] = harness.median(by_kind.get(kind, [])) * 1000.0 if cli else 0.0
        metrics["cli.startup_ms"] = harness.cli_startup_ms()
        metrics["trace.overhead_pct"] = (harness.median(walls[True]) / harness.median(walls[False]) - 1.0) * 100.0
    else:
        ms = [s * 1000.0 for s in samples]
        metrics = {
            "setup_s": harness.median(setup_s),
            "pass_s": harness.median(walls[False]),
            "op_p50_ms": harness.percentile(ms, 50),
            "op_p90_ms": harness.percentile(ms, 90),
            "peak_rss_mb": harness.peak_rss_mb(children=cli),
        }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "pass_s": walls[False],
        "traced_pass_s": walls[True],
        "setup_s": setup_s,
        "pass_walls_s": raw_walls,
        "setup_walls_s": setup_walls,
        "probe_ms": _quartiles(speed.raw_probe_ms()),
        "problems": problems,
        "result": result,
    }
    harness.OUT.mkdir(parents=True, exist_ok=True)
    stem = harness.OUT / f"{name}-seed{seed}-trace{int(trace)}"
    Path(f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if tracer:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    return result, detail


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else list(xs) * 3


def print_result(name: str, result: dict, detail: dict | None = None) -> None:
    print(f"workload {name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    if detail is not None:
        walls = detail["pass_walls_s"]
        q1, q2, q3 = detail["probe_ms"]
        print(f"  passes {detail['passes']}; untraced pass wall median {harness.median(walls):.4f} s")
        print(f"  probe {q2:.4f} ms [{q1:.4f}, {q3:.4f}] at reference {harness.PROBE_REF_S * 1000:g} ms")
        for p in detail["problems"]:
            print(f"  problem: {p}")
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:14.4f} {m['unit']}")


def child_run(args, workload: str, seed: int) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(args) -> dict:
    runs = [child_run(args, args.workload, args.seed + i) for i in range(args.repeat)]
    summary = {}
    print(f"workload {args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"  {key:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"  failed share per run: {shares}; correct in every run: {all(r['correct'] for r in runs)}")
    return {"workload": args.workload, "runs": args.repeat, "failed_shares": shares, "metrics": summary}


def main(argv=None) -> int:
    names = ("corpus_verify", "vc_scaling", "monitor_replay", "cli_commands")
    parser = argparse.ArgumentParser(description="miniproof benchmark")
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    harness.require_source()
    if args.repeat:
        if args.workload == "all" or args.repeat < 2:
            parser.error("--repeat takes one workload and K >= 2")
        print(json.dumps(repeat(args)))
        return 0
    if args.workload == "all":
        results = {}
        for name in names:
            results[name] = child_run(args, name, args.seed)
            print_result(name, results[name])
        print(json.dumps(results))
        return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1
    harness.pin_to_one_cpu()
    result, detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
