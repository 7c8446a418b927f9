"""Tests of the benchmark itself: its generators, its oracles, and that a
wrong answer from the program is counted as a failed operation.

    PYTHONPATH=src python -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import models  # noqa: E402
import programs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import miniproof as mp  # noqa: E402

SMALL = (("creator", 3, 4, 2), ("routine", 1, 4, 2), ("classes", 3, 4, 2))


def _report(source):
    checked = mp.analyze(mp.parse(source))
    return json.loads(mp.render_json(mp.verify_program(checked, mp.VerifyOptions())))


def test_generator_is_deterministic_per_seed():
    first = [p.source for p in programs.generate(5)]
    assert first == [p.source for p in programs.generate(5)]
    assert first != [p.source for p in programs.generate(6)]
    assert [p.kind for p in programs.generate(5)] == [p.kind for p in programs.generate(6)]


def test_generated_oracle_matches_verify_program():
    failed = 0
    for seed in (1, 2):
        for p in programs.generate(seed, SMALL):
            expected = programs.expected_rows(p.classes)
            assert workloads.check_generated_report(_report(p.source), expected) is None, p.source
            failed += sum(v == "Failed" for v, _ in expected.values())
    assert failed >= 6  # the planted failures are there


def test_tampered_generated_verdict_or_counterexample_is_caught():
    (p,) = programs.generate(3, [("routine", 1, 1, 1)])
    expected = programs.expected_rows(p.classes)
    payload = _report(p.source)
    failed = next(r for r in payload["rows"] if r["verdict"] == "Failed")
    tampered = json.loads(json.dumps(payload))
    row = next(r for r in tampered["rows"] if r["id"] == failed["id"])
    row["counterexample"] = {k: v + 1 for k, v in row["counterexample"].items()}
    assert workloads.check_generated_report(tampered, expected) is not None
    row["verdict"], row["counterexample"] = "Discharged", None
    assert workloads.check_generated_report(tampered, expected) is not None


def test_corpus_check_accepts_the_program_and_catches_tampering():
    entry = mp.load_builtin("account_noguard_mutant")
    checked = mp.analyze(mp.parse(entry.source))
    payload = json.loads(mp.render_json(mp.verify_program(checked, entry.options)))
    rng = random.Random(0)
    assert workloads.check_corpus_report(mp, entry, checked, payload, rng, 8) == {}
    bad_id = "ACCOUNT.deposit.invariant_maintenance.0"
    row = next(r for r in payload["rows"] if r["id"] == bad_id)
    row["counterexample"] = {"amount": -7, "balance": 0}
    problems = workloads.check_corpus_report(mp, entry, checked, payload, rng, 8)
    assert bad_id in problems


def test_scenario_models_agree_with_the_monitor():
    rng = random.Random(4)
    scenarios = [
        models.account_scenario(rng, "account", 150),
        models.account_scenario(rng, "account_overflow_mutant", 150),
        models.tokeneer_scenario(rng, 120),
    ]
    for s in scenarios:
        entry = mp.load_builtin(s.program)
        checked = mp.analyze(mp.parse(entry.source))
        trace = mp.run_scenario(checked, mp.parse_scenario(s.text), entry.options)
        payload = json.loads(mp.trace_json(trace))
        assert workloads.check_trace(payload, s) is None
        s.outcomes[-1] = "violation precondition not_a_clause"
        assert workloads.check_trace(payload, s) is not None


def test_falsifier_sets_start_at_the_pinned_counterexample():
    sets = models.falsifiers()
    assert len(sets[("account_noguard_mutant", "ACCOUNT.deposit.invariant_maintenance.0")]) == 36
    assert sum(len(v) for (p, _), v in sets.items() if p == "account_overflow_mutant") == 36736
    for (program, oid), assignments in sets.items():
        pinned = mp.load_builtin(program).expected_rows[oid]["counterexample"]
        assert assignments[0] == pinned


def test_speed_scales_each_stretch_by_its_probes_and_leaves_probes_out():
    speed = harness.Speed()
    speed.starts, speed.ends = [0.0, 1.0], [0.001, 1.002]  # probes of 1 ms and 2 ms
    between = harness.PROBE_REF_S * 2 / 0.003
    assert abs(speed.scaled(0.001, 1.0) - 0.999 * between) < 1e-12
    after = harness.PROBE_REF_S / 0.002  # past the last probe, its rate holds
    assert abs(speed.scaled(0.5, 1.5) - (0.5 * between + 0.498 * after)) < 1e-12
    before = harness.PROBE_REF_S / 0.001
    assert abs(speed.scaled(-1.0, 0.0) - before) < 1e-12
    assert harness.Speed().scaled(2.0, 2.5) == 0.5  # no probes: wall time


def test_a_wrong_answer_counts_as_a_failed_operation():
    workload = workloads.VcScaling(1)
    workload.programs = programs.generate(1, SMALL)
    workload.expected = [programs.expected_rows(p.classes) for p in workload.programs]
    oid, (verdict, cex) = next(iter(workload.expected[0].items()))
    workload.expected[0][oid] = ("Failed" if verdict == "Discharged" else "Discharged", cex)
    result, detail = run._measure("vc_scaling", workload, 1, 0, False)
    passes = detail["passes"]
    assert result["attempted"] == passes * len(workload.programs)
    assert result["failed"] == passes
    assert result["correct"] is False
