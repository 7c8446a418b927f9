"""Shared fixtures: parsed corpus entries, cached verification reports,
the benchmark's generator of vc_scaling programs and its workloads.

Reports at an entry's pinned options are computed once per session and
shared.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from miniproof import analyze, parse
from miniproof.corpus import load_builtin, names
from miniproof.discharge import Report, verify_program


@pytest.fixture(scope="session")
def entries():
    return {name: load_builtin(name) for name in names()}


@pytest.fixture(scope="session")
def checked_programs(entries):
    return {name: analyze(parse(entry.source)) for name, entry in entries.items()}


@pytest.fixture(scope="session")
def pinned_reports(entries, checked_programs):
    """Verification report of every corpus entry at its pinned options,
    computed lazily and memoized for the whole session."""
    cache: dict[str, Report] = {}

    def get(name: str) -> Report:
        if name not in cache:
            cache[name] = verify_program(
                checked_programs[name], entries[name].options
            )
        return cache[name]

    return get


@pytest.fixture(scope="session")
def vc_scaling_programs():
    """The benchmark's generator of vc_scaling programs
    (``benchmarks/programs.py``), loaded from its file."""
    path = Path(__file__).parents[1] / "benchmarks" / "programs.py"
    spec = importlib.util.spec_from_file_location("vc_scaling_programs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def benchmark_workloads():
    """The benchmark's workloads module (``benchmarks/workloads.py``),
    which imports its sibling modules by their bare names."""
    bench = str(Path(__file__).parents[1] / "benchmarks")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads
