"""Shared fixtures: parsed corpus entries and cached verification reports.

Reports at an entry's pinned options are computed once per session and
shared.
"""

from __future__ import annotations

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
