"""Built-in corpus: entry structure, manifests as frozen verdict oracles,
mutants as one-line diffs of their parents, and disk export."""

import difflib
import hashlib
import json
import re

import pytest

from miniproof import analyze, parse
from miniproof import formula as F
from miniproof.corpus import export_entry, load_builtin, names, parent_of
from miniproof.discharge import derive_domains
from miniproof.errors import UnknownCorpusEntry
from miniproof.formula import decode_value
from miniproof.runtime import parse_scenario
from miniproof.vcgen import VerifyOptions, generate_obligations

ALL_NAMES = (
    "account",
    "account_noguard_mutant",
    "account_overflow_mutant",
    "tokeneer_enrolment",
    "tokeneer_noprecond_mutant",
    "tokeneer_frame_mutant",
    "contract_creation_error",
)


def test_names_are_stable():
    assert names() == ALL_NAMES


def test_unknown_entry_raises():
    with pytest.raises(UnknownCorpusEntry):
        load_builtin("no_such_entry")


def test_account_entry_structure(entries):
    account = parse(entries["account"].source).classes[0]
    assert [f.name for f in account.features] == ["make", "deposit", "withdraw"]
    assert [c.label for c in account.invariant] == ["non_negative_balance"]


def test_tokeneer_entry_structure(entries):
    program = parse(entries["tokeneer_enrolment"].source)
    assert [c.name for c in program.classes] == [
        "CONST",
        "SCREEN_DISPLAY",
        "FLOPPY",
        "INTERNAL_S",
        "ID_STATION",
        "ENCLAVE_OPERS",
    ]
    station = program.class_named("ID_STATION")
    assert len(station.invariant) == 2
    from miniproof import expr_text

    assert expr_text(station.invariant[0].expr) == (
        "constants.display_message.has(current_display)"
    )
    assert expr_text(station.invariant[1].expr) == "constants /= Void"


def test_creation_error_manifest_expects_an_error(entries):
    manifest = entries["contract_creation_error"].manifest
    assert manifest["expect"]["error"] >= 1
    rows = manifest["expect"]["rows"]
    assert any(
        row.get("reason") == "creation expression in contract"
        for row in rows.values()
    )


def test_every_entry_parses_and_checks(checked_programs):
    for name in ALL_NAMES:
        assert checked_programs[name] is not None


@pytest.mark.parametrize("name", ALL_NAMES)
def test_manifest_matches_fresh_verification(name, entries, pinned_reports):
    """The shipped manifest is the frozen verdict oracle: a fresh run at the
    pinned options must reproduce every row exactly."""
    entry = entries[name]
    report = pinned_reports(name)
    expect = entry.manifest["expect"]
    assert report.total == expect["total"]
    assert report.counts["Discharged"] == expect["discharged"]
    assert report.counts["Failed"] == expect["failed"]
    assert report.counts["Error"] == expect["error"]

    manifest_rows = expect["rows"]
    assert {r.id for r in report.rows} == set(manifest_rows)
    for row in report.rows:
        recorded = manifest_rows[row.id]
        assert row.kind == recorded["kind"], row.id
        assert row.verdict.status == recorded["verdict"], row.id
        if row.verdict.status == "Failed":
            recorded_cx = {
                sym: decode_value(raw)
                for sym, raw in recorded["counterexample"].items()
            }
            assert row.verdict.counterexample == recorded_cx, row.id
        if row.verdict.status == "Error":
            assert row.verdict.reason == recorded["reason"], row.id


# SHA-256 of the JSON list of [id, kind, provenance, formula text] of each
# entry's obligations at its pinned options. Manifests pin verdicts; these
# pin the formulas, so a change to lowering or wp that alters a VC shows.
OBLIGATION_DIGESTS = {
    "account": "ce84b0a6bcfd9dd4a7cd740a4e7b7686c7361c36e4dac75fe081cd01fc9a01e6",
    "account_noguard_mutant": "f9483a180b3ee2488b59ce678a007c42ccc3b6596138f9c2b7f18954f5b1abe6",
    "account_overflow_mutant": "1d13966cbd4e095a09b2edb538d874c61e84f9bec465e97ddb2f5c8878847238",
    "tokeneer_enrolment": "398d38b45159151aecdc7b9bb662e4f5f4f6b95ffd8463b0c6cea72c5496def6",
    "tokeneer_noprecond_mutant": "f633a839d805ea1254690e6ce2cd7e993a2be06984c3353b6db9b76e52febda1",
    "tokeneer_frame_mutant": "44a887d51e727ad4ee56f405265f80004b8ec365e73b7e3a47ab65fa7240bbda",
    "contract_creation_error": "568c8d73bdfbd0f80d4986bb52bc611ac6b56049e4e523af2437392a7e3771bf",
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_obligation_formulas_are_pinned(name, entries, checked_programs):
    obligations = generate_obligations(checked_programs[name], entries[name].options)
    text = json.dumps([[o.id, o.kind, o.provenance, F.to_text(o.formula)] for o in obligations])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == OBLIGATION_DIGESTS[name]


@pytest.mark.parametrize(
    "mutant,parent",
    [
        ("account_noguard_mutant", "account"),
        ("account_overflow_mutant", "account"),
        ("tokeneer_noprecond_mutant", "tokeneer_enrolment"),
        ("tokeneer_frame_mutant", "tokeneer_enrolment"),
    ],
)
def test_mutants_are_one_line_diffs(mutant, parent, entries):
    assert parent_of(mutant) == parent
    parent_lines = entries[parent].source.splitlines()
    mutant_lines = entries[mutant].source.splitlines()
    changes = [
        line
        for line in difflib.unified_diff(parent_lines, mutant_lines, lineterm="", n=0)
        if line[:1] in "+-" and line[:3] not in ("+++", "---")
        and not line[1:].lstrip().startswith("--")  # header comments may differ
    ]
    added = [c for c in changes if c.startswith("+")]
    removed = [c for c in changes if c.startswith("-")]
    assert len(added) + len(removed) <= 2
    assert len(added) == 1 or len(removed) == 1


def test_parent_of_base_entries_is_none():
    assert parent_of("account") is None
    assert parent_of("tokeneer_enrolment") is None


def test_string_pool_is_exactly_twelve_literals(checked_programs):
    """Independent oracle: collect quoted literals straight from the source
    text and compare with the analyzed pool."""
    from miniproof.corpus import load_builtin

    source = load_builtin("tokeneer_enrolment").source
    code_lines = [line.split("--", 1)[0] for line in source.splitlines()]
    literals = sorted(set(re.findall(r'"([^"]*)"', "\n".join(code_lines))))
    assert len(literals) == 12
    pool = derive_domains(
        checked_programs["tokeneer_enrolment"], VerifyOptions()
    ).string_pool
    assert list(pool) == literals
    assert set(literals) == {
        "absent",
        "blank",
        "enrolled",
        "insert_enrolment_data",
        "not_enrolled",
        "present",
        "remove_token",
        "system_busy",
        "valid_enrolment_data",
        "validating",
        "waiting_floppy",
        "welcome",
    }


def test_display_pool_membership(entries):
    program = parse(entries["tokeneer_enrolment"].source)
    const = program.class_named("CONST")
    creator = const.features[0]
    display_assign = next(
        s for s in creator.body if getattr(s, "target", None) == "display_message"
    )
    assert set(display_assign.value.items) == {
        "blank",
        "insert_enrolment_data",
        "welcome",
        "remove_token",
        "system_busy",
    }


def test_manifest_scenarios_exist_and_parse(entries):
    for name, entry in entries.items():
        assert set(entry.manifest["scenarios"]) == set(entry.scenarios)
        for scenario_text in entry.scenarios.values():
            assert parse_scenario(scenario_text).commands


def test_entry_notes_are_informative(entries):
    for entry in entries.values():
        assert entry.notes.strip()


def test_pinned_options_reconstruct(entries):
    assert entries["account"].options == VerifyOptions(
        int_range=(-8, 8), check_overflow=False, overflow_width=32
    )
    assert entries["account_overflow_mutant"].options == VerifyOptions(
        int_range=(-128, 127), check_overflow=True, overflow_width=8
    )


def test_export_round_trip(tmp_path, entries):
    written = export_entry("account", tmp_path)
    by_name = {p.name: p for p in written}
    assert set(by_name) == {
        "account.ccl",
        "account.manifest.json",
        "account_deposit_withdraw.scn",
        "account_overdraw.scn",
    }
    entry = entries["account"]
    assert by_name["account.ccl"].read_text(encoding="utf-8") == entry.source
    assert json.loads(
        by_name["account.manifest.json"].read_text(encoding="utf-8")
    ) == entry.manifest
    for scenario_name, text in entry.scenarios.items():
        assert by_name[f"{scenario_name}.scn"].read_text(encoding="utf-8") == text


def test_export_creates_directory(tmp_path):
    target = tmp_path / "nested" / "dir"
    written = export_entry("contract_creation_error", target)
    assert all(p.parent == target for p in written)
    assert (target / "contract_creation_error.ccl").is_file()
