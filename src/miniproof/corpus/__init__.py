"""Built-in example programs with expected-verdict manifests.

Each entry bundles a program source, the scenario scripts that exercise
it, and a manifest pinning the verification options plus the verdict
(and counterexample, where one exists) of every obligation the program
generates at those options. The manifests double as regression oracles:
a report that disagrees with its manifest is a bug in the pipeline or a
deliberate, audited change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import UnknownCorpusEntry

NAMES = (
    "account",
    "account_noguard_mutant",
    "account_overflow_mutant",
    "tokeneer_enrolment",
    "tokeneer_noprecond_mutant",
    "tokeneer_frame_mutant",
    "contract_creation_error",
)

_MUTANT_PARENT = {
    "account_noguard_mutant": "account",
    "account_overflow_mutant": "account",
    "tokeneer_noprecond_mutant": "tokeneer_enrolment",
    "tokeneer_frame_mutant": "tokeneer_enrolment",
}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    manifest: dict
    scenarios: dict[str, str]  # scenario name -> script text
    notes: str

    @property
    def options(self) -> VerifyOptions:
        # imported here so that listing or exporting entries loads no
        # pipeline layer
        from ..formula import VerifyOptions

        opts = self.manifest["options"]
        return VerifyOptions(
            int_range=tuple(opts["int_range"]),
            check_overflow=opts["check_overflow"],
            overflow_width=opts["overflow_width"],
        )

    @property
    def expected_rows(self) -> dict[str, dict]:
        return self.manifest["expect"]["rows"]


def names() -> tuple[str, ...]:
    return NAMES


def parent_of(name: str) -> str | None:
    """The entry a mutant was derived from, or None for originals."""
    return _MUTANT_PARENT.get(name)


def _data_root():
    return resources.files(__package__) / "data"


def load_builtin(name: str) -> CorpusEntry:
    if name not in NAMES:
        raise UnknownCorpusEntry(name)
    root = _data_root()
    source = (root / f"{name}.ccl").read_text(encoding="utf-8")
    manifest = json.loads(
        (root / "manifests" / f"{name}.json").read_text(encoding="utf-8")
    )
    scenarios = {
        scn: (root / "scenarios" / f"{scn}.scn").read_text(encoding="utf-8")
        for scn in manifest["scenarios"]
    }
    return CorpusEntry(name, source, manifest, scenarios, manifest["notes"])


def export_entry(name: str, directory: str | Path) -> list[Path]:
    """Write an entry's source, manifest, and scenarios into a directory
    so users can modify and re-verify them. Returns the written paths."""
    entry = load_builtin(name)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    source_path = directory / f"{name}.ccl"
    source_path.write_text(entry.source, encoding="utf-8")
    written.append(source_path)
    manifest_path = directory / f"{name}.manifest.json"
    manifest_path.write_text(
        json.dumps(entry.manifest, indent=2) + "\n", encoding="utf-8"
    )
    written.append(manifest_path)
    for scn_name, text in entry.scenarios.items():
        scn_path = directory / f"{scn_name}.scn"
        scn_path.write_text(text, encoding="utf-8")
        written.append(scn_path)
    return written
