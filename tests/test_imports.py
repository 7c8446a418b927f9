"""Import hygiene of the miniproof package.

Checked with the stdlib ``ast`` module: no module imports a name it never
uses, and none imports a ``_private`` name from another miniproof module.

Checked in a fresh interpreter per command, because pytest's warm
``sys.modules`` would hide a missing import: each CLI subcommand loads
exactly the layers it runs, and every public name resolves.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import miniproof

PACKAGE = Path(miniproof.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, imported name, import node) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def _from_miniproof(node: ast.AST) -> bool:
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "miniproof"
    )


def _offenders(check) -> list[str]:
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.extend(f"{path.relative_to(PACKAGE)}: {name}" for name in check(tree))
    return out


def test_every_imported_name_is_used():
    def unused(tree):
        used = _used_names(tree)
        return [bound for bound, _, _ in _imports(tree) if bound not in used]

    assert _offenders(unused) == []


def test_no_private_name_is_imported_from_another_miniproof_module():
    def private(tree):
        return [
            name
            for _, name, node in _imports(tree)
            if _from_miniproof(node) and name.startswith("_")
        ]

    assert _offenders(private) == []


# -- what each command loads ------------------------------------------------------

_PROBE = """
import contextlib, io, json, sys
from miniproof.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "miniproof")))
"""

_SHELL = {"cli", "errors"}
_CORPUS = _SHELL | {"corpus"}
# parse, analyze and resolve the options
_FRONT = _CORPUS | {"ast", "lexer", "parser", "analyzer", "formula"}
_VERIFY = _FRONT | {"pretty", "vcgen", "discharge"}
_RUN = _FRONT | {"pretty", "runtime"}
_REPLAY = _FRONT | {"pretty", "vcgen", "runtime"}


def _fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True
    )


def _loaded(*argv: str) -> set[str]:
    """The miniproof submodules a fresh interpreter holds after cli.main(argv)."""
    modules = json.loads(_fresh("-c", _PROBE, *argv).stdout)
    return {m.removeprefix("miniproof.") for m in modules} - {"miniproof"}


@pytest.fixture(scope="module")
def noguard_report(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("report") / "noguard.json"
    out = subprocess.run(
        [sys.executable, "-m", "miniproof.cli", "verify", "corpus:account_noguard_mutant",
         "--format", "json"],
        capture_output=True, text=True,
    ).stdout
    path.write_text(out, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["corpus", "list"], _CORPUS),
        (["corpus", "export", "account", "{tmp}/export"], _CORPUS),
        (["verify"], _SHELL),
        (["verify", "corpus:no_such_entry"], _CORPUS),
        (["run", "corpus:account", "no_such_scenario"], _FRONT),
        (["verify", "corpus:account"], _VERIFY),
        (["verify", "corpus:account", "--emit-obligations", "{tmp}/obligations.json"], _VERIFY),
        (["run", "corpus:account", "account_deposit_withdraw"], _RUN),
        (["run", "corpus:account", "account_overdraw", "--format", "json"], _RUN),
        (["replay", "corpus:account_noguard_mutant", "ACCOUNT.make.postcondition.0",
          "--report", "{report}"], _FRONT),
        (["replay", "corpus:account_noguard_mutant", "ACCOUNT.deposit.invariant_maintenance.0",
          "--report", "{report}"], _REPLAY),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_the_layers_it_runs(argv, expected, tmp_path, noguard_report):
    argv = [a.format(tmp=tmp_path, report=noguard_report) for a in argv]
    assert _loaded(*argv) == expected


def test_importing_the_package_loads_only_errors():
    modules = json.loads(
        _fresh(
            "-c",
            "import json, sys, miniproof; "
            "print(json.dumps([m for m in sys.modules if m.startswith('miniproof.')]))",
        ).stdout
    )
    assert modules == ["miniproof.errors"]


def test_every_public_name_resolves_in_a_fresh_interpreter():
    probe = (
        "import json, miniproof\n"
        "ns = {}\n"
        "exec('from miniproof import *', ns)\n"
        "print(json.dumps({'all': miniproof.__all__, 'star': sorted(set(ns) - {'__builtins__'})}))\n"
    )
    names = json.loads(_fresh("-c", probe).stdout)
    assert sorted(names["all"]) == names["star"]


def test_package_names_follow_their_submodule(monkeypatch):
    """A traced run swaps a layer's function for a wrapper and back; the
    package must not keep whichever it saw first."""
    from miniproof import parser

    assert miniproof.parse is parser.parse
    wrapper = object()
    monkeypatch.setattr(parser, "parse", wrapper)
    assert miniproof.parse is wrapper


def test_discharge_reexports_the_value_decoder():
    from miniproof import discharge, formula
    from miniproof.discharge import decode_value

    assert decode_value is formula.decode_value
    assert "decode_value" in discharge.__all__
