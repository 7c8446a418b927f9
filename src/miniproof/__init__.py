"""miniproof: contract verification for a small class-based language.

Programs carry require/ensure/invariant/modify annotations; the pipeline
turns them into proof obligations via weakest preconditions, discharges
the obligations by bounded exhaustive search over finite domains, and can
also run programs under a contract-monitoring interpreter, including
replaying verification counterexamples as concrete executions.

Importing the package loads only ``errors``. Every other public name, and
every submodule (``miniproof.vcgen``, ``miniproof.runtime`` and so on),
is loaded on first use (PEP 562), so a command that never verifies never
compiles vcgen or discharge. A public name is looked up in its submodule
on every access, never copied here, so it always reads the submodule's
current binding.
"""

import importlib

from .errors import (
    ParseError,
    SemanticError,
    ContractViolation,
    VoidCall,
    VoidDereference,
    StepBudgetExceeded,
    UnsupportedInContract,
    ReplayImpossible,
    UnknownCorpusEntry,
)

# public name -> (submodule, attribute)
_EXPORTS = {
    "parse": ("parser", "parse"),
    "analyze": ("analyzer", "analyze"),
    "CheckedProgram": ("analyzer", "CheckedProgram"),
    "default_model_queries": ("analyzer", "default_model_queries"),
    "program_text": ("pretty", "program_text"),
    "expr_text": ("pretty", "expr_text"),
    "VerifyOptions": ("formula", "VerifyOptions"),
    "Obligation": ("vcgen", "Obligation"),
    "generate_obligations": ("vcgen", "generate_obligations"),
    "Report": ("discharge", "Report"),
    "ReportRow": ("discharge", "ReportRow"),
    "verify_program": ("discharge", "verify_program"),
    "render_text": ("discharge", "render_text"),
    "render_json": ("discharge", "render_json"),
    "summary_line": ("discharge", "summary_line"),
    "Interpreter": ("runtime", "Interpreter"),
    "Trace": ("runtime", "Trace"),
    "parse_scenario": ("runtime", "parse_scenario"),
    "run_scenario": ("runtime", "run_scenario"),
    "replay_counterexample": ("runtime", "replay_counterexample"),
    "trace_text": ("runtime", "trace_text"),
    "trace_json": ("runtime", "trace_json"),
    "CorpusEntry": ("corpus", "CorpusEntry"),
    "load_builtin": ("corpus", "load_builtin"),
    "export_entry": ("corpus", "export_entry"),
    "corpus_names": ("corpus", "names"),
}

_SUBMODULES = frozenset(
    ("analyzer", "ast", "cli", "corpus", "discharge", "formula", "lexer", "parser", "pretty",
     "runtime", "vcgen")
)

__all__ = [
    *_EXPORTS,
    "ParseError",
    "SemanticError",
    "ContractViolation",
    "VoidCall",
    "VoidDereference",
    "StepBudgetExceeded",
    "UnsupportedInContract",
    "ReplayImpossible",
    "UnknownCorpusEntry",
]


def __getattr__(name: str):
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        return getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    if name in _SUBMODULES:
        # importing binds the submodule here, so this runs once per submodule
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
