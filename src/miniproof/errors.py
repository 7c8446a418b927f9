"""Exception types shared across the pipeline."""

from __future__ import annotations


class ParseError(Exception):
    """Raised on the first lexical or syntactic error, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class SemanticError(Exception):
    """All name-resolution and type problems found in one pass.

    issues is a list of (position-string, message) pairs.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("\n".join(f"{pos}: {msg}" for pos, msg in self.issues))


class ContractViolation(Exception):
    """A monitored contract clause evaluated to false.

    kind is one of: precondition, postcondition, invariant, frame, check,
    overflow. label names the violated clause (or model query for frame
    violations, or the expression text for overflow).
    """

    def __init__(self, kind: str, label: str, class_name: str, feature: str, environment=None):
        self.kind = kind
        self.label = label
        self.class_name = class_name
        self.feature = feature
        # each raiser builds a fresh dict, so it is kept, not copied
        self.environment = {} if environment is None else environment
        super().__init__(f"{kind} violation: {label} in {class_name}.{feature}")


class VoidDereference(Exception):
    """Qualified read or assignment through a Void reference. path is
    the source text of the failing access."""

    def __init__(self, path: str, message: str | None = None):
        self.path = path
        super().__init__(message or f"Void dereference at {path}")


class VoidCall(VoidDereference):
    """Routine call on a Void receiver."""

    def __init__(self, path: str):
        super().__init__(path, f"call on Void receiver at {path}")


class StepBudgetExceeded(Exception):
    """The body executed more statements than the step budget allows, or
    calls nested deeper than the interpreter's call-depth limit."""


class UnsupportedInContract(Exception):
    """A contract clause used a construct the checker cannot evaluate,
    such as a creation expression."""


class ReplayImpossible(Exception):
    """The counterexample describes an object state that cannot be
    materialized (for example a path through a non-reference, or a name
    outside the feature's scope; values under a Void reference are
    skipped, not refused), or the replayed run stopped before it could
    reach the violation."""


class UnknownCorpusEntry(KeyError):
    """No built-in corpus entry with the requested name."""


class InternalError(Exception):
    """A pipeline invariant broke: a bug in miniproof, never bad input."""
