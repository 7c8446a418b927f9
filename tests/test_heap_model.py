"""Known soundness holes of the path-based heap model (ROADMAP, item 1).

vcgen names a field value after its access path (``r.a``, ``s.v``), so
two paths to one object are two independent symbols. On both programs
below the monitor breaks a postcondition that ``verify`` discharges. The
verify half is a strict xfail: the day the heap model is fixed it passes
and the mark must go, and any other change to the havoc or assignment
rules shows up here too."""

import pytest

from miniproof import analyze, parse
from miniproof.discharge import FAILED, verify_program
from miniproof.runtime import parse_scenario, run_scenario
from miniproof.vcgen import VerifyOptions

_CELL_A = """
class CELL
create
    make
feature
    a : INTEGER
    make
        do
        end
end
"""

# two references to one object, written through both
ALIASING = _CELL_A + """
class M
create
    make
feature
    r : CELL
    s : CELL
    make
        do
            create r.make
            s := r
        end
    f
        require
            r_attached: r /= Void
            s_attached: s /= Void
        do
            r.a := 1
            s.a := 2
        ensure
            r_is_one: r.a = 1
        end
end
"""

# a reference reassigned after a call changed the object it now denotes
REASSIGNED_REFERENCE = """
class CELL
create
    make
feature
    v : INTEGER
    make
        do
        end
    inc
        do
            v := v + 1
        ensure
            v = old v + 1
        end
end

class C
create
    make
feature
    r : CELL
    s : CELL
    make
        do
            create r.make
            create s.make
        end
    go
        require
            r /= Void
            s /= Void
        do
            r.inc ()
            s := r
        ensure
            kept: s.v = old s.v
        end
end
"""

HOLES = pytest.mark.parametrize(
    "source, scenario, label",
    [
        (ALIASING, "create m : M\ncall m.f()\n", "r_is_one"),
        (REASSIGNED_REFERENCE, "create c : C\ncall c.go()\n", "kept"),
    ],
    ids=["aliasing", "reassigned_reference"],
)


def _monitored_outcome(checked, scenario: str) -> str:
    return run_scenario(checked, parse_scenario(scenario)).steps[-1].outcome


@HOLES
def test_monitor_breaks_the_clause(source, scenario, label):
    checked = analyze(parse(source))
    assert _monitored_outcome(checked, scenario) == f"violation postcondition {label}"


@HOLES
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: field values belong to paths, not objects, so verify discharges the clause",
)
def test_verify_fails_the_clause_the_monitor_breaks(source, scenario, label):
    checked = analyze(parse(source))
    assert _monitored_outcome(checked, scenario) == f"violation postcondition {label}"
    report = verify_program(checked, VerifyOptions())
    verdicts = [row.verdict.status for row in report.rows if row.provenance == label]
    assert verdicts == [FAILED]
