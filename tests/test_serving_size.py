"""The serving stack's line count is a tracked number (ROADMAP aim 2).

Measured exactly as ``wc -l src/repro/serving/*.py src/repro/cli.py``
(and ``wc -l src/repro/scheduling/plan.py`` for the linear-layer plans).
The budgets below are the sizes on record in ROADMAP.md's "Tracked size"
line, so growth has to be argued for in the diff that causes it: a
change that exceeds one raises it here, next to the code, and says why
in CHANGES.md.  (Shrinking needs no edit; lower the budget when you do,
so the slack is not silently spent later.)
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``src/repro/serving/*.py`` + ``src/repro/cli.py`` (7,931 before PR 18,
#: 7,429 before PR 20's one plan-call adapter).
SERVING_AND_CLI_BUDGET = 7427
#: ``src/repro/serving/shards.py`` alone (2,198 before PR 18).
SHARDS_BUDGET = 2000
#: ``src/repro/scheduling/plan.py`` (690 before PR 20 deleted the
#: single-request copies of the schedule bodies).
PLAN_BUDGET = 598


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def test_serving_and_cli_stay_within_their_line_budget():
    files = sorted((SRC / "serving").glob("*.py")) + [SRC / "cli.py"]
    total = sum(_lines(path) for path in files)
    assert total <= SERVING_AND_CLI_BUDGET, (
        f"src/repro/serving/*.py + cli.py is {total} lines, budget "
        f"{SERVING_AND_CLI_BUDGET}: delete something, or raise the budget "
        "in this diff and defend it in CHANGES.md"
    )
    shards = _lines(SRC / "serving" / "shards.py")
    assert shards <= SHARDS_BUDGET, (
        f"shards.py is {shards} lines, budget {SHARDS_BUDGET}"
    )


def test_linear_plans_stay_within_their_line_budget():
    plan = _lines(SRC / "scheduling" / "plan.py")
    assert plan <= PLAN_BUDGET, (
        f"scheduling/plan.py is {plan} lines, budget {PLAN_BUDGET}: one "
        "execution body per schedule and plan class, not two"
    )
