"""The serving stack's size is a tracked number (ROADMAP aim 2).

Lines are measured exactly as ``wc -l src/repro/serving/*.py
src/repro/cli.py`` (and ``wc -l src/repro/scheduling/plan.py`` for the
linear-layer plans, ``wc -l src/repro/bfv/*.py`` for the scheme and its
kernel tier); knobs as the settable constructor parameters of the
serving classes plus the options of ``repro serve``.  The budgets below
are the sizes on record in ROADMAP.md's "Tracked size" line, so growth
has to be argued for in the diff that causes it: a change that exceeds
one raises it here, next to the code, and says why in CHANGES.md.
(Shrinking needs no edit; lower the budget when you do, so the slack is
not silently spent later.)
"""

from __future__ import annotations

import argparse
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``src/repro/serving/*.py`` + ``src/repro/cli.py`` (7,931 before PR 18,
#: 7,429 before PR 20's one plan-call adapter, 7,427 before PR 21 deleted
#: the output-channel split and the options no caller sets).
#: 7,378 before a shard slot's deaths and upgrade swaps shared one path,
#: 7,308 before every linear round went through the layer batcher and
#: every session left through one drop path, 7,249 before shard workers
#: stopped pinning their own NTT backend, 7,220 before the shared-memory
#: slab ring went, 6,763 before forked workers spoke the remote workers'
#: framed stream, 6,691 before the client loop and the slot layout were
#: written once in ``protocol/gazelle.py`` and ``scheduling/layouts.py``,
#: 6,592 while the serving path called a plan through an adapter that
#: asked which kind it was.  6,591 once the client refused a layer reply
#: of another kind or without blobs (it parsed a ``hello_ok`` as one, and
#: an empty reply escaped as an IndexError), while the served noise floor
#: re-typed the noise model's Sched-IA / Sched-PA formula.  6,584 before
#: ``/healthz`` built its kernel fields in one literal (and gained
#: ``ntt_lanes``).
SERVING_AND_CLI_BUDGET = 6583
#: ``src/repro/serving/shards.py`` alone (2,198 before PR 18, 1,988
#: before PR 21).
#: 1,927 before a shard slot's deaths and upgrade swaps shared one path,
#: 1,857 before the shm ring stopped waiting, 1,855 before shard workers
#: stopped pinning their own NTT backend, 1,826 before the ring went,
#: 1,773 with a pickling-queue channel beside the TCP one, 1,701 before
#: shard workers called the one plan-call adapter directly, 1,697 before
#: they called the plan itself.
SHARDS_BUDGET = 1696
#: The ``ShardPool`` class, ``len(inspect.getsourcelines(ShardPool)[0])``
#: (852 before its deaths and upgrade swaps shared one retire path, 787
#: before ``ntt_native`` went, 783 before the slab ring's size went, 773
#: with a byte tally per channel class).
SHARD_POOL_BUDGET = 769
#: The ``ServingEngine`` class, measured the same way (652 with a
#: ``max_batch <= 1`` bypass beside the batcher and five session exits,
#: 634 with its own mask view beside the shared output layout, 614 while
#: a linear round asked the layer kind for its ciphertext count).
SERVING_ENGINE_BUDGET = 613
#: ``src/repro/scheduling/plan.py`` (690 before PR 20 deleted the
#: single-request copies of the schedule bodies, 598 before PR 21
#: deleted the output-channel slicing, 570 before both Sched-IA bodies
#: rotated a whole layer call in one ``rotate_rows_group`` call, 552 before
#: both Sched-PA bodies ran as a few passes per layer call, 551 with a
#: conv and an FC copy of the plan cache, 548 with a conv and an FC copy
#: of the execution body, ``rotation_steps`` and ``metadata``, 494 with one
#: execution body per schedule).
PLAN_BUDGET = 491
#: Settable constructor parameters of the nine serving classes below (68
#: before PR 21 turned twelve options no caller set into constants).
#: 56 before the batch window became a constant too, 54 before
#: ``ShardPool`` and ``ShardWorkerServer`` lost ``ntt_native``, 52 before
#: ``ShardPool`` lost the slab ring's size.
SERVING_KNOB_BUDGET = 51
#: ``src/repro/bfv/ntt_batch.py`` (851 while a vectorised numpy twin of
#: the C kernel sat beside the references, 620 while the key switch could
#: also gather its digits).  681 since the client's crypto joined the
#: kernel tier: 90 lines of code were added -- ``lift`` (29),
#: ``multiply_add`` (33), ``_plain_tables`` (16, the Delta and fixed-point
#: rounding tables) and the cached kernel pointers, each entry point with
#: its numpy reference as the kernel-off path.  686 since its docstring
#: says how the kernel splits a large call across the process's lanes (+5
#: lines of prose, no code).
NTT_BATCH_BUDGET = 686
#: ``src/repro/bfv/*.py`` (3,739 with that twin, 3,511 while the wire
#: carried int64 residues, 3,510 before keys were stored in the digits'
#: slot order).  3,543 since the client's crypto joined the kernel tier,
#: net of the per-polynomial encryption route it replaced
#: (``_small_to_eval``, ``_delta_times_message``, the int64 ``%`` lift,
#: ``RnsPolynomial.from_small_coeffs``).  3,544 since ``kernel_status``
#: reports the kernel's lanes: the ``kernel_lanes`` signature (+1), the
#: ``lanes`` field and its docstring line (+2), net of the shorter
#: source-tree rule of ``_build_dir`` (-2).  3,549 with the five lines
#: on lanes in the ``ntt_batch`` docstring.
BFV_BUDGET = 3549
#: Options of ``repro serve``, ``--help`` excluded (25 at PR 21).
#: 24 since ``--batch-window-ms`` went, 23 since the channel-kind
#: option went.
SERVE_OPTION_BUDGET = 23


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
    from repro.serving.engine import ServingEngine
    from repro.serving.shards import ShardPool

    pool = len(inspect.getsourcelines(ShardPool)[0])
    assert pool <= SHARD_POOL_BUDGET, (
        f"ShardPool is {pool} lines, budget {SHARD_POOL_BUDGET}: one "
        "lifecycle per slot, not one per caller"
    )
    engine = len(inspect.getsourcelines(ServingEngine)[0])
    assert engine <= SERVING_ENGINE_BUDGET, (
        f"ServingEngine is {engine} lines, budget {SERVING_ENGINE_BUDGET}: "
        "one path into the batcher, one path out of the session table"
    )


def test_linear_plans_stay_within_their_line_budget():
    plan = _lines(SRC / "scheduling" / "plan.py")
    assert plan <= PLAN_BUDGET, (
        f"scheduling/plan.py is {plan} lines, budget {PLAN_BUDGET}: one "
        "execution body per schedule for both plan kinds, not one per kind"
    )


def test_bfv_stays_within_its_line_budget():
    engine = _lines(SRC / "bfv" / "ntt_batch.py")
    assert engine <= NTT_BATCH_BUDGET, (
        f"bfv/ntt_batch.py is {engine} lines, budget {NTT_BATCH_BUDGET}: "
        "the C kernel, and the references without it; no third path"
    )
    bfv = sum(_lines(path) for path in (SRC / "bfv").glob("*.py"))
    assert bfv <= BFV_BUDGET, (
        f"src/repro/bfv/*.py is {bfv} lines, budget {BFV_BUDGET}"
    )


def test_serving_knobs_stay_within_their_budget():
    from repro.cli import build_parser
    from repro.serving.admission import AdmissionController
    from repro.serving.engine import ServingEngine, _LayerBatcher
    from repro.serving.gateway import AsyncGateway
    from repro.serving.metrics import MetricsRegistry
    from repro.serving.shards import ShardExecutor, ShardPool, ShardWorkerServer
    from repro.serving.tracing import Tracer

    classes = (
        ServingEngine, AsyncGateway, ShardPool, ShardExecutor,
        ShardWorkerServer, AdmissionController, MetricsRegistry, Tracer,
        _LayerBatcher,
    )
    knobs = {cls.__name__: len(inspect.signature(cls).parameters) for cls in classes}
    assert sum(knobs.values()) <= SERVING_KNOB_BUDGET, (
        f"serving constructors take {sum(knobs.values())} settable values "
        f"{knobs}, budget {SERVING_KNOB_BUDGET}: an option needs a caller "
        "that sets it (simplicity-review, Options), else make it a constant"
    )
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    serve = [
        action for action in commands.choices["serve"]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert len(serve) <= SERVE_OPTION_BUDGET, (
        f"repro serve has {len(serve)} options, budget {SERVE_OPTION_BUDGET}"
    )
