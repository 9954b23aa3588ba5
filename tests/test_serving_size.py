"""The serving stack's size is a tracked number (ROADMAP aim 2).

Lines are measured exactly as ``wc -l src/repro/serving/*.py
src/repro/cli.py`` (and ``wc -l src/repro/scheduling/plan.py`` for the
linear-layer plans, ``wc -l src/repro/bfv/*.py`` for the scheme and its
kernel tier, ``wc -l src/repro/bfv/_ntt_kernel.c`` for the kernel); knobs
as the settable constructor parameters of the serving classes plus the
options of ``repro serve``.  The budgets below
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
#: ``ntt_lanes``).  6,600 since a retired forked worker that outlives
#: SIGTERM gets SIGKILL, a death's log line names the exit code or
#: signal, and a forked worker drops an inherited SIGTERM handler (+17
#: lines in ``shards.py``, below).  6,596 since ``Tracer.current_context``,
#: which nothing called, went.  6,581 since names only their tests reached
#: went (``ShardPool._slot_inflight``, ``Tracer.last_trace_id``), the
#: metrics snapshot reads ``OpCounters.he_ops()`` instead of listing its
#: six fields, and a frame header is read with serialize's typed reader.
SERVING_AND_CLI_BUDGET = 6581
#: ``src/repro/serving/shards.py`` alone (2,198 before PR 18, 1,988
#: before PR 21).
#: 1,927 before a shard slot's deaths and upgrade swaps shared one path,
#: 1,857 before the shm ring stopped waiting, 1,855 before shard workers
#: stopped pinning their own NTT backend, 1,826 before the ring went,
#: 1,773 with a pickling-queue channel beside the TCP one, 1,701 before
#: shard workers called the one plan-call adapter directly, 1,697 before
#: they called the plan itself.  1,713 since ``_Channel.retire`` escalates
#: to SIGKILL within the caller's deadline, ``_Channel.exit_status`` names
#: how a reaped worker ended in ``_retire``'s log line, and
#: ``_worker_main`` resets SIGTERM (+17 net, with the grace constant and
#: the ``signal`` import); before, a worker that ignored SIGTERM, or
#: inherited ``repro serve``'s handler, was left running after ``stop``.
#: 1,708 since ``ShardPool._slot_inflight``, which only a test called, went.
SHARDS_BUDGET = 1708
#: The ``ShardPool`` class, ``len(inspect.getsourcelines(ShardPool)[0])``
#: (852 before its deaths and upgrade swaps shared one retire path, 787
#: before ``ntt_native`` went, 783 before the slab ring's size went, 773
#: with a byte tally per channel class, 769 with ``_slot_inflight``).
SHARD_POOL_BUDGET = 764
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
#: execution body per schedule).  Unchanged when the giant passes rotated
#: straight into their totals (the rotated stack, its numpy sum and the
#: final ``%`` went, for the stride-0 ``out`` view and ``accumulate``).
#: Unchanged when a layer call became one lowered program: ``_giant_passes``
#: and the body's per-call job assembly went for ``_lower`` (the same
#: stages as ops of a ``LayerProgram``) and a three-line ``execute_batch``.
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
#: lines of prose, no code).  691 since ``hoist`` replaced
#: ``digit_residues``: one method validates, counts and makes the one
#: ``rns_hoist`` call, with the three-step reference (transforms, word
#: compose and split) inline as its kernel-off branch (+5 net).  666
#: since the hoist takes no Galois element: ``_coeff_automorphism``, the
#: hoist's element argument and the ``_native_compose`` fork (the kernel
#: composes over any basis) went.  703 since a Galois key is written in
#: one engine pass: ``galois_key`` validates, counts and makes the one
#: ``rns_galois_key`` call, with its numpy reference as the kernel-off
#: branch (+37 with its docstring line; the rest of ``bfv/*.py`` pays
#: for it, below).  702 since the hoist's output, scratch and transform
#: tables start on cache lines: ``_lines``, the bit-reversed inverse scale
#: and ``_native_hoist`` are paid for by shorter forms of
#: ``weight_accumulate``'s return, ``negacyclic_multiply`` and a few
#: raises and calls that fit one line.  700 since every transform body
#: has one form per direction: the natural-order inverse scale went (-1),
#: ``_native_transform`` checks the kernel's status (+1), and two
#: comments are a line shorter each (-2).  699 since the kernel allocates
#: the calling thread's scratch: ``_native_hoist``'s ``_lines`` row and
#: ``keyswitch_rotate``'s ``np.empty`` went, for a ``MemoryError`` on
#: each entry point's status.  695 since the key switch takes Galois
#: elements (``galois_maps`` builds and checks the maps once per element
#: set and keeps them on the engine), keys checked when they are made,
#: runs summed under ``accumulate`` and the job table built in one pass,
#: with its kernel-off branch (-4 net).  954 since a linear layer call is
#: one program (+259): ``LayerProgram`` and its helpers (the builder:
#: regions as views, four op kinds with their census and build-time
#: checks, the kernel's table; 169 lines with docstrings), ``run_layer``
#: (the per-call checks, one ``rns_layer_run`` call) and its kernel-off
#: interpreter (62), and 28 more: the three single-op references factored
#: out for both, the key check shared with ``keyswitch_rotate``,
#: ``scale_round`` / ``multiply_add`` taking a round's replies at once and
#: the module docstring's ``run_layer`` line.  979 (+25) since the
#: build-time views refuse reads (``_Ref`` prints no data and raises on
#: every ufunc and numpy function but ``broadcast_to``: +13) and the run
#: rule has one copy, ``_run_rows``, for ``keyswitch_rotate`` and the
#: builder (+14 for the helper, -8 at the two sites), net of the
#: ``accumulate`` knob leaving ``keyswitch_rotate``; the program's table
#: is assembled from named operands (+4).
NTT_BATCH_BUDGET = 979
#: ``src/repro/bfv/*.py`` (3,739 with that twin, 3,511 while the wire
#: carried int64 residues, 3,510 before keys were stored in the digits'
#: slot order).  3,543 since the client's crypto joined the kernel tier,
#: net of the per-polynomial encryption route it replaced
#: (``_small_to_eval``, ``_delta_times_message``, the int64 ``%`` lift,
#: ``RnsPolynomial.from_small_coeffs``).  3,544 since ``kernel_status``
#: reports the kernel's lanes: the ``kernel_lanes`` signature (+1), the
#: ``lanes`` field and its docstring line (+2), net of the shorter
#: source-tree rule of ``_build_dir`` (-2).  3,549 with the five lines
#: on lanes in the ``ntt_batch`` docstring; unchanged when a hoist became
#: one ``RnsNttEngine.hoist`` call (``ntt_batch.py`` +5, ``scheme.py``'s
#: ``_digit_evals`` -3, ``native.SPLIT_BLOCK`` -2).  3,517 since every
#: automorphism is the eval-domain slot permutation (``ntt_batch.py``
#: -25, ``scheme.py`` -5: the un-hoisted rotation permutes c1 and key
#: generation permutes the secret's evaluations; ``polynomial.py`` +2,
#: ``galois_automorphism_coeffs`` documented as the object-integer
#: reference) and the kernel composes over any basis
#: (``native.MAX_COMPOSE_LIMBS`` / ``MAX_COMPOSE_WORDS`` and the
#: ``rns_hoist`` element, -4).  Unchanged when a Galois key became one
#: ``RnsNttEngine.galois_key`` pass (``ntt_batch.py`` +37, ``params.py``
#: +5 for the one plain-modulus check, the kernel signature +1), paid for
#: by what the per-digit loop needed: ``KeySwitchKey.from_pairs``, ``_make_keyswitch_key``,
#: ``_key_body``, ``_sample_uniform_eval``, ``RnsPolynomial.scalar_multiply``
#: and ``permute``, ``RnsBasis.reduce_scalar`` (-43).  3,516 when the
#: hoist's rows stayed bit-reversed (``ntt_batch.py`` -1, the
#: ``rns_hoist`` signature one argument shorter in place).  3,515 with
#: one transform form per direction (``ntt_batch.py`` -2; ``native.py``
#: +1: ``ntt_forward`` / ``ntt_inverse`` return a status).  3,462 with one
#: copy of each job: the plaintext wire format and
#: ``ciphertext_wire_bytes`` (nothing sent or read them),
#: ``digit_decompose_windows``, ``expected_digit_count`` and
#: ``HoistedCiphertext.digit_stack`` / ``digit_polys`` went, no caller
#: but their tests (-53, with ``native.py`` +1 and ``ntt_batch.py`` -1
#: for the kernel-allocated scratch).  3,461 since the key switch took
#: Galois elements and summed runs: ``KeySwitchKey`` checks its stack when
#: made (+14), ``ntt_batch.py`` -4, and ``scheme.py`` -11 (``_switch_key``
#: and the scheme's own map cache went).  3,689 with the layer program
#: (``ntt_batch.py`` +259, ``native.py`` +1 for its signature) and a
#: round's replies decrypted at once (``scheme.py`` +7), net of the
#: test-only names that went (``RnsPolynomial.neg`` / ``to_eval`` /
#: ``from_bigint_coeffs``, ``noise.noise_bits`` / ``decryption_correct``:
#: -41 with their exports) and the docstrings of the two kept (+2).
#: 3,698 with ``ntt_batch.py`` +25 (the read guard and the one run rule)
#: and ``scheme.py`` -16 (``rotate_rows_group``'s ``accumulate``, its
#: copy-add branch and shared-row refusal went: only a layer program
#: accumulates).  3,840 with the kernel codec in ``serialize.py`` (+137:
#: ``_Frame``, the per-parameter header template, its match and the
#: kernel's entry points, 56; the kernel encode and decode of ciphertexts
#: and Galois keys, with the reference kept for every failure, and
#: ``_pack`` / ``_unpack`` taking a CRC from the caller, 48; ``crc32``
#: for ``.rpa`` sections and ``_address``, 20; the module docstring, 8;
#: imports and ``_LEN``, 5) and ``native.py`` +5 for the signatures and
#: a comment line.  3,832 with both codecs reading a header through the
#: same ``json.loads`` and checks (-8 net: the header byte matcher,
#: ``_pack``'s CRC argument and the key encode's CRC fold went; one
#: ``_decode`` for both kinds, ``_Frame.read_body`` and the check that
#: ``body_bytes`` names the body came).
BFV_BUDGET = 3832
#: ``src/repro/bfv/_ntt_kernel.c`` (1,602 before the hoist's Galois
#: element, ``barrett`` and the compose limits went; 1,552, on record
#: without a budget, before every limb was held below 2^30 and
#: decryption's exact branch composed through the hoist's 32-bit helper:
#: ``garner_compose``, ``shoup_mul``, ``mulhi64`` and the exact
#: rounding's 64-bit word arithmetic went).  1,541 with ``rns_galois_key``
#: (+37: the entry point and its comment, 33, and its line in the header
#: list, 4), which writes a Galois key's stack in one pass.  1,751 since
#: the hoist keeps each member's rows bit-reversed from the INTT to the
#: NTT (+210 net): a Gentleman-Sande inverse in each of the three bodies
#: (``gs_scalar``; ``gs4``, ``back4``; ``gs8``, ``back8``), each body split
#: into the passes ``tools/ntt_stages.c`` times (``front``/``dit``/``last``
#: per body, the ``body4``/``body8`` constants built once per call),
#: ``alloc_lines`` for the cache-line-aligned team scratch and call
#: buffer, and the comments on the row order.  1,733 since each body has
#: one forward and one inverse (-18 net): ``ntt_call.perm``, ``ntt_gs``,
#: the gathered and the optional premultiply fronts and the inverse-scale
#: branches of ``last4`` / ``last8`` went, for a scalar ``bit_reverse``
#: pass in ``ntt_rows`` and the caller's row ``ntt_run`` allocates.
#: Unchanged when ``lanes_run`` took that allocation over for every
#: entry point (``rns_hoist`` and ``keyswitch_rotate`` lost their
#: ``scratch`` argument and return a status, as ``ntt_forward`` does).
#: 1,750 with ``keyswitch_rotate``'s ``accumulate`` path (+17 net): an
#: item is one limb of one run of jobs on one output row (``ks_item`` +6:
#: the empty item of a job inside a run, the loop over the run and its
#: ``add`` flag), the add-and-reduce in both gathers (+1 scalar, +3
#: AVX-512), and the comments on runs (+5 at the entry point, +2 in the
#: header list).  1,837 with ``rns_layer_run`` (+87, all of it the entry
#: point): the op loop over the four kinds, each through the entry point
#: that runs it alone (60), its comment with the op table (22) and its
#: lines in the header list (4), plus the blank line between.  1,849
#: (+12) since the op table's word layout is named once, in enums beside
#: ``OP_HOIST..OP_COPY`` (+8, and a line of comment) that ``rns_layer_run``
#: and ``tools/lanes_tsan.c`` index by, so a reordered field no longer
#: compiles into a wrong read (+3 for the longer calls).  2,208 (+359)
#: with the codec passes -- ``crc32_bytes`` (PCLMULQDQ fold, slicing-by-8
#: table), ``rns_pack`` and ``rns_unpack`` with their cloned block loops,
#: 181 -- and AVX-512F bodies beside the cloned loops with one vpmuludq per
#: product: ``mac_weights`` (+93, with its ``isa`` argument) and the
#: hoist's Decompose (+67), plus 18 lines of comments in the header list
#: and on the clones.
KERNEL_BUDGET = 2208
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
    kernel = _lines(SRC / "bfv" / "_ntt_kernel.c")
    assert kernel <= KERNEL_BUDGET, (
        f"bfv/_ntt_kernel.c is {kernel} lines, budget {KERNEL_BUDGET}: one "
        "way per primitive, one limb bound"
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
