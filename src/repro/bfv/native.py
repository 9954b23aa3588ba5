"""Optional compiled fast path for the batched RNS-NTT engine.

When a C compiler is present this module compiles ``_ntt_kernel.c`` once
(cached as a shared object under ``build/ntt`` at the root of the source tree,
keyed by a hash of the source -- :func:`shared_object_path`) and exposes
it via :mod:`ctypes`; :mod:`repro.bfv.ntt_batch` runs every stage of the
lane through it.  Without it the engine runs the per-limb references the
kernel is tested against.  The two paths are bit-identical, so which one
runs is purely a matter of speed -- about eightfold end to end, which is
why the fallback is never silent: when :func:`load_kernel` returns
``None`` the reason (``REPRO_NTT_NATIVE=0``, no compiler, failed build,
untrusted cache directory, a cached object missing a symbol) is kept for
:func:`kernel_status`, logged once at WARNING unless the environment
asked for it, and surfaced by the serving layer (``/healthz``, the
start-up log line, ``fallback_total{kind="native_to_numpy"}``).

Loading a shared object executes its constructors, so cached kernels are
only trusted from directories owned by the current user that other users
cannot write to (the repo build tree, or a per-user 0700 temp dir).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

_KERNEL: ctypes.CDLL | None = None
_TRIED = False
_REASON: str | None = None
_LOCK = threading.Lock()

log = logging.getLogger(__name__)

#: Environment variable that disables the compiled path when set to 0/false/off.
NATIVE_ENV_VAR = "REPRO_NTT_NATIVE"

_PTR, _LONG = ctypes.c_void_p, ctypes.c_long

#: Every entry point the engine calls, with its ctypes signature.  A cached
#: shared object lacking one of them is a failed load, not an
#: ``AttributeError`` at the first rotation.
_SIGNATURES = {
    "ntt_isa_max": [],
    "kernel_lanes": [],
    "ntt_forward": [_PTR] * 8 + [_LONG] * 4,
    "ntt_inverse": [_PTR] * 8 + [_LONG] * 4,
    "keyswitch_rotate": [_PTR] + [_LONG] * 5 + [_PTR] + [_LONG] * 5,
    "mac_weights": [_PTR] * 4 + [_LONG] * 3 + [_PTR] + [_LONG] * 3
    + [_PTR] + [_LONG] * 6,
    "rns_hoist": [_PTR] * 14 + [_LONG] * 7,
    "rns_layer_run": [_PTR, _LONG, _PTR, _PTR, _PTR] + [_LONG] * 6,
    "rns_mul_add": [_PTR] * 4 + [_LONG, _PTR, _LONG, _PTR, _PTR, _LONG, _PTR, _LONG, _PTR]
    + [_LONG] * 2,
    "rns_lift": [_PTR, _PTR, _LONG, _PTR, _LONG, _PTR, _PTR, ctypes.c_uint64, _LONG, _LONG],
    "rns_galois_key": [_PTR] * 7 + [_LONG] * 3,
    "rns_scale_round": [_PTR] * 9 + [_LONG] * 3 + [ctypes.c_uint64],
    "crc32_bytes": [_PTR, _LONG, _LONG],
    "rns_pack": [_PTR, _PTR, _LONG, _LONG],
    "rns_unpack": [_PTR, _PTR, _LONG, _LONG, _PTR] + [_LONG] * 3,
}
#: Entry points that return a value (the others return void).
_RESTYPES = {"ntt_isa_max": _LONG, "kernel_lanes": _LONG, "rns_scale_round": _LONG,
             "ntt_forward": _LONG, "ntt_inverse": _LONG, "keyswitch_rotate": _LONG,
             "rns_hoist": _LONG, "rns_layer_run": _LONG, "crc32_bytes": _LONG,
             "rns_pack": _LONG, "rns_unpack": _LONG}

#: Bodies of ``ntt_forward`` / ``ntt_inverse`` by ``isa`` level; ``ntt_isa_max()`` names the
#: widest this CPU runs.  ``keyswitch_rotate`` runs AVX-512F at the top level, scalar below;
#: ``mac_weights`` and ``rns_hoist``'s Decompose AVX-512F there, their cloned loops below.
NTT_ISA_NAMES = ("scalar", "avx2", "avx512f")


def kernel_source_path() -> Path:
    """Location of the C kernel source shipped with the package."""
    return Path(__file__).with_name("_ntt_kernel.c")


def _is_trusted(path: Path) -> bool:
    """Only load artifacts the current user owns and others cannot write."""
    if os.name != "posix":
        return True
    info = os.stat(path)
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def _build_dir() -> Path:
    """Cache directory for compiled kernels.

    A source tree -- one whose ``src/repro`` holds this module: a checkout
    or a plain copy of ``src`` -- caches under its own ``build/ntt``, so no
    tree loads an object built into another (a sanitizer build, say).  An
    installed package caches in a per-user 0700 temp directory instead.
    """
    try:
        here = Path(__file__).resolve()
        root = here.parents[3]
        if root / "src" / "repro" / "bfv" / here.name == here:
            candidate = root / "build" / "ntt"
            candidate.mkdir(parents=True, exist_ok=True)
            return candidate
    except OSError:
        pass
    uid = os.getuid() if os.name == "posix" else "user"
    fallback = Path(tempfile.gettempdir()) / f"repro-ntt-build-{uid}"
    fallback.mkdir(mode=0o700, parents=True, exist_ok=True)
    return fallback


def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _compile(compiler: str, source: Path, target: Path) -> bool:
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC", "-pthread", str(source), "-o", str(tmp)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return False


def shared_object_path() -> Path:
    """Where the compiled kernel for the current source is cached.

    The name is keyed by a hash of ``_ntt_kernel.c`` alone, so anything
    that pre-seeds the cache (CI's sanitizer build) and the loader agree.
    """
    tag = hashlib.sha256(kernel_source_path().read_bytes()).hexdigest()[:16]
    return _build_dir() / f"ntt_kernel_{tag}.so"


def _load() -> tuple[ctypes.CDLL | None, str | None]:
    """Returns (kernel, None), or (None, why the references run instead)."""
    if os.environ.get(NATIVE_ENV_VAR, "1").lower() in ("0", "false", "off"):
        return None, f"disabled by {NATIVE_ENV_VAR}"
    try:
        shared_object = shared_object_path()
        if not _is_trusted(shared_object.parent):
            return None, f"untrusted build directory {shared_object.parent}"
        if not shared_object.exists():
            compiler = _compiler()
            if compiler is None:
                return None, "no C compiler (cc/gcc/clang) on PATH"
            if not _compile(compiler, kernel_source_path(), shared_object):
                return None, f"kernel build failed ({compiler})"
        if not _is_trusted(shared_object):
            return None, f"untrusted shared object {shared_object}"
        lib = ctypes.CDLL(str(shared_object))
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name, None)
            if fn is None:
                return None, f"{shared_object.name} lacks symbol {name}"
            fn.restype = _RESTYPES.get(name)
            fn.argtypes = argtypes
        return lib, None
    except Exception as exc:
        return None, f"kernel load failed: {type(exc).__name__}: {exc}"


def load_kernel() -> ctypes.CDLL | None:
    """Compile (if needed) and load the C kernel; None when unavailable."""
    global _KERNEL, _TRIED, _REASON
    with _LOCK:
        if not _TRIED:
            _TRIED = True
            _KERNEL, _REASON = _load()
            if _KERNEL is None and not _REASON.startswith("disabled"):
                log.warning(
                    "native kernel unavailable (%s); HE kernels run on the "
                    "reference path, about eight times slower", _REASON,
                )
        return _KERNEL


def native_available() -> bool:
    """True when the compiled kernel loaded (or would load) successfully."""
    return load_kernel() is not None


def kernel_status() -> dict:
    """Which path the HE kernels run on, for health payloads, logs and metrics.

    ``ntt_isa`` names the transform body the engine runs on the native
    path (:data:`NTT_ISA_NAMES`; None without it), so a host left on the
    scalar body is visible.  ``ntt_path`` keeps the name ``numpy`` for the
    fallback, which runs the numpy references.  ``fallbacks`` counts
    involuntary native -> reference fallbacks of this process (0 or 1: the
    load is attempted once); turning the kernel off with
    ``REPRO_NTT_NATIVE=0`` is a reason, not a fallback.  ``lanes`` counts the
    threads a large call splits across: one per CPU of the affinity mask.
    """
    kernel = load_kernel()
    reason = _REASON
    return {
        "ntt_path": "numpy" if reason else "native",
        "ntt_isa": None if reason else NTT_ISA_NAMES[kernel.ntt_isa_max()],
        "lanes": None if reason else kernel.kernel_lanes(),
        "ntt_fallback_reason": reason,
        "fallbacks": int(reason is not None and not reason.startswith("disabled")),
    }
