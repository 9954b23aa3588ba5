"""Shared fixtures: small (insecure, fast) BFV contexts for unit tests.

Cryptographic unit tests use deliberately small ring dimensions with
``require_security=False`` so the suite runs quickly; parameter-security
itself is tested separately in ``test_params_security.py``.

Networked tests never use fixed ports or sleeps: ``shard_worker_fleet``
(and the servers it wraps) binds port 0 -- the OS picks a free port, and
the EADDRINUSE race on the pick is retried inside
:func:`repro.serving.bind_listener` -- and readiness is an event (the
server's ``start()`` returns with the bound address), not a poll loop.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.bfv import BfvParameters, BfvScheme


@pytest.fixture(scope="session")
def small_params() -> BfvParameters:
    """Tiny, fast context: n=256, 18-bit t, 60-bit q."""
    return BfvParameters.create(
        n=256,
        plain_bits=18,
        coeff_bits=60,
        w_dcmp_bits=6,
        a_dcmp_bits=12,
        require_security=False,
    )


@pytest.fixture(scope="session")
def small_scheme(small_params) -> BfvScheme:
    return BfvScheme(small_params, seed=42)


@pytest.fixture(scope="session")
def small_keys(small_scheme):
    return small_scheme.keygen()


@pytest.fixture(scope="session")
def small_galois(small_scheme, small_keys):
    secret, _ = small_keys
    return small_scheme.generate_galois_keys(secret, list(range(1, 17)))


@pytest.fixture(scope="session")
def conv_params() -> BfvParameters:
    """Context large enough for live conv/FC layers: n=2048, wide q."""
    return BfvParameters.create(
        n=2048,
        plain_bits=17,
        coeff_bits=100,
        w_dcmp_bits=6,
        a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="session")
def conv_scheme(conv_params) -> BfvScheme:
    return BfvScheme(conv_params, seed=7)


@pytest.fixture(scope="session")
def conv_keys(conv_scheme):
    return conv_scheme.keygen()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def shard_worker_fleet():
    """Start-and-stop helper for remote shard-worker fleets.

    Usage::

        with shard_worker_fleet(artifact_dir, count=2) as servers:
            pool = ShardPool(None, workers=0,
                             remote_endpoints=[s.endpoint for s in servers])

    Every server binds port 0 (free-port pick, EADDRINUSE-retried) and
    ``start()`` returning *is* the readiness event -- no fixed ports, no
    sleeps.  Servers are stopped on exit even when the body raises.
    """
    from repro.serving import ShardWorkerServer

    @contextmanager
    def fleet(artifact_dir, count: int = 1, **kwargs):
        servers = []
        try:
            for _ in range(count):
                servers.append(
                    ShardWorkerServer(artifact_dir, port=0, **kwargs).start()
                )
            yield servers
        finally:
            for server in servers:
                server.stop()

    return fleet


@pytest.fixture(scope="session")
def rewrite_header():
    """``rewrite_header(blob, edit)``: a serialized blob with its JSON
    header passed through ``edit`` (which mutates the dict) and the body
    kept, CRC and all -- for malformed-header tests."""
    import json
    import struct

    def rewrite(blob: bytes, edit) -> bytes:
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + header_len].decode())
        edit(header)
        raw = json.dumps(header, sort_keys=True).encode()
        return blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + header_len :]

    return rewrite


@pytest.fixture(scope="session")
def version1_wire():
    """Blob builders for the int64 wire format (version 1) that preceded
    the ``<u4`` one: no ``version`` header field, every residue an
    ``<i8``, key pairs pair-major (body then ``a``).  For version-skew
    tests; the current serializer reads none of these blobs.
    """
    import json
    import struct
    import zlib
    from types import SimpleNamespace

    from repro.bfv.serialize import params_to_dict

    def pack(header, arrays):
        body = b"".join(np.asarray(a, dtype="<i8").tobytes() for a in arrays)
        header = {**header, "body_bytes": len(body), "crc32": zlib.crc32(body)}
        raw = json.dumps(header, sort_keys=True).encode()
        return b"RPRO" + struct.pack("<I", len(raw)) + raw + body

    def common(kind, params):
        return {
            "kind": kind, "n": params.n, "limbs": params.coeff_basis.count,
            "params": params_to_dict(params),
        }

    def ciphertext(ct, params):
        return pack(common("ciphertext", params), [ct.c0.data, ct.c1.data])

    def galois_keys(keys, params):
        elements = sorted(keys.keys)
        header = {
            **common("galois_keys", params), "elements": elements,
            "pairs_per_key": params.l_ct, "base_bits": params.a_dcmp_bits,
        }
        return pack(header, [
            keys.keys[element].stack.transpose(2, 0, 1, 3) for element in elements
        ])

    return SimpleNamespace(ciphertext=ciphertext, galois_keys=galois_keys)
