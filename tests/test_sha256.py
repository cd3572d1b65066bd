"""The built-in SHA-256 helper matches ``hashlib`` digest for digest.

``hashlib`` is imported here only as the oracle; the package itself
hashes through :mod:`repro._sha256` so that no run loads OpenSSL.
"""

import hashlib

import pytest

from repro._sha256 import sha256


@pytest.mark.parametrize("data", [b"", b"core.3", "pacer.mc0".encode("utf-8")])
def test_one_shot_digest_matches_hashlib(data):
    ours, oracle = sha256(data), hashlib.sha256(data)
    assert ours.digest() == oracle.digest()
    assert ours.hexdigest() == oracle.hexdigest()


def test_multi_block_updates_match_hashlib():
    # 1000 bytes span many 64-byte blocks; the cut points straddle them
    data = bytes(range(256)) * 3 + b"\0" * 232
    ours, oracle = sha256(), hashlib.sha256()
    for start, stop in ((0, 1), (1, 63), (63, 65), (65, 600), (600, len(data))):
        ours.update(data[start:stop])
        oracle.update(data[start:stop])
    assert ours.digest() == oracle.digest() == hashlib.sha256(data).digest()
    assert ours.hexdigest() == oracle.hexdigest()

