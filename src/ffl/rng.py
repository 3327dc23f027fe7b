"""Deterministic, stream-addressable random number generators.

All randomness in the package flows through counter-based Philox generators
keyed by (seed, stream ids). Two calls with the same key yield the same
stream regardless of call order, so parallel scans stay reproducible.

``stream_rng`` hands out one numpy Generator per key. ``uniforms`` draws
the leading uniforms of many keys in one array call: numpy's Philox is
Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011), draw j of a key is
word j mod 4 of the block at counter (j // 4 + 1, 0, 0, 0), and
``Generator.random()`` maps a word w to (w >> 11) * 2^-53. So row r of
``uniforms(seed, stream, ids, count)`` equals
``stream_rng(seed, *stream, ids[r]).random(count)`` bit for bit, or
``stream_rng(seed, *stream, *ids[r]).random(count)`` when the id is a
tuple: the rest of the address after ``stream``.
"""

from __future__ import annotations

import hashlib

import numpy as np

_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_WEYL = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW, _SHIFT = np.uint64(0xFFFFFFFF), np.uint64(32)


def _key(address: tuple, size: int = 16) -> bytes:
    """The blake2b digest of the repr of an address, the tuple of ints
    (seed, *stream): by default the 128-bit Philox key."""
    return hashlib.blake2b(repr(address).encode(), digest_size=size).digest()


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Generator for the given (seed, *stream) address.

    The key is a 128-bit digest of the address, fed to Philox. Distinct
    addresses give statistically independent streams.
    """
    key = np.frombuffer(_key((int(seed), *map(int, stream))), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keys(head: tuple, ids) -> bytes:
    """The Philox keys of the addresses head + (id,) for an int id, or head
    + id for a tuple, joined: ``_key`` of each, bit for bit. The addresses
    share the repr "(h1, ..., hk" of ``head``, so its hash state is built
    once and copied per id, which then hashes only the rest of its repr."""
    prefix = hashlib.blake2b(("(" + ", ".join(map(repr, head))).encode(), digest_size=16)
    bare = b",)" if len(head) == 1 else b")"  # an empty rest: repr((h1,)) is "(h1,)"
    keys = []
    for i in ids:  # b"%d" % n is the repr of an int n
        h = prefix.copy()
        if isinstance(i, tuple):
            h.update(b"".join([b", %d" % int(r) for r in i]) + b")" if i else bare)
        else:
            h.update(b", %d)" % int(i))
        keys.append(h.digest())
    return b"".join(keys)


def _mulhilo(m: np.uint64, x: np.ndarray):
    """(high, low) 64-bit words of m * x, the high word from 32-bit halves."""
    m1, m0 = m >> _SHIFT, m & _LOW
    x1, x0 = x >> _SHIFT, x & _LOW
    t = m0 * x0
    u = m1 * x0 + (t >> _SHIFT)
    v = m0 * x1 + (u & _LOW)
    return m1 * x1 + (u >> _SHIFT) + (v >> _SHIFT), m * x


def uniforms(seed: int, stream, ids, count: int) -> np.ndarray:
    """The first ``count`` uniforms on [0, 1) of the stream of every id.

    Row r is ``stream_rng(seed, *stream, ids[r]).random(count)``, bit for
    bit, with the Philox blocks of all rows computed as arrays; a tuple id
    is the rest of its address, ``stream_rng(seed, *stream, *ids[r])``, so
    one call draws streams whose addresses differ in more than one place.
    """
    keys = np.frombuffer(_keys((int(seed), *map(int, stream)), ids),
                         dtype=np.uint64).reshape(-1, 1, 2)
    blocks = -(-count // 4)
    shape = (keys.shape[0], blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = keys[..., 0], keys[..., 1]
    for r in range(10):  # uint64 arrays wrap silently, as Philox needs
        if r:
            k0, k1 = k0 + _WEYL[0], k1 + _WEYL[1]
        hi0, lo0 = _mulhilo(_M[0], c0)
        hi1, lo1 = _mulhilo(_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(shape[0], 4 * blocks)[:, :count]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def spawn_seed(seed: int, *stream: int) -> int:
    """Derive a 63-bit sub-seed from a master seed and stream ids."""
    return int.from_bytes(_key((int(seed), *map(int, stream)), 8), "little") >> 1
