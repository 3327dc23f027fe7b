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
tuple: the rest of the address after ``stream``. A round's two multiplies
are one array operation on the lanes x = (c0, c2) and y = (c1, c3), each a
(2, ids, blocks) stack, with the multipliers M and key words k stacked
alike: hi, lo = mulhilo(M, x); x, y = hi[::-1] ^ y ^ k, lo[::-1].
"""

from __future__ import annotations

import hashlib

import numpy as np

_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
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


def _mulhilo(m: np.ndarray, x: np.ndarray):
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
    keys = np.frombuffer(_keys((int(seed), *map(int, stream)), ids), dtype=np.uint64)
    rows, blocks = keys.size // 2, -(-count // 4)
    # the key words (k0, k1) stacked as the lanes, in full, so each op runs flat
    k = np.ascontiguousarray(np.broadcast_to(keys.reshape(-1, 2).T[..., None], (2, rows, blocks)))
    x = np.zeros((2, rows, blocks), dtype=np.uint64)  # (c0, c2)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros_like(x)  # (c1, c3)
    for _ in range(10):  # uint64 arrays wrap silently, as Philox needs
        hi, lo = _mulhilo(_M, x)
        x, y, k = hi[::-1] ^ y ^ k, lo[::-1], k + _WEYL  # and the next round's key
    words = np.stack((x[0], y[0], x[1], y[1]), axis=-1).reshape(rows, 4 * blocks)[:, :count]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def spawn_seed(seed: int, *stream: int) -> int:
    """Derive a 63-bit sub-seed from a master seed and stream ids."""
    return int.from_bytes(_key((int(seed), *map(int, stream)), 8), "little") >> 1
