"""Equidistribution experiments: hit counting, Weyl sums, digit statistics.

Orbits n -> q_n x mod 1 are computed exactly. Geometric orbits q_n = b^n
and digit statistics share one exact digit engine: for x = p/q it forms
D = floor(p b^M / q) in one big-integer step (a shift when q is a power of
two, as for every GridPoint). Digit statistics convert D to base-b digits,
by unpacking bytes in base 2 and by splitting on the powers (b^L)^(2^k)
down to int64 leaves in any other base. frac(b^n x) is read from the K =
ceil(64 / log2 b) + 2 digits after position n, as exact integer chunks
converted to float once each; in base 2 the chunks come straight from
D's 64-bit words, shifted into place ORBIT_BLOCK offsets at a time in
one reused scratch matrix, and in other bases from the digits by
doubling Horner. Each value is within 2^-51 of the exact one. Distances
to the target therefore land within TIE_BAND = 2^-50 of the exact
distances, so every hit decision outside the band is exact, and inside
the band an exact-rational fallback decides: counts are exact for the
represented point. Explicit-term sequences reduce q_n p mod q term by
term.

A hit count folds each block of the orbit as it is produced, so in base
2 it holds O(ORBIT_BLOCK) words beyond psi and D's bytes. Weyl sums join
the blocks and hold one phase per harmonic and step, a matrix the CLI
charges to its budget.

The rate psi(1..N) and its correctly rounded sum depend on the spec only:
an EquidistSpec builds both once, on first use, and every point counted
against it reads them.

Sampled points carry their bit budget: an orbit of length N under base b
consumes about N*log2(b) bits of the sample, so requests beyond
(bits - 64) / log2(b) steps are rejected with the largest admissible
horizon. Exact rational inputs carry exact intent and are never rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import expr as ex
from .ifs import ValidationError
from .rng import stream_rng

TIE_BAND = 2.0 ** -50
ORBIT_BLOCK = 8192    # base-2 orbit steps per block: 128 words of 64 bits


# ---------------------------------------------------------------------------
# rate functions psi
# ---------------------------------------------------------------------------

class RateFn:
    """An evaluable rate n -> psi(n), range-checked into [0, 1/2]."""

    def __init__(self, fn):
        self._fn = fn

    @classmethod
    def parse(cls, text: str) -> "RateFn":
        tree = ex.parse(text)
        extra = tree.variables() - {"n"}
        if extra:
            raise ValidationError(f"rate may only use the variable n, got {sorted(extra)}")
        return cls(lambda n: tree.eval({"n": n}))

    def values(self, horizon: int) -> np.ndarray:
        """psi(1..horizon) as one float array, evaluated and range-checked
        ORBIT_BLOCK values at a time; a value outside [0, 1/2], NaN
        included, raises ValidationError naming the first such n."""
        vals = np.empty(horizon)
        for lo in range(0, horizon, ORBIT_BLOCK):
            block = vals[lo:lo + ORBIT_BLOCK]
            n = np.arange(lo + 1, lo + block.size + 1, dtype=float)
            with np.errstate(all="ignore"):  # NaN and inf fail the range check below
                block[...] = self._fn(n)
            bad = np.flatnonzero(~((block >= 0.0) & (block <= 0.5)))
            if bad.size:
                raise ValidationError(f"rate value {float(block[bad[0]])!r} at "
                                      f"n={lo + int(bad[0]) + 1} is outside [0, 1/2]")
        return vals


# ---------------------------------------------------------------------------
# frequency sequences
# ---------------------------------------------------------------------------

def _check_base(base) -> int:
    if isinstance(base, bool) or int(base) != base or not 2 <= base < 1 << 63:
        raise ValidationError("base must be an integer in [2, 2^63)")
    return int(base)


@dataclass(frozen=True)
class EquidistSpec:
    """A frequency sequence, a target point and a rate, up to a horizon.

    The rate's values psi(1..horizon) and their sum are built once per
    spec, on first use, and shared by every point counted against it."""

    kind: str                      # "geometric" | "explicit"
    gamma: float
    rate: RateFn
    horizon: int
    base: int | None = None
    terms: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("target must lie in [0, 1]")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")

    @classmethod
    def geometric(cls, base: int, gamma: float, rate: RateFn, horizon: int) -> "EquidistSpec":
        return cls("geometric", gamma, rate, int(horizon), base=_check_base(base))

    @classmethod
    def explicit(cls, terms, gamma: float, rate: RateFn,
                 horizon: int | None = None) -> "EquidistSpec":
        terms = np.asarray(terms, dtype=object)
        if len(terms) == 0:
            raise ValidationError("empty sequence")
        if any(int(t) != t or t < 1 for t in terms):
            raise ValidationError("sequence entries must be positive integers")
        terms = np.array([int(t) for t in terms], dtype=object)
        if any(int(b) <= int(a) for a, b in zip(terms[:-1], terms[1:])):
            raise ValidationError("sequence must be strictly increasing")
        horizon = len(terms) if horizon is None else min(int(horizon), len(terms))
        return cls("explicit", gamma, rate, horizon, terms=terms)

    @cached_property
    def psi(self) -> np.ndarray:
        vals = self.rate.values(self.horizon)
        vals.flags.writeable = False  # shared by every count against this spec
        return vals

    @cached_property
    def rate_sum(self) -> float:
        """The correctly rounded sum of psi(1..horizon), read from the
        cached psi through a memoryview, with no list of floats."""
        return math.fsum(memoryview(self.psi))


# ---------------------------------------------------------------------------
# sample points with explicit precision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    """A binary fraction standing in for a generic real, with a bit budget."""

    numerator: int
    bits: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.bits)

    def max_horizon(self, base: int) -> int:
        return max(0, int((self.bits - 64) / math.log2(base)))


def random_grid_point(bits: int, seed: int = 0) -> GridPoint:
    """Uniform binary fraction of the given precision, from the stream
    (seed, 0xB175, 0)."""
    if bits < 65:
        raise ValidationError("need at least 65 bits")
    rng = stream_rng(seed, 0xB175, 0)
    nbytes = (bits + 7) // 8
    raw = int.from_bytes(rng.bytes(nbytes), "big") >> (nbytes * 8 - bits)
    return GridPoint(raw, bits)


def grid_point_for(spec: EquidistSpec, seed: int = 0) -> GridPoint:
    """A uniform point with enough precision for the sequence's full horizon."""
    if spec.kind == "geometric":
        bits = int(math.ceil(spec.horizon * math.log2(spec.base))) + 128
    else:
        bits = int(max(int(t) for t in spec.terms[:spec.horizon]).bit_length()) + 128
    return random_grid_point(bits, seed)


# ---------------------------------------------------------------------------
# exact orbits: one digit engine
# ---------------------------------------------------------------------------

def _residue(x) -> tuple:
    """(p, q) with frac(x) = p/q; a GridPoint's q is its 2^bits, no gcd taken."""
    if isinstance(x, GridPoint):
        q = 1 << x.bits
        return x.numerator % q, q
    if isinstance(x, (Fraction, float, int)):
        frac = Fraction(x)
        return frac.numerator % frac.denominator, frac.denominator
    raise ValidationError(f"unsupported point type {type(x).__name__}")


def _leaf_length(b: int) -> int:
    """The most base-b digits whose value stays below 2^63 (one int64)."""
    L = 1
    while b ** (L + 1) < 1 << 63:
        L += 1
    return L


def _window_length(b: int) -> int:
    """K = ceil(64 / log2 b) + 2 in exact integers: the least k with
    b^k >= 2^64, plus two digits, so that b^-K <= 2^-66."""
    k = 0
    while b ** k < 1 << 64:
        k += 1
    return k + 2


def _scaled(p: int, q: int, b: int, m: int) -> int:
    """D = floor(p b^m / q) in one big-integer step, a shift when q is a
    power of two: the first m base-b digits of p/q < 1 as one integer."""
    scaled = p << m if b == 2 else p * b ** m
    shift = q.bit_length() - 1
    return scaled >> shift if q == 1 << shift else scaled // q


def _digits(p: int, q: int, b: int, m: int) -> np.ndarray:
    """The first m base-b digits of p/q in [0, 1), exactly, as int64.

    Base 2 unpacks D = `_scaled(p, q, b, m)` byte by byte; any other base
    splits D on the powers (b^L)^(2^k), halving at each level, down to
    leaves below b^L < 2^63 that numpy expands into L digits each."""
    D = _scaled(p, q, b, m)
    if b == 2:
        raw = np.frombuffer(D.to_bytes((m + 7) // 8, "big"), dtype=np.uint8)
        return np.unpackbits(raw)[-m:].astype(np.int64)
    L = _leaf_length(b)
    levels = (-(-m // L) - 1).bit_length()   # 2^levels leaves cover m digits
    powers = [b ** L]
    while len(powers) < levels:
        powers.append(powers[-1] ** 2)
    parts = [D]
    for P in reversed(powers[:levels]):
        parts = [half for part in parts for half in divmod(part, P)]
    place = b ** np.arange(L - 1, -1, -1, dtype=np.int64)
    return ((np.array(parts, dtype=np.int64)[:, None] // place) % b).ravel()[-m:]


def _sliding(digits: np.ndarray, b: int, length: int, count: int) -> np.ndarray:
    """digits[i:i+length] read as base-b integers for i < count, b^length < 2^63.

    Doubling Horner: blocks of 1, 2, 4, ... digits are built by joining two
    halves, and the window appends the blocks that the bits of ``length``
    select; every value is exact in int64."""
    out = np.zeros(count, dtype=np.int64)
    block, size, done = digits, 1, 0
    while True:
        if length & size:
            out = out * b ** size + block[done:done + count]
            done += size
        if 2 * size > length:
            return out
        block = block[:-size] * b ** size + block[size:]
        size *= 2


def _orbit_blocks(p: int, q: int, b: int, N: int):
    """Yield (start, ys) blocks in order, where ys[i] = frac(b^n p/q) for n =
    start + i + 1, each within 2^-51 of the exact value; together the
    blocks cover n = 1..N.

    frac(b^n x) is 0.d_{n+1} d_{n+2} ... in base b. Its first K digits are
    read as exact integers in chunks of at most L digits, and y is the sum
    of chunk / b^end, smallest chunk first. Truncation costs less than
    b^-K <= 2^-66. With u = 2^-53, the leading chunk's int-to-float
    conversion, rounded power and division cost at most 3u on a value
    below 1, the sum of the later chunks (below b^-L <= 2^-31) well under
    u/16, and the last addition u/2: under 4u = 2^-51 in all. The hit
    test's distance adds two roundings of u/2, so it stays within 5u <
    TIE_BAND = 8u of the exact distance, and every decision outside the
    band is exact. Bases other than 2 yield the whole digit path as one
    block.

    Base 2 (K = 66, L = 62) takes its chunks straight from 64-bit words,
    ORBIT_BLOCK steps at a time. The big-endian words A of D = floor(p
    2^(64(R+1)) / q), with R = ceil((N + 63) / 64), hold the bits of p/q.
    The 64 bits after offset k = 64i + r are U[k] = (A[i] << r) | (A[i+1]
    >> 1 >> (63 - r)), split so that no shift reaches 64; a block of W =
    ORBIT_BLOCK / 64 words shifts its W + 1 rows of U, one per word, into
    one scratch matrix that every block reuses. The chunks are U[n] >> 2
    (62 bits) and U[n + 62] >> 60 (4 bits), the integers the digit path
    forms, so every float equals its value bit for bit (one rounding of a
    63-bit window would move about 3 in 10^3 of them by an ulp, and the
    Weyl sums with them). The error is the truncation plus two roundings
    of u/2, under 2^-52. Beyond D's bytes, a block holds O(ORBIT_BLOCK)
    words."""
    if b != 2:
        K, L = _window_length(b), _leaf_length(b)
        digits = _digits(p, q, b, N + K)[1:]
        ys = np.zeros(N)
        for start in reversed(range(0, K, L)):
            end = min(start + L, K)
            ys += _sliding(digits[start:], b, end - start, N) / float(b ** end)
        yield 0, ys
        return
    R = -(-(N + 63) // 64)
    raw = _scaled(p, q, 2, 64 * (R + 1)).to_bytes(8 * (R + 1), "big")
    A = np.frombuffer(raw, dtype=">u8").astype(np.uint64)
    r = np.arange(64, dtype=np.uint64)
    rest = np.uint64(63) - r
    U = np.empty((ORBIT_BLOCK // 64 + 1, 64), dtype=np.uint64)
    V = np.empty_like(U)
    for start in range(0, N, ORBIT_BLOCK):
        count = min(ORBIT_BLOCK, N - start)
        i, rows = start // 64, (count + 62) // 64 + 1   # U[start + 1..start + count + 62]
        u, v = U[:rows], V[:rows]
        np.left_shift(A[i:i + rows, None], r, out=u)
        np.right_shift((A[i + 1:i + rows + 1] >> np.uint64(1))[:, None], rest, out=v)
        u |= v
        w = u.reshape(-1)
        # both chunks are below 2^62, so int64 views are exact and convert fast
        ys = (w[1:count + 1] >> np.uint64(2)).view(np.int64) * 2.0 ** -62
        ys += (w[63:count + 63] >> np.uint64(60)).view(np.int64) * 2.0 ** -66
        yield start, ys


def _orbit(x, spec: EquidistSpec):
    """(blocks, exact): the (start, ys) blocks of frac(q_n x) for n =
    1..horizon, floats within 2^-51 as `_orbit_blocks` yields them, and
    an exact-value callback, exact(n) for 1-based n, that resolves ties."""
    p, q = _residue(x)
    N = spec.horizon

    if spec.kind == "geometric":
        b = spec.base
        if isinstance(x, GridPoint):
            cap = x.max_horizon(b)
            if N > cap:
                raise ValidationError(
                    f"horizon {N} exceeds the precision budget of this point; "
                    f"max admissible horizon is {cap}")

        def exact(n):  # n is 1-based
            return Fraction(pow(b, n, q) * p % q, q)
        return _orbit_blocks(p, q, b, N), exact

    terms = spec.terms[:N]
    ys = np.empty(N)
    # a GridPoint's q is a power of two: a mask reduces mod q, not a long division
    shift, mask = 1 << 64, q - 1 if q & (q - 1) == 0 else 0
    for n, qn in enumerate(terms):
        r = int(qn) * p
        ys[n] = _scaled(r & mask if mask else r % q, q, 2, 64) / shift

    def exact(n):
        return Fraction(int(terms[n - 1]) * p % q, q)
    return iter([(0, ys)]), exact


# ---------------------------------------------------------------------------
# hit counting
# ---------------------------------------------------------------------------

@dataclass
class CountResult:
    """Hit count against the doubled rate sum, with the normalised deviation
    ``deviation_half`` = (count - 2S) / (S^(1/2) (log(S+2))^(2+eps))."""

    horizon: int
    count: int
    two_sigma: float
    deviation_half: float
    epsilon: float


def count_hits(x, spec: EquidistSpec, epsilon: float = 1.0) -> CountResult:
    """Count n <= horizon with dist(q_n x - gamma, Z) <= psi(n), exactly.

    Each block of the orbit is folded as it is produced: the absolute n
    of its ties (distances within TIE_BAND of psi(n)) are kept for the
    exact-rational fallback, which decides them after the last block, and
    its other float hits are counted. Beyond psi and D's bytes, a base-2
    count holds O(ORBIT_BLOCK) words."""
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    psi, gamma = spec.psi, spec.gamma
    blocks, exact = _orbit(x, spec)
    count, ties = 0, []
    for start, ys in blocks:
        ps = psi[start:start + len(ys)]
        d = np.abs(ys - gamma)
        dist = np.minimum(d, 1.0 - d)
        hits = dist <= ps
        tie = np.flatnonzero(np.abs(dist - ps) <= TIE_BAND)
        hits[tie] = False
        count += int(np.count_nonzero(hits))
        ties.extend((tie + (start + 1)).tolist())
    g = Fraction(gamma)
    for n in ties:
        delta = abs(exact(n) - g)
        count += min(delta, 1 - delta) <= Fraction(float(psi[n - 1]))
    s = spec.rate_sum
    logterm = math.log(s + 2.0)
    denom_half = math.sqrt(s) * logterm ** (2.0 + epsilon) if s > 0 else math.inf
    return CountResult(spec.horizon, count, 2.0 * s, (count - 2.0 * s) / denom_half, epsilon)


def weyl_sums(x, spec: EquidistSpec, harmonics: int) -> np.ndarray:
    """|1/N sum_n exp(-2 pi i h q_n x)| for h = 1..harmonics."""
    if harmonics < 1:
        raise ValidationError("need at least one harmonic")
    blocks, _ = _orbit(x, spec)
    ys = np.concatenate([ys for _, ys in blocks])
    h = np.arange(1, harmonics + 1)
    phases = np.exp(-2j * np.pi * np.outer(h, ys))
    return np.abs(phases.mean(axis=1))


# ---------------------------------------------------------------------------
# digit statistics
# ---------------------------------------------------------------------------

@dataclass
class DigitFrequency:
    base: int
    count: int
    histogram: np.ndarray
    chi_square: float


def digit_freq(x, base: int, count: int) -> DigitFrequency:
    """First ``count`` digits of x in the given base, exactly.

    The input is treated as an exact rational (floats are dyadic
    rationals); the digits come from the exact digit engine. The
    chi-square statistic compares the histogram against the uniform law.
    """
    base = _check_base(base)
    if count < 1:
        raise ValidationError(f"digit count must be at least 1, got {count}")
    p, q = _residue(x)
    digits = _digits(p, q, base, int(count))
    hist = np.bincount(digits, minlength=base).astype(np.int64)
    expected = count / base
    chi2 = float(((hist - expected) ** 2 / expected).sum())
    return DigitFrequency(base, count, hist, chi2)
