"""Prime tables, k-free sieving and counting, and residue-class arithmetic.

Everything here is exact integer work; floating point appears only in the
density main term x / zeta(k).

Every prime the package uses comes from one source, :func:`primes_upto`: a
memo of the primes found so far, stored as an ``array("I")`` and grown only
upward, by sieving just the new segment with the primes it already holds.
Each request is checked against the byte cap, whatever the memo holds, so
results and errors never depend on earlier calls: a request past the cap
raises :class:`~kfree.errors.ResourceError`.

A k-free window [start, end] strikes the multiples of p**k for the primes p
up to a cut near 4 * end**(1/(k+1)) with :func:`translate_flags`, the strike
kernel behind every window and translate scan in the package, and every
integer d above the cut, up to end**(1/k), at its few multiples m * d**k.  A
composite d only repeats a prime factor's strikes, so the flags are those of
every prime up to end**(1/k), while the prime table stops at the cut.
The count Q_k(x) of k-free integers up to x
is not a sweep over [1, x]: it is the Moebius sum
Q_k(x) = sum_d mu(d) * floor(x / d^k), split at D, about x^(2/5) for k = 2.
The d <= D are summed directly, with mu(d) sieved block by block from the
primes up to sqrt(D); the d > D are summed through Mertens values M(y),
computed from the prefix M(0..D) and from each other.  That costs
O(x^(2/5)) time for k = 2, and the prefix of 4 * (D + 1) bytes is what the
byte cap limits: Q_2 runs to about 7 * 10^18, Q_3 to about 4 * 10^26.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import gcd, isqrt, log, pi, prod
from operator import floordiv, mul, sub

from .errors import ResourceError

# Block length of the Moebius sieve behind counting; it bounds that sieve's
# memory no matter how large x gets.
MOBIUS_SEGMENT = 1 << 16

# Cap on the byte array backing a prime table or a k-free window (one byte per
# integer), and on the number of terms of a counting sum.
PRIME_TABLE_BYTE_CAP = 200_000_000


def _require_bytes(size: int, what: str) -> None:
    """Refuse, before allocating, a request for more than the byte cap."""
    if size > PRIME_TABLE_BYTE_CAP:
        raise ResourceError(f"{what} exceeds the {PRIME_TABLE_BYTE_CAP}-byte budget")


def integer_kth_root(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, exact for arbitrary-precision n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if n < 2 or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # Integer Newton iteration seeded from above via the bit length.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly increasing."""

    limit: int
    primes: tuple[int, ...]


# The memo behind primes_upto: every prime up to _memo_limit, ascending.
# Growth replaces the array rather than extending it, so views handed out
# earlier stay valid.
_memo = array("I")
_memo_limit = 1

# Longest stretch of new integers _extend_memo sieves in one bytearray; it
# bounds the sieve's scratch memory however far one request grows the memo.
MEMO_SEGMENT = 1 << 20


def _extend_memo(n: int) -> None:
    """Grow the memo to every prime up to n > _memo_limit, sieving the new
    integers MEMO_SEGMENT at a time and joining their primes to the memo once."""
    global _memo, _memo_limit
    root = isqrt(n)
    if root > _memo_limit:
        _extend_memo(root)
    found = array("I")
    # after the recursion, which may have moved the memo's limit
    for lo in range(_memo_limit + 1, n + 1, MEMO_SEGMENT):
        hi = min(lo + MEMO_SEGMENT - 1, n)
        flags = bytearray([1]) * (hi - lo + 1)
        for p in _memo:
            if p * p > hi:
                break
            start = max(p * p, lo + -lo % p)
            flags[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
        found.extend(compress(range(lo, hi + 1), flags))
    _memo = _memo + found
    _memo_limit = n


def primes_upto(n: int) -> memoryview:
    """All primes up to ``n`` inclusive, ascending, as a read-only view of the
    shared memo (no copy).  A view stays valid and unchanged after growth.
    """
    if n < 0:
        raise ValueError("limit must be nonnegative")
    _require_bytes(n + 1, f"prime table up to {n}")
    if n > _memo_limit:
        _extend_memo(n)
    return memoryview(_memo).toreadonly()[: bisect_right(_memo, n)]


def build_prime_table(limit: int) -> PrimeTable:
    """Every prime up to ``limit`` inclusive, as a table of its own."""
    return PrimeTable(limit, tuple(primes_upto(limit)))


def nth_prime(r: int) -> int:
    """r-th prime, 1-indexed, read from the primes up to a Rosser-style
    upper bound (11 for r < 6, where the bound does not hold)."""
    if r < 1:
        raise ValueError("prime index must be >= 1")
    bound = 11 if r < 6 else int(r * (log(r) + log(log(r)))) + 1
    return primes_upto(bound)[r - 1]


def smallest_power_divisor(n: int, k: int = 2) -> int | None:
    """Smallest prime p with p**k | n, or None if n is k-free.

    Tries the primes up to n**(1/k) from :func:`primes_upto`, so a root past
    the byte cap raises ResourceError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    for p in primes_upto(integer_kth_root(n, k)):
        if n % p**k == 0:
            return p
    return None


@dataclass(frozen=True)
class KFreeWindow:
    """k-free membership flags over the integer interval [start, start+length)."""

    start: int
    length: int
    k: int
    flags: bytes

    def is_free(self, n: int) -> bool:
        if not self.start <= n < self.start + self.length:
            raise IndexError(f"{n} outside window [{self.start}, {self.start + self.length})")
        return bool(self.flags[n - self.start])

    def members(self) -> list[int]:
        return list(compress(range(self.start, self.start + self.length), self.flags))

    def count(self) -> int:
        return self.flags.count(1)


# Consecutive p^k whose product a wide number is reduced by at once, in
# translate_flags and in the constructions' base-point check: at a 13706-bit
# number, groups of 16-32 were fastest, and groups of 2 or 128 about twice as
# slow.
RESIDUE_GROUP = 16

# Widest shift, in bits, that translate_flags reduces modulo each p^k on its
# own.  Striking 200 entries by the 9592 primes below 10^5 (k = 2, Python
# 3.11, 2-core host), one reduction per group was 2.5-3 times slower than
# the per-prime loop at 64 bits, broke even between 768 and 1024 bits, and
# was 1.4-1.6 times faster at 2048 bits and 3.4-3.9 times at 13706 bits.
NARROW_SHIFT_BITS = 1024


def translate_flags(lo: int, count: int, elements, primes, k: int, step: int = 1) -> bytearray:
    """Entry i is 1 when no p**k (p in ``primes``) divides lo + i*step + a for
    any a in ``elements``, else 0.

    For each pair (p, a) the struck i form one class modulo q = p**k, solving
    lo + i*step + a = 0 (mod q), and are zeroed by one slice assignment.  A
    shift -(lo + a) wider than NARROW_SHIFT_BITS is first reduced once per
    group of RESIDUE_GROUP consecutive p^k, by their product, and each class
    is solved from that small remainder, congruent to the shift modulo every
    p^k of the group.  ``step`` must be prime to every listed p; the caller
    bounds ``count``.
    """
    flags = bytearray([1]) * count
    inverses = None if step == 1 else [pow(step, -1, p**k) for p in primes]

    def strike(shift, group, group_inverses):
        # The unit-step loop, which carries the long windows, skips the
        # multiplication by 1/step.
        if group_inverses is None:
            for p in group:
                q = p**k
                first = shift % q
                if first < count:
                    flags[first::q] = bytes((count - 1 - first) // q + 1)
        else:
            for p, inverse in zip(group, group_inverses):
                q = p**k
                first = shift * inverse % q
                if first < count:
                    flags[first::q] = bytes((count - 1 - first) // q + 1)

    for a in elements:
        shift = -(lo + a)
        if shift.bit_length() <= NARROW_SHIFT_BITS:
            strike(shift, primes, inverses)
            continue
        for g in range(0, len(primes), RESIDUE_GROUP):
            group = primes[g : g + RESIDUE_GROUP]
            strike(
                shift % prod(p**k for p in group),
                group,
                None if inverses is None else inverses[g : g + RESIDUE_GROUP],
            )
    return flags


def kfree_window(start: int, length: int, k: int = 2) -> KFreeWindow:
    """Sieve k-free flags for [start, start+length).

    With end the last entry and root = end**(1/k), the multiples of p**k for
    the primes p <= cut = min(root, 4 * end**(1/(k+1))) are struck with
    :func:`translate_flags`; every integer d in (cut, root] is struck at each
    m * d**k in the window, for m <= end / (cut+1)**k.  A composite d repeats
    the strikes of one of its prime factors, so the flags equal those of
    striking every prime up to root.  A root past the byte cap raises
    ResourceError before any prime is requested.
    """
    if start < 1:
        raise ValueError("window start must be >= 1")
    if length < 0:
        raise ValueError("window length must be nonnegative")
    if k < 2:
        raise ValueError("k must be >= 2")
    if length == 0:
        return KFreeWindow(start, 0, k, b"")
    _require_bytes(length, f"window of length {length}")
    end = start + length - 1
    root = integer_kth_root(end, k)
    _require_bytes(root + 1, f"prime table up to {root}")
    # 2, 8 and 16 times end**(1/(k+1)) were slower cuts than 4 on 10^6-long
    # windows near 10^12..10^14.
    cut = min(root, 4 * integer_kth_root(end, k + 1))
    flags = translate_flags(start, length, (0,), primes_upto(cut), k)
    for m in range(1, end // (cut + 1) ** k + 1):
        low = max(cut + 1, integer_kth_root((start - 1) // m, k) + 1)
        for d in range(low, integer_kth_root(end // m, k) + 1):
            flags[m * d**k - start] = 0
    return KFreeWindow(start, length, k, bytes(flags))


# _mobius_block keeps one state byte per d: 2 * L + parity, where parity
# counts the struck primes dividing d mod 2, and L starts at
# 64 - ceil(log2 d) (_START) and adds ceil(log2 p) for each of them; or 255
# once a struck p^2 divides d.  The added sum stays below 2 * log2 d (see
# _mobius_block), and the byte cap keeps d far below 2^63, so L < 127.
_START = [bytes([2 * (64 - t)]) for t in range(64)]
# The start states of d = 1 .. 2^12, which small counts read in one slice.
_LOW_START = _START[0] + b"".join(_START[t] * (1 << t - 1) for t in range(1, 13))
# _STRIKE[c] strikes a prime with ceil(log2 p) = c: state b becomes
# (b ^ 1) + 2c = (b + 2c) ^ 1, and 255 stays 255.  (The b above 254 - 2c,
# which would overflow, never occur.)
_FLIP = bytes(b ^ 1 for b in range(256))
_STRIKE = [(bytes(range(2 * c, 255)) + bytes(2 * c)).translate(_FLIP) + b"\xff" for c in range(64)]
# _READ turns a state into the byte of mu(d): 1, 255 for -1, and 0 for a d
# that is not squarefree.  L < 64 marks the one prime factor above the
# struck primes, which flips the sign.
_READ = bytes(0 if b == 255 else 255 if (b & 1) ^ (b >> 1 < 64) else 1 for b in range(256))
# From mu bytes to the flags of mu(d) = 1 and of mu(d) = -1.
_PLUS = bytes.maketrans(b"\xff", b"\x00")
_MINUS = bytes.maketrans(b"\x01\xff", b"\x00\x01")


def _mobius_block(lo: int, hi: int, primes) -> array:
    """mu(d) for lo <= d < hi, as an array("b"), striking the primes p with
    p * p < hi.

    Each stroke translates one slice through a 256-byte table, so no Python
    code runs per d.  A squarefree d is the product P of the struck primes
    dividing it, times at most one prime q with q * q >= hi.  Let L be the
    sum of ceil(log2 p) over those struck p.  Without q, L >= log2 P =
    log2 d, so L >= ceil(log2 d).  With q, P = d / q < q, the struck primes
    number at most log2 P, and L < 2 * log2 P <= log2 P + log2 q = log2 d
    (or L = 0 < log2 q when P = 1).  So q divides d exactly when
    L < ceil(log2 d).
    """
    n = hi - lo
    state = bytearray(_LOW_START[lo - 1 : hi - 1])
    d = max(lo, len(_LOW_START) + 1)
    while d < hi:
        # the d in (2^(t-1), 2^t] share t = ceil(log2 d)
        t = (d - 1).bit_length()
        end = min(hi, (1 << t) + 1)
        state += _START[t] * (end - d)
        d = end
    for p in primes:
        q = p * p
        if q >= hi:
            break
        first = -lo % p
        state[first::p] = state[first::p].translate(_STRIKE[(p - 1).bit_length()])
        first = -lo % q
        state[first::q] = b"\xff" * len(range(first, n, q))
    return array("b", state.translate(_READ))


# count_power_free_upto splits its sum at I = x^(1/(2k+1)) // MERTENS_SPLIT_DIVISOR.
# With I = c * x^(1/(2k+1)), repeated counts took these medians (best of two
# series, Python 3.11, 2-core host) for c = 1/8, 1/4, 1/2, 1, 2.  k = 2:
# 1.32, 1.07, 1.07, 1.32, 1.89 ms near 10^8; 42.8, 35.9, 33.1, 33.4, 47.9 ms
# at 10^12; 1.84, 1.55, 1.33, 1.43, 1.97 s at 10^16.  k = 3: 0.16, 0.15, 0.19,
# 0.26, 0.39 ms near 1.35 * 10^8; 73, 70, 66, 78, 103 ms at 10^18.
MERTENS_SPLIT_DIVISOR = 2


def count_power_free_upto(x: int, k: int = 2) -> int:
    """Exact count Q_k(x) of k-free integers in [1, x].

    Q_k(x) = sum_d mu(d) * floor(x / d^k): the k-th powers of the squarefree
    d include-exclude the multiples of p^k.  Following J. Pawlewicz,
    "Counting square-free numbers" (2011, arXiv:1107.4890), the sum is split
    at D = floor((x / I)^(1/k)), with I = x^(1/(2k+1)) // MERTENS_SPLIT_DIVISOR
    (at least 1):

    * the d <= D are summed directly.  Their mu is sieved by
      :func:`_mobius_block` in blocks of ``MOBIUS_SEGMENT`` from the primes
      up to sqrt(D), and also fills the Mertens prefix M(0..D);
    * the d > D have floor(x / d^k) < I.  They add sum (M(r_m) - M(D)) over
      the m with r_m = floor((x / m)^(1/k)) > D, which are m = 1 .. x // (D+1)^k.

    Each M(r_m) comes from M(y) = 1 - sum_{j >= 2} M(floor(y / j)).  As
    floor(r_m / j) = r_(m*j^k), the terms above D are M(r_(m*j^k)), found
    before M(r_m) by going down in m.  The terms at most D are read from the
    prefix, one j at a time up to sqrt(y) and then one group of equal
    quotients at a time.  That takes O(x^(2/5)) time for k = 2, and
    O(x^(2/(2k+1))) in general.  The prefix takes 4 * (D + 1) bytes, charged
    against ``PRIME_TABLE_BYTE_CAP`` before any prime is requested.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if k < 2:
        raise ValueError("k must be >= 2")
    split = max(1, integer_kth_root(x, 2 * k + 1) // MERTENS_SPLIT_DIVISOR)
    d_max = integer_kth_root(x // split, k)
    _require_bytes(4 * (d_max + 1), f"Mertens prefix up to {d_max}")
    primes = primes_upto(isqrt(d_max))
    # the m with r_m > d_max; without them the prefix goes unread
    m_max = x // (d_max + 1) ** k
    mertens = array("i", [0])
    total = 0
    for lo in range(1, d_max + 1, MOBIUS_SEGMENT):
        hi = min(lo + MOBIUS_SEGMENT, d_max + 1)
        mu = _mobius_block(lo, hi, primes)
        signs = mu.tobytes()
        for sign, flag in ((1, _PLUS), (-1, _MINUS)):
            ds = compress(range(lo, hi), signs.translate(flag))
            total += sign * sum(map(floordiv, repeat(x), map(pow, ds, repeat(k))))
        if m_max:
            mertens.fromlist(list(accumulate(mu, initial=mertens.pop())))
    if not m_max:
        return total
    # above[m] = M(r_m)
    above = [0] * (m_max + 1)
    powers = [j**k for j in range(integer_kth_root(m_max, k) + 1)]
    for m in range(m_max, 0, -1):
        y = integer_kth_root(x // m, k)
        # floor(y / j) > d_max, that is m * j^k <= m_max, for 2 <= j < first
        first = y // (d_max + 1) + 1
        s = sum(map(above.__getitem__, map(mul, repeat(m), powers[2:first])))
        # then one j at a time up to sqrt(y), and the j past both in groups:
        # y // v - y // (v + 1) of them have quotient v
        root = isqrt(y)
        s += sum(map(mertens.__getitem__, map(floordiv, repeat(y), range(first, root + 1))))
        ends = list(map(floordiv, repeat(y), range(1, y // max(first, root + 1) + 2)))
        s += sum(map(mul, map(sub, ends, ends[1:]), mertens[1 : len(ends)]))
        above[m] = 1 - s
    return total + sum(above) - m_max * mertens[d_max]


@lru_cache(maxsize=None)
def zeta(k: int) -> float:
    """zeta(k) for integer k >= 2; closed form for k = 2, direct series beyond.

    The series is truncated once the integral tail bound drops below 1e-12.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return pi * pi / 6.0
    # tail after N is below N^(1-k)/(k-1)
    n_terms = int((1.0 / ((k - 1) * 1e-12)) ** (1.0 / (k - 1))) + 2
    return sum(n ** (-k) for n in range(n_terms, 0, -1))


def density_main_term(x: int, k: int = 2) -> float:
    """Leading-order count of k-free integers up to x: x / zeta(k)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return x / zeta(k)


@dataclass(frozen=True)
class ResidueClass:
    """The residue class {n : n = residue (mod modulus)} with 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} not in [0, {self.modulus})")

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"


def crt_combine(classes) -> ResidueClass:
    """Intersection of residue classes with pairwise coprime moduli.

    Returns the unique class modulo the product of the moduli; raises
    ValueError on an empty list or a shared factor between moduli.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one residue class")
    residue, modulus = classes[0].residue, classes[0].modulus
    for cls in classes[1:]:
        if gcd(modulus, cls.modulus) != 1:
            raise ValueError(f"moduli {modulus} and {cls.modulus} are not coprime")
        shift = (cls.residue - residue) * pow(modulus, -1, cls.modulus) % cls.modulus
        residue += modulus * shift
        modulus *= cls.modulus
    return ResidueClass(residue % modulus, modulus)

