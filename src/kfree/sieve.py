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
every prime up to end**(1/k), while the prime table stops at the cut.  The d
come from two lists of k-th roots, of (start - 1) // m and of end // m for
each m up to end / (cut+1)**k: only the m whose two roots differ have a
multiple m * d**k in the window, and only those reach Python code.

In a long window, :func:`translate_flags` strikes the smallest p**k only into
one period of their product, once per translate, and starts the window as
that period repeated (a wheel, after P. Pritchard, "Explaining the wheel
sieve", Acta Informatica 17, 1982); every other p**k strikes its class over
the whole window.

The count Q_k(x) of k-free integers up to x is not a sweep over [1, x]: it is
the Moebius sum
Q_k(x) = sum_d mu(d) * floor(x / d^k).  Only the d up to about x^(1/(k+1))
are summed one by one; the larger d share their quotients and enter through
Mertens values M(y).  mu(d) is sieved block by block up to D, about x^(2/5)
for k = 2, from the primes up to sqrt(D), and each block adds the Mertens
values read inside it before it is dropped.  That costs O(x^(2/5)) time for
k = 2, and memory holds one block and the O(x^(1/(2k))) values M(y) for y up
to sqrt(x^(1/k)), whose growth is what the byte cap stops first: Q_2 near
3.5 * 10^25, long after time has.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from math import gcd, isqrt, log, pi, prod
from operator import floordiv, lt, mul, sub

from .errors import ResourceError

# Block length of the Moebius sieve behind counting; it bounds that sieve's
# memory, and the Mertens values held for one block, however large x gets.
# A block of 2^15 holds 1.3 MB of them; against 2^16, Q_2(10^12..10^16)
# took 0-5% longer (and 2^14 7-15% longer), at half the memory.
MOBIUS_SEGMENT = 1 << 15

# Cap on the byte array backing a prime table or a k-free window (one byte per
# integer), and on the Mertens values a count holds.
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
    if n >> k == 0:  # 2 <= n < 2**k, tested without building 2**k
        return 1
    if k == 2:
        return isqrt(n)
    # Integer Newton iteration seeded from above via the bit length.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _kth_roots(ns, k: int):
    """integer_kth_root(n, k) for each n in ``ns``, lazily."""
    if k == 2:
        return map(isqrt, ns)
    return map(integer_kth_root, ns, repeat(k))


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

    def members(self) -> list[int]:
        return list(compress(range(self.start, self.start + self.length), self.flags))

    def count(self) -> int:
        return self.flags.count(1)


def _multiples_mask(q: int, length: int) -> int:
    """Bits 0, q, 2q, ... below ``length`` >= 1, as an int; just bit 0 when
    q >= length."""
    if q >= length:
        return 1
    mask, span = 1, q
    while span < length:
        mask |= mask << span
        span *= 2
    return mask & ((1 << length) - 1)


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


# In windows of at least WHEEL_MIN_COUNT entries, translate_flags strikes the
# leading listed p^k whose product is at most WHEEL_SPAN (4 * 9 * 25 = 900 at
# k = 2, 8 * 27 = 216 at k = 3) once per element into one period of that
# product, and starts the window as that period repeated.  Against striking
# them over the window (1, 4 and 17 elements, the first 30 primes, k = 2 and
# 3, Python 3.11, 2-core host), the wheel took 0.97-1.20 times as long at
# 1000 entries, 0.85-1.03 at 8000 and 0.81-0.96 at 16000; on A1's
# 131071-entry scan with 17 elements, 0.84 ms against 1.28 ms.
WHEEL_SPAN = 1000
WHEEL_MIN_COUNT = 8192


def _strike(flags: bytearray, shift: int, moduli, inverses) -> None:
    """Zero the entries i of ``flags`` with i * step = shift (mod q) for each
    q in ``moduli``, given 1/step mod each q, or None for step 1."""
    count = len(flags)
    # The unit-step loop, which carries the long windows, skips the
    # multiplication by 1/step.
    if inverses is None:
        for q in moduli:
            first = shift % q
            if first < count:
                flags[first::q] = bytes((count - 1 - first) // q + 1)
    else:
        for q, inverse in zip(moduli, inverses):
            first = shift * inverse % q
            if first < count:
                flags[first::q] = bytes((count - 1 - first) // q + 1)


def translate_flags(lo: int, count: int, elements, primes, k: int, step: int = 1) -> bytearray:
    """Entry i is 1 when no p**k (p in ``primes``) divides lo + i*step + a for
    any a in the sequence ``elements``, else 0.

    For each pair (p, a) the struck i form one class modulo q = p**k, solving
    lo + i*step + a = 0 (mod q), and are zeroed by one slice assignment.  In a
    window of at least WHEEL_MIN_COUNT entries, the leading listed primes
    whose p**k multiply to at most WHEEL_SPAN strike one period of that
    product instead, once per element, and the window starts as that period
    repeated.  A shift -(lo + a) wider than NARROW_SHIFT_BITS is first
    reduced once per group of RESIDUE_GROUP consecutive p^k of the other
    primes, by their product, and each class is solved from that small
    remainder, congruent to the shift modulo every p^k of the group.
    ``step`` must be prime to every listed p; the caller bounds ``count``.
    """
    moduli = [p**k for p in primes]
    inverses = None if step == 1 else [pow(step, -1, q) for q in moduli]
    span, wheel = 1, 0
    while count >= WHEEL_MIN_COUNT and wheel < len(moduli) and span * moduli[wheel] <= WHEEL_SPAN:
        span *= moduli[wheel]
        wheel += 1
    if wheel:
        period = bytearray([1]) * span
        wheel_moduli = moduli[:wheel]
        wheel_inverses = None if inverses is None else inverses[:wheel]
        for a in elements:
            _strike(period, -(lo + a) % span, wheel_moduli, wheel_inverses)
        # cut by a slice: shrinking the repeat in place raised count-sweep's
        # peak RSS (bench/worker.py, seed 5, 2 rounds: 75.1 against 70.7 MB)
        flags = (period * -(-count // span))[:count]
        moduli = moduli[wheel:]
        inverses = None if inverses is None else inverses[wheel:]
    else:
        flags = bytearray([1]) * count
    for a in elements:
        shift = -(lo + a)
        if shift.bit_length() <= NARROW_SHIFT_BITS:
            _strike(flags, shift, moduli, inverses)
            continue
        for g in range(0, len(moduli), RESIDUE_GROUP):
            group = moduli[g : g + RESIDUE_GROUP]
            _strike(
                flags,
                shift % prod(group),
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
    # On three 10^6-long windows near 10^12, 10^13 and 9 * 10^13, with the
    # primes held, cuts of 2, 3, 4, 6 and 8 times end**(1/(k+1)) took 10.8,
    # 8.6-8.9, 8.6, 10.0 and 11.8 ms of CPU for the three (Python 3.11,
    # 2-core host).
    cut = min(root, 4 * integer_kth_root(end, k + 1))
    flags = translate_flags(start, length, (0,), primes_upto(cut), k)
    # The d struck at m * d**k lie in (root((start-1) / m), root(end / m)];
    # most m have none, and only the others reach Python code.  With
    # cut == root there is no such d, and (cut + 1)**k is not built.
    ms = range(1, end // (cut + 1) ** k + 1 if cut < root else 1)
    lows = list(_kth_roots(map(floordiv, repeat(start - 1), ms), k))
    highs = list(_kth_roots(map(floordiv, repeat(end), ms), k))
    for m, low, high in compress(zip(ms, lows, highs), map(lt, lows, highs)):
        for d in range(max(cut, low) + 1, high + 1):
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
# With I = c * x^(1/(2k+1)), repeated counts took these medians per count
# (seven interleaved series, Python 3.11, 2-core host) for c = 1/16, 1/8,
# 1/4, 1/2.  k = 2: 0.31, 0.29, 0.33, 0.43 ms near 10^8; 10.0, 9.8, 10.9,
# 14.2 ms at 10^12; 443, 413, 462, 601 ms at 10^16.  k = 3: 0.058, 0.058,
# 0.067, 0.087 ms near 1.35 * 10^8; 24.6, 25.7, 28.9, 36.3 ms at 10^18.
MERTENS_SPLIT_DIVISOR = 8

# Bytes held per value in a list of ints: the list's pointer and the int
# object (28 bytes, allocated in 32).
_LIST_ENTRY_BYTES = 40


def _direct_terms(x: int, k: int, lo: int, mu: array) -> int:
    """sum mu(d) * floor(x / d^k) over lo <= d < lo + len(mu)."""
    signs = mu.tobytes()
    ds = range(lo, lo + len(mu))
    plus = compress(ds, signs.translate(_PLUS))
    minus = compress(ds, signs.translate(_MINUS))
    return sum(map(floordiv, repeat(x), map(pow, plus, repeat(k)))) - sum(
        map(floordiv, repeat(x), map(pow, minus, repeat(k)))
    )


def count_power_free_upto(x: int, k: int = 2) -> int:
    """Exact count Q_k(x) of k-free integers in [1, x].

    Q_k(x) = sum_d mu(d) * floor(x / d^k): the k-th powers of the squarefree
    d include-exclude the multiples of p^k.  With r_v = floor((x / v)^(1/k))
    and M the Mertens function, the d > E with floor(x / d^k) >= v are those
    in (E, r_v], so for any E
    Q_k(x) = sum_{d <= E} mu(d) floor(x / d^k) + sum_{v=1}^V M(r_v) - V M(E),
    with V = floor(x / (E+1)^k).  Following J. Pawlewicz, "Counting
    square-free numbers" (2011, arXiv:1107.4890), the M(r_v) are split at
    D = floor((x / I)^(1/k)), with I = x^(1/(2k+1)) // MERTENS_SPLIT_DIVISOR
    (at least 1), and E = min(D, floor((k^k x)^(1/(k+1)))):

    * mu(d) for d <= D is sieved by :func:`_mobius_block` in blocks [lo, hi)
      of ``MOBIUS_SEGMENT`` from the primes up to sqrt(D).  A block adds its
      terms with d <= E, and reads M(r_v) for the v in (m_max, V] with r_v in
      the block: the v in (x // hi^k, x // lo^k];
    * the v = m <= m_max = x // (D+1)^k have r_m > D.  Each M(r_m) comes from
      M(y) = 1 - sum_{j >= 2} M(floor(y / j)).  The quotients at most D with
      j <= sqrt(y) are read by the blocks, as those of the j in
      (y // hi, y // lo].  After the sweep, going down in m, the quotients
      above D are M(r_(m*j^k)), since floor(r_m / j) = r_(m*j^k), and the j
      past sqrt(y) are taken one group of equal quotients v <= sqrt(r_1) at a
      time, from the M(v) kept as the sweep passed them.

    That takes O(x^(2/5)) time for k = 2, and O(x^(2/(2k+1))) in general.
    What is held at once, one block's Mertens values, the M(v) up to
    sqrt(r_1) and a few values per m <= m_max, is charged at 40 bytes a value
    (a list slot and its int) against ``PRIME_TABLE_BYTE_CAP`` before any
    prime is requested.  With m_max = 0 (k = 2 below about 10^6) that is
    40 * (block + 2 * sqrt(r_1) + 4) bytes: 1.8 KB at x = 1000.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if k < 2:
        raise ValueError("k must be >= 2")
    if x >> k == 0:  # x < 2**k: every integer up to x is k-free
        return x
    split = max(1, integer_kth_root(x, 2 * k + 1) // MERTENS_SPLIT_DIVISOR)
    d_max = integer_kth_root(x // split, k)
    # the m with r_m > d_max
    m_max = x // (d_max + 1) ** k
    # the Mertens values M(y // j) that M(r_m) reads in groups, y // j < sqrt(r_1)
    small = isqrt(integer_kth_root(x, k))
    block = min(MOBIUS_SEGMENT, d_max)
    _require_bytes(
        _LIST_ENTRY_BYTES * (block + 2 * small + 6 * m_max + 4),
        f"Mertens values (a {block}-long block, two lists up to {small}, six per m <= {m_max})",
    )
    primes = primes_upto(isqrt(d_max))
    # Past (k x)^(1/(k+1)) consecutive d share quotients.  A quotient costs a
    # root, an isqrt at k = 2 about twice a direct term and a Newton root at
    # k >= 3 about ten times, so the direct sum runs on to (k^k x)^(1/(k+1)).
    e_max = min(d_max, integer_kth_root(k**k * x, k + 1))
    v_max = x // (e_max + 1) ** k
    # (m, y = r_m, first, root): floor(y / j) > d_max for 2 <= j < first
    ys = _kth_roots(map(floordiv, repeat(x), range(1, m_max + 1)), k)
    plan = [(m, y, y // (d_max + 1) + 1, isqrt(y)) for m, y in enumerate(ys, 1)]
    # above[m] gathers the terms of M(r_m) read in the blocks, and is M(r_m) at the end
    above = [0] * (m_max + 1)
    low = [0]
    total = running = mertens_e = 0
    for lo in range(1, d_max + 1, MOBIUS_SEGMENT):
        hi = min(lo + MOBIUS_SEGMENT, d_max + 1)
        mu = _mobius_block(lo, hi, primes)
        if lo <= e_max:
            total += _direct_terms(x, k, lo, mu[: e_max + 1 - lo])
        # mertens[t - base] = M(t) for base <= t < hi
        base = lo - 1
        mertens = list(accumulate(mu, initial=running))
        running = mertens[-1]
        if base < e_max < hi:
            mertens_e = mertens[e_max - base]
        if lo <= small:
            low += mertens[1 : small - base + 1]
        # M(r_v) for the v in (m_max, v_max] with lo <= r_v < hi
        v_lo = max(m_max, x // hi**k) + 1
        v_hi = min(v_max, x // lo**k)
        if v_lo <= v_hi:
            roots = _kth_roots(map(floordiv, repeat(x), range(v_lo, v_hi + 1)), k)
            total += sum(map(mertens.__getitem__, map(sub, roots, repeat(base))))
        # M(y // j) for the j in [first, root] with lo <= y // j < hi
        for m, y, first, root in plan:
            j_lo = max(first, y // hi + 1)
            j_hi = min(root, y // lo)
            if j_lo <= j_hi:
                quotients = map(floordiv, repeat(y), range(j_lo, j_hi + 1))
                above[m] += sum(map(mertens.__getitem__, map(sub, quotients, repeat(base))))
        # one block's values at a time: drop them before the next are made
        del mu, mertens
    powers = [j**k for j in range(integer_kth_root(m_max, k) + 1)]
    for m, y, first, root in reversed(plan):
        # the quotients above d_max are M(r_(m*j^k)) = above[m * j^k], and the
        # j past first and root come in groups: y // v - y // (v + 1) of them
        # have quotient v
        s = above[m] + sum(map(above.__getitem__, map(mul, repeat(m), powers[2:first])))
        ends = list(map(floordiv, repeat(y), range(1, y // max(first, root + 1) + 2)))
        s += sum(map(mul, map(sub, ends, islice(ends, 1, None)), islice(low, 1, None)))
        above[m] = 1 - s
    return total + sum(above) - v_max * mertens_e


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

