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
Q_k(x) = sum_{d <= x^(1/k)} mu(d) * floor(x / d^k), which costs
O(x^(1/k) log log x) time, with mu(d) sieved block by block from the primes
up to x^(1/(2k)).
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log, pi

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


def translate_flags(lo: int, count: int, elements, primes, k: int, step: int = 1) -> bytearray:
    """Entry i is 1 when no p**k (p in ``primes``) divides lo + i*step + a for
    any a in ``elements``, else 0.

    For each pair (p, a) the struck i form one class modulo q = p**k, solving
    lo + i*step + a = 0 (mod q), and are zeroed by one slice assignment.
    ``step`` must be prime to every listed p; the caller bounds ``count``.
    """
    flags = bytearray([1]) * count
    if step != 1:
        inverses = [pow(step, -1, p**k) for p in primes]
    for a in elements:
        shift = -(lo + a)
        # The unit-step loop, which carries the long windows, skips the
        # multiplication by 1/step; neither loop keeps a list of the p^k,
        # which for a window near 10^14 would hold 660k big ints.
        if step == 1:
            for p in primes:
                q = p**k
                first = shift % q
                if first < count:
                    flags[first::q] = bytes((count - 1 - first) // q + 1)
        else:
            for p, inverse in zip(primes, inverses):
                q = p**k
                first = shift * inverse % q
                if first < count:
                    flags[first::q] = bytes((count - 1 - first) // q + 1)
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


def _mobius_block(lo: int, hi: int, primes) -> list[int]:
    """mu(d) for lo <= d < hi, striking the primes p with p * p < hi.

    Each entry starts as 1; a struck prime negates it and multiplies it by p,
    and a struck square sets it to 0.  A squarefree d whose entry is not +-d
    then has exactly one prime factor left, above sqrt(d), which flips mu.
    """
    n = hi - lo
    signed = [1] * n
    for p in primes:
        q = p * p
        if q >= hi:
            break
        first = -lo % p
        signed[first::p] = [-v * p for v in signed[first::p]]
        first = -lo % q
        signed[first::q] = [0] * len(range(first, n, q))
    mu = []
    for d, v in zip(range(lo, hi), signed):
        sign = (v > 0) - (v < 0)
        mu.append(sign if v == d or v == -d else -sign)
    return mu


def count_power_free_upto(x: int, k: int = 2) -> int:
    """Exact count of k-free integers in [1, x].

    Sums mu(d) * floor(x / d^k) over d <= r = x^(1/k) (the k-th powers of the
    squarefree d include-exclude the multiples of p^k), in O(r log log r)
    time.  mu is sieved in blocks of ``MOBIUS_SEGMENT`` consecutive d, which
    bounds memory to O(MOBIUS_SEGMENT), from the primes up to sqrt(r) given by
    :func:`primes_upto`.  A sum of more than ``PRIME_TABLE_BYTE_CAP`` terms
    raises ResourceError before any prime is requested.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if k < 2:
        raise ValueError("k must be >= 2")
    root = integer_kth_root(x, k)
    _require_bytes(root, f"Moebius sum over d <= {root}")
    primes = primes_upto(isqrt(root))
    total = 0
    for lo in range(1, root + 1, MOBIUS_SEGMENT):
        hi = min(lo + MOBIUS_SEGMENT, root + 1)
        mu = _mobius_block(lo, hi, primes)
        total += sum(m * (x // d**k) for d, m in zip(range(lo, hi), mu) if m)
    return total


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


def count_class_in_interval(lo: int, hi: int, classes) -> int:
    """How many integers in [lo, hi] lie in every listed residue class.

    The classes must have pairwise coprime moduli; an empty list counts the
    whole interval.  Always at most floor(len/M) + 1 with M the modulus product.
    """
    if lo > hi + 1:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    if lo == hi + 1:
        return 0
    classes = list(classes)
    if not classes:
        return hi - lo + 1
    merged = crt_combine(classes)
    b, m = merged.residue, merged.modulus
    return (hi - b) // m - (lo - 1 - b) // m
