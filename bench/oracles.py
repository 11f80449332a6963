"""The benchmark's own slow reference computations.

Every check the benchmark makes on a kfree output for an arbitrary seed goes
through this module, which shares no code with kfree: its own prime sieve,
its own window sieve, a Moebius-sum counter and plain trial division.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt

# Trial-division checks keep primes up to this bound in memory; larger sieves
# are built per call and dropped, so they do not inflate the peak RSS figure.
SMALL_PRIME_LIMIT = 100_000


def kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def prime_flags(limit: int) -> bytearray:
    """flags[i] == 1 exactly when i <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


@lru_cache(maxsize=None)
def small_primes() -> tuple[int, ...]:
    return tuple(compress(range(SMALL_PRIME_LIMIT + 1), prime_flags(SMALL_PRIME_LIMIT)))


def smallest_power_prime(n: int, k: int = 2) -> int | None:
    """Smallest prime p with p**k dividing n, by trial division."""
    root = kth_root(n, k)
    if root > SMALL_PRIME_LIMIT:
        raise ValueError(f"{n} is too large for the trial-division oracle")
    for p in small_primes():
        if p > root:
            return None
        if n % p**k == 0:
            return p
    return None


def is_kfree(n: int, k: int = 2) -> bool:
    return smallest_power_prime(n, k) is None


def kfree_flags(start: int, length: int, k: int = 2) -> bytes:
    """k-free flags of [start, start + length) from a fresh sieve of primes."""
    root = kth_root(start + length - 1, k)
    flags = bytearray([1]) * length
    for p in compress(range(root + 1), prime_flags(root)):
        q = p**k
        first = -start % q
        if first < length:
            flags[first::q] = bytes(len(range(first, length, q)))
    return bytes(flags)


def mobius_upto(n: int) -> list[int]:
    """mu(0..n) by a linear sieve (mu(0) is set to 0)."""
    mu = [1] * (n + 1)
    mu[0] = 0
    composite = bytearray(n + 1)
    primes = []
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            composite[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def kfree_count(x: int, k: int = 2) -> int:
    """Number of k-free integers in [1, x] as sum_{d^k <= x} mu(d) * floor(x / d^k)."""
    root = kth_root(x, k)
    mu = mobius_upto(root)
    return sum(mu[d] * (x // d**k) for d in range(1, root + 1) if mu[d])


def first_translate_witness(elements, lo: int, hi: int, k: int = 2) -> int | None:
    """Smallest n in [lo, hi] with n + a k-free for every element a."""
    length = hi - lo + 1
    if length <= 0:
        return None
    top = hi + max(elements)
    bad = bytearray(length)
    for p in compress(range(kth_root(top, k) + 1), prime_flags(kth_root(top, k))):
        q = p**k
        for a in elements:
            first = (-a - lo) % q
            if first < length:
                bad[first::q] = b"\x01" * len(range(first, length, q))
    index = bad.find(0)
    return None if index < 0 else lo + index


def greedy_sum_terms(count: int, k: int = 2) -> tuple[int, ...]:
    """Greedy increasing sequence whose pairwise sums, diagonal included, are k-free."""
    terms: list[int] = []
    candidate = 1
    while len(terms) < count:
        if all(is_kfree(candidate + a, k) for a in terms + [candidate]):
            terms.append(candidate)
        candidate += 1
    return tuple(terms)


def first_sum_violation(values, k: int = 2):
    """First pair a <= a' (lexicographic, diagonal included) whose sum is not
    k-free, as (a, a', p), or None."""
    values = sorted(set(values))
    for i, a in enumerate(values):
        for b in values[i:]:
            p = smallest_power_prime(a + b, k)
            if p is not None:
                return a, b, p
    return None


def h_weights(q_max: int, omega, k: int = 2) -> list[Fraction]:
    """[h(1), ..., h(q_max)] with h(q) = mu^2(q) * prod_{p | q} omega(p) / (p^k - omega(p)),
    by trial-division factorization."""
    weights = []
    for q in range(1, q_max + 1):
        value, n, p = Fraction(1), q, 2
        while value and p * p <= n:
            if n % p == 0:
                n //= p
                value = Fraction(0) if n % p == 0 else value * Fraction(omega(p), p**k - omega(p))
            p += 1
        if value and n > 1:
            value *= Fraction(omega(n), n**k - omega(n))
        weights.append(value)
    return weights
