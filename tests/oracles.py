"""Independent brute-force oracles used to pin expected values.

Nothing here touches the package's sieving or search paths: factorization is
plain trial division, counting is per-integer, and the window maximum is a
flat product enumeration over every residue choice.
"""

from itertools import product
from math import log
from random import Random

from kfree.errors import BudgetError


def trial_division_primes(limit):
    primes = []
    for n in range(2, limit + 1):
        composite = False
        for p in primes:
            if p * p > n:
                break
            if n % p == 0:
                composite = True
                break
        if not composite:
            primes.append(n)
    return primes


def factorize(n):
    """Full prime factorization as a dict p -> exponent."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def kfree_by_factorization(n, k=2):
    return all(e < k for e in factorize(n).values())


def count_kfree_oracle(x, k=2):
    return sum(1 for n in range(1, x + 1) if kfree_by_factorization(n, k))


def smallest_power_divisor_oracle(n, k=2):
    for p, e in sorted(factorize(n).items()):
        if e >= k:
            return p
    return None


def crt_scan(classes):
    """Smallest nonnegative solution by scanning 0..M-1, plus the modulus."""
    modulus = 1
    for cls in classes:
        modulus *= cls.modulus
    for r in range(modulus):
        if all(r % cls.modulus == cls.residue for cls in classes):
            return r, modulus
    raise AssertionError("no solution found; moduli not coprime?")


def _flat_class_masks(x, k):
    """The primes with p^k <= x and, for each, the bitmask of every class
    mod p^k restricted to [1, x]."""
    primes = [p for p in trial_division_primes(x) if p**k <= x]
    class_masks = []
    for p in primes:
        q = p**k
        masks = [0] * q
        for a in range(1, x + 1):
            masks[a % q] |= 1 << a
        class_masks.append(masks)
    return primes, class_masks


def admissible_max_flat(x, k=2):
    """Window maximum by exhausting every residue-choice tuple.

    Every combination of one removed class per prime power <= x is tried;
    class unions are taken on integer bitmasks so the enumeration stays
    feasible up to a few tens of thousands of combinations.
    """
    primes, class_masks = _flat_class_masks(x, k)
    if not primes:
        return x
    best = 0
    for choice in product(*class_masks):
        removed = 0
        for mask in choice:
            removed |= mask
        best = max(best, x - removed.bit_count())
    return best


def lex_smallest_optimal_flat(x, k=2):
    """Lexicographically smallest maximizing witness (ascending primes, then
    ascending residue) as a dict p -> removed class mod p^k, by exhausting
    every residue-choice tuple in lexicographic order and keeping the first
    one that attains the maximum."""
    primes, class_masks = _flat_class_masks(x, k)
    best, best_choice = -1, None
    for choice in product(*(range(p**k) for p in primes)):
        removed = 0
        for masks, c in zip(class_masks, choice):
            removed |= masks[c]
        kept = x - removed.bit_count()
        if kept > best:
            best, best_choice = kept, choice
    return dict(zip(primes, best_choice))


def admissible_max_bnb(x, k=2):
    """Window maximum and its lexicographically smallest witness (as
    ``lex_smallest_optimal_flat``) by a plain recursive branch-and-bound:
    primes ascending, residues ascending, every root class tried, and a node
    pruned when its survivors less the largest least class hit over the
    remaining primes cannot beat the best leaf so far."""
    primes, class_masks = _flat_class_masks(x, k)
    best = [-1, None]

    def search(i, alive, choice):
        kept = alive.bit_count()
        if i == len(primes):
            if kept > best[0]:
                best[:] = [kept, dict(zip(primes, choice))]
            return
        loss = max(min((alive & mask).bit_count() for mask in masks) for masks in class_masks[i:])
        if kept - loss <= best[0]:
            return
        for c, mask in enumerate(class_masks[i]):
            search(i + 1, alive & ~mask, choice + (c,))

    search(0, (1 << (x + 1)) - 2, ())
    return best[0], best[1]


def forced_loss_flat(survivors, rest, masks):
    """The largest least class hit over the primes in ``rest``: for each
    prime the fewest bits of ``survivors`` any of its class masks in
    ``masks[p]`` covers, maximized with no early exit."""
    return max(min((survivors & mask).bit_count() for mask in masks[p]) for p in rest)


def lower_shift_flat(x, k, candidates):
    """Best shifted-window survivor count over ``candidates``, as (count, y):
    y + a for a in [1, x] survives when trial division by every p^k <= x
    leaves a remainder, and ties go to the first candidate."""
    powers = [p**k for p in trial_division_primes(x) if p**k <= x]
    best = (-1, 0)
    for y in candidates:
        count = sum(1 for n in range(y + 1, y + x + 1) if all(n % q for q in powers))
        if count > best[0]:
            best = (count, y)
    return best


def shift_draws_flat(x, k, draws, seed):
    """The shifts behind ``random_draws=draws, seed=seed``: per draw, one
    seeded residue mod p^k for each p^k <= x in ascending p, joined by the
    CRT sum over M / p^k times its inverse mod p^k."""
    powers = [p**k for p in trial_division_primes(x) if p**k <= x]
    modulus = 1
    for q in powers:
        modulus *= q
    rng = Random(seed)
    shifts = []
    for _ in range(draws):
        residues = [rng.randrange(q) for q in powers]
        shifts.append(sum(r * (modulus // q) * pow(modulus // q, -1, q) for r, q in zip(residues, powers)) % modulus)
    return shifts


def dense_anchor_flat(anchors, k, x, seed=None):
    """The next anchor ``dense_q_step`` must choose, and its 1-based position
    among the candidates: the first multiple m of prod_{p <= n^2} p^k in
    [x/2, x] with m >= (i+1)n (n the last of the i anchors) and m + a k-free
    for every k-free a <= n, taken in increasing order or in the order
    ``Random(seed).shuffle`` gives.  The anchor is None when no candidate
    works, and the position 0 when there is no candidate."""
    n = anchors[-1]
    modulus = 1
    for p in trial_division_primes(n * n):
        modulus *= p**k
    lo = (x + 1) // 2
    candidates = [
        m
        for m in range(-(-lo // modulus) * modulus, x + 1, modulus)
        if m >= (len(anchors) + 1) * n
    ]
    if seed is not None:
        Random(seed).shuffle(candidates)
    small_free = [a for a in range(1, n + 1) if kfree_by_factorization(a, k)]
    for position, m in enumerate(candidates, 1):
        if all(kfree_by_factorization(m + a, k) for a in small_free):
            return m, position
    return None, len(candidates)


def min_removed_flat(k, survivors, primes):
    """Fewest elements of the integer set ``survivors`` that removing
    one class mod p^k for every prime in ``primes`` can strike, by
    exhausting every residue-choice tuple."""
    class_sets = []
    for p in primes:
        q = p**k
        class_sets.append([{a for a in survivors if a % q == c} for c in range(q)])
    best = len(survivors)
    for choice in product(*class_sets):
        best = min(best, len(set().union(*choice)))
    return best


def translate_free_flags(lo, count, elements, primes, k, step=1):
    """Entry i is 1 when no p^k (p in primes) divides lo + i*step + a for any
    element a, by testing every (i, a, p) with one division each."""
    return [
        int(all((lo + i * step + a) % p**k for a in elements for p in primes))
        for i in range(count)
    ]


def kfree_window_flat(start, length, k=2):
    """k-free flags of [start, start + length) as bytes: for every integer
    d >= 2 with d^k at most the last entry, zero each multiple of d^k by a
    plain range loop, one entry at a time."""
    end = start + length - 1
    flags = bytearray([1]) * length
    d = 2
    while d**k <= end:
        q = d**k
        for n in range(-(-start // q) * q, end + 1, q):
            flags[n - start] = 0
        d += 1
    return bytes(flags)


_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uniform01(seed, n):
    """Counter-based uniform draw keyed by (seed, n); order-independent."""
    z = _splitmix64(_splitmix64(seed & _MASK64) ^ (n & _MASK64))
    return _splitmix64(z) / 2**64


def sample_flat(c, x_max, seed, k=2):
    """``sample_counterexample`` drawn one float per k-free n in [3, x_max]:
    n is kept when _uniform01(seed, n) < min(c * ln n * lnln n / n, 1).
    k-freeness comes from striking the multiples of every d^k, d >= 2."""
    free = [True] * (x_max + 1)
    d = 2
    while d**k <= x_max:
        for m in range(d**k, x_max + 1, d**k):
            free[m] = False
        d += 1
    return tuple(
        n
        for n in range(3, x_max + 1)
        if free[n] and _uniform01(seed, n) < min(c * log(n) * log(log(n)) / n, 1.0)
    )


def prime_flags(limit):
    """Entry n is 1 when n is prime, for 0 <= n <= limit: one flat sieve of
    Eratosthenes over the whole range, with no segments and no memo."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return flags


def overp_base_point_flat(p_threshold, k=2, max_candidates=1_000_000, verify_prime_cap=None, min_value=0):
    """``overp_base_point`` checked one prime at a time: for each multiple n
    of prod_{p <= P} p^k above min_value, every prime q > P in ascending
    order, up to the cap or kth_root(n) + 2, until q^k > n + reach(q), with
    -n mod q^k reduced from n itself.  The primes come from ``prime_flags``;
    the same BudgetError messages are raised."""
    modulus = 1
    for p in trial_division_primes(p_threshold):
        modulus *= p**k

    def violates(n):
        # the largest top with top^k <= n, by bisection, plus 2
        low, high = 0, 1 << (n.bit_length() // k + 1)
        while low < high:
            mid = (low + high + 1) // 2
            low, high = (mid, high) if mid**k <= n else (low, mid - 1)
        top = low + 2
        if verify_prime_cap is not None:
            top = min(top, verify_prime_cap)
        elif top > 10_000_000:
            raise BudgetError(
                f"full verification would need primes up to {top}; "
                "pass verify_prime_cap to accept a partial certification"
            )
        flags = prime_flags(top)
        for q in range(p_threshold + 1, top + 1):
            if not flags[q]:
                continue
            reach = int(q / log(log(q)) ** 2)
            if q**k > n + reach:
                break
            r = -n % q**k
            if 1 <= r <= reach:
                return True
        return False

    n = modulus * (min_value // modulus + 1)
    for _ in range(max_candidates):
        if not violates(n):
            return n
        n += modulus
    raise BudgetError(
        f"no multiple of {modulus} passed the translate conditions within "
        f"{max_candidates} candidates"
    )
