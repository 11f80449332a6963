"""Independent brute-force oracles used to pin expected values.

Nothing here touches the package's sieving or search paths: factorization is
plain trial division, counting is per-integer, and the window maximum is a
flat product enumeration over every residue choice.
"""

import cmath
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product, repeat
from math import isqrt, log
from operator import floordiv, mul, sub
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


def kth_root_flat(n, k):
    """Largest r with r**k <= n, from a float estimate corrected exactly."""
    r = int(n ** (1 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _mobius_block_flat(lo, hi, primes):
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


def mobius_count_flat(x, k=2, segment=1 << 16):
    """Q_k(x) as the Moebius sum over every d <= x^(1/k):
    sum mu(d) * floor(x / d^k), with mu sieved in blocks of ``segment``."""
    root = kth_root_flat(x, k)
    flags = prime_flags(isqrt(root))
    primes = list(compress(range(len(flags)), flags))
    total = 0
    for lo in range(1, root + 1, segment):
        hi = min(lo + segment, root + 1)
        mu = _mobius_block_flat(lo, hi, primes)
        total += sum(m * (x // d**k) for d, m in zip(range(lo, hi), mu) if m)
    return total


def mertens_prefix_count(x, k=2, segment=1 << 16):
    """Q_k(x) by the Moebius sum split at D, holding the whole Mertens prefix
    M(0..D) (J. Pawlewicz, "Counting square-free numbers", arXiv:1107.4890).

    The d <= D = floor((x / I)^(1/k)), I = x^(1/(2k+1)) // 2, are summed
    directly.  The d > D add sum (M(r_m) - M(D)) over m = 1 .. x // (D+1)^k,
    r_m = floor((x / m)^(1/k)), and M(r_m) = 1 - sum_{j >= 2} M(floor(r_m / j))
    is found going down in m: the terms above D are M(r_(m*j^k)), and those at
    most D are read from the prefix, one j at a time up to sqrt(r_m) and then
    one group of equal quotients at a time.
    """
    split = max(1, kth_root_flat(x, 2 * k + 1) // 2)
    d_max = kth_root_flat(x // split, k)
    flags = prime_flags(isqrt(d_max))
    primes = list(compress(range(len(flags)), flags))
    m_max = x // (d_max + 1) ** k
    mertens = array("i", [0])
    total = 0
    for lo in range(1, d_max + 1, segment):
        hi = min(lo + segment, d_max + 1)
        mu = _mobius_block_flat(lo, hi, primes)
        total += sum(m * (x // d**k) for d, m in zip(range(lo, hi), mu) if m)
        if m_max:
            mertens.fromlist(list(accumulate(mu, initial=mertens.pop())))
    if not m_max:
        return total
    # above[m] = M(r_m)
    above = [0] * (m_max + 1)
    powers = [j**k for j in range(kth_root_flat(m_max, k) + 1)]
    for m in range(m_max, 0, -1):
        y = kth_root_flat(x // m, k)
        # floor(y / j) > d_max, that is m * j^k <= m_max, for 2 <= j < first
        first = y // (d_max + 1) + 1
        s = sum(map(above.__getitem__, map(mul, repeat(m), powers[2:first])))
        root = isqrt(y)
        s += sum(map(mertens.__getitem__, map(floordiv, repeat(y), range(first, root + 1))))
        ends = list(map(floordiv, repeat(y), range(1, y // max(first, root + 1) + 2)))
        s += sum(map(mul, map(sub, ends, ends[1:]), mertens[1 : len(ends)]))
        above[m] = 1 - s
    return total + sum(above) - m_max * mertens[d_max]


def nth_squarefree_bisect(n):
    """n-th squarefree number: the least x with mobius_count_flat(x) >= n,
    bisected over [n, 2n], which holds it since at most 0.46 * 2n integers
    up to 2n are divisible by a prime square."""
    return bisect_left(range(2 * n + 1), n, lo=n, key=mobius_count_flat)


def smallest_power_divisor_oracle(n, k=2):
    for p, e in sorted(factorize(n).items()):
        if e >= k:
            return p
    return None


def greedy_flat(count, include_diagonal=True, k=2):
    """``greedy_squarefree_sums`` one candidate at a time: each candidate's
    sums with the terms, in order, then with itself, each factored by trial
    division.  Returns (terms, skips), each skip a (candidate, partner,
    prime) tuple with the first violating partner and its smallest prime."""
    terms, skips = [], []
    candidate = 1
    while len(terms) < count:
        for a in terms + [candidate] if include_diagonal else terms:
            p = smallest_power_divisor_oracle(candidate + a, k)
            if p is not None:
                skips.append((candidate, a, p))
                break
        else:
            terms.append(candidate)
        candidate += 1
    return tuple(terms), tuple(skips)


def sqsieve_flat(p, k, removed, coefficients):
    """``verify_sqsieve_inequality``'s sums with a fresh cmath.exp for every
    term: (lhs, rhs, plancherel_sum), where lhs sums |S(a/q)|^2 over
    1 <= a < q, S(x) = sum_n a_n e(n x), rhs = omega/(q - omega) |S(0)|^2,
    and plancherel_sum sums |c_a|^2 over the Fourier coefficients of
    omega - q * 1_removed."""
    q = p**k
    removed_set = {r % q for r in removed}
    omega = len(removed_set)

    def s_at(a):
        return sum(
            value * cmath.exp(2j * cmath.pi * n * a / q) for n, value in coefficients.items()
        )

    lhs = sum(abs(s_at(a)) ** 2 for a in range(1, q))
    rhs = omega / (q - omega) * abs(s_at(0)) ** 2
    balanced = [omega - (q if r in removed_set else 0) for r in range(q)]
    plancherel = 0.0
    for a in range(1, q):
        c_a = sum(balanced[r] * cmath.exp(-2j * cmath.pi * a * r / q) for r in range(q)) / q
        plancherel += abs(c_a) ** 2
    return lhs, rhs, plancherel


def h_weight(q, profile):
    """mu^2(q) * prod_{p | q} omega(p^k) / (p^k - omega(p^k)), exact, with q
    factored by trial division."""
    if q < 1:
        raise ValueError("q must be >= 1")
    value = Fraction(1)
    for p, e in factorize(q).items():
        if e > 1:
            return Fraction(0)  # q not squarefree
        omega = profile.omega(p)
        value *= Fraction(omega, p**profile.k - omega)
    return value


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
                f"full verification would need primes up to a {top.bit_length()}-bit bound, "
                "past 10^7; pass verify_prime_cap to accept a partial certification"
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


@lru_cache(maxsize=2)
def _translate_classes(n, k, prime_cutoff):
    """(q, first) for each q = p^k, p <= prime_cutoff from ``prime_flags``:
    q divides n + a exactly when a = first + 1 (mod q).  Cached for the
    last two anchors, which callers reuse across caps."""
    primes = [p for p, is_prime in enumerate(prime_flags(prime_cutoff)) if is_prime]
    return [(p**k, -(n + 1) % p**k) for p in primes]


def overp_induced_flat(anchors, induced_cap, k, prime_cutoff):
    """The induced set of ``overp_sequence`` with every prime struck for every
    anchor: the k-free a <= induced_cap such that no p^k, p <= prime_cutoff,
    divides n + a for any anchor n.  One slice per (anchor, prime) zeroes the
    class -n mod p^k."""
    flags = bytearray(kfree_window_flat(1, induced_cap, k))
    for n in anchors:
        for q, first in _translate_classes(n, k, prime_cutoff):
            flags[first::q] = bytes(len(range(first, induced_cap, q)))
    return tuple(a for a in range(1, induced_cap + 1) if flags[a - 1])


def property_p_flat(f, count, k=2, horizon_floor=10_000):
    """``property_p_sequence`` with each threshold found by its own descending
    scan from the horizon, calling f afresh at every index it reaches.  The
    r-th prime comes from trial division and each merged class from an
    explicit CRT step.  Returns (terms, identity_until, active_from)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    horizon = max(count, horizon_floor)

    def threshold_index(w, lowest):
        j0 = None
        for j in range(horizon, lowest - 1, -1):
            if f(j) < w:
                break
            j0 = j
        return j0

    w = 2**k
    l1 = threshold_index(w, 1)
    if l1 is None:
        raise BudgetError(
            f"growth function never reaches {w} on indices up to {horizon}; "
            "it must tend to infinity"
        )
    primes = trial_division_primes(100)

    def prime(r):
        nonlocal primes
        while len(primes) < r:
            primes = trial_division_primes(2 * primes[-1])
        return primes[r - 1]

    levels = [(1, l1)]
    r = 1
    while levels[-1][1] <= count:
        r += 1
        w *= prime(r) ** k
        j0 = threshold_index(w, levels[-1][1] + 1)
        if j0 is None:
            break
        levels.append((r, j0))

    terms = []
    residue, modulus = 0, 1
    level_pos = 0
    for j in range(1, count + 1):
        while level_pos < len(levels) and levels[level_pos][1] <= j:
            r_new = levels[level_pos][0]
            q = prime(r_new) ** k
            # the n = residue (mod modulus) with n = -r_new (mod q)
            lift = (-r_new - residue) * pow(modulus, -1, q) % q
            residue, modulus = residue + modulus * lift, modulus * q
            level_pos += 1
        if j <= l1:
            terms.append(j)
        else:
            prev = terms[-1]
            step = (residue - prev) % modulus
            terms.append(prev + (step or modulus))

    active_from = {r_level: max(j0, l1 + 1) for r_level, j0 in levels if j0 <= count}
    return tuple(terms), l1, active_from
