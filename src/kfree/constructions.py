"""Explicit constructions: slow-density translate avoiders, greedy
pairwise-sum sequences, primorial-structured witness searches, dense
anchor iterations, seeded random counterexamples, and base points whose
small-prime part is a full primorial power.

Every randomized choice in the underlying existence arguments is replaced by
a deterministic increasing scan, with seeded-random candidate orders offered
for experiments; identical inputs and seeds always reproduce identical output.
"""

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress
from math import ceil, exp, log, prod

from .errors import BudgetError
from .properties import (
    Certification,
    NoWitness,
    WitnessReport,
    _first_good,
    _witness_scan,
    admissibility_certificate,
    as_elements,
)
from .sieve import (
    _multiples_mask,
    _require_bytes,
    RESIDUE_GROUP,
    ResidueClass,
    crt_combine,
    integer_kth_root,
    kfree_window,
    nth_prime,
    primes_upto,
    smallest_power_divisor,
    translate_flags,
)

# Growth functions selectable from the command line; arbitrary callables are
# accepted by the library, these are just the named built-ins.
GROWTH_FUNCTIONS = {
    "identity": lambda j: j,
    "half": lambda j: max(1, j // 2),
    "jlogj": lambda j: j * max(1, ceil(log(max(j, 2)))),
}


def resolve_growth(token: str):
    """Named growth function, or a scaled one via 'times<c>' (e.g. times3)."""
    if token in GROWTH_FUNCTIONS:
        return GROWTH_FUNCTIONS[token]
    if token.startswith("times") and token[5:].isdigit() and int(token[5:]) > 0:
        scale = int(token[5:])
        return lambda j: scale * j
    raise ValueError(
        f"unknown growth function {token!r}; use one of "
        f"{sorted(GROWTH_FUNCTIONS)} or times<c>"
    )


# --- slow-density sequence with vanishing translate intersections -------------


@dataclass(frozen=True)
class SlowDensitySequence:
    """Output of :func:`property_p_sequence`.

    ``terms[j-1]`` is the j-th element.  ``active_from[r]`` is the first index
    j from which every emitted term satisfies p_r^k | term + r; indices below
    ``identity_until`` inclusive are simply 1, 2, 3, ...
    """

    terms: tuple[int, ...]
    k: int
    identity_until: int
    active_from: dict[int, int]


# Fewest indices over which property_p_sequence looks for the thresholds W_r.
THRESHOLD_HORIZON = 10_000

# Most levels property_p_sequence stacks.  A growth function that returns inf
# reaches every W_r, and would otherwise stack count + 1 of them.
MAX_LEVELS = 1000


def property_p_sequence(f, count: int, k: int = 2) -> SlowDensitySequence:
    """Build a sequence of density ~1/f whose translates all eventually die.

    The j-th term is forced into the residue class -r mod p_r^k for every r
    whose primorial-power threshold W_r = (p_1...p_r)^k the growth function f
    has reached by index j; this keeps term_j <= j * f(j) while ensuring that
    term + n is divisible by p_n^k for all large terms, for every fixed n.

    Thresholds are detected over max(count, THRESHOLD_HORIZON) indices; a
    growth function that never reaches W_1 = 2^k there is rejected, since the
    output would carry no congruence structure at all, and one that reaches
    more than MAX_LEVELS thresholds by index count raises BudgetError.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    horizon = max(count, THRESHOLD_HORIZON)
    # One descent from the horizon keeps low = min f(i) over i in [j, horizon].
    # start[r - 1] becomes the smallest j with low >= W_r, one past where low
    # first falls below W_r.  Above count only W_1 can matter; at count, the
    # W_r <= low join it, as no larger W_r is reached at or below count.  The
    # descent ends once low falls below W_1, so f is called once at each index
    # that per-threshold scans from the horizon would reach.
    thresholds = [2**k]
    start = [1]
    alive = 1  # thresholds[:alive] are still <= low
    low = None
    for j in range(horizon, 0, -1):
        value = f(j)
        if low is None or value < low:
            low = value
        if j == count:
            while len(thresholds) <= count:
                w = thresholds[-1] * nth_prime(len(thresholds) + 1) ** k
                if low < w:
                    break
                if len(thresholds) == MAX_LEVELS:
                    raise BudgetError(
                        f"growth function reaches more than {MAX_LEVELS} "
                        f"thresholds W_r by index {count}"
                    )
                thresholds.append(w)
            alive = len(thresholds)
            start += [1] * (alive - len(start))
        while alive and low < thresholds[alive - 1]:
            alive -= 1
            start[alive] = j + 1
        if not alive:
            break
    l1 = start[0]
    if l1 > horizon:
        raise BudgetError(
            f"growth function never reaches {thresholds[0]} on indices up to {horizon}; "
            "it must tend to infinity"
        )

    # activation[r] = first index whose term is forced into -r mod p_r^k;
    # each level activates after the one before it
    levels = [(1, l1)]
    for r in range(2, len(thresholds) + 1):
        if levels[-1][1] > count:
            break
        levels.append((r, max(start[r - 1], levels[-1][1] + 1)))

    terms: list[int] = []
    classes = []  # the congruences currently in force
    merged = None
    level_pos = 0
    for j in range(1, count + 1):
        while level_pos < len(levels) and levels[level_pos][1] <= j:
            r_new = levels[level_pos][0]
            q = nth_prime(r_new) ** k
            classes.append(ResidueClass(-r_new % q, q))
            merged = crt_combine(classes)
            level_pos += 1
        if j <= l1:
            terms.append(j)
        else:
            prev = terms[-1]
            step = (merged.residue - prev) % merged.modulus
            terms.append(prev + (step or merged.modulus))

    active_from = {}
    for r_level, j0 in levels:
        if j0 <= count:
            # the term at the threshold index itself is only congruent once it
            # is produced by the congruence scan, i.e. past the identity ramp
            active_from[r_level] = max(j0, l1 + 1)
    return SlowDensitySequence(tuple(terms), k, l1, active_from)


# --- greedy pairwise-sum sequence ---------------------------------------------


@dataclass(frozen=True)
class GreedySkip:
    candidate: int
    partner: int
    prime: int  # prime whose k-th power divides candidate + partner


@dataclass(frozen=True)
class GreedyResult:
    terms: tuple[int, ...]
    skipped: tuple[GreedySkip, ...]


def greedy_squarefree_sums(count: int, include_diagonal: bool = True, k: int = 2) -> GreedyResult:
    """Greedily extend a set keeping every pairwise sum k-free.

    Each new term is the smallest integer above the previous one whose sums
    with all existing terms (and with itself, if the diagonal is included)
    are k-free.  Every rejected candidate is logged with a concrete violating
    pair so greedy minimality can be re-verified: the first partner in term
    order, the candidate itself (the diagonal) last, and the smallest prime
    whose k-th power divides their sum.

    The candidates are sieved in blocks [lo, lo + lo // 4).  The terms below
    lo strike their classes -a mod p^k in the block, walked in term order
    and, for each term, in ascending p, while an int bitmask holds the
    positions no strike has reached yet; the walk stops once none is left.
    Each strike that reaches an open position is kept, and replaying the kept
    strikes in reverse, each overwriting its positions, leaves every position
    with the first strike that reached it: the (partner, prime) above, since
    every term below lo precedes every term inside the block.  The positions
    still open are taken in order and checked one sum at a time against the
    terms accepted inside the block, then the diagonal.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms: list[int] = []
    skipped: list[GreedySkip] = []
    lo = 1
    while len(terms) < count:
        # A quarter of the range below: long enough that the terms below lo
        # strike nearly every position, short enough that the masks stay
        # small and little is sieved past the last term.  At 300 terms a
        # block as long as the range below took 1.5 times as long.
        length = max(1, lo // 4)
        primes = primes_upto(integer_kth_root(lo + length - 1 + (terms[-1] if terms else 0), k))
        powers = [p**k for p in primes]
        masks = [_multiples_mask(q, length) for q in powers]
        open_ = (1 << length) - 1
        strikes = []
        for a in terms:
            shift = -(lo + a)
            for p, q, mask in zip(primes, powers, masks):
                first = shift % q
                if first < length:
                    hit = mask << first & open_
                    if hit:
                        open_ ^= hit
                        strikes.append((first, q, a, p))
            if not open_:
                break
        partners = [0] * length
        smallest = [0] * length
        for first, q, a, p in reversed(strikes):
            size = (length - 1 - first) // q + 1
            partners[first::q] = [a] * size
            smallest[first::q] = [p] * size
        found = []  # positions of the terms accepted inside the block
        while open_ and len(terms) < count:
            i = (open_ & -open_).bit_length() - 1
            open_ ^= 1 << i
            c = lo + i
            for b in terms[len(terms) - len(found) :] + ([c] if include_diagonal else []):
                p = smallest_power_divisor(c + b, k)
                if p is not None:
                    partners[i], smallest[i] = b, p
                    break
            else:
                terms.append(c)
                found.append(i)
        # the skips end at the last term once count is reached
        start = 0
        for end in found + ([] if len(terms) == count else [length]):
            skipped.extend(
                map(GreedySkip, range(lo + start, lo + end), partners[start:end], smallest[start:end])
            )
            start = end + 1
        lo += length
    return GreedyResult(tuple(terms), tuple(skipped))


# --- primorial-structured witness search ---------------------------------------


def suff_witness_search(
    values,
    x: int,
    theta: float = 0.1,
    interval: str = "HALF",
    k: int = 2,
    seed: int | None = None,
) -> WitnessReport | NoWitness:
    """Search for n with n + a k-free for all elements a <= x, using the
    avoidance certificate to pre-clear all primes up to theta * ln x.

    With W the product of p^k over p <= theta*ln(x) and b the CRT combination
    of the avoided classes, candidates run over n = -b (mod W) inside the
    chosen interval (HALF: [x/2, x]; FORWARD: (x, x + x^(10/11)]), in
    increasing order, or in seeded random order when a seed is given.  All
    candidates are sieved at once over the primes not dividing W; the avoided
    classes already keep n + a off 0 mod p^k for the primes that do.  More
    candidates than the byte cap raise ResourceError before any strike.
    """
    elements = as_elements(values)
    if not 0 < theta < 0.25:
        raise ValueError("theta must lie in (0, 1/4)")
    if interval not in ("HALF", "FORWARD"):
        raise ValueError(f"unknown interval mode {interval!r}")
    if elements and x < elements[-1]:
        raise ValueError("x must be at least max(A)")

    prime_limit = int(theta * log(x)) if x >= 2 else 0
    w_primes = primes_upto(prime_limit)
    if w_primes:
        # the certificate must cover the primorial primes and stay above the
        # decidability floor |A|^(1/k) that full-occupancy checks need
        floor_bound = integer_kth_root(max(len(elements), 1), k) + 1
        cert = admissibility_certificate(
            elements, k, prime_bound=max(w_primes[-1], floor_bound, 2)
        )
        merged = crt_combine([cert.avoided(p) for p in w_primes])
        modulus = merged.modulus
        target = -merged.residue % modulus  # n = -b (mod W)
    else:
        modulus, target = 1, 0

    if interval == "HALF":
        lo, hi = (x + 1) // 2, x
    else:
        lo, hi = x + 1, x + integer_kth_root(x**10, 11)
    if lo < 1:
        raise ValueError("interval must start at 1 or later")

    first = lo + (target - lo) % modulus
    return _witness_scan(elements, lo, hi, first, modulus, k, seed)


# --- dense anchors: iterated key construction ----------------------------------


@dataclass(frozen=True)
class DenseStepReport:
    anchor: int
    candidates_examined: int
    grid: tuple[tuple[int, float], ...]  # (R, density of good k-free a <= R)
    grid_capped: bool
    slice_materialized: bool


@dataclass
class DenseQState:
    """Anchors n_1 < n_2 < ... with n_{i+1} a primorial-power multiple whose
    translates preserve the k-free numbers below the previous anchor, plus the
    accumulated slices {a k-free in (n_i, n_{i+1}]: n_{i+1} + a k-free}."""

    k: int = 2
    anchors: list[int] = field(default_factory=list)
    slices: list[tuple[int, ...] | None] = field(default_factory=list)
    reports: list[DenseStepReport] = field(default_factory=list)

    @classmethod
    def start(cls, n1: int, k: int = 2) -> "DenseQState":
        if n1 < 2:
            raise ValueError("initial anchor must be >= 2")
        return cls(k=k, anchors=[n1])


def _both_kfree(lo: int, length: int, anchor: int, k: int) -> bytearray:
    """Entry i is 1 when a = lo + i and anchor + a are both k-free."""
    _require_bytes(length, f"window of length {length}")
    primes = primes_upto(integer_kth_root(lo + length - 1 + anchor, k))
    return translate_flags(lo, length, (0, anchor), primes, k)


# Longest window dense_q_step sieves for its density grid or its new slice.
DENSE_WINDOW_BUDGET = 1_000_000


def dense_q_step(
    state: DenseQState, epsilon: float, x: int, seed: int | None = None
) -> DenseQState:
    """Append the next anchor n' to the state: a multiple of
    W = prod_{p <= n^2} p^k in [x/2, x] with n' + a k-free for every k-free
    a <= n, and n' at least (i+1) times the current anchor n (i anchors so far).

    The exact-preservation condition is verified for every k-free a <= n; the
    density of {a k-free <= R : n' + a k-free} is additionally measured on the
    geometric grid R, (1+epsilon)R, ... up to min(n', DENSE_WINDOW_BUDGET)
    and reported, not asserted.  The new slice of the accumulated set is
    materialized only when it is at most DENSE_WINDOW_BUDGET long.  The
    candidate count is checked against the byte cap (ResourceError) before the
    candidates are struck, and a seeded order's four bytes per candidate
    before it is built.
    """
    if not state.anchors:
        raise ValueError("state has no initial anchor; use DenseQState.start")
    if not epsilon > 0:  # NaN-safe
        raise ValueError("epsilon must be positive")
    k = state.k
    n = state.anchors[-1]
    step_index = len(state.anchors)

    # A multiple of W in [x/2, x] needs W <= x, so the product stops once it
    # passes x, and no prime above x is requested.  When n^2 > x >= 2 the
    # primes up to x still multiply past x: one lies in (x/2, x], and its
    # k-th power exceeds x.  For x < 2 the product stays 1, and the spacing
    # floor (i+1)*n >= 4 rejects every candidate.
    modulus = 1
    for p in primes_upto(min(n * n, max(x, 0))):
        modulus *= p**k
        if modulus > x:
            break
    w_name = f"prod of p^{k} over p <= {n * n}"
    lo, hi = (x + 1) // 2, x
    first = lo + (-lo) % modulus
    if first > hi:
        raise ValueError(f"no multiple of {w_name} lies in [{lo}, {hi}]")
    spacing = (step_index + 1) * n
    if first < spacing:
        first += -(-(spacing - first) // modulus) * modulus
    if first > hi:
        raise ValueError(
            f"multiples of {w_name} in [{lo}, {hi}] all violate the spacing "
            f"requirement n' >= {spacing}"
        )
    count = (hi - first) // modulus + 1
    _require_bytes(count, f"{count} candidate multiples of {modulus}")

    small_free = kfree_window(1, n, k).members()
    # each candidate is 0 mod p^k for the primes of W, so it keeps a k-free a
    # off 0 mod p^k there and only the primes above n^2 need striking
    primes = [p for p in primes_upto(integer_kth_root(hi + n, k)) if p > n * n]
    good = translate_flags(first, count, small_free, primes, k, step=modulus)
    i, examined = _first_good(good, seed)
    if i < 0:
        raise BudgetError(
            f"none of the {count} candidate multiples preserved the k-free "
            f"numbers up to {n}"
        )
    anchor = first + i * modulus

    # density report on a geometric grid, capped by the inspection budget
    r_cap = min(anchor, DENSE_WINDOW_BUDGET)
    grid_points = []
    r = n
    while r <= r_cap:
        grid_points.append(r)
        # capped before int(), so an infinite epsilon still ends the grid
        r = max(r + 1, int(min(r * (1 + epsilon), r_cap + 1)))
    if grid_points and grid_points[-1] != r_cap:
        grid_points.append(r_cap)
    grid = []
    if grid_points:
        both = _both_kfree(1, grid_points[-1], anchor, k)
        good = prev = 0
        for r in grid_points:
            good += both.count(1, prev, r)
            grid.append((r, good / r))
            prev = r

    materialized = anchor - n <= DENSE_WINDOW_BUDGET
    if materialized:
        both = _both_kfree(n + 1, anchor - n, anchor, k)
        piece = tuple(compress(range(n + 1, anchor + 1), both))
    else:
        piece = None

    state.anchors.append(anchor)
    state.slices.append(piece)
    state.reports.append(
        DenseStepReport(anchor, examined, tuple(grid), r_cap < anchor, materialized)
    )
    return state


# --- seeded random counterexample ----------------------------------------------


def membership_probability(n: int, c: float) -> float:
    """min(c * ln(n) * ln(ln(n)) / n, 1), the inclusion rate at n >= 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return min(c * log(n) * log(log(n)) / n, 1.0)


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reject_bound(n0: int, c: float) -> int:
    """An integer bound B with B / 2**64 >= membership_probability(n, c) for
    every n in [n0, 2*n0) when n0 >= 10, where c * ln n * lnln n / n
    decreases; the 2**-30 margin absorbs the rounding of both probabilities.
    Where the probability is capped at 1, B exceeds every 64-bit draw."""
    return ceil(membership_probability(n0, c) * (1 + 2**-30) * 2**64) + 1


# Window positions whose draws sample_counterexample computes on one packed
# int: 16 bytes per k-free position, whatever x_max is.
_LANE_CHUNK = 4096


def _lane_draws(key: int, members: list[int]) -> int:
    """The draws of the n in ``members``, all below 2**64, as one int whose
    i-th 128-bit slot holds the draw of the i-th n in its low half."""
    words = [0] * (2 * len(members))
    words[::2] = members
    layout = f"<{len(words)}Q"
    slots = int.from_bytes((b"\x01" + bytes(15)) * len(members), "little")
    mask = _MASK64 * slots
    gamma = 0x9E3779B97F4A7C15 * slots
    z = int.from_bytes(struct.pack(layout, *words), "little") ^ key * slots
    z = (z + gamma) & mask
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    z = (((z ^ (z >> 31)) & mask) + gamma) & mask
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def sample_counterexample(c: float, x_max: int, seed: int, k: int = 2) -> tuple[int, ...]:
    """Random k-free subset of [3, x_max], each k-free n included independently
    with probability min(c * ln n * lnln n / n, 1).

    Deterministic per seed: each n gets one counter-based 64-bit draw z, the
    splitmix64 mix of (mix of seed) xor n, mixed once more, and is kept when
    z / 2**64 < membership_probability(n, c), so the sample is independent of
    evaluation order.

    The draws are computed _LANE_CHUNK window positions at a time, on one int
    that holds each k-free n of the chunk in the low 64 bits of its own
    128-bit slot, the high 64 bits zero.  The seed xor, the adds, the
    multiplies and the shifts of both mixes act on the whole int, and the
    64-bit lane mask is applied before every add and every multiply.  So each
    operand is below 2**64 in every slot: a sum stays below 2**65 and a
    product by a 64-bit constant below 2**128, and nothing carries into the
    next slot.  A right shift moves the next slot's low bits into this slot's
    high half only, which the next mask clears.  Each slot therefore ends
    holding exactly the per-n draw.

    The members are cut into doubling blocks [n0, 2*n0) from the first member
    n0 >= 10, and each block gets one integer bound B = _reject_bound(n0, c).
    A draw z >= B is rejected without the float test; the result is exact,
    because z / 2**64 >= B / 2**64 >= p(n) throughout the block and correctly
    rounded division is monotone, so the float test would reject it too.
    Below 10, and wherever p is capped at 1, every n takes the float test.

    Within a chunk, a block with B < 2**64 first keeps only the draws whose
    top byte z >> 56 is at most B >> 56, read from the chunk's bytes with one
    stride and one table translation.  That drops no draw below B, since
    z < B gives z >> 56 <= B >> 56; a B >= 2**64 keeps every draw.  Only the
    kept draws take the exact z < B and float tests.
    """
    if not c > 0:  # NaN-safe
        raise ValueError("c must be positive")
    if x_max < 3:
        raise ValueError("x_max must be >= 3")
    flags = kfree_window(3, x_max - 2, k).flags
    key = _splitmix64(seed & _MASK64)
    chosen = []
    bound, block_end = 1 << 64, 10
    # n <= x_max is far below 2**64 (the window is byte-capped), so each n
    # fits its lane and key ^ n needs no mask
    for lo in range(3, x_max + 1, _LANE_CHUNK):
        hi = min(lo + _LANE_CHUNK, x_max + 1)
        members = list(compress(range(lo, hi), flags[lo - 3 : hi - 3]))
        draws = _lane_draws(key, members).to_bytes(16 * len(members), "little")
        start = 0
        while start < len(members):
            if members[start] >= block_end:
                bound, block_end = _reject_bound(members[start], c), 2 * members[start]
            end = bisect_left(members, block_end, start)
            kept = range(start, end)
            if bound < 1 << 64:
                top = bound >> 56
                table = b"\x01" * (top + 1) + bytes(255 - top)
                kept = compress(kept, draws[16 * start + 7 : 16 * end : 16].translate(table))
            for i in kept:
                n = members[i]
                z = int.from_bytes(draws[16 * i : 16 * i + 8], "little")
                if z < bound and z / 2**64 < membership_probability(n, c):
                    chosen.append(n)
            start = end
    return tuple(chosen)


# --- base points congruent to zero modulo a full primorial power ----------------


def _loglog_range(p: int) -> int:
    """floor(p / (lnln p)^2), the forced-translate range at a prime p >= 5."""
    return int(p / log(log(p)) ** 2)


# reach(q) = _loglog_range(q) is at most _REACH_FACTOR * q for every q >= 5:
# its largest ratio to q is 4.4, at reach(5) = 22, and it is below q once
# q > e^e, where lnln q > 1.
_REACH_FACTOR = 5

# Largest primorial power, in bits, that overp_base_point will build.
PRIMORIAL_BIT_BUDGET = 1 << 20


def overp_base_point(
    p_threshold: int,
    k: int = 2,
    max_candidates: int = 1_000_000,
    verify_prime_cap: int | None = None,
    min_value: int = 0,
) -> int:
    """Smallest multiple n of prod_{p <= P} p^k such that for every prime
    q > P, q^k divides none of n+1, ..., n + floor(q / (lnln q)^2).

    Only finitely many q can interfere once n is fixed (q^k must not exceed
    n plus the range), and each is checked through -n mod q^k.  The q are
    taken in ascending order, in groups of RESIDUE_GROUP consecutive primes:
    n, which can run to thousands of bits, is reduced once modulo the
    product of the group's q^k, and each -n mod q^k is taken from that small
    remainder, which is congruent to n modulo every q^k of the group.  A q is
    still checked only when every smaller q passed, and the scan still stops
    at the first q^k > n + reach(q).  ``verify_prime_cap`` limits the checked
    q for astronomically large n; left as None, the full forced range is
    verified or a BudgetError raised if that range is itself out of reach.
    A primorial power over PRIMORIAL_BIT_BUDGET bits raises BudgetError
    before any prime is requested.
    """
    if p_threshold < 3:
        raise ValueError("prime threshold must be >= 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    # theta(P) ~ P, so the primorial power needs about 1.45 * k * P bits
    if 1.45 * k * p_threshold > PRIMORIAL_BIT_BUDGET:
        raise BudgetError(
            f"primorial power at threshold {p_threshold} needs roughly "
            f"{int(1.45 * k * p_threshold)} bits, over the {PRIMORIAL_BIT_BUDGET}-bit budget"
        )
    small = primes_upto(p_threshold)
    modulus = 1
    for p in small:
        modulus *= p**k

    def violates(n: int) -> bool:
        # A prime q >= kth_root(n) + 3 has n < (q - 2)^k, so q^k - n exceeds
        # q^k - (q - 2)^k >= 4q - 4, which is at least reach(q) for q >= 7
        # (reach(q) <= 15 at q = 7, 11, 13 and below q beyond); q = 5 would
        # need n < 9, below every base point.  So q^k > n + reach(q) there,
        # and no prime beyond top can interfere.
        top = integer_kth_root(n, k) + 2
        if verify_prime_cap is not None:
            top = min(top, verify_prime_cap)
        elif top > 10_000_000:
            raise BudgetError(
                f"full verification would need primes up to a {top.bit_length()}-bit bound, "
                "past 10^7; pass verify_prime_cap to accept a partial certification"
            )
        primes = primes_upto(top)
        for g in range(bisect_right(primes, p_threshold), len(primes), RESIDUE_GROUP):
            group = primes[g : g + RESIDUE_GROUP]
            powers = [q**k for q in group]
            rem = n % prod(powers)
            for q, q_k in zip(group, powers):
                r = -rem % q_k
                # With r > _REACH_FACTOR * q >= reach(q) and q^k <= n, q
                # neither stops the scan nor violates, so reach(q) is needed
                # only past one of those two cuts.
                if r <= _REACH_FACTOR * q or q_k > n:
                    reach = _loglog_range(q)
                    if q_k > n + reach:
                        return False
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


# Largest prime overp_sequence checks, for its base points and induced set.
OVERP_VERIFY_PRIME_CAP = 100_000


@dataclass(frozen=True)
class OverPSequence:
    thresholds: tuple[int, ...]
    anchors: tuple[int, ...]
    induced: tuple[int, ...]
    induced_cap: int
    certification: Certification

    def __repr__(self) -> str:
        # A depth-2 anchor runs past Python's 4300-digit limit on int-to-str
        # conversion, so each anchor shows as its bit length and the first 12
        # hex digits of the sha256 of its big-endian bytes.  hashlib is
        # imported here, so that start-up does not load OpenSSL.
        import hashlib

        anchors = ", ".join(
            f"<{n.bit_length()} bits, sha256 "
            f"{hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, 'big')).hexdigest()[:12]}>"
            for n in self.anchors
        )
        return (
            f"OverPSequence(thresholds={self.thresholds!r}, anchors=({anchors}), "
            f"induced={self.induced!r}, induced_cap={self.induced_cap!r}, "
            f"certification={self.certification!r})"
        )


def overp_sequence(
    scale: int,
    depth: int,
    k: int = 2,
    induced_cap: int = 200,
) -> OverPSequence:
    """Anchors n_1 < ... < n_depth at thresholds P_j = ceil(scale * e^(e^j)),
    each a base point per :func:`overp_base_point`, plus the induced set of
    k-free a <= induced_cap whose every translate n_j + a stays k-free.

    The translates are checked against the primes up to the certification's
    cutoff, but each anchor strikes only the primes q > P_j whose range
    reach(q) = floor(q / (lnln q)^2) is below induced_cap.  A prime q <= P_j
    has q^k | n_j, so it divides n_j + a only when it divides the k-free a;
    and for a larger q with reach(q) >= induced_cap, the base point search
    has already kept q^k off n_j + 1, ..., n_j + reach(q).

    The doubly exponential thresholds explode fast: the base point search
    refuses a primorial power over the bit budget rather than approximating.
    """
    if scale < 3:
        raise ValueError("scale must be >= 3")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    thresholds = []
    for j in range(1, depth + 1):
        inner = exp(j)
        if inner > 700:  # e^inner overflows doubles long after any sane budget
            raise BudgetError(f"threshold at depth {j} is astronomically large")
        thresholds.append(ceil(scale * exp(inner)))
    thresholds = tuple(thresholds)
    anchors = []
    previous = 0
    for t in thresholds:
        anchor = overp_base_point(
            t,
            k,
            max_candidates=100_000,
            verify_prime_cap=OVERP_VERIFY_PRIME_CAP,
            min_value=previous,
        )
        anchors.append(anchor)
        previous = anchor

    window = kfree_window(1, induced_cap, k)
    needed = integer_kth_root(anchors[-1] + induced_cap, k) if anchors else 0
    certification = Certification.checked_to(needed, OVERP_VERIFY_PRIME_CAP)
    primes = primes_upto(certification.prime_cutoff)
    # For anchor n with threshold t, k-free a <= induced_cap and a checked
    # prime q <= cutoff <= OVERP_VERIFY_PRIME_CAP:
    # 1. q <= t: q^k divides n, so q^k | n + a only when q^k | a, and the
    #    k-free window already drops such a.
    # 2. q > t with reach(q) = _loglog_range(q) >= induced_cap: the base point
    #    check cleared n + 1, ..., n + reach(q) for q.  It either checked q
    #    itself; or stopped at a smaller q' with q'^k > n + reach(q'), and
    #    then q^k - q'^k >= q + q' > reach(q) - reach(q'), since reach(q) <= q
    #    beyond e^e; or q lies above its top, where q^k > n + reach(q) (top is
    #    below q only through the kth root, as q is within the cap).
    # 3. q > t with reach(q) < induced_cap: struck here.  Every threshold is
    #    at least ceil(3 * e^e) = 46 and reach is non-decreasing above 46, so
    #    these q are the primes above t up to the first with reach(q) >=
    #    induced_cap.
    flags = window.flags
    for t, anchor in zip(thresholds, anchors):
        lo = bisect_right(primes, t)
        hi = bisect_left(primes, induced_cap, lo, key=_loglog_range)
        good = translate_flags(1, induced_cap, (anchor,), primes[lo:hi], k)
        flags = bytes(map(min, flags, good))
    induced = tuple(compress(range(1, induced_cap + 1), flags))
    return OverPSequence(
        thresholds, tuple(anchors), induced, induced_cap, certification
    )
