"""Explicit constructions: slow-density translate avoiders, greedy
pairwise-sum sequences, primorial-structured witness searches, dense
anchor iterations, seeded random counterexamples, and base points whose
small-prime part is a full primorial power.

Every randomized choice in the underlying existence arguments is replaced by
a deterministic increasing scan, with seeded-random candidate orders offered
for experiments; identical inputs and seeds always reproduce identical output.
"""

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from math import ceil, exp, log, prod

from .errors import BudgetError, NotAdmissibleError
from .properties import (
    Certification,
    NoWitness,
    NotAdmissible,
    WitnessReport,
    _first_good,
    _witness_scan,
    admissibility_certificate,
    as_elements,
)
from .sieve import (
    _require_bytes,
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
    "times10": lambda j: 10 * j,
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


def property_p_sequence(f, count: int, k: int = 2) -> SlowDensitySequence:
    """Build a sequence of density ~1/f whose translates all eventually die.

    The j-th term is forced into the residue class -r mod p_r^k for every r
    whose primorial-power threshold W_r = (p_1...p_r)^k the growth function f
    has reached by index j; this keeps term_j <= j * f(j) while ensuring that
    term + n is divisible by p_n^k for all large terms, for every fixed n.

    Thresholds are detected over max(count, THRESHOLD_HORIZON) indices; a
    growth function that never reaches W_1 = 2^k there is rejected, since the
    output would carry no congruence structure at all.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    horizon = max(count, THRESHOLD_HORIZON)

    def threshold_index(w: int, lowest: int) -> int | None:
        # smallest j0 >= lowest with f(j) >= w for all j in [j0, horizon]
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

    # activation[r] = first index whose term is forced into -r mod p_r^k
    levels = [(1, l1)]
    r = 1
    while levels[-1][1] <= count:
        r += 1
        w *= nth_prime(r) ** k
        j0 = threshold_index(w, levels[-1][1] + 1)
        if j0 is None:
            break
        levels.append((r, j0))

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
    pair so greedy minimality can be re-verified.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms: list[int] = []
    skipped: list[GreedySkip] = []
    candidate = 1
    while len(terms) < count:
        conflict = None
        partners = terms + [candidate] if include_diagonal else terms
        for a in partners:
            p = smallest_power_divisor(candidate + a, k)
            if p is not None:
                conflict = GreedySkip(candidate, a, p)
                break
        if conflict is None:
            terms.append(candidate)
        else:
            skipped.append(conflict)
        candidate += 1
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
        if isinstance(cert, NotAdmissible):
            raise NotAdmissibleError(cert.prime)
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
    return _witness_scan(elements, lo, hi, first, modulus, k, None, seed)


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

    def accumulated_set(self) -> tuple[int, ...]:
        merged: list[int] = []
        for piece in self.slices:
            if piece:
                merged.extend(piece)
        return tuple(merged)


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

    w_primes = primes_upto(n * n)
    modulus = 1
    for p in w_primes:
        modulus *= p**k
    lo, hi = (x + 1) // 2, x
    first = lo + (-lo) % modulus
    if first > hi:
        raise ValueError(
            f"no multiple of the primorial power {modulus} lies in [{lo}, {hi}]"
        )
    spacing = (step_index + 1) * n
    if first < spacing:
        first += -(-(spacing - first) // modulus) * modulus
    if first > hi:
        raise ValueError(
            f"multiples of {modulus} in [{lo}, {hi}] all violate the spacing "
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


def _lane_draws(key: int, members: list[int]) -> tuple[int, ...]:
    """The draw of each n in ``members``, all below 2**64, computed on one
    int that holds each n in the low half of its own 128-bit slot."""
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
    z = (z ^ (z >> 31)) & mask
    return struct.unpack(layout, z.to_bytes(8 * len(words), "little"))[::2]


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
        for n, z in zip(members, _lane_draws(key, members)):
            if n >= block_end:
                bound, block_end = _reject_bound(n, c), 2 * n
            if z < bound and z / 2**64 < membership_probability(n, c):
                chosen.append(n)
    return tuple(chosen)


def occupancy_probe(values, x: int, k: int = 2) -> dict[int, tuple[int, ...]]:
    """For each prime p <= ln x, the nonzero classes mod p^k that A cap [x]
    leaves unoccupied (an empty tuple flags full occupancy, the obstruction
    that forces any surviving shift to be divisible by the whole primorial
    power)."""
    elements = [a for a in as_elements(values) if a <= x]
    probe = {}
    limit = int(log(x)) if x >= 2 else 0
    for p in primes_upto(limit):
        q = p**k
        occupied = {a % q for a in elements}
        probe[p] = tuple(r for r in range(1, q) if r not in occupied)
    return probe


# --- base points congruent to zero modulo a full primorial power ----------------


def _loglog_range(p: int) -> int:
    """floor(p / (lnln p)^2), the forced-translate range at a prime p >= 5."""
    return int(p / log(log(p)) ** 2)


# Consecutive q^k whose product overp_base_point reduces a base point by at
# once: at a 13706-bit base point, groups of 16-32 were fastest, and groups
# of 2 or 128 about twice as slow.
_RESIDUE_GROUP = 16


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
    taken in ascending order, in groups of _RESIDUE_GROUP consecutive primes:
    n, which can run to thousands of bits, is reduced once modulo the
    product of the group's q^k, and each -n mod q^k is taken from that small
    remainder, which is congruent to n modulo every q^k of the group.  A q is
    still checked only when every smaller q passed, and the scan still stops
    at the first q^k > n + reach(q).  ``verify_prime_cap`` limits the checked
    q for astronomically large n; left as None, the full forced range is
    verified or a BudgetError raised if that range is itself out of reach.
    """
    if p_threshold < 3:
        raise ValueError("prime threshold must be >= 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    small = primes_upto(p_threshold)
    modulus = 1
    for p in small:
        modulus *= p**k

    def violates(n: int) -> bool:
        # the loop below stops once q^k > n + reach(q); reach(q) < q, so no
        # prime beyond kth_root(n) + 2 can interfere
        top = integer_kth_root(n, k) + 2
        if verify_prime_cap is not None:
            top = min(top, verify_prime_cap)
        elif top > 10_000_000:
            raise BudgetError(
                f"full verification would need primes up to {top}; "
                "pass verify_prime_cap to accept a partial certification"
            )
        primes = primes_upto(top)
        for g in range(bisect_right(primes, p_threshold), len(primes), _RESIDUE_GROUP):
            group = primes[g : g + _RESIDUE_GROUP]
            powers = [q**k for q in group]
            rem = n % prod(powers)
            for q, q_k in zip(group, powers):
                reach = _loglog_range(q)
                if q_k > n + reach:
                    return False
                r = -rem % q_k
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


# Largest primorial power, in bits, that overp_sequence will build.
PRIMORIAL_BIT_BUDGET = 1 << 20

# Largest prime overp_sequence checks, for its base points and induced set.
OVERP_VERIFY_PRIME_CAP = 100_000


@dataclass(frozen=True)
class OverPSequence:
    thresholds: tuple[int, ...]
    anchors: tuple[int, ...]
    induced: tuple[int, ...]
    induced_cap: int
    certification: Certification


def overp_sequence(
    scale: int,
    depth: int,
    k: int = 2,
    induced_cap: int = 200,
) -> OverPSequence:
    """Anchors n_1 < ... < n_depth at thresholds P_j = ceil(scale * e^(e^j)),
    each a base point per :func:`overp_base_point`, plus the induced set of
    k-free a <= induced_cap whose every translate n_j + a stays k-free.

    The doubly exponential thresholds explode fast: a depth whose primorial
    power exceeds the bit budget is refused rather than approximated.
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
        t = ceil(scale * exp(inner))
        # theta(P) ~ P, so the primorial power needs about 1.45 * k * P bits
        if 1.45 * k * t > PRIMORIAL_BIT_BUDGET:
            raise BudgetError(
                f"primorial power at threshold {t} needs roughly "
                f"{int(1.45 * k * t)} bits, over the {PRIMORIAL_BIT_BUDGET}-bit budget"
            )
        thresholds.append(t)
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
    good = translate_flags(1, induced_cap, anchors, primes, k)
    induced = tuple(
        a for a in range(1, induced_cap + 1) if window.flags[a - 1] and good[a - 1]
    )
    return OverPSequence(
        thresholds, tuple(anchors), induced, induced_cap, certification
    )
