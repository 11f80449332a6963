"""Exact maximum size of a subset of [1, x] avoiding one residue class modulo
p^k for every prime, bracketed by shifted-window lower bounds and large sieve
upper bounds.

Only primes with p^k <= x constrain the maximum: any class mod a larger p^k
has a representative-free choice inside [1, x] (residue 0, say, once
p^k > x).  The search is one branch-and-bound over the choice of removed class
per prime, on bitmask survivor sets, branching on the primes in ascending
order and on each prime's residues in ascending order.  With no floor,
nothing is pruned before the first leaf, the shift-0 pattern {p: 0}; a leaf
is kept only when it strictly beats the incumbent, so the first leaf
reaching the optimum, the lexicographically smallest maximizing witness
(ascending primes, then ascending residue), is the one returned.  The reflection a -> x + 1 - a
maps optima to optima, so at the root only classes c with
c <= (x + 1 - c) mod p^k are tried.

The children of a node on the last prime are leaves, and the node scores
them in one pass over that prime's class masks, its leaf row: in class
order, each leaf is worth the node's survivors less its class hit.  Under
a deadline, once a leaf is kept, the clock is read before every node and
every leaf, so a budget stops the search at the same leaf however the
leaves are scored.

The search prunes on one lower bound for the survivors the remaining primes
must still remove (``_forced_loss``): the largest per-prime least class hit.
Its class scans stop early once a prime cannot raise the running maximum,
and a child's least hit for the next prime comes from its parent's class
hits less the survivors the child struck.  Neither changes the bound's
value, so neither changes the search.

Before that bound, a child is tested against a free floor under it.  A
class c mod q = p^k and a class mod r^k of the next prime r together form
one class mod (pr)^k, which has at most ceil(x / (q r^k)) members in
[1, x].  So striking c lowers each class hit of r by at most that much, and
the child's least hit for r is at least the parent's least hit less it.
The exact bound is never below this floor, so every child the floor prunes
the exact bound prunes too: nodes, leaves, witness and deadline checks are
those of the exact bound alone, and only bound calls are saved.

The maximum is bracketed by ``admissible_max_lower_shift``, the best of many
shifted windows, counted from one struck window per run of nearby shifts,
and by ``admissible_max_upper_sieve``, the large sieve.

``admissible_max_sweep`` runs the same search for x = 1, 2, ... in turn,
seeding each unbudgeted one with A(x - 1) <= A(x) <= A(x - 1) + 1: a floor
below the optimum and a cap at or above it change neither value nor
witness, only the time.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass
from math import floor

from . import sieve
from .large_sieve import OmegaProfile, optimize_q
from .sieve import _multiples_mask, _require_bytes, integer_kth_root, primes_upto, translate_flags

EXACT = "EXACT"
LOWER_BOUND = "LOWER_BOUND"


@dataclass(frozen=True)
class AdmissibleMaxResult:
    x: int
    k: int
    value: int
    witness: dict[int, int]  # prime -> removed residue class mod p^k
    status: str

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _constraining_primes(x: int, k: int) -> list[int]:
    return list(primes_upto(integer_kth_root(x, k)))


def _class_masks(x: int, k: int, primes) -> dict[int, list[int]]:
    """Each class c mod p^k of [1, x] as a mask, bit a - 1 holding a; its
    least member is c, or p^k for c = 0, and p^k <= x."""
    masks = {}
    for p in primes:
        q = p**k
        masks[p] = [_multiples_mask(q, x + 1 - (c or q)) << (c or q) - 1 for c in range(q)]
    return masks


def check_time_budget(time_budget: float | None) -> None:
    """Refuse a NaN budget, whose deadline never passes, and a negative one,
    which would quietly give LOWER_BOUND; None means no budget."""
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time budget must be a nonnegative number of seconds, got {time_budget}")


def _deadline(time_budget: float | None) -> float | None:
    return None if time_budget is None else time.monotonic() + time_budget


def admissible_max_exact(x: int, k: int = 2, time_budget: float | None = None) -> AdmissibleMaxResult:
    """Exact window maximum by branch-and-bound over removed classes.

    With no time budget the search always completes and the result is EXACT,
    with the lexicographically smallest maximizing witness.  A budget is
    checked only once the first leaf, the shift-0 pattern {p: 0}, is reached;
    a search it stops returns its best leaf so far, worth at least Q_k(x),
    with LOWER_BOUND status.  Correctness never degrades, only the status.
    The class masks take about ceil(x/8) * sum(p^k) bytes, checked against
    the byte cap (ResourceError) before any is built.
    """
    check_time_budget(time_budget)
    return _search(x, k, _deadline(time_budget), -1, None)


def admissible_max_sweep(
    x_max: int, k: int = 2, time_budget: float | None = None
) -> list[AdmissibleMaxResult]:
    """``admissible_max_exact(x, k, time_budget)`` for x = 1, ..., x_max (none
    when x_max < 1).

    With no budget each search is seeded by the one before.  Adding x to the
    window removes at most x itself from a pattern, so
    A(x - 1) <= A(x) <= A(x - 1) + 1: the search for x keeps only leaves above
    the floor A(x - 1) - 1 and stops at the first leaf worth the cap
    A(x - 1) + 1.  Under a budget every x gets its own unseeded search, so
    each row, status included, is the one ``admissible_max_exact`` gives.
    """
    check_time_budget(time_budget)
    if time_budget is not None:
        return [admissible_max_exact(x, k, time_budget) for x in range(1, x_max + 1)]
    results = []
    for x in range(1, x_max + 1):
        floor_value, cap = (results[-1].value - 1, results[-1].value + 1) if results else (-1, None)
        results.append(_search(x, k, None, floor_value, cap))
    return results


def _search(x: int, k: int, deadline: float | None, floor_value: int, cap: int | None) -> AdmissibleMaxResult:
    """The one branch-and-bound: keep a leaf only when it beats
    ``floor_value`` and every leaf kept before it, and stop at the first leaf
    worth ``cap``.

    Leaves are visited in lexicographic order of their witnesses.  So with a
    floor below the optimum, every leaf before the first optimal one is worth
    less than the optimum, no bound can prune the path to that leaf, and it
    is the leaf kept, as with the floor at -1.  A cap is an upper bound on
    the optimum: a leaf worth it is optimal and, being the first kept at that
    value, is that same leaf, so stopping there leaves value, witness and
    EXACT status unchanged.  The deadline is checked only once a leaf is kept.

    A last-prime node scores its children in its leaf row, without a call
    per leaf: child c is worth ``alive - (survivors & masks[p][c]).bit_count()``.
    Under a deadline the clock is read before each child once a leaf is
    kept, as before each node; the root's reflection rule holds in the row
    when the root is the last prime (x = 4..8 for k = 2).

    A child is pruned when its survivors less a loss bound cannot beat the
    incumbent: first the free loss floor (the parent's least hit for the
    next prime less ceil(x / (q r^k))), then the exact bound
    ``_forced_loss``.  The floor never exceeds the exact bound, so it only
    skips bound calls and prunes nothing the exact bound keeps.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    primes = _constraining_primes(x, k)
    _require_bytes(-(-x // 8) * sum(p**k for p in primes), f"class masks for x = {x}")
    masks = _class_masks(x, k, primes)

    best_value = floor_value
    best_leaf = None
    exhausted = True
    stopped = False
    last = len(primes) - 1

    def descend(idx: int, survivors: int, chosen: dict[int, int]) -> None:
        nonlocal best_value, best_leaf, exhausted, stopped
        if best_leaf is not None and deadline is not None and time.monotonic() > deadline:
            exhausted = False
            stopped = True
            return
        alive = survivors.bit_count()
        if idx > last:  # only a root with no constraining primes is a leaf
            if alive > best_value:
                best_value = alive
                best_leaf = dict(chosen)
                stopped = alive == cap
            return
        p = primes[idx]
        q = p**k
        if idx == last:
            # the leaf row: score each child here, in class order, reading
            # the clock before each once a leaf is kept
            for c, mask in enumerate(masks[p]):
                if idx == 0 and c > (x + 1 - c) % q:
                    continue
                if best_leaf is not None and deadline is not None and time.monotonic() > deadline:
                    exhausted = False
                    stopped = True
                    return
                value = alive - (survivors & mask).bit_count()
                if value > best_value:
                    best_value = value
                    best_leaf = {**chosen, p: c}
                    if value == cap:
                        stopped = True
                        return
            return
        hits = None  # the next prime's class hits, shared by every child
        for c in range(q):
            # the reflection of a witness using c at the root uses
            # (x + 1 - c) mod q there, so the smallest optimum never has c above it
            if idx == 0 and c > (x + 1 - c) % q:
                continue
            struck = survivors & masks[p][c]
            child = survivors ^ struck
            # the forced loss never exceeds alive, so with no leaf and no
            # floor the bound could prune nothing and is not computed
            if best_value >= 0:
                if hits is None:
                    r_masks = masks[primes[idx + 1]]
                    hits = [(survivors & mask).bit_count() for mask in r_masks]
                    least = min(hits)
                    floor_loss = least - _class_overlap(x, q, len(r_masks))
                kept = alive - struck.bit_count()
                # the free floor: class c mod q and a class mod r^k form one
                # class mod (pr)^k, with at most ceil(x / (q r^k)) members in
                # [1, x], so striking c lowers no class hit of the next prime
                # r by more than that; the exact bound below is at least the
                # floor, so it would prune this child too
                if kept - floor_loss <= best_value:
                    continue
                loss = _forced_loss(child, primes[idx + 2 :], masks, _least_hit_after(hits, least, struck))
                if kept - loss <= best_value:
                    continue
            chosen[p] = c
            descend(idx + 1, child, chosen)
            if stopped:
                break
        chosen.pop(p, None)

    descend(0, (1 << x) - 1, {})
    return AdmissibleMaxResult(x, k, best_value, best_leaf, EXACT if exhausted else LOWER_BOUND)


def _class_overlap(x: int, q: int, s: int) -> int:
    """The most members of [1, x] that a class mod q and a class mod s can
    share, for coprime q and s: together they are one class mod q s."""
    return -(-x // (q * s))


def _least_hit_after(hits: list[int], least: int, struck: int) -> int:
    """The least class hit of one prime once the survivors in ``struck`` are
    gone, given its class hits ``hits`` before (least ``least``).

    A class keeps its hit unless a struck survivor lies in it, and each
    struck survivor lowers one class by one, so only the classes of the
    struck bits need a look; a least hit of 0 stays 0."""
    if not least:
        return 0
    width = len(hits)
    touched = {}
    while struck:
        low = struck & -struck
        j = low.bit_length() % width  # bit a - 1 holds a
        touched[j] = touched.get(j, hits[j]) - 1
        struck ^= low
    return min([least, *touched.values()])


def _forced_loss(survivors: int, rest, masks, best: int = 0) -> int:
    """Lower bound on the survivors that any choice of one class per prime in
    ``rest`` removes: the largest least class hit, since the removed set
    contains the class chosen for each prime.  ``best`` is a least hit
    already known for a prime outside ``rest``, and the value returned is
    the larger of the two.

    The running maximum ``best`` cuts each prime's class scan short: once a
    class hits no more than ``best``, that prime's least hit is at most
    ``best`` and cannot raise the maximum.  A prime whose scan runs to the
    end sets ``best`` to its exact least hit, so the value is that of the
    full max-of-min, only cheaper to reach."""
    for p in rest:
        least = survivors.bit_count()
        for mask in masks[p]:
            hit = (survivors & mask).bit_count()
            if hit <= best:
                break
            if hit < least:
                least = hit
        else:
            best = least
    return best


def recompute_witness_value(result: AdmissibleMaxResult) -> int:
    """Survivor count of the witness classes; equals ``value`` for any valid result."""
    survivors = set(range(1, result.x + 1))
    for p, c in result.witness.items():
        q = p**result.k
        survivors -= set(range(c if c >= 1 else q, result.x + 1, q))
    return len(survivors)


def admissible_max_lower_shift(x: int, k: int = 2, *, shifts) -> tuple[int, int]:
    """Best shifted-window survivor count: max over the shifts y in
    ``shifts`` of |{a in [1, x] : p^k does not divide y + a for any p^k <= x}|.

    Always a lower bound for the exact maximum, since each shifted pattern
    avoids the class -y mod p^k for every constraining prime.  Ties go to
    the first shift in the order given, so ``shifts=[5, 0]`` at x = 10
    returns (7, 5); an empty ``shifts`` raises ValueError.

    Nearby shifts share one strike.  The distinct shifts, sorted, are cut
    into runs whose common window [start + 1, last + x] is at most 2x long
    and within the byte cap, and each run's window is struck once, so a
    scan over ``range(2000)`` strikes about 2000 / x windows, not 2000.  A
    window of length x above the byte cap raises ResourceError before any
    prime is requested.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    _require_bytes(x, f"window of length {x}")
    candidates = list(shifts)
    if not candidates:
        raise ValueError("no shifts to try")
    primes = _constraining_primes(x, k)

    # a run's window spans at most 2x bytes, so it costs at most twice the
    # strikes of its first shift alone however sparse the run is
    reach = min(x, sieve.PRIME_TABLE_BYTE_CAP - x)
    ordered = sorted(set(candidates))
    counts = {}
    i = 0
    while i < len(ordered):
        start = ordered[i]
        end = bisect_right(ordered, start + reach, i)
        flags = translate_flags(start + 1, ordered[end - 1] - start + x, (0,), primes, k)
        for y in ordered[i:end]:
            counts[y] = flags[y - start : y - start + x].count(1)
        i = end
    best_shift = max(candidates, key=counts.__getitem__)  # the first of the largest
    return counts[best_shift], best_shift


def admissible_max_upper_sieve(x: int, k: int = 2) -> int:
    """Large sieve upper bound for the window maximum, minimized over Q up to
    ceil(x^(1/(2k+1))) + 2 with one avoided class per prime."""
    if x < 1:
        raise ValueError("x must be >= 1")
    root = integer_kth_root(x, 2 * k + 1)
    if root ** (2 * k + 1) < x:
        root += 1
    _, bound = optimize_q(x, OmegaProfile.constant_one(k), range(1, root + 3))
    return floor(bound)
