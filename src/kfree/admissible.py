"""Exact maximum size of a subset of [1, x] avoiding one residue class modulo
p^k for every prime, bracketed by shifted-window lower bounds and large sieve
upper bounds.

Only primes with p^k <= x constrain the maximum: any class mod a larger p^k
has a representative-free choice inside [1, x] (residue 0, say, once
p^k > x).  The search is one branch-and-bound over the choice of removed class
per prime, on bitmask survivor sets, branching on the primes in ascending
order and on each prime's residues in ascending order.  Nothing is pruned
before the first leaf, the shift-0 pattern {p: 0}, and a leaf is kept only
when it strictly beats the incumbent, so the first leaf reaching the
optimum, the lexicographically smallest maximizing witness (ascending primes,
then ascending residue), is the one returned.  The reflection a -> x + 1 - a
maps optima to optima, so at the root only classes c with
c <= (x + 1 - c) mod p^k are tried.

The search prunes on one lower bound for the survivors the remaining primes
must still remove (``_forced_loss``): the largest per-prime least class hit.
"""

import time
from dataclasses import dataclass
from math import floor
from random import Random

from .large_sieve import OmegaProfile, optimize_q
from .sieve import (
    _require_bytes,
    crt_combine,
    integer_kth_root,
    primes_upto,
    ResidueClass,
    translate_flags,
)

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
    masks = {}
    for p in primes:
        q = p**k
        per_class = [0] * q
        for a in range(1, x + 1):
            per_class[a % q] |= 1 << (a - 1)
        masks[p] = per_class
    return masks


def check_time_budget(time_budget: float | None) -> None:
    """Refuse a NaN budget, whose deadline never passes, and a negative one,
    which would quietly give LOWER_BOUND; None means no budget."""
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time budget must be a nonnegative number of seconds, got {time_budget}")


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
    if x < 1:
        raise ValueError("x must be >= 1")
    primes = _constraining_primes(x, k)
    _require_bytes(-(-x // 8) * sum(p**k for p in primes), f"class masks for x = {x}")
    masks = _class_masks(x, k, primes)

    best_value = -1
    best_leaf = None
    deadline = None if time_budget is None else time.monotonic() + time_budget
    exhausted = True

    def descend(idx: int, survivors: int, chosen: dict[int, int]) -> None:
        nonlocal best_value, best_leaf, exhausted
        if best_leaf is not None and deadline is not None and time.monotonic() > deadline:
            exhausted = False
            return
        alive = survivors.bit_count()
        if idx == len(primes):
            if alive > best_value:
                best_value = alive
                best_leaf = dict(chosen)
            return
        # the forced loss never exceeds alive, so before the first leaf the
        # bound could prune nothing and is not computed
        if best_leaf is not None and alive - _forced_loss(survivors, primes[idx:], masks) <= best_value:
            return
        p = primes[idx]
        q = p**k
        for c in range(q):
            # the reflection of a witness using c at the root uses
            # (x + 1 - c) mod q there, so the smallest optimum never has c above it
            if idx == 0 and c > (x + 1 - c) % q:
                continue
            chosen[p] = c
            descend(idx + 1, survivors & ~masks[p][c], chosen)
            if not exhausted:
                break
        del chosen[p]

    descend(0, (1 << x) - 1, {})
    return AdmissibleMaxResult(x, k, best_value, best_leaf, EXACT if exhausted else LOWER_BOUND)


def _forced_loss(survivors: int, rest, masks) -> int:
    """Lower bound on the survivors that any choice of one class per prime in
    the non-empty ``rest`` removes: the largest least class hit, since the
    removed set contains the class chosen for each prime."""
    return max(min((survivors & mask).bit_count() for mask in masks[p]) for p in rest)


def recompute_witness_value(result: AdmissibleMaxResult) -> int:
    """Survivor count of the witness classes; equals ``value`` for any valid result."""
    survivors = set(range(1, result.x + 1))
    for p, c in result.witness.items():
        q = p**result.k
        survivors -= set(range(c if c >= 1 else q, result.x + 1, q))
    return len(survivors)


def admissible_max_lower_shift(
    x: int,
    k: int = 2,
    shifts=None,
    random_draws: int = 0,
    seed: int = 0,
) -> tuple[int, int]:
    """Best shifted-window survivor count: max over shifts y of
    |{a in [1, x] : p^k does not divide y + a for any p^k <= x}|.

    Always a lower bound for the exact maximum, since each shifted pattern
    avoids the class -y mod p^k for every constraining prime.  ``shifts``
    enumerates explicit y; ``random_draws`` adds seeded draws of y modulo the
    full primorial power, combined by CRT.  Ties break to the smallest shift.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    _require_bytes(x, f"window of length {x}")
    primes = _constraining_primes(x, k)
    candidates: list[int] = list(shifts) if shifts is not None else ([0] if not random_draws else [])
    rng = Random(seed)
    for _ in range(random_draws):
        residues = [ResidueClass(rng.randrange(p**k), p**k) for p in primes]
        candidates.append(crt_combine(residues).residue if residues else 0)
    if not candidates:
        raise ValueError("no shifts to try: give explicit shifts or random draws")

    best_count, best_shift = -1, 0
    for y in candidates:
        count = translate_flags(y + 1, x, (0,), primes, k).count(1)
        if count > best_count:
            best_count, best_shift = count, y
    return best_count, best_shift


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
