"""Exact-rational evaluation of large sieve bounds for sets avoiding
residue classes modulo prime powers, plus direct Fourier verification of the
per-prime inequality the bounds rest on.

The bound for a set A in a window of N integers avoiding omega(p^k) < p^k
classes mod p^k for every prime is

    |A| <= (N + Q^(2k)) / sum_{q <= Q} h(q),
    h(q) = mu^2(q) * prod_{p | q} omega(p^k) / (p^k - omega(p^k)).

With k = 1 this is the classical arithmetic form; the window offset plays no
role in the value and is therefore not a parameter.  All h arithmetic is exact:
the weights are sieved as pairs of integers, numerators and denominators, each
prime multiplying a slice of each list at C speed, and the sums are added on
those pairs, so only each result becomes a Fraction.  Floating point appears
only in the Fourier verification.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import add, floordiv, mul
from typing import Callable, Mapping

from .sieve import _require_bytes, primes_upto

VERIFY_TOLERANCE = 1e-9

# Bytes charged per h weight against the byte cap.  tracemalloc peaks, per
# weight, at q_max = 10^4 and 10^5 (CONSTANT_ONE / ES_SUMFREE): h_sum 76-79 /
# 91-92, optimize_q over 1..q_max 49-50 / 68-69, h_weights_upto 65 / 84.
_WEIGHT_BYTES = 120


def es_omega(p: int, k: int = 2) -> int:
    """Forced avoided-class count mod p^2 for sets whose pairwise sums all
    avoid 0 mod p^2.

    If A + A misses 0 mod p^2 then the residue set S of A satisfies
    S cap (-S) = empty set, so |S| <= (p^2 - 1)/2 for odd p (0 is the only
    self-negating residue) and |S| <= 1 mod 4; at least (p^2 + 1)/2
    (respectively 3) classes are therefore avoided.
    """
    if k != 2:
        raise ValueError("the pairwise-sum derivation is specific to k = 2")
    if p == 2:
        return 3
    return (p * p + 1) // 2


@dataclass(frozen=True)
class OmegaProfile:
    """Avoided-class counts omega(p^k) per prime, with 0 <= omega < p^k."""

    k: int
    rule: Callable[[int], int]
    name: str

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def omega(self, p: int) -> int:
        value = self.rule(p)
        if not 0 <= value < p**self.k:
            raise ValueError(f"omega({p}^{self.k}) = {value} outside [0, {p**self.k})")
        return value

    @classmethod
    def constant_one(cls, k: int = 2) -> "OmegaProfile":
        return cls(k, lambda p: 1, f"CONSTANT_ONE(k={k})")

    @classmethod
    def es_sumfree(cls) -> "OmegaProfile":
        return cls(2, es_omega, "ES_SUMFREE")


def _require_weight_bytes(q_max: int, k: int) -> None:
    """Refuse, past the byte cap, the h weights up to Q and Q^(2k), which
    takes about 2k * ceil(log2 Q) / 8 bytes and outgrows every p^k, p <= Q."""
    _require_bytes(q_max * _WEIGHT_BYTES, f"h weights up to {q_max}")
    _require_bytes(2 * k * (q_max - 1).bit_length() // 8, f"Q^(2k) for Q = {q_max}, k = {k}")


def _h_pairs(q_max: int, profile: OmegaProfile) -> tuple[list[int], list[int]]:
    """Numerators and denominators of h(1), ..., h(q_max), sieved with the
    primes from :func:`~kfree.sieve.primes_upto`, not in lowest terms.

    Each prime p, in ascending order, zeroes the numerators at the multiples
    of p^2 and multiplies those at the multiples of p by omega(p^k), and the
    denominators there by p^k - omega(p^k).  A zero weight keeps whatever
    denominator its other primes gave it.  Each weight is charged 120 bytes,
    and a list past the byte cap, or a Q^(2k) past it, raises ResourceError
    before anything is allocated.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    _require_weight_bytes(q_max, profile.k)
    nums = [1] * q_max  # h(q) = nums[q - 1] / dens[q - 1]
    dens = [1] * q_max
    for p in primes_upto(q_max):
        omega = profile.omega(p)
        square = p * p
        if square <= q_max:
            nums[square - 1 :: square] = [0] * len(range(square - 1, q_max, square))
        nums[p - 1 :: p] = map(mul, nums[p - 1 :: p], repeat(omega))
        dens[p - 1 :: p] = map(mul, dens[p - 1 :: p], repeat(p**profile.k - omega))
    return nums, dens


def h_weights_upto(q_max: int, profile: OmegaProfile) -> list[Fraction]:
    """[h(1), h(2), ..., h(q_max)], exact, from the sieved integer pairs
    (see :func:`_h_pairs`, which also checks the byte cap)."""
    nums, dens = _h_pairs(q_max, profile)
    zero = Fraction(0)
    # in place, dropping each pair as it is read, so that the pairs and the
    # Fractions are never both held whole
    for i, (num, den) in enumerate(zip(nums, dens)):
        nums[i] = Fraction(num, den) if num else zero
        dens[i] = None
    return nums


def h_sum(q_max: int, profile: OmegaProfile) -> Fraction:
    """sum_{q <= q_max} h(q), exact.

    The nonzero weights are added pairwise on integer pairs, so the big
    common-denominator additions stay near the root of the tree, and each
    addition takes Henrici's two gcds: of the denominators, then of that
    with the new numerator.  Only the root becomes a Fraction.
    """
    nums, dens = _h_pairs(q_max, profile)
    dens = list(compress(dens, nums))
    nums = list(compress(nums, nums))
    while len(nums) > 1:
        if len(nums) % 2:
            nums.append(0)
            dens.append(1)
        # n1/d1 + n2/d2 = (n1 * (d2/g) + n2 * (d1/g)) / (d1/g * d2), g = gcd(d1, d2),
        # and only a factor g2 of g can divide that sum's numerator
        left, right = dens[0::2], dens[1::2]
        g = list(map(gcd, left, right))
        left = list(map(floordiv, left, g))
        tops = list(map(add, map(mul, nums[0::2], map(floordiv, right, g)), map(mul, nums[1::2], left)))
        g = list(map(gcd, tops, g))
        nums = list(map(floordiv, tops, g))
        dens = list(map(mul, left, map(floordiv, right, g)))
    return Fraction(nums[0], dens[0])


def sieve_bound(n_length: int, q_max: int, profile: OmegaProfile) -> Fraction:
    """(N + Q^(2k)) / sum_{q <= Q} h(q): an upper bound for the size of any
    subset of a length-N window avoiding omega(p^k) classes mod p^k per prime."""
    if n_length < 1 or q_max < 1:
        raise ValueError("window length and Q must be >= 1")
    weight_sum = h_sum(q_max, profile)  # checks Q^(2k) against the byte cap
    return Fraction(n_length + q_max ** (2 * profile.k)) / weight_sum


def optimize_q(n_length: int, profile: OmegaProfile, q_range) -> tuple[int, Fraction]:
    """The Q in q_range minimizing sieve_bound, smallest Q on ties.

    Each Q is checked to be at least 1 and within the byte cap as it is read,
    so a q_range reaching past the cap raises ResourceError before it is held.
    """
    asked = bytearray()  # asked[q] = 1 for each Q in q_range
    for q in q_range:
        if n_length < 1 or q < 1:
            raise ValueError("window length and Q must be >= 1")
        _require_weight_bytes(q, profile.k)
        if q >= len(asked):
            asked += bytes(q + 1 - len(asked))
        asked[q] = 1
    if not asked:
        raise ValueError("q_range must be nonempty")
    nums, dens = _h_pairs(len(asked) - 1, profile)
    # the running sum and the best bound so far, as integer pairs
    top, bottom = 0, 1
    position = 0
    best: tuple[int, int, int] | None = None
    exponent = 2 * profile.k
    for q in compress(range(len(asked)), asked):
        for num, den in zip(nums[position:q], dens[position:q]):
            if num:
                g = gcd(bottom, den)
                bottom //= g
                top = top * (den // g) + num * bottom
                g = gcd(top, g)
                top //= g
                bottom *= den // g
        position = q
        bound_top = (n_length + q**exponent) * bottom
        if best is None or bound_top * best[2] < best[1] * top:
            best = (q, bound_top, top)
    q, bound_top, bound_bottom = best
    return q, Fraction(bound_top, bound_bottom)


@dataclass(frozen=True)
class SqSieveCheck:
    """Both sides of the per-prime Fourier inequality, plus the Plancherel
    cross-check on the balanced indicator of the removed classes."""

    lhs: float
    rhs: float
    holds: bool
    plancherel_sum: float
    plancherel_expected: float

    @property
    def plancherel_ok(self) -> bool:
        return abs(self.plancherel_sum - self.plancherel_expected) <= VERIFY_TOLERANCE * max(
            1.0, self.plancherel_expected
        )


def verify_sqsieve_inequality(
    p: int, k: int, removed, coefficients: Mapping[int, complex]
) -> SqSieveCheck:
    """Directly evaluate sum_{1 <= a < p^k} |S(a/p^k)|^2 against
    omega/(p^k - omega) * |S(0)|^2 for S(x) = sum_n a_n e^(2 pi i n x).

    The coefficients must be supported off the removed classes mod p^k.  Also
    evaluates the Plancherel identity sum |c_a|^2 = (p^k - omega) * omega for
    the Fourier coefficients of omega - p^k * 1_removed.

    Both sums are evaluated term by term from one table of the q-th roots of
    unity repeated q - 1 times, 8 * q * (q - 1) bytes of references; past the
    byte cap that raises ResourceError before the table is built.
    """
    q = p**k
    removed_set = {r % q for r in removed}
    omega = len(removed_set)
    if omega >= q:
        raise ValueError(f"must remove fewer than {q} classes")
    for n in coefficients:
        if n % q in removed_set:
            raise ValueError(f"coefficient at {n} sits in a removed class mod {q}")

    # Row a, e(a*r/q) for r = 0..q-1, is the stride-a slice
    # table[0 : a*q : a], so each sum below is one C-level dot product.
    _require_bytes(8 * q * (q - 1), f"root table for q = {q}")
    table = [cmath.exp(2j * cmath.pi * r / q) for r in range(q)] * (q - 1)

    # S(a/q) = sum_r v_r e(a*r/q), with v_r the coefficients summed by
    # residue r mod q
    residue_sums = [0j] * q
    for n, value in coefficients.items():
        residue_sums[n % q] += value
    s0 = abs(sum(residue_sums)) ** 2
    lhs = sum(
        abs(sum(map(mul, residue_sums, table[0 : a * q : a]))) ** 2 for a in range(1, q)
    )
    rhs = omega / (q - omega) * s0
    holds = lhs >= rhs - VERIFY_TOLERANCE * max(1.0, rhs)

    # c_a = (1/q) sum_r balanced_r e(-a*r/q), and e(-a*r/q) = e((q - a)*r/q)
    balanced = [omega - (q if r in removed_set else 0) for r in range(q)]
    plancherel = 0.0
    for a in range(1, q):
        b = q - a
        c_a = sum(map(mul, balanced, table[0 : b * q : b])) / q
        plancherel += abs(c_a) ** 2
    return SqSieveCheck(lhs, rhs, holds, plancherel, float((q - omega) * omega))
