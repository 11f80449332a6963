"""Exact-rational evaluation of large sieve bounds for sets avoiding
residue classes modulo prime powers, plus direct Fourier verification of the
per-prime inequality the bounds rest on.

The bound for a set A in a window of N integers avoiding omega(p^k) < p^k
classes mod p^k for every prime is

    |A| <= (N + Q^(2k)) / sum_{q <= Q} h(q),
    h(q) = mu^2(q) * prod_{p | q} omega(p^k) / (p^k - omega(p^k)).

With k = 1 this is the classical arithmetic form; the window offset plays no
role in the value and is therefore not a parameter.  All h arithmetic is done
in exact rationals; floating point appears only in the Fourier verification.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping

from .sieve import _require_bytes, primes_upto

VERIFY_TOLERANCE = 1e-9

# Bytes charged per h weight against the byte cap: tracemalloc peaks at about
# 105 bytes per weight in h_sum at q_max = 10^4 and 10^5.
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


def _h_factor(p: int, profile: OmegaProfile) -> Fraction:
    omega = profile.omega(p)
    return Fraction(omega, p**profile.k - omega)


def _require_weight_bytes(q_max: int, k: int) -> None:
    """Refuse, past the byte cap, the h weights up to Q and Q^(2k), which
    takes about 2k * ceil(log2 Q) / 8 bytes and outgrows every p^k, p <= Q."""
    _require_bytes(q_max * _WEIGHT_BYTES, f"h weights up to {q_max}")
    _require_bytes(2 * k * (q_max - 1).bit_length() // 8, f"Q^(2k) for Q = {q_max}, k = {k}")


def h_weights_upto(q_max: int, profile: OmegaProfile) -> list[Fraction]:
    """[h(1), h(2), ..., h(q_max)], sieved with the primes from
    :func:`~kfree.sieve.primes_upto`.

    Each prime p, in ascending order, multiplies the nonzero weights at its
    multiples by its factor and zeroes those at the multiples of p^2.  Each
    weight (a Fraction and its two ints) is charged 120 bytes, and a list
    past the byte cap, or a Q^(2k) past it, raises ResourceError before
    anything is allocated.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    _require_weight_bytes(q_max, profile.k)
    weights = [Fraction(1)] * q_max  # weights[q - 1] = h(q)
    zero = Fraction(0)
    for p in primes_upto(q_max):
        factor = _h_factor(p, profile)
        square = p * p
        weights[square - 1 :: square] = [zero] * len(range(square - 1, q_max, square))
        weights[p - 1 :: p] = [w * factor if w else w for w in weights[p - 1 :: p]]
    return weights


def h_sum(q_max: int, profile: OmegaProfile) -> Fraction:
    """sum_{q <= q_max} h(q), exact; pairwise reduction keeps the big
    common-denominator additions near the root of the tree."""
    weights = h_weights_upto(q_max, profile)
    while len(weights) > 1:
        weights = [
            weights[i] + weights[i + 1] if i + 1 < len(weights) else weights[i]
            for i in range(0, len(weights), 2)
        ]
    return weights[0]


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
    distinct = set()
    for q in q_range:
        if n_length < 1 or q < 1:
            raise ValueError("window length and Q must be >= 1")
        _require_weight_bytes(q, profile.k)
        distinct.add(q)
    if not distinct:
        raise ValueError("q_range must be nonempty")
    q_values = sorted(distinct)
    weights = h_weights_upto(q_values[-1], profile)
    partial = Fraction(0)
    position = 0
    best: tuple[int, Fraction] | None = None
    exponent = 2 * profile.k
    for q in q_values:
        while position < q:
            partial += weights[position]
            position += 1
        bound = Fraction(n_length + q**exponent) / partial
        if best is None or bound < best[1]:
            best = (q, bound)
    return best


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
