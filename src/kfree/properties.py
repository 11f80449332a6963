"""Decide and certify, for finite sets and sequence prefixes, how translates
meet the k-free numbers: admissibility certificates, translate witnesses,
pairwise-sum checks, and evidence tables.

Translate witnesses and evidence tables are sieved, not trial-divided: the
shifts n with p^k | n + a form the class -a mod p^k, struck by
:func:`~kfree.sieve.translate_flags`.  Every prime that could divide a
translate is struck, so a witness is always FULL.

All searches are deterministic with fixed tie-breaking: smallest witness,
smallest avoided residue, lexicographically first violation.
"""

from array import array
from dataclasses import dataclass
from math import factorial
from random import Random
from typing import NamedTuple

from .errors import KfreeError, NotAdmissibleError
from .sieve import (
    ResidueClass,
    _require_bytes,
    integer_kth_root,
    kfree_window,
    primes_upto,
    smallest_power_divisor,
    translate_flags,
)

FULL = "FULL"
PI_CERTIFIED = "PI_CERTIFIED"


def as_elements(values) -> tuple[int, ...]:
    """The distinct values of an iterable of naturals >= 1, increasing."""
    elements = tuple(sorted(set(values)))
    if elements and elements[0] < 1:
        raise ValueError("elements must be >= 1")
    return elements


@dataclass(frozen=True)
class Certification:
    """Which primes a k-freeness claim was verified against.

    FULL means every prime that could matter was checked; PI_CERTIFIED means
    only primes up to ``prime_cutoff`` were, and larger prime powers remain
    unexamined.
    """

    level: str
    prime_cutoff: int

    @classmethod
    def checked_to(cls, needed: int, prime_cutoff: int | None) -> "Certification":
        """The certification of a check over the primes up to ``prime_cutoff``
        when primes up to ``needed`` could divide: FULL (with cutoff
        ``needed``) once the cutoff reaches ``needed`` or is None, else
        PI_CERTIFIED(prime_cutoff).  Callers check exactly the primes up to
        the returned ``prime_cutoff``."""
        if prime_cutoff is not None and prime_cutoff < 0:
            raise ValueError("prime cutoff must be nonnegative")
        if prime_cutoff is None or prime_cutoff >= needed:
            return cls(FULL, needed)
        return cls(PI_CERTIFIED, prime_cutoff)

    @property
    def is_full(self) -> bool:
        return self.level == FULL

    def __str__(self) -> str:
        return FULL if self.is_full else f"{PI_CERTIFIED}({self.prime_cutoff})"


class TraceEntry(NamedTuple):
    element: int
    shifted: int
    divisor: int | None  # always None on an emitted report: no checked p^k divides shifted


@dataclass(frozen=True)
class WitnessReport:
    witness: int
    certification: Certification
    trace: tuple[TraceEntry, ...]

    @classmethod
    def sieved(cls, n: int, certification: Certification, elements) -> "WitnessReport":
        """Report a witness n that survived the strike of every checked p^k."""
        return cls(n, certification, tuple(TraceEntry(a, n + a, None) for a in elements))

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NoWitness:
    candidates_examined: int

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Explicit avoided residue class per small prime, pigeonhole for the rest.

    ``explicit[p]`` is a class mod p^k that no certified element occupies;
    primes beyond ``checked_bound`` are covered by ``automatic_note``.
    """

    k: int
    explicit: dict[int, ResidueClass]
    checked_bound: int
    automatic_note: str

    def avoided(self, p: int) -> ResidueClass:
        return self.explicit[p]


def admissibility_certificate(
    values, k: int = 2, prime_bound: int | None = None
) -> AvoidanceCertificate:
    """Decide admissibility of a finite set and produce explicit certificates.

    Only primes with p^k <= |A| can have every class occupied, so checking
    those decides admissibility; explicit smallest-avoided classes are
    recorded for every prime up to ``prime_bound`` (default: the smallest
    bound covering all decidable primes), and larger primes avoid a class by
    pigeonhole.  Raises NotAdmissibleError(p) for the smallest fully occupied p.
    """
    elements = as_elements(values)
    if k < 2:
        raise ValueError("k must be >= 2")
    needed = _ceil_root(max(len(elements), 1), k)
    if prime_bound is None:
        prime_bound = max(2, needed)
    elif prime_bound < needed:
        raise ValueError(
            f"prime_bound {prime_bound} below |A|^(1/k) = {needed}; admissibility undecided"
        )
    explicit: dict[int, ResidueClass] = {}
    for p in primes_upto(prime_bound):
        q = p**k
        occupied = {a % q for a in elements}
        if len(occupied) == q:
            raise NotAdmissibleError(p)
        # the least free class, in at most |occupied| + 1 probes
        explicit[p] = ResidueClass(next(b for b in range(q) if b not in occupied), q)
    note = (
        f"every prime p with p^{k} > {len(elements)} avoids some class modulo p^{k} "
        f"by pigeonhole ({len(elements)} elements cannot occupy p^{k} classes)"
    )
    return AvoidanceCertificate(k, explicit, prime_bound, note)


def _ceil_root(n: int, k: int) -> int:
    r = integer_kth_root(n, k)
    return r if r**k == n else r + 1


# --- the four named test sequences -----------------------------------------

NAMED_TAGS = ("A1", "A2", "A3", "A4")


def named_sequence_term(tag: str, j: int) -> int:
    """j-th term of a named sequence: A1: 2^j+1, A2: 2^j-1 (j >= 1),
    A3: j!+1 (j >= 1), A4: j!-1 (j >= 2)."""
    if tag == "A1":
        if j < 1:
            raise ValueError("A1 needs j >= 1")
        return 2**j + 1
    if tag == "A2":
        if j < 1:
            raise ValueError("A2 needs j >= 1")
        return 2**j - 1
    if tag == "A3":
        if j < 1:
            raise ValueError("A3 needs j >= 1")
        return factorial(j) + 1
    if tag == "A4":
        if j < 2:
            raise ValueError("A4 needs j >= 2")
        return factorial(j) - 1
    raise ValueError(f"unknown sequence tag {tag!r}")


def named_sequence_first_index(tag: str) -> int:
    return 2 if tag == "A4" else 1


def named_sequence_prefix(tag: str, count: int) -> tuple[int, ...]:
    """First ``count`` terms, in increasing order."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    j0 = named_sequence_first_index(tag)
    return tuple(named_sequence_term(tag, j) for j in range(j0, j0 + count))


def _named_term_mod(tag: str, j: int, modulus: int) -> int:
    if tag == "A1":
        return (pow(2, j, modulus) + 1) % modulus
    if tag == "A2":
        return (pow(2, j, modulus) - 1) % modulus
    sign = 1 if tag == "A3" else -1
    f = 1
    for m in range(2, j + 1):
        f = f * m % modulus
    return (f + sign) % modulus


def named_sequence_certificate(tag: str, p: int) -> ResidueClass:
    """A residue class mod p^2 avoided by the *entire* infinite sequence.

    For A1/A2 the avoided class is forced in closed form: 2^j +- 1 can never
    be congruent to +-1 mod p^2 for odd p (p^2 never divides 2^j), and mod 4
    the terms are eventually constant.  For A3/A4 the terms equal j! +- 1 and
    are congruent to +-1 mod p^2 once j >= 2p, so enumerating the finitely
    many earlier terms leaves a computable set of avoided classes, of which
    the smallest is returned.  Primality is read from :func:`primes_upto`,
    so a p past the byte cap raises ResourceError.
    """
    if p < 2 or primes_upto(p)[-1] != p:
        raise ValueError(f"{p} is not prime")
    q = p * p
    if tag == "A1":
        cls = ResidueClass(0, 4) if p == 2 else ResidueClass(1, q)
    elif tag == "A2":
        cls = ResidueClass(2, 4) if p == 2 else ResidueClass(q - 1, q)
    elif tag in ("A3", "A4"):
        sign = 1 if tag == "A3" else -1
        occupied = {sign % q, -sign % q}  # the j >= 2p tail
        for j in range(named_sequence_first_index(tag), 2 * p):
            occupied.add(_named_term_mod(tag, j, q))
        cls = ResidueClass(next(b for b in range(q) if b not in occupied), q)
    else:
        raise ValueError(f"unknown sequence tag {tag!r}")
    _check_named_certificate(tag, p, cls)
    return cls


def _check_named_certificate(tag: str, p: int, cls: ResidueClass) -> None:
    # Soundness re-check over the pre-periodic/pre-tail terms, mod p^2 only.
    if tag in ("A1", "A2"):
        horizon = _order_of_two(cls.modulus if p != 2 else 4) + 2
    else:
        horizon = 2 * p + 2
    j0 = named_sequence_first_index(tag)
    for j in range(j0, j0 + horizon):
        if _named_term_mod(tag, j, cls.modulus) == cls.residue:
            raise KfreeError(f"certificate {cls} hit by {tag} term j={j}")


def _order_of_two(modulus: int) -> int:
    if modulus % 2 == 0:
        return 2
    order, value = 1, 2 % modulus
    while value != 1:
        value = value * 2 % modulus
        order += 1
    return order


# --- translate witnesses -----------------------------------------------------


def _first_good(good: bytearray, seed: int | None) -> tuple[int, int]:
    """Index and 1-based scan position of the first nonzero entry of ``good``,
    scanning in increasing order or, given a seed, in seeded random order;
    (-1, 0) when every entry is zero.  The seeded order costs four bytes per
    entry, checked against the byte cap before it is built."""
    if seed is None:
        i = good.find(1)
        return i, i + 1
    count = len(good)
    _require_bytes(4 * count, f"seeded order of {count} candidates")
    # the shuffle permutes by position only, so shuffling the indices
    # visits the candidates in the same order as shuffling their values
    order = array("I", range(count))
    Random(seed).shuffle(order)
    return next(((i, j) for j, i in enumerate(order, 1) if good[i]), (-1, 0))


def _witness_scan(
    elements, lo: int, hi: int, first: int, step: int, k: int, seed=None
) -> WitnessReport | NoWitness:
    """Scan the candidates n = first + i*step <= hi, in increasing or seeded
    order, for the first with no translate n + a divisible by any p^k; only
    primes prime to ``step`` are struck, and a witness is FULL.  The count is
    checked against the byte cap before any prime is requested."""
    count = max(0, (hi - first) // step + 1)
    _require_bytes(count, f"scan range [{lo}, {hi}]")
    needed = integer_kth_root(hi + elements[-1], k) if elements else 0
    certification = Certification.checked_to(needed, None)
    primes = [p for p in primes_upto(certification.prime_cutoff) if step % p]
    good = translate_flags(first, count, elements, primes, k, step=step)
    i, _ = _first_good(good, seed)
    if i < 0:
        return NoWitness(count)
    return WitnessReport.sieved(first + i * step, certification, elements)


def find_translate_witness(values, lo: int, hi: int, k: int = 2) -> WitnessReport | NoWitness:
    """Smallest n in [lo, hi] with n + a k-free for every element a, checked
    against every prime that could divide a translate, so always FULL.

    Bad n are sieved out by striking the classes -a mod p^k instead of
    testing each candidate: n + a is divisible by p^k exactly when
    n = -a (mod p^k), so every trace entry's divisor is None.  A range longer
    than the byte cap raises ResourceError before any prime is requested.
    """
    elements = as_elements(values)
    if lo < 1:
        raise ValueError("interval must start at 1 or later")
    if hi < lo:
        return NoWitness(0)
    return _witness_scan(elements, lo, hi, lo, 1, k)


def check_q_prefix(seq, j: int, strategy: str = "PLAIN_SCAN", k: int = 2) -> WitnessReport | NoWitness:
    """Look for n with n + a_i k-free for all i < j, for a sequence prefix.

    ``seq`` is a named tag ("A1".."A4") or an explicit increasing sequence
    with at least j elements.  Strategies: PLAIN_SCAN searches the open gap
    (a_{j-1}, a_j); HALF_INTERVAL searches [a_j/2, a_j].  Any other strategy
    raises ValueError before the prefix is read.  Raises NotAdmissibleError
    if the prefix is blocked at some prime.
    """
    if strategy not in ("PLAIN_SCAN", "HALF_INTERVAL"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if j < 2:
        raise ValueError("need j >= 2")
    if isinstance(seq, str):
        terms = named_sequence_prefix(seq, j)
    else:
        terms = as_elements(seq)
        if len(terms) < j:
            raise ValueError(f"sequence has {len(terms)} elements, need {j}")
    prefix = terms[: j - 1]
    a_prev, a_j = terms[j - 2], terms[j - 1]

    admissibility_certificate(prefix, k)  # raises NotAdmissibleError if blocked

    lo, hi = (a_prev + 1, a_j - 1) if strategy == "PLAIN_SCAN" else ((a_j + 1) // 2, a_j)
    return find_translate_witness(prefix, lo, hi, k)


# --- pairwise sums ------------------------------------------------------------


@dataclass(frozen=True)
class SumViolation:
    a: int
    a_prime: int
    prime: int  # smallest p with p^k | a + a'


def check_squarefree_sums(values, k: int = 2) -> SumViolation | None:
    """None if every pairwise sum is k-free, else the first violating pair.

    Pairs (a, a') with a <= a' are scanned in lexicographic order; the
    diagonal a = a' is always included, matching the set-translate
    definition where each element's own translate must contain the set.
    """
    elements = as_elements(values)
    for i, a in enumerate(elements):
        for a2 in elements[i:]:
            p = smallest_power_divisor(a + a2, k)
            if p is not None:
                return SumViolation(a, a2, p)
    return None


def property_p_evidence(values, n_max: int, k: int = 2) -> dict[int, int]:
    """For each shift n <= n_max, how many elements a have n + a k-free.

    An empirical probe: a set all of whose translates eventually miss the
    k-free numbers shows uniformly small counts here.  One k-free window over
    [1 + min A, n_max + max A] serves every translate, so a request longer
    than the window byte cap (n_max itself for an empty set) raises
    ResourceError before allocating.
    """
    elements = as_elements(values)
    if n_max < 1:
        return {}
    if not elements:
        _require_bytes(n_max, f"window of length {n_max}")
        return dict.fromkeys(range(1, n_max + 1), 0)
    low = elements[0]
    flags = kfree_window(1 + low, n_max + elements[-1] - low, k).flags
    columns = (flags[a - low : a - low + n_max] for a in elements)
    return dict(zip(range(1, n_max + 1), map(sum, zip(*columns))))
