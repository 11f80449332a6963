"""``kfree_window`` against a flat strike of every d**k, on both sides of the
cut where its prime strikes give way to cofactor strikes, with its error
contract, the reach of its prime requests and its ``KFreeWindow`` helpers."""

import hashlib
import random

import pytest

import kfree.sieve as sieve
from kfree.errors import ResourceError
from kfree.sieve import integer_kth_root, kfree_window

from oracles import kfree_window_flat, trial_division_primes

PRIMES = trial_division_primes(5000)


def split(end, k):
    """(cut, root) of a window ending at ``end``: the primes up to cut are
    struck by class, every d in (cut, root] through its cofactors."""
    root = integer_kth_root(end, k)
    return min(root, 4 * integer_kth_root(end, k + 1)), root


def check(start, length, k):
    window = kfree_window(start, length, k)
    assert (window.start, window.length, window.k) == (start, length, k)
    assert window.flags == kfree_window_flat(start, length, k), (start, length, k)


def edge_windows(k, ts):
    """Windows whose first or last entry is m * d**k with d = cut, cut + 1
    (m then being end // (cut + 1)**k, the last cofactor) or root, or is p**k
    for the least prime p above the cut.

    A window's cut is 4t for every end in [t**(k+1), (t+1)**(k+1)), so each
    point is taken inside that block and each window ends inside it.
    """
    for t in ts:
        cut = 4 * t
        lo, hi = t ** (k + 1), (t + 1) ** (k + 1) - 1
        points = []
        for d in (cut, cut + 1):
            q = d**k
            v = -(-lo // q) * q
            if v <= hi:
                points.append((v, min(hi, v + q - 1)))  # the last end keeping m
        root = integer_kth_root(hi, k)
        if root**k >= lo:
            points.append((root**k, min(hi, (root + 1) ** k - 1)))
        p = next(p for p in PRIMES if p > cut)
        if lo <= p**k <= hi:
            points.append((p**k, hi))
        for v, top in points:
            for length in (1, 300):
                yield v - length + 1, length
                yield v, min(top, v + length - 1) - v + 1


@pytest.mark.parametrize("k, low, high, count", [(2, 5, 11, 40), (3, 8, 13, 40), (4, 13, 17, 40)])
def test_seeded_windows_past_the_cut_match_the_flat_strike(k, low, high, count):
    rng = random.Random(1500 + k)
    for _ in range(count):
        start = int(10 ** rng.uniform(low, high))
        length = rng.choice((1, rng.randrange(1, 3000), rng.randrange(1, 30000)))
        cut, root = split(start + length - 1, k)
        assert cut < root, (start, length, k)  # the cofactor pass runs
        check(start, length, k)


@pytest.mark.parametrize("k, first_t, span", [(2, 17, 40), (3, 65, 60), (4, 257, 150)])
def test_windows_ending_or_starting_on_a_cofactor_strike(k, first_t, span):
    ts = range(first_t, first_t + span)
    windows = list(edge_windows(k, ts))
    assert len(windows) >= 40
    for start, length in windows:
        cut, root = split(start + length - 1, k)
        assert 4 * first_t <= cut < root, (start, length, k)
        check(start, length, k)


def test_small_starts_and_single_entries_match_the_flat_strike():
    rng = random.Random(1504)
    for _ in range(400):
        check(rng.randrange(1, 5000), rng.randrange(0, 513), rng.choice((2, 3, 4)))
    for start in range(1, 1200):
        check(start, 1, 2)
    for _ in range(200):
        check(int(10 ** rng.uniform(3, 10)), 1, rng.choice((2, 3, 4)))


@pytest.mark.parametrize(
    "start, k, root", [(10**17, 2, 316227766), (10**26, 3, 464158883)]
)
def test_root_past_the_cap_raises_before_any_prime_request(monkeypatch, start, k, root):
    message = f"prime table up to {root} exceeds the {sieve.PRIME_TABLE_BYTE_CAP}-byte budget"
    with pytest.raises(ResourceError) as raised:
        kfree_window(start, 10**5, k)
    assert str(raised.value) == message

    def no_primes(n):
        raise AssertionError(f"requested the primes up to {n}")

    monkeypatch.setattr(sieve, "primes_upto", no_primes)
    with pytest.raises(ResourceError) as raised:
        kfree_window(start, 10**5, k)
    assert str(raised.value) == message


# sha256 of the flags of 10^6-long squarefree windows, as struck by every
# prime up to the root.
WINDOW_SHA256 = {
    10**12 + 1: "2f75dbeaaeb7d3f42140d7b6c84257da04c6d37fbd5ec230f0e47b1bf4ec0db1",
    10**13 + 1: "36cf0582596e9658ad3c46b277ce515d345d2abd4b028654f9a87f0f3a242427",
    94 * 10**12 + 12345: "bfafeb6a5eba89b53d5539e4dfa818a8e10472254274cd009a250f38007d1b6e",
}


def test_long_windows_request_primes_only_up_to_the_cut(monkeypatch):
    requested = []
    real = sieve.primes_upto

    def recording(n):
        requested.append(n)
        return real(n)

    monkeypatch.setattr(sieve, "primes_upto", recording)
    for start, digest in WINDOW_SHA256.items():
        requested.clear()
        window = kfree_window(start, 10**6)
        assert hashlib.sha256(window.flags).hexdigest() == digest, start
        cut, root = split(start + 10**6 - 1, 2)
        assert max(requested) <= cut <= root // 20, (start, requested)


def test_count_and_members_match_the_flag_formulas():
    rng = random.Random(1505)
    for _ in range(300):
        start = int(10 ** rng.uniform(0, 12))
        window = kfree_window(start, rng.randrange(0, 2000), rng.choice((2, 3, 4)))
        assert window.count() == sum(window.flags)
        assert window.members() == [window.start + i for i, f in enumerate(window.flags) if f]
