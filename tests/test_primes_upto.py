"""The shared prime source: the grow-only memo behind ``sieve.primes_upto``
against trial division, whatever order the requests come in."""

import random
from array import array
from bisect import bisect_right

import pytest

import kfree.sieve as sieve
from kfree.errors import ResourceError
from kfree.properties import property_p_evidence
from kfree.sieve import PrimeTable, build_prime_table, count_power_free_upto, primes_upto

from oracles import trial_division_primes

TOP = 60_000
ORACLE = trial_division_primes(TOP)


def expected(n):
    """The primes up to n <= TOP, by trial division."""
    return ORACLE[: bisect_right(ORACLE, n)]


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Every test starts from an empty memo; the package's is restored after."""
    monkeypatch.setattr(sieve, "_memo", array("I"))
    monkeypatch.setattr(sieve, "_memo_limit", 1)


def memo_state():
    return sieve._memo, sieve._memo_limit


def test_small_requests():
    for n in (2, 1, 0, 3, 4, 2):
        assert list(primes_upto(n)) == expected(n), n
    with pytest.raises(ValueError):
        primes_upto(-1)


@pytest.mark.parametrize("seed", range(6))
def test_random_request_sequences_match_a_fresh_sieve(seed):
    rng = random.Random(seed)
    for _ in range(25):
        limit = sieve._memo_limit
        n = rng.choice(
            (
                rng.randrange(0, 3),  # 0, 1, 2
                limit + 1,
                limit,
                rng.randrange(0, limit + 1),  # a decreasing request
                rng.choice((2, 3, 5, 7, 11, 13, 101, 211, 257)) ** 2,  # a prime square
                rng.randrange(limit, 3 * limit + 50),
                rng.randrange(0, TOP),
            )
        )
        n = min(n, TOP)
        got = primes_upto(n)
        assert list(got) == expected(n), (seed, n)
        assert all(type(p) is int for p in got)
        assert sieve._memo_limit == max(limit, n)


def test_jump_past_the_square_of_the_memo():
    # the extension needs primes beyond the memo, so it grows to the root first
    primes_upto(10)
    assert list(primes_upto(40_000)) == expected(40_000)
    assert list(sieve._memo) == expected(40_000)


def test_byte_cap_applies_to_every_request(monkeypatch):
    primes_upto(20_000)
    before = memo_state()
    monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 10**4)
    assert list(primes_upto(10**4 - 1)) == expected(10**4 - 1)
    with pytest.raises(ResourceError):
        primes_upto(10**4)  # 10^4 + 1 bytes, although the memo holds them
    with pytest.raises(ResourceError):
        primes_upto(10**4 + 1)
    with pytest.raises(ResourceError):
        build_prime_table(10**4 + 1)
    with pytest.raises(ResourceError):
        primes_upto(10**6)
    assert memo_state() == before and memo_state()[0] is before[0]


def test_failed_request_leaves_a_small_memo_unchanged(monkeypatch):
    primes_upto(100)
    before = list(sieve._memo), sieve._memo_limit
    monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 10**4)
    with pytest.raises(ResourceError):
        primes_upto(10**4 + 1)
    assert (list(sieve._memo), sieve._memo_limit) == before


def test_view_survives_growth():
    view = primes_upto(1000)
    snapshot = list(view)
    primes_upto(50_000)
    primes_upto(200_000)
    assert list(view) == snapshot == expected(1000)
    with pytest.raises(TypeError):
        view[0] = 4  # views are read-only


def test_build_prime_table_gives_the_same_tuples():
    rng = random.Random(77)
    limits = [0, 1, 2, 3, 4, 10**4] + [rng.randrange(0, TOP) for _ in range(12)]
    for limit in limits:
        table = build_prime_table(limit)
        assert table == PrimeTable(limit, tuple(expected(limit))), limit
        assert type(table.primes) is tuple and all(type(p) is int for p in table.primes)


def _no_primes(limit):
    raise AssertionError(f"asked for the primes up to {limit}")


def test_count_validates_before_asking_for_primes(monkeypatch):
    monkeypatch.setattr("kfree.sieve.primes_upto", _no_primes)
    for x, k in ((10**8, 1), (10**8, 0), (10**30, 1)):
        with pytest.raises(ValueError, match="k must be"):
            count_power_free_upto(x, k)
    with pytest.raises(ValueError, match="x must be"):
        count_power_free_upto(-5)
    with pytest.raises(ResourceError):
        count_power_free_upto(10**30)


def test_evidence_window_cap_raises_before_asking_for_primes(monkeypatch):
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
    monkeypatch.setattr("kfree.sieve.primes_upto", _no_primes)
    with pytest.raises(ResourceError):
        property_p_evidence([1, 5], 10**5)
