import gc
import random
import time
import tracemalloc
from bisect import bisect_right
from math import isqrt

import pytest

from kfree import sieve
from kfree.errors import ResourceError
from kfree.sieve import (
    MERTENS_SPLIT_DIVISOR,
    ResidueClass,
    _multiples_mask,
    build_prime_table,
    count_power_free_upto,
    crt_combine,
    density_main_term,
    integer_kth_root,
    kfree_window,
    smallest_power_divisor,
    zeta,
)

from oracles import (
    count_kfree_oracle,
    crt_scan,
    kfree_by_factorization,
    mertens_prefix_count,
    mobius_count_flat,
    trial_division_primes,
)

APERY = 1.2020569031595942  # zeta(3)


def test_build_prime_table_small():
    assert build_prime_table(10).primes == (2, 3, 5, 7)
    assert build_prime_table(1).primes == ()
    assert build_prime_table(2).primes == (2,)


def test_build_prime_table_100_matches_trial_division():
    table = build_prime_table(100)
    assert len(table.primes) == 25
    assert table.primes[-1] == 97
    assert list(table.primes) == trial_division_primes(100)


def test_prime_table_memory_budget():
    with pytest.raises(ResourceError):
        build_prime_table(10**10)


def test_nth_prime():
    from kfree.sieve import nth_prime

    assert [nth_prime(r) for r in range(1, 8)] == [2, 3, 5, 7, 11, 13, 17]
    assert nth_prime(25) == 97
    assert nth_prime(1000) == 7919
    with pytest.raises(ValueError):
        nth_prime(0)


def test_integer_kth_root():
    assert integer_kth_root(0, 3) == 0
    assert integer_kth_root(26, 3) == 2
    assert integer_kth_root(27, 3) == 3
    for n in [10**30, 10**30 + 1, 2**200 - 1, 2**200]:
        for k in (2, 3, 5, 7):
            r = integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_integer_kth_root_matches_brute_force_below_2_12():
    # k runs past n.bit_length(), where 2 <= n < 2**k and the root is 1
    for k in range(1, 15):
        powers = []
        j = 0
        while j**k < 1 << 12:
            powers.append(j**k)
            j += 1
        for n in range(1 << 12):
            if k <= n.bit_length() + 2:
                assert integer_kth_root(n, k) == bisect_right(powers, n) - 1, (n, k)


def test_count_is_x_below_the_first_kth_power():
    for k in range(2, 21):
        assert count_power_free_upto(2**k - 1, k) == 2**k - 1
        assert count_power_free_upto(2**k, k) == 2**k - 1


def test_huge_exponent_on_tiny_input_builds_no_huge_power():
    # a power of 2 as long as k would take about k / 8 bytes: 125 GB here
    k = 10**12
    start = time.monotonic()
    assert integer_kth_root(5, k) == 1
    assert count_power_free_upto(5, k) == 5
    assert count_power_free_upto(5, 3000) == 5
    assert kfree_window(1, 5, k).flags == b"\x01" * 5
    assert time.monotonic() - start < 1.0


def test_is_power_free_examples():
    assert smallest_power_divisor(10, 2) is None
    assert smallest_power_divisor(4, 2) is not None
    assert smallest_power_divisor(12, 3) is None  # 12 = 2^2 * 3 has no cube divisor
    assert smallest_power_divisor(8, 3) is not None


def test_is_power_free_agrees_with_factorization():
    for k in (2, 3):
        for n in range(1, 10_001):
            assert (smallest_power_divisor(n, k) is None) == kfree_by_factorization(n, k), n


def test_smallest_power_divisor():
    assert smallest_power_divisor(4) == 2
    assert smallest_power_divisor(45) == 3
    assert smallest_power_divisor(10) is None


def test_kfree_window_examples():
    assert kfree_window(1, 10, 2).members() == [1, 2, 3, 5, 6, 7, 10]
    assert kfree_window(48, 6, 2).members() == [51, 53]
    empty = kfree_window(5, 0, 2)
    assert empty.count() == 0 and empty.members() == []


def test_kfree_window_matches_pointwise():
    rng = random.Random(20260810)
    for _ in range(1000):
        y = rng.randrange(1, 5000)
        length = rng.randrange(0, 513)
        k = rng.choice((2, 2, 3))
        window = kfree_window(y, length, k)
        for n in range(y, y + length):
            assert window.flags[n - y] == (smallest_power_divisor(n, k) is None), (y, length, k, n)


def test_count_power_free_examples():
    assert count_power_free_upto(1, 2) == 1
    assert count_power_free_upto(10, 2) == 7
    assert count_power_free_upto(100, 2) == 61
    assert count_power_free_upto(100, 2) == count_kfree_oracle(100)
    assert count_power_free_upto(0, 2) == 0


def test_count_power_free_delta_is_indicator():
    for k in (2, 3):
        flags = kfree_window(1, 10_000, k).flags
        running = 0
        for x in range(1, 10_001):
            running += flags[x - 1]
            if x <= 2000 or x % 250 == 0:
                assert count_power_free_upto(x, k) == running, (k, x)
        # the unit-step identity follows; check it directly on a dense prefix
        for x in range(2, 2000):
            delta = count_power_free_upto(x, k) - count_power_free_upto(x - 1, k)
            assert delta == int(smallest_power_divisor(x, k) is None)


def test_count_segmentation_is_invisible(monkeypatch):
    for seg in (7, 64, 1 << 16):
        monkeypatch.setattr("kfree.sieve.MOBIUS_SEGMENT", seg)
        assert count_power_free_upto(5000, 2) == count_kfree_oracle(5000)


@pytest.mark.parametrize("q", [1, 2, 4, 9, 25])
def test_multiples_mask_sets_bits_0_q_2q(q):
    # lengths below, at and above q, and far above: bit 0 alone once q >= length
    for length in (1, q - 1, q, q + 1, 5 * q + 3, 70 * q):
        if length >= 1:
            expected = sum(1 << i for i in range(0, length, q))
            assert _multiples_mask(q, length) == expected, (q, length)
    assert _multiples_mask(q, q) == _multiples_mask(q + 10**6, q) == 1


def test_density_main_term():
    assert density_main_term(0, 2) == 0.0
    assert abs(density_main_term(100, 2) - 60.79271018540266) < 1e-9
    assert abs(density_main_term(100, 3) - 100 / APERY) < 1e-6
    assert abs(zeta(4) - 1.0823232337111382) < 1e-9


def test_crt_combine_examples():
    assert crt_combine([ResidueClass(0, 4), ResidueClass(0, 9)]) == ResidueClass(0, 36)
    assert crt_combine([ResidueClass(3, 4), ResidueClass(7, 9)]) == ResidueClass(7, 36)
    assert crt_combine(
        [ResidueClass(1, 2), ResidueClass(0, 3), ResidueClass(0, 5)]
    ) == ResidueClass(15, 30)


def test_crt_combine_rejects_bad_input():
    with pytest.raises(ValueError):
        crt_combine([])
    with pytest.raises(ValueError):
        crt_combine([ResidueClass(1, 4), ResidueClass(2, 6)])
    with pytest.raises(ValueError):
        ResidueClass(4, 4)


def test_crt_combine_exhaustive_small_products():
    rng = random.Random(7)
    moduli_pool = [2, 3, 4, 5, 7, 9, 11, 13, 25, 27, 49]
    cases = 0
    while cases < 300:
        count = rng.randrange(1, 4)
        moduli = rng.sample(moduli_pool, count)
        product = 1
        coprime = True
        for i, m in enumerate(moduli):
            product *= m
            for m2 in moduli[i + 1 :]:
                from math import gcd

                if gcd(m, m2) != 1:
                    coprime = False
        if not coprime or product > 10_000:
            continue
        classes = [ResidueClass(rng.randrange(m), m) for m in moduli]
        merged = crt_combine(classes)
        expected_residue, expected_modulus = crt_scan(classes)
        assert merged.modulus == expected_modulus
        assert merged.residue == expected_residue
        for cls in classes:
            assert merged.residue % cls.modulus == cls.residue
        cases += 1


# Published squarefree counts Q_2(10^n), n = 0..15 (OEIS A071172); n = 13..15
# were also computed once by the plain Moebius sum over every d <= sqrt(x).
SQUAREFREE_POWERS_OF_TEN = [
    1, 7, 61, 608, 6083, 60794, 607926, 6079291, 60792694, 607927124,
    6079270942, 60792710280, 607927102274, 6079271018294, 60792710185947,
    607927101854103,
]

# Cubefree counts Q_3(10^n), n = 0..8, from a full segmented window sieve.
CUBEFREE_POWERS_OF_TEN = [1, 9, 85, 833, 8319, 83190, 831910, 8319081, 83190727]


def test_count_squarefree_powers_of_ten():
    assert [count_power_free_upto(10**n) for n in range(len(SQUAREFREE_POWERS_OF_TEN))] == SQUAREFREE_POWERS_OF_TEN


def test_count_cubefree_powers_of_ten():
    assert [count_power_free_upto(10**n, 3) for n in range(9)] == CUBEFREE_POWERS_OF_TEN


def test_count_matches_window_sieve_random(monkeypatch):
    rng = random.Random(20261018)
    for _ in range(40):
        x = rng.randrange(0, 3 * 10**5 + 1)
        k = rng.choice((2, 3, 4))
        expected = sum(kfree_window(1, x, k).flags)
        for segment in (1, 7, rng.randrange(2, 2000)):
            monkeypatch.setattr("kfree.sieve.MOBIUS_SEGMENT", segment)
            assert count_power_free_upto(x, k) == expected, (x, k, segment)


def test_count_matches_mobius_sum_below_10_4():
    for k in (2, 3, 4):
        for x in range(10**4):
            assert count_power_free_upto(x, k) == mobius_count_flat(x, k), (x, k)


def test_count_matches_mobius_sum_random():
    rng = random.Random(20261019)
    cases = [(rng.randrange(10 ** rng.randrange(5, 11)), rng.choice((2, 3, 4))) for _ in range(60)]
    # only a few above 10^10, where the flat sum takes up to 0.6 s
    cases += [(rng.randrange(10**10, 10**12), k) for k in (2, 2, 3)]
    for x, k in cases:
        assert count_power_free_upto(x, k) == mobius_count_flat(x, k), (x, k)


def test_count_segments_match_mobius_sum(monkeypatch):
    rng = random.Random(20261020)
    for segment in (1, 7, rng.randrange(2, 5000)):
        monkeypatch.setattr("kfree.sieve.MOBIUS_SEGMENT", segment)
        for _ in range(10):
            x = rng.randrange(10 ** rng.randrange(2, 10))
            k = rng.choice((2, 3, 4))
            assert count_power_free_upto(x, k) == mobius_count_flat(x, k), (x, k, segment)


def test_count_matches_prefix_reference_random():
    rng = random.Random(20261026)
    cases = [(rng.randrange(10 ** rng.randrange(4, 15)), k) for k in (2, 3, 4) for _ in range(12)]
    cases += [(rng.randrange(10**13, 10**14), k) for k in (2, 3, 4)]
    for x, k in cases:
        expected = mertens_prefix_count(x, k)
        assert count_power_free_upto(x, k) == expected, (x, k)
        if x < 10**10:
            assert expected == mobius_count_flat(x, k), (x, k)


def test_count_block_edges_match_both_references(monkeypatch):
    # small blocks split the j of one M(r_m), and the v of the lookups M(r_v),
    # between blocks
    rng = random.Random(20261027)
    for segment in (1, 7, rng.randrange(2, 3000)):
        monkeypatch.setattr("kfree.sieve.MOBIUS_SEGMENT", segment)
        for _ in range(8):
            x = rng.randrange(10 ** rng.randrange(5, 10))
            k = rng.choice((2, 2, 3, 4))
            expected = mobius_count_flat(x, k)
            assert mertens_prefix_count(x, k) == expected, (x, k)
            assert count_power_free_upto(x, k) == expected, (x, k, segment)


def _count_charge(x, k=2):
    """The bytes count_power_free_upto charges: 40 per value held, for one
    block's Mertens values, twice the quotients up to sqrt(r_1) and six per m
    with r_m above D."""
    split = max(1, integer_kth_root(x, 2 * k + 1) // MERTENS_SPLIT_DIVISOR)
    d_max = integer_kth_root(x // split, k)
    m_max = x // (d_max + 1) ** k
    small = isqrt(integer_kth_root(x, k))
    block = min(sieve.MOBIUS_SEGMENT, d_max)
    return d_max, block, small, m_max, 40 * (block + 2 * small + 6 * m_max + 4)


def test_count_switch_point_matches_both_references():
    # Below (2 * MERTENS_SPLIT_DIVISOR)^(2k+1) the split I is 1 and no m has
    # r_m above D (m_max = 0); from there on some do.  Both sides, and x from
    # the whole range with m_max = 0, take the one counting path.
    rng = random.Random(20261028)
    for k in (2, 3, 4):
        switch = (2 * MERTENS_SPLIT_DIVISOR) ** (2 * k + 1)
        assert _count_charge(switch - 1, k)[3] == 0 < _count_charge(switch, k)[3]
        cases = list(range(switch - 3, switch + 3))
        cases += [int(switch ** rng.random()) for _ in range(20)]
        for x in cases:
            expected = mobius_count_flat(x, k)
            assert mertens_prefix_count(x, k) == expected, (x, k)
            assert count_power_free_upto(x, k) == expected, (x, k)


def test_count_charges_the_mertens_values_it_holds(monkeypatch):
    x = 12 * 10**7
    d_max, block, small, m_max, charge = _count_charge(x)
    assert (d_max, block, small, m_max) == (4898, 4898, 104, 4)
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", charge)
    assert count_power_free_upto(x) == mobius_count_flat(x)
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", charge - 1)
    what = rf"Mertens values \(a {block}-long block, two lists up to {small}, six per m <= {m_max}\) exceeds"
    with pytest.raises(ResourceError, match=what):
        count_power_free_upto(x)


def test_small_count_is_charged_for_its_block_and_lists(monkeypatch):
    # with m_max = 0, 40 * (31 + 2 * 5 + 4) bytes at x = 1000
    assert _count_charge(1000) == (31, 31, 5, 0, 1800)
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 1800)
    assert count_power_free_upto(1000) == mobius_count_flat(1000)
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 1799)
    with pytest.raises(ResourceError, match=r"Mertens values \(a 31-long block"):
        count_power_free_upto(1000)


def test_count_runs_where_the_whole_prefix_would_not_fit(monkeypatch):
    # The prefix M(0..D) of mertens_prefix_count, 4 * (D + 1) bytes, is more
    # than the cap; the values held one block at a time fit under it.
    x = 10**11
    monkeypatch.setattr("kfree.sieve.MOBIUS_SEGMENT", 1000)
    charge = _count_charge(x)[-1]
    prefix_d = integer_kth_root(x // (integer_kth_root(x, 5) // 2), 2)
    assert charge < 4 * (prefix_d + 1)
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", charge)
    assert count_power_free_upto(x) == mobius_count_flat(x)


def test_count_memory_stays_below_the_whole_prefix():
    # The prefix up to D = 563436 of mertens_prefix_count takes 2.25 MB; the
    # count holds one block of Mertens values at a time, within its charge.
    x = 10**14
    count_power_free_upto(x)  # the primes it reads are memoized, not counted
    tracemalloc.start()
    try:
        count_power_free_upto(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prefix_d = integer_kth_root(x // (integer_kth_root(x, 5) // 2), 2)
    assert 4 * (prefix_d + 1) > 2_250_000 > 2_000_000 > peak
    assert peak <= _count_charge(x)[-1]


def test_count_leaves_no_cyclic_garbage():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        count_power_free_upto(10**8, 2)
        count_power_free_upto(10**8, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_count_validates_before_any_work(monkeypatch):
    def no_primes(limit):
        raise AssertionError(f"requested the primes up to {limit}")

    monkeypatch.setattr("kfree.sieve.primes_upto", no_primes)
    for x, k in ((10**8, 1), (10**8, 0), (10**30, 1)):
        with pytest.raises(ValueError, match="k must be"):
            count_power_free_upto(x, k)
    with pytest.raises(ValueError, match="x must be"):
        count_power_free_upto(-5)
    with pytest.raises(ResourceError):
        count_power_free_upto(10**30)


def test_kfree_window_byte_cap(monkeypatch):
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
    with pytest.raises(ResourceError):
        kfree_window(1, 10**5)
    assert kfree_window(1, 10**4).count() == count_power_free_upto(10**4)
