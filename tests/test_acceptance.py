"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

import numpy as np
import pytest

from kfree.admissible import (
    admissible_max_exact,
    admissible_max_lower_shift,
    admissible_max_upper_sieve,
)
from kfree.cli import figure_shift_data, main, random_sqsieve_instance, render_figure_csv
from kfree.constructions import (
    GROWTH_FUNCTIONS,
    greedy_squarefree_sums,
    membership_probability,
    overp_base_point,
    property_p_sequence,
    sample_counterexample,
    suff_witness_search,
)
from kfree.large_sieve import OmegaProfile, h_sum, h_weights_upto, verify_sqsieve_inequality
from kfree.properties import (
    check_q_prefix,
    named_sequence_prefix,
    property_p_evidence,
)
from kfree.sieve import build_prime_table, count_power_free_upto, kfree_window

from oracles import admissible_max_flat, trial_division_primes

import io
import os

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "figure_shift_30.csv")


@pytest.fixture(scope="module")
def exact_results():
    """Exact window maxima for every x <= 50, with the wall time spent."""
    start = time.monotonic()
    results = {x: admissible_max_exact(x) for x in range(1, 51)}
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def kfree_counts_1e6():
    flags = np.frombuffer(kfree_window(1, 10**6).flags, dtype=np.uint8)
    return np.cumsum(flags, dtype=np.int64)


def test_criterion_01_sieve_matches_trial_division():
    start = time.monotonic()
    limit = 10**5
    squares = [p * p for p in trial_division_primes(math.isqrt(limit) + 1)]

    def oracle_free(n):
        for q in squares:
            if q > n:
                return True
            if n % q == 0:
                return False
        return True

    # the counting path sums window flags; check those flags against trial
    # division at every n <= 1e5, making the cumulative counts agree at all x
    window = kfree_window(1, limit)
    oracle_running = 0
    for n in range(1, limit + 1):
        free = oracle_free(n)
        oracle_running += free
        assert window.flags[n - 1] == free, n
    assert count_power_free_upto(limit) == oracle_running
    # direct calls on spot values and a dense subsample
    assert count_power_free_upto(10) == 7
    assert count_power_free_upto(100) == 61
    oracle_cumulative = 0
    checkpoints = set(range(1, 512)) | set(range(512, limit + 1, 997)) | {limit}
    for n in range(1, limit + 1):
        oracle_cumulative += window.flags[n - 1]
        if n in checkpoints:
            assert count_power_free_upto(n) == oracle_cumulative, n
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS - sieve matches trial division up to 1e5 in {elapsed:.2f}s")


def test_criterion_02_error_term_order(kfree_counts_1e6):
    counts = kfree_counts_1e6
    xs = np.arange(1, 10**6 + 1, dtype=np.float64)
    deviation = np.abs(counts - 6.0 / math.pi**2 * xs)
    bad = np.nonzero(deviation[9:] > np.sqrt(xs[9:]))[0]
    assert bad.size == 0, f"first failure at x = {bad[0] + 10}"
    print("ACCEPTANCE 2 PASS - |Q(x) - 6x/pi^2| <= sqrt(x) for 10 <= x <= 1e6")


def test_criterion_03_window_maximum_exactness(exact_results):
    results, elapsed = exact_results
    for x in range(1, 13):
        assert results[x].value == admissible_max_flat(x), x
    assert results[4].value == 3
    assert results[10].value == 8
    assert all(results[x].is_exact for x in range(1, 51))
    assert elapsed < 600, f"exact search took {elapsed:.1f}s"
    from kfree.oeis import load_bfile

    fixture = load_bfile("A083544")
    overlap = [x for x in range(1, 51) if x in fixture.entries]
    assert overlap, "fixture does not cover the computed range"
    for x in overlap:
        assert results[x].value == fixture.entries[x], x
    print(
        f"ACCEPTANCE 3 PASS - exact maxima: oracle x<=12, EXACT x<=50 in "
        f"{elapsed:.2f}s, fixture agreement on {len(overlap)} points"
    )


def test_criterion_04_growth_comparisons(exact_results):
    results, _ = exact_results
    for x in range(1, 51):
        assert results[x].value >= count_power_free_upto(x), x
    for x in range(18, 51):
        assert results[x].value > count_power_free_upto(x), x
    for x in range(1, 51):
        assert results[x].value <= admissible_max_upper_sieve(x), x
    for x in range(1, 50):
        assert results[x + 1].value - results[x].value in (0, 1), x
    print("ACCEPTANCE 4 PASS - dominance, strictness from 18, sieve ceiling, unit steps")


def test_criterion_05_fourier_inequality():
    hand = verify_sqsieve_inequality(2, 2, [0], {1: 1, 2: 1, 3: 1})
    assert abs(hand.lhs - 3.0) < 1e-9
    assert abs(hand.rhs - 3.0) < 1e-9
    assert hand.holds
    rng = random.Random(1102)
    for trial in range(1000):
        p, removed, coeffs = random_sqsieve_instance(rng)
        check = verify_sqsieve_inequality(p, 2, removed, coeffs)
        assert check.holds, f"trial {trial}"
        omega = len(set(r % (p * p) for r in removed))
        expected = (p * p - omega) * omega
        assert abs(check.plancherel_sum - expected) <= 1e-9 * max(1.0, expected)
    print("ACCEPTANCE 5 PASS - 1000 random Fourier instances hold, Plancherel to 1e-9")


def test_criterion_06_slow_density_construction():
    f = GROWTH_FUNCTIONS["identity"]
    sequence = property_p_sequence(f, 200)
    assert sequence.terms[:6] == (1, 2, 3, 4, 7, 11)
    assert sequence.terms[35] == 151
    primes = build_prime_table(100).primes
    for j, term in enumerate(sequence.terms, start=1):
        assert term <= j * f(j), j
    for r, start in sequence.active_from.items():
        q = primes[r - 1] ** 2
        for j in range(start, 201):
            assert (sequence.terms[j - 1] + r) % q == 0, (r, j)
    evidence = property_p_evidence(sequence.terms[:50], 1)
    assert evidence[1] == 3
    print("ACCEPTANCE 6 PASS - slow-density sequence: prefix, a_36 = 151, 200-term invariants")


def test_criterion_07_greedy_sums():
    start = time.monotonic()
    result = greedy_squarefree_sums(30)
    elapsed = time.monotonic() - start
    assert result.terms[:3] == (1, 5, 21)
    squares = [p * p for p in trial_division_primes(math.isqrt(2 * result.terms[-1]) + 1)]
    for i, a in enumerate(result.terms):
        for b in result.terms[i:]:
            assert all((a + b) % q for q in squares if q <= a + b), (a, b)
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS - greedy pairwise sums: 30 terms verified in {elapsed:.2f}s")


def test_criterion_08_translate_witnesses():
    report = check_q_prefix("A1", 3)
    assert report.witness == 8
    for j in range(2, 16):
        report = check_q_prefix("A1", j)
        assert report, f"no witness for j = {j}"
        assert report.certification.is_full
        prefix = named_sequence_prefix("A1", j)
        assert prefix[j - 2] < report.witness < prefix[j - 1]
    prefix = named_sequence_prefix("A1", 15)
    x = prefix[-1]
    assert x == 32769
    structured = suff_witness_search(prefix, x, theta=0.1, interval="HALF")
    assert structured
    assert (x + 1) // 2 <= structured.witness <= x
    assert structured.certification.is_full
    print("ACCEPTANCE 8 PASS - gap witnesses for j = 2..15 and the structured search at 32769")


def test_criterion_09_random_counterexample_sampler():
    x = 10**5
    window = kfree_window(3, x - 2)
    expected = sum(membership_probability(n, 5) for n in window.members())
    sizes = []
    for seed in range(200):
        sample = sample_counterexample(5, x, seed=seed)
        sizes.append(len(sample))
        if seed < 5:
            assert all(n >= 3 for n in sample)
            assert all(window.flags[n - window.start] for n in sample)
            assert sample == sample_counterexample(5, x, seed=seed)
    mean = sum(sizes) / len(sizes)
    relative = abs(mean - expected) / expected
    assert relative < 0.05, f"mean {mean:.1f} vs expectation {expected:.1f}"
    print(
        f"ACCEPTANCE 9 PASS - sampler mean {mean:.1f} within "
        f"{100 * relative:.2f}% of expectation {expected:.1f}"
    )


def test_criterion_10_primorial_base_points():
    n = overp_base_point(3)
    assert n == 252
    assert n % 36 == 0
    for q in trial_division_primes(100):
        if q <= 3:
            continue
        reach = int(q / math.log(math.log(q)) ** 2)
        if q * q > n + reach:
            break
        for a in range(1, reach + 1):
            assert (n + a) % (q * q) != 0, (q, a)
    n5 = overp_base_point(5, max_candidates=10**6)
    assert n5 % 900 == 0
    for q in trial_division_primes(200):
        if q <= 5:
            continue
        reach = int(q / math.log(math.log(q)) ** 2)
        if q * q > n5 + reach:
            break
        for a in range(1, reach + 1):
            assert (n5 + a) % (q * q) != 0, (q, a)
    print(f"ACCEPTANCE 10 PASS - base points 252 (P=3) and {n5} (P=5) fully re-verified")


def test_criterion_11_cross_module_sandwich(exact_results):
    results, _ = exact_results
    for x in range(1, 51):
        lower, _ = admissible_max_lower_shift(x, shifts=range(2000))
        assert lower <= results[x].value <= admissible_max_upper_sieve(x), x
    profile = OmegaProfile.constant_one(2)
    weights = h_weights_upto(10**4, profile)
    target = math.pi**2 / 6
    running = 0.0
    for q, w in enumerate(weights, start=1):
        assert w >= 0
        running += float(w)  # exact term, floating accumulation error < 1e-12
        gap = target - running
        assert 0 < gap <= 4 / q, q
    assert abs(float(h_sum(10**4, profile)) - running) < 1e-9
    print("ACCEPTANCE 11 PASS - sandwich x<=50; h-sums monotone with O(1/Q) gap to pi^2/6")


def test_criterion_12_golden_csv_and_crosschecks():
    with open(GOLDEN, "rb") as handle:
        golden = handle.read()
    assert render_figure_csv(figure_shift_data(30)).encode("ascii") == golden
    for sequence_id in ("A013928", "A083544", "A000051", "A000225", "A038507", "A033312"):
        buffer = io.StringIO()
        code = main(["crosscheck", "--id", sequence_id], out=buffer)
        assert code == 0, buffer.getvalue()
    print("ACCEPTANCE 12 PASS - golden figure CSV byte-identical, all fixture crosschecks exit 0")
