import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from kfree.errors import ResourceError
from kfree.large_sieve import (
    _WEIGHT_BYTES,
    OmegaProfile,
    es_omega,
    h_sum,
    h_weights_upto,
    optimize_q,
    sieve_bound,
    verify_sqsieve_inequality,
)

from kfree.cli import random_sqsieve_instance

from oracles import h_weight, sqsieve_flat

CONSTANT_ONE = OmegaProfile.constant_one(2)
ES = OmegaProfile.es_sumfree()
ZERO_AT_3 = OmegaProfile(2, lambda p: 0 if p == 3 else 1, "ZERO_AT_3")
# ES's products are not in lowest terms (h(77) = 25/24 * 61/60 shares a 5)
PROFILES = (CONSTANT_ONE, ES, OmegaProfile.constant_one(3), OmegaProfile.constant_one(1), ZERO_AT_3)


class TestHWeight:
    def test_examples(self):
        assert h_weight(1, CONSTANT_ONE) == 1
        assert h_weight(2, CONSTANT_ONE) == Fraction(1, 3)
        assert h_weight(4, CONSTANT_ONE) == 0
        assert h_weight(4, ES) == 0

    def test_es_values(self):
        assert h_weight(2, ES) == Fraction(3, 1)
        assert h_weight(3, ES) == Fraction(5, 4)

    def test_sieved_weights_match_direct(self):
        for profile in PROFILES:
            weights = h_weights_upto(300, profile)
            for q in range(1, 301):
                assert weights[q - 1] == h_weight(q, profile), (q, profile.name)

    def test_weights_read_the_shared_prime_source(self, monkeypatch):
        from kfree import large_sieve, sieve

        requests = []

        def spy(n):
            requests.append(n)
            return sieve.primes_upto(n)

        monkeypatch.setattr(large_sieve, "primes_upto", spy)
        assert h_weights_upto(50, CONSTANT_ONE) == [h_weight(q, CONSTANT_ONE) for q in range(1, 51)]
        assert requests == [50]

    def test_invalid_omega_raises_at_its_prime(self):
        asked = []

        def rule(p):
            asked.append(p)
            return p * p if p == 7 else 1

        bad = OmegaProfile(2, rule, "BAD_AT_7")
        with pytest.raises(ValueError, match=r"^omega\(7\^2\) = 49 outside \[0, 49\)$"):
            h_weights_upto(100, bad)
        assert asked == [2, 3, 5, 7]

    def test_weight_list_over_byte_cap_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
        with pytest.raises(ResourceError, match="h weights up to 1000 "):
            h_weights_upto(1000, CONSTANT_ONE)
        with pytest.raises(ResourceError, match="h weights up to 84 "):
            optimize_q(100, CONSTANT_ONE, range(1, 10**12))

    @pytest.mark.parametrize("profile", [CONSTANT_ONE, ES], ids=lambda p: p.name)
    def test_peak_memory_stays_within_the_weight_charge(self, profile):
        q_max = 10**4
        calls = (
            lambda: h_weights_upto(q_max, profile),
            lambda: h_sum(q_max, profile),
            lambda: optimize_q(10**6, profile, range(1, q_max + 1)),
        )
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _WEIGHT_BYTES * q_max

    def test_multiplicative_on_coprime_squarefree(self):
        weights = h_weights_upto(10_000, CONSTANT_ONE)
        for q1 in range(1, 101):
            if weights[q1 - 1] == 0:
                continue
            for q2 in range(1, 10_000 // q1 + 1):
                if math.gcd(q1, q2) != 1:
                    continue
                assert weights[q1 * q2 - 1] == weights[q1 - 1] * weights[q2 - 1]

    def test_omega_domain_enforced(self):
        bad = OmegaProfile(2, lambda p: p * p, "BAD")
        with pytest.raises(ValueError):
            h_weight(2, bad)


class TestHSum:
    def test_examples(self):
        assert h_sum(1, CONSTANT_ONE) == 1
        assert h_sum(3, CONSTANT_ONE) == Fraction(35, 24)
        assert h_sum(2, ES) == 4

    def test_monotone_and_bounded(self):
        weights = h_weights_upto(500, CONSTANT_ONE)
        target = math.pi**2 / 6
        partial = Fraction(0)
        for q, w in enumerate(weights, start=1):
            assert w >= 0
            partial += w
            gap = target - float(partial)
            assert 0 < gap <= 4 / q, q

    def test_matches_flat_sum_of_trial_division_weights(self):
        rng = random.Random(3401)
        for profile in PROFILES:
            for q_max in sorted(rng.sample(range(1, 401), 12)) + [1, 2, 77, 400]:
                flat = sum(h_weight(q, profile) for q in range(1, q_max + 1))
                assert h_sum(q_max, profile) == flat, (q_max, profile.name)

    # sha256 of the reprs of h_sum(300), ..., h_sum(320), one per line, as
    # the Fraction sieve gave them before the sums moved to integer pairs
    PINNED_REPRS_SHA256 = {
        CONSTANT_ONE: "eed95c19747d7022a5c0fd305d6f2742f908431825cabd48cb3c8eb126d70829",
        ES: "e3be005e84d7fdb00e2a1fffc2423b3e2a6fe3e6ba068130a154a4a4f394d31a",
    }

    @pytest.mark.parametrize("profile", [CONSTANT_ONE, ES], ids=lambda p: p.name)
    def test_reprs_match_pinned_digests(self, profile):
        text = "\n".join(repr(h_sum(q, profile)) for q in range(300, 321))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_REPRS_SHA256[profile]

    def test_order_independence(self):
        weights = h_weights_upto(200, CONSTANT_ONE)
        shuffled = weights[:]
        random.Random(3).shuffle(shuffled)
        assert sum(shuffled) == sum(weights) == h_sum(200, CONSTANT_ONE)


class TestSieveBound:
    def test_examples(self):
        assert sieve_bound(100, 2, CONSTANT_ONE) == 87
        assert sieve_bound(16, 2, ES) == 8
        assert sieve_bound(1, 1, CONSTANT_ONE) == 2

    def test_linear_flavor(self):
        # k = 1 recovers the classical arithmetic bound with Q^2 on top
        linear = OmegaProfile.constant_one(1)
        assert sieve_bound(100, 2, linear) == Fraction(104, 2)

    def test_optimize(self):
        assert optimize_q(100, CONSTANT_ONE, range(1, 5)) == (2, Fraction(87))
        assert optimize_q(1, CONSTANT_ONE, range(1, 3)) == (1, Fraction(2))

    @pytest.mark.parametrize(
        "n_length, q_range", [(100, range(0, 5)), (100, [-3, 2]), (-5, range(1, 4)), (0, [1])]
    )
    def test_optimize_rejects_lengths_and_q_below_one(self, n_length, q_range):
        with pytest.raises(ValueError, match="window length and Q must be >= 1"):
            optimize_q(n_length, CONSTANT_ONE, q_range)

    def test_power_over_byte_cap_raises_before_it_is_built(self):
        # Q^(2k) for Q = 10, k = 10^9 would take about 830 MB
        huge = OmegaProfile.constant_one(10**9)
        with pytest.raises(ResourceError, match=r"Q\^\(2k\) for Q = 10, k = 1000000000 "):
            sieve_bound(10, 10, huge)
        with pytest.raises(ResourceError, match=r"Q\^\(2k\) for Q = 2, k = 1000000000 "):
            optimize_q(10, huge, range(1, 11))
        # 1^(2k) costs nothing and no prime is at most 1
        assert sieve_bound(10, 1, huge) == optimize_q(10, huge, [1])[1] == 11

    def test_optimize_ties_to_smallest(self):
        profile = CONSTANT_ONE
        q_star, bound = optimize_q(100, profile, [2, 2, 2])
        assert q_star == 2 and bound == 87

    def test_optimize_ties_between_distinct_q_go_to_the_smaller(self):
        # (44 + 1) / 1 = (44 + 2^4) / (1 + 1/3) and (2 + 1) / 1 = (2 + 2^2) / (1 + 1/1)
        for n_length, profile in ((44, CONSTANT_ONE), (2, OmegaProfile.constant_one(1))):
            assert sieve_bound(n_length, 1, profile) == sieve_bound(n_length, 2, profile)
            for q_range in ([1, 2], [2, 1], range(2, 0, -1), [2, 1, 2]):
                assert optimize_q(n_length, profile, q_range) == (1, n_length + 1)

    def test_optimize_matches_flat_bounds(self):
        rng = random.Random(3402)
        for profile in PROFILES:
            weights = [h_weight(q, profile) for q in range(1, 401)]
            for _ in range(6):
                n_length = rng.choice((1, 10**3, 10**5, 5 * 10**6, 10**9))
                q_range = [rng.randrange(1, 401) for _ in range(rng.randrange(1, 30))]
                bounds = {q: (n_length + q ** (2 * profile.k)) / sum(weights[:q]) for q in q_range}
                best = min(bounds.values())
                expected = min(q for q, bound in bounds.items() if bound == best)
                assert optimize_q(n_length, profile, q_range) == (expected, best), profile.name

    def test_optimize_pinned_results(self):
        # as the Fraction sieve gave them before the sums moved to integer pairs
        assert optimize_q(10**7, ES, range(1, 221)) == (42, Fraction(1150944674880, 4649213))
        assert optimize_q(5 * 10**6, ES, range(1, 211)) == (38, Fraction(710780843520, 4694179))
        assert optimize_q(10**5, CONSTANT_ONE, range(1, 201)) == (7, Fraction(1638416, 25))
        assert optimize_q(10**6, OmegaProfile.constant_one(3), range(1, 101)) == (3, Fraction(182132678, 215))

    def test_es_bound_order(self):
        # the pairwise-sum profile should give roughly N^(3/4) at this scale
        _, bound = optimize_q(10**4, ES, range(1, 13))
        ratio = float(bound) / 10 ** (4 * 3 / 4)
        assert 0.1 < ratio < 10


class TestEsOmega:
    def test_values(self):
        assert es_omega(2) == 3
        assert es_omega(3) == 5
        assert es_omega(5) == 13

    def test_only_squares(self):
        with pytest.raises(ValueError):
            es_omega(3, k=3)

    def test_derivation_by_exhaustion_mod_9(self):
        # largest S in Z/9 with (S + S) avoiding 0 mod 9 has (9 - 1)/2 elements
        best = 0
        for mask in range(1 << 9):
            s = [r for r in range(9) if mask >> r & 1]
            if all((a + b) % 9 != 0 for a in s for b in s):
                best = max(best, len(s))
        assert best == (9 - 1) // 2
        assert es_omega(3) == 9 - best


class TestFourierVerification:
    def test_hand_equality_case(self):
        check = verify_sqsieve_inequality(2, 2, [0], {1: 1, 2: 1, 3: 1})
        assert abs(check.lhs - 3) < 1e-9
        assert abs(check.rhs - 3) < 1e-9
        assert check.holds
        assert check.plancherel_ok
        assert abs(check.plancherel_expected - 3) < 1e-12

    def test_zero_coefficients(self):
        check = verify_sqsieve_inequality(2, 2, [0], {})
        assert check.lhs == 0 and check.rhs == 0 and check.holds

    def test_support_on_removed_class_rejected(self):
        with pytest.raises(ValueError):
            verify_sqsieve_inequality(2, 2, [0], {4: 1})
        with pytest.raises(ValueError):
            verify_sqsieve_inequality(2, 2, [0, 1, 2, 3], {})

    def test_root_table_over_byte_cap_raises_before_building(self, monkeypatch):
        # the table holds 8 * q * (q - 1) bytes of references: 96 at q = 4,
        # 18816 at q = 49
        monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
        assert verify_sqsieve_inequality(2, 2, [0], {1: 1}).holds
        with pytest.raises(ResourceError, match="root table for q = 49 "):
            verify_sqsieve_inequality(7, 2, [0], {1: 1})

    def test_random_instances_hold(self):
        rng = random.Random(2026)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            q = p * p
            omega = rng.randrange(1, q)
            removed = rng.sample(range(q), omega)
            keep = [r for r in range(q) if r not in removed]
            support = rng.sample(range(1, 200), rng.randrange(1, 12))
            coeffs = {}
            for n in support:
                shift = (keep[rng.randrange(len(keep))] - n) % q
                phase = rng.random()
                coeffs[n + shift] = complex(math.cos(2 * math.pi * phase),
                                            math.sin(2 * math.pi * phase))
            check = verify_sqsieve_inequality(p, 2, removed, coeffs)
            assert check.holds
            assert check.plancherel_ok

    def test_every_omega_for_small_primes(self):
        rng = random.Random(4)
        for p in (2, 3):
            q = p * p
            for omega in range(1, q):
                for _ in range(5):
                    removed = rng.sample(range(q), omega)
                    keep = [r for r in range(q) if r not in removed]
                    coeffs = {
                        n: 1.0
                        for n in range(1, 40)
                        if n % q in keep and rng.random() < 0.6
                    }
                    check = verify_sqsieve_inequality(p, 2, removed, coeffs)
                    assert check.holds and check.plancherel_ok, (p, omega)

    def test_matches_flat_reference(self):
        # The root table and the residue sums add the same terms in another
        # order.  Each |S(a/q)|^2 is at most (sum |a_n|)^2, so the sums are
        # held to 1e-12 of themselves or of q times that, whichever is larger:
        # an S that nearly cancels has no more digits to agree on.
        rng = random.Random(20261020)
        seen = set()
        for _ in range(600):
            p, removed, coeffs = random_sqsieve_instance(rng)
            seen.add(p)
            q = p * p
            scale = 1e-12 * q * sum(map(abs, coeffs.values())) ** 2
            check = verify_sqsieve_inequality(p, 2, removed, coeffs)
            lhs, rhs, plancherel = sqsieve_flat(p, 2, removed, coeffs)
            assert math.isclose(check.lhs, lhs, rel_tol=1e-12, abs_tol=scale)
            assert math.isclose(check.rhs, rhs, rel_tol=1e-12, abs_tol=scale)
            assert math.isclose(check.plancherel_sum, plancherel, rel_tol=1e-12)
            tolerance = 1e-9 * max(1.0, rhs)
            assert check.holds == (lhs >= rhs - tolerance)
            expected = check.plancherel_expected
            assert check.plancherel_ok == (abs(plancherel - expected) <= 1e-9 * max(1.0, expected))
        assert seen == {2, 3, 5, 7}
