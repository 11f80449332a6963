"""The translate-strike kernel and the certification rule shared by every
k-free window and witness scan, each against trial division."""

import random

import pytest

from kfree.constructions import overp_sequence
from kfree.errors import ResourceError
from kfree.properties import (
    FULL,
    PI_CERTIFIED,
    Certification,
    named_sequence_prefix,
    property_p_evidence,
)
from kfree.sieve import NARROW_SHIFT_BITS, RESIDUE_GROUP, WHEEL_MIN_COUNT, WHEEL_SPAN, translate_flags

from oracles import kfree_by_factorization, translate_free_flags, trial_division_primes

SMALL_PRIMES = trial_division_primes(200)


class TestTranslateFlags:
    def _check(self, lo, count, elements, primes, k, step=1):
        got = translate_flags(lo, count, elements, primes, k, step)
        assert isinstance(got, bytearray)
        assert list(got) == translate_free_flags(lo, count, elements, primes, k, step)

    def test_unit_step_against_trial_division(self):
        rng = random.Random(401)
        for _ in range(300):
            k = rng.choice((2, 3))
            cutoff = rng.choice((0, 2, 3, 10, 50, 200))  # PI cutoffs truncate the list
            primes = [p for p in SMALL_PRIMES if p <= cutoff]
            elements = rng.sample(range(0, 400), rng.randrange(0, 6))
            self._check(rng.randrange(1, 10**6), rng.randrange(0, 400), elements, primes, k)

    def test_primorial_power_step_against_trial_division(self):
        rng = random.Random(402)
        for _ in range(300):
            k = rng.choice((2, 3))
            small = rng.sample((2, 3, 5, 7), rng.randrange(1, 4))
            step = 1
            for p in small:
                step *= p**k
            cutoff = rng.choice((3, 10, 50, 200))
            primes = [p for p in SMALL_PRIMES if p <= cutoff and p not in small]
            elements = rng.sample(range(0, 400), rng.randrange(0, 6))
            self._check(rng.randrange(1, 10**9), rng.randrange(0, 300), elements, primes, k, step)

    def test_huge_elements(self):
        rng = random.Random(403)
        for _ in range(50):
            elements = [rng.randrange(10**40, 10**41) for _ in range(rng.randrange(1, 4))]
            self._check(1, rng.randrange(0, 300), elements, SMALL_PRIMES[:20], 2)

    def test_wide_elements_mixed_with_narrow(self):
        # Shifts wider than NARROW_SHIFT_BITS are reduced once per group of
        # RESIDUE_GROUP primes (16): the prime lists end one short of a
        # group, exactly at one, one past it and one past two groups.  The
        # widths sit at 64 bits, at the cut and near 10^40, among narrow
        # elements.
        rng = random.Random(404)
        cut = NARROW_SHIFT_BITS
        widths = (63, 64, 65, cut - 1, cut, cut + 1, 133)
        group = RESIDUE_GROUP
        for size in (group - 1, group, group + 1, 2 * group + 1):
            primes = SMALL_PRIMES[:size]
            for k in (2, 3):
                for lo in (1, 7, -(10**6), -(1 << 70)):
                    for step in (1, 2**k, 3**k * 5**k):
                        listed = [p for p in primes if step % p]
                        elements = [rng.randrange(0, 400) for _ in range(2)]
                        for bits in widths:
                            # lo + a has exactly the given width, so the
                            # shift -(lo + a) does as well
                            a = (1 << (bits - 1)) + rng.randrange(1 << (bits - 2)) - lo
                            assert (lo + a).bit_length() == bits
                            elements.append(a)
                        rng.shuffle(elements)
                        self._check(lo, rng.randrange(50, 200), elements, listed, k, step)

    def test_edge_lengths_and_empty_inputs(self):
        for k in (2, 3):
            for count in (0, 1):
                for elements in ((), (0,), (3, 7)):
                    for step in (1, (2 * 3) ** k):
                        primes = [p for p in SMALL_PRIMES[:10] if step % p]
                        for lo in (1, 2, 23, 10**6):
                            self._check(lo, count, elements, primes, k, step)
        assert translate_flags(5, 0, (1,), (2, 3), 2) == bytearray()
        assert translate_flags(5, 4, (), (2, 3), 2) == bytearray([1]) * 4
        assert translate_flags(5, 4, (1, 2), (), 2) == bytearray([1]) * 4

    def test_step_sharing_a_listed_prime_is_refused(self):
        with pytest.raises(ValueError):
            translate_flags(1, 10, (0,), (2, 3), 2, step=4)

    # The wheel: the leading listed primes whose p^k multiply to at most
    # WHEEL_SPAN strike one period of that product, which tiles every window
    # of at least WHEEL_MIN_COUNT entries.
    @staticmethod
    def _span(primes, k):
        span = 1
        for p in primes:
            if span * p**k > WHEEL_SPAN:
                break
            span *= p**k
        return span

    @staticmethod
    def _elements(rng):
        # the first two share their class mod 4 and mod 9; the last is wide
        a = rng.randrange(400)
        return [a, a + 36, rng.randrange(400), (1 << (NARROW_SHIFT_BITS + 76)) + rng.randrange(400)]

    def test_wheel_spans(self):
        assert self._span(SMALL_PRIMES, 2) == 4 * 9 * 25
        assert self._span(SMALL_PRIMES, 3) == 8 * 27
        assert self._span(SMALL_PRIMES[2:], 2) == 25

    def test_windows_around_the_wheel_span(self, monkeypatch):
        monkeypatch.setattr("kfree.sieve.WHEEL_MIN_COUNT", 1)
        rng = random.Random(3403)
        for k in (2, 3):
            # a primorial step drops the leading primes, and the span with them
            for step in (1, 5**k, 2**k * 3**k):
                primes = [p for p in SMALL_PRIMES[:25] if step % p]
                span = self._span(primes, k)
                for count in (span - 1, span, span + 1, 2 * span + 1):
                    for lo in (1, rng.randrange(2, 10**6), -(10**6)):
                        self._check(lo, count, self._elements(rng), primes, k, step)

    def test_windows_around_the_wheel_turn_on_length(self):
        rng = random.Random(3404)
        for k in (2, 3):
            for step in (1, 5**k):
                primes = [p for p in SMALL_PRIMES[:10] if step % p]
                for count in (WHEEL_MIN_COUNT - 1, WHEEL_MIN_COUNT, WHEEL_MIN_COUNT + 1):
                    self._check(rng.randrange(1, 10**9), count, self._elements(rng)[:2], primes, k, step)

    def test_long_windows_repeat_the_wheel_period(self):
        # every entry of a long window equals the entry one period earlier
        # for the wheel primes alone
        for k, primes in ((2, (2, 3, 5)), (3, (2, 3))):
            span = self._span(primes, k)
            flags = translate_flags(17, WHEEL_MIN_COUNT + span, (0, 36, 5), primes, k)
            assert flags[span:] == flags[: len(flags) - span]
            assert flags[:span] == translate_flags(17, span, (0, 36, 5), primes, k)


class TestCheckedTo:
    def test_none_is_full_at_needed(self):
        assert Certification.checked_to(17, None) == Certification(FULL, 17)

    def test_cutoff_equal_to_needed_is_full(self):
        assert Certification.checked_to(17, 17) == Certification(FULL, 17)
        assert Certification.checked_to(17, 10**6) == Certification(FULL, 17)

    def test_cutoff_below_needed_is_pi_certified(self):
        cert = Certification.checked_to(17, 16)
        assert cert == Certification(PI_CERTIFIED, 16) and str(cert) == "PI_CERTIFIED(16)"

    def test_nothing_needed(self):
        assert Certification.checked_to(0, 0) == Certification(FULL, 0)
        assert Certification.checked_to(0, None) == Certification(FULL, 0)
        assert Certification.checked_to(0, 5) == Certification(FULL, 0)

    @pytest.mark.parametrize("needed", [0, 17])
    def test_negative_cutoff_raises(self, needed):
        with pytest.raises(ValueError):
            Certification.checked_to(needed, -5)

    def test_negative_cutoff_reaches_callers(self, monkeypatch):
        monkeypatch.setattr("kfree.constructions.OVERP_VERIFY_PRIME_CAP", -5)
        with pytest.raises(ValueError):
            overp_sequence(3, 0)


class TestOverPCutoff:
    # the anchor is 0 mod p^2 for every p <= 46, so only larger checked
    # primes can strike; with caps 100 and 1000 one of them does
    @pytest.mark.parametrize("cap", [1, 2, 47, 100, 1000])
    def test_strikes_exactly_the_primes_up_to_the_cutoff(self, monkeypatch, cap):
        monkeypatch.setattr("kfree.constructions.OVERP_VERIFY_PRIME_CAP", cap)
        result = overp_sequence(3, 1, induced_cap=1000)
        assert result.certification == Certification(PI_CERTIFIED, cap)
        primes = trial_division_primes(cap)
        expected = tuple(
            a
            for a in range(1, 1001)
            if kfree_by_factorization(a)
            and all((n + a) % (p * p) for n in result.anchors for p in primes)
        )
        assert result.induced == expected


class TestPropertyPEvidence:
    def test_against_trial_division(self):
        rng = random.Random(404)
        for _ in range(60):
            k = rng.choice((2, 3))
            values = rng.sample(range(1, 2000), rng.randrange(1, 12))
            n_max = rng.randrange(1, 200)
            expected = {
                n: sum(kfree_by_factorization(n + a, k) for a in values)
                for n in range(1, n_max + 1)
            }
            assert property_p_evidence(values, n_max, k) == expected

    def test_window_over_byte_cap_raises_before_allocating(self, monkeypatch):
        def no_primes(limit):
            raise AssertionError("primes requested before the byte cap check")

        monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
        monkeypatch.setattr("kfree.sieve.primes_upto", no_primes)
        with pytest.raises(ResourceError):
            property_p_evidence([1, 5], 10**5)

    def test_empty_set_over_byte_cap_raises(self, monkeypatch):
        monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
        assert property_p_evidence([], 10**4) == dict.fromkeys(range(1, 10**4 + 1), 0)
        with pytest.raises(ResourceError):
            property_p_evidence([], 10**4 + 1)

    def test_astronomical_range_raises(self):
        with pytest.raises(ResourceError):
            property_p_evidence([1, 5], 10**12)


def test_negative_prefix_count_raises():
    with pytest.raises(ValueError):
        named_sequence_prefix("A1", -3)
    assert named_sequence_prefix("A1", 0) == ()
