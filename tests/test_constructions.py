import decimal
import functools
import hashlib
import math
import random
import tracemalloc

import pytest

from kfree import constructions, sieve
from kfree.constructions import (
    _reject_bound,
    DenseQState,
    GROWTH_FUNCTIONS,
    GreedyResult,
    GreedySkip,
    dense_q_step,
    greedy_squarefree_sums,
    membership_probability,
    overp_base_point,
    overp_sequence,
    property_p_sequence,
    resolve_growth,
    sample_counterexample,
    suff_witness_search,
)
from kfree.errors import BudgetError, NotAdmissibleError, ResourceError
from kfree.properties import check_squarefree_sums, named_sequence_prefix
from kfree.sieve import build_prime_table, kfree_window

from oracles import (
    dense_anchor_flat,
    greedy_flat,
    kfree_by_factorization,
    overp_base_point_flat,
    overp_induced_flat,
    property_p_flat,
    sample_flat,
    trial_division_primes,
)


class TestSlowDensitySequence:
    def test_identity_growth_prefix(self):
        seq = property_p_sequence(GROWTH_FUNCTIONS["identity"], 36)
        assert seq.terms[:6] == (1, 2, 3, 4, 7, 11)
        assert seq.terms[34] == 127
        assert seq.terms[35] == 151

    def test_invariants_200_terms(self):
        f = GROWTH_FUNCTIONS["identity"]
        seq = property_p_sequence(f, 200)
        primes = trial_division_primes(100)
        assert all(a < b for a, b in zip(seq.terms, seq.terms[1:]))
        for j, term in enumerate(seq.terms, start=1):
            assert term <= j * f(j), (j, term)
        for r, start in seq.active_from.items():
            q = primes[r - 1] ** 2
            for j in range(start, 201):
                assert (seq.terms[j - 1] + r) % q == 0, (r, j)

    def test_constant_growth_rejected(self):
        with pytest.raises(BudgetError):
            property_p_sequence(lambda j: 1, 10)

    def test_zero_terms(self):
        assert property_p_sequence(GROWTH_FUNCTIONS["identity"], 0).terms == ()

    def test_faster_growth_activates_sooner(self):
        seq = property_p_sequence(resolve_growth("times10"), 50)
        # W_1 = 4 is reached immediately, W_2 = 36 at j = 4
        assert seq.identity_until == 1
        assert seq.terms[0] == 1
        assert all((t + 1) % 4 == 0 for t in seq.terms[1:])

    @pytest.mark.parametrize(
        "growth",
        sorted(GROWTH_FUNCTIONS) + ["times3", "times10", "non-monotone"],
    )
    @pytest.mark.parametrize("count", [0, 1, 500, 12000])
    def test_matches_flat_scan_and_calls_growth_once_per_index(self, growth, count):
        # 12000 is past THRESHOLD_HORIZON, so the horizon is the count itself;
        # the non-monotone f dips at every 11th index, below the thresholds
        if growth == "non-monotone":
            f = lambda j: 3 * j if j % 11 else max(1, j // 40)
        else:
            f = resolve_growth(growth)
        flat_calls, calls = [], []

        def counted(log):
            def g(j):
                log.append(j)
                return f(j)

            return g

        expected = property_p_flat(counted(flat_calls), count, 2, constructions.THRESHOLD_HORIZON)
        seq = property_p_sequence(counted(calls), count)
        assert (seq.terms, seq.identity_until, seq.active_from) == expected
        assert len(calls) == len(set(calls))
        assert set(calls) == set(flat_calls)

    def test_threshold_descent_holds_no_value_per_index(self, monkeypatch):
        # one value per index over 10^5 indices would take megabytes; the few
        # levels take a few kB
        monkeypatch.setattr("kfree.constructions.THRESHOLD_HORIZON", 10**5)
        f = GROWTH_FUNCTIONS["jlogj"]
        expected = property_p_sequence(f, 100)
        tracemalloc.start()
        try:
            assert property_p_sequence(f, 100) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    def test_level_count_is_capped(self, monkeypatch):
        # an f that returns inf reaches every threshold: count + 1 levels
        monkeypatch.setattr("kfree.constructions.MAX_LEVELS", 6)
        seq = property_p_sequence(lambda j: math.inf, 5)
        assert (seq.terms, seq.identity_until, seq.active_from) == property_p_flat(lambda j: math.inf, 5)
        assert len(seq.active_from) == 5
        with pytest.raises(BudgetError, match="more than 6 thresholds"):
            property_p_sequence(lambda j: math.inf, 6)

    def test_explosive_growth_stacks_many_congruences(self, monkeypatch):
        monkeypatch.setattr("kfree.constructions.THRESHOLD_HORIZON", 12)
        seq = property_p_sequence(lambda j: 16**j, 12)
        # thresholds climb one prime per index once f dwarfs every primorial power
        assert len(seq.active_from) >= 4
        for r, start in seq.active_from.items():
            from kfree.sieve import nth_prime

            q = nth_prime(r) ** 2
            for j in range(start, 13):
                assert (seq.terms[j - 1] + r) % q == 0

    def test_lower_shift_requires_candidates(self):
        from kfree.admissible import admissible_max_lower_shift

        with pytest.raises(ValueError):
            admissible_max_lower_shift(10, shifts=[])

    def test_growth_token_resolution(self):
        from kfree.constructions import resolve_growth

        assert resolve_growth("identity")(7) == 7
        assert resolve_growth("times3")(7) == 21
        assert resolve_growth("times10")(7) == 70
        with pytest.raises(ValueError):
            resolve_growth("times0")
        with pytest.raises(ValueError):
            resolve_growth("cubed")


class TestGreedySums:
    def test_first_terms(self):
        assert greedy_squarefree_sums(3).terms == (1, 5, 21)
        assert greedy_squarefree_sums(1).terms == (1,)
        assert greedy_squarefree_sums(2, include_diagonal=False).terms == (1, 2)

    def test_prefixes_pass_sum_check(self):
        result = greedy_squarefree_sums(30)
        for m in range(1, 31):
            assert check_squarefree_sums(result.terms[:m]) is None

    def test_skips_reverify(self):
        result = greedy_squarefree_sums(12)
        skipped_candidates = {s.candidate for s in result.skipped}
        # greedy minimality: everything between consecutive terms was skipped
        expected_skips = set(range(1, result.terms[-1] + 1)) - set(result.terms)
        assert skipped_candidates == expected_skips
        for skip in result.skipped:
            total = skip.candidate + skip.partner
            assert total % skip.prime**2 == 0
            assert skip.partner == skip.candidate or skip.partner in result.terms

    def test_matches_flat_reference(self):
        # counts that end inside a block and on its first position, for both
        # exponents and with and without the diagonal
        for k in (2, 3):
            for include_diagonal in (True, False):
                for count in (0, 1, 2, 3, 4, 5, 7, 12, 31, 32, 57, 80):
                    terms, skips = greedy_flat(count, include_diagonal, k)
                    expected = GreedyResult(terms, tuple(GreedySkip(*skip) for skip in skips))
                    assert greedy_squarefree_sums(count, include_diagonal, k) == expected, (
                        count, include_diagonal, k
                    )

    # sha256 of repr(greedy_squarefree_sums(n)) from the one-candidate-at-a-time
    # loop the block sieve replaced; the benchmark hashes this repr
    PINNED_REPR_SHA256 = {
        0: "a1477e40b50fe82cc7da21cd3acfb0cbc8fb150f9dc947042f11e67596bee5e1",
        1: "f4fb68de196a5c2da59e6416221ca98ce1c4437382bf23ab65d6ef355410c673",
        2: "b036c4ecb35ec9a374f4b2f0b7f7b76bb033b76ad10023a6eba8f66bc41aa267",
        3: "e37e923e58e0e2553d2a4ae71ad61bdbb1d159a16cad21ead36bdc06491c833c",
        31: "7e3df456d224c2f801437a73739bcaba1d011ae96995511dcf308866f53ed029",
        32: "e699864b4a0fad8115e7fd2655944c08fc90c7623c51280e630e73d60cacc07e",
        80: "72177ad3b3c864245cf576183d3baf7110454faad46bcd084f47a0b4404cd1d2",
        150: "421d9b73a66d77beef7194780a50a0ddfb53386a4603acc4d0c42f84e0ac04dd",
        200: "65957f2dd34eaf884cc476623ff660eb7fb612054b11eb2d2582a38359c7fdb0",
    }

    def test_repr_matches_pinned_digests(self):
        for count, expected in self.PINNED_REPR_SHA256.items():
            text = repr(greedy_squarefree_sums(count))
            assert hashlib.sha256(text.encode()).hexdigest() == expected, count


class TestSuffWitnessSearch:
    def test_trivial_modulus_scan(self):
        report = suff_witness_search([3, 5, 9], 9, theta=0.1)
        assert report.witness == 8

    def test_empty_set(self):
        assert suff_witness_search([], 10).witness == 5

    def test_a1_prefix_at_desk_scale(self):
        prefix = named_sequence_prefix("A1", 15)
        report = suff_witness_search(prefix, prefix[-1], theta=0.1)
        assert prefix[-1] // 2 <= report.witness <= prefix[-1]
        assert report.certification.is_full
        for entry in report.trace:
            assert kfree_by_factorization(entry.shifted, 2)

    def test_structured_candidates(self):
        # ln(8103) ~ 9, so theta = 0.24 pulls p = 2 into the primorial part
        report = suff_witness_search([3, 5], 8103, theta=0.24)
        assert report.witness % 4 == 0  # avoided class 0 mod 4, so n = -0
        for entry in report.trace:
            assert kfree_by_factorization(entry.shifted, 2)

    def test_seeded_candidate_order(self):
        r1 = suff_witness_search([3, 5], 8103, theta=0.24, seed=42)
        r2 = suff_witness_search([3, 5], 8103, theta=0.24, seed=42)
        assert r1 == r2
        assert r1.witness % 4 == 0

    def test_forward_interval(self):
        report = suff_witness_search([3, 5], 1000, theta=0.1, interval="FORWARD")
        assert 1000 < report.witness <= 1000 + int(1000 ** (10 / 11)) + 1

    def test_non_admissible_raises(self):
        with pytest.raises(NotAdmissibleError):
            suff_witness_search([1, 2, 3, 4], 8103, theta=0.24)

    def test_sets_larger_than_primorial_coverage(self):
        # |A| = 5 needs occupancy checks past the single primorial prime p = 2
        report = suff_witness_search([1, 2, 3, 5, 6], 8103, theta=0.24)
        assert report
        assert (report.witness - 0) % 4 == 0  # avoided class is 0 mod 4
        with pytest.raises(NotAdmissibleError) as info:
            suff_witness_search([1, 2, 3, 4, 8], 8103, theta=0.24)
        assert info.value.prime == 2

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            suff_witness_search([1], 10, theta=0.3)
        with pytest.raises(ValueError):
            suff_witness_search([7], 3)

    @pytest.mark.parametrize(
        "x, theta, seed, count",
        [
            (1000, 0.1, None, 501),  # W = 1: every n in [500, 1000]
            (8103, 0.24, 5, 1013),  # W = 4: 4052, 4056, ..., 8100
        ],
    )
    def test_one_candidate_cap(self, monkeypatch, x, theta, seed, count):
        # one byte per candidate for the strike, four more for a seeded order
        fits = count if seed is None else 4 * count
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", fits)
        assert suff_witness_search([3, 5], x, theta, seed=seed)
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", fits - 1)
        if seed is not None:
            with pytest.raises(ResourceError, match=f"seeded order of {count} candidates"):
                suff_witness_search([3, 5], x, theta, seed=seed)
            monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", count - 1)
        with pytest.raises(ResourceError, match="scan range"):
            suff_witness_search([3, 5], x, theta, seed=seed)


class TestDenseAnchors:
    def test_small_step(self):
        state = DenseQState.start(2)
        state = dense_q_step(state, epsilon=0.5, x=10**4)
        anchor = state.anchors[-1]
        # independent scan: first multiple of 36 in [5000, 10^4] whose
        # translates of 1 and 2 stay squarefree
        expected = next(
            m
            for m in range(5004, 10**4 + 1, 36)
            if kfree_by_factorization(m + 1) and kfree_by_factorization(m + 2)
        )
        assert anchor == expected == 5004
        piece = state.slices[0]
        assert piece[:4] == (3, 5, 6, 7)
        for a in piece[:50]:
            assert kfree_by_factorization(a) and kfree_by_factorization(anchor + a)

    def test_spacing_requirement(self):
        state = DenseQState.start(2)
        dense_q_step(state, 0.5, 10**4)
        assert state.anchors[1] >= 2 * state.anchors[0]

    def test_primorial_explosion_is_an_argument_error(self):
        with pytest.raises(ValueError):
            dense_q_step(DenseQState.start(4), 0.5, 10**6)

    def test_large_interval_succeeds(self, monkeypatch):
        monkeypatch.setattr("kfree.constructions.DENSE_WINDOW_BUDGET", 10**5)
        state = DenseQState.start(4)
        dense_q_step(state, 0.5, 10**10)
        anchor = state.anchors[-1]
        assert anchor % (30030**2) == 0
        assert 5 * 10**9 <= anchor <= 10**10
        report = state.reports[0]
        assert report.grid_capped and not report.slice_materialized
        assert state.slices[0] is None
        for _, density in report.grid:
            assert 0.0 <= density <= 1.0

    def test_step_past_x_fails_after_a_handful_of_primes(self, monkeypatch):
        # from anchor 5004, W is prod of p^2 over p <= 5004^2, far above
        # x = 10^4: the product passes x at 2^2 3^2 5^2 7^2 = 44100
        limits, reads = [], []

        def counted_primes(limit):
            limits.append(limit)
            for p in sieve.primes_upto(limit):
                reads.append(p)
                yield p

        monkeypatch.setattr(constructions, "primes_upto", counted_primes)
        state = DenseQState(anchors=[2, 5004])
        with pytest.raises(ValueError, match=r"^no multiple of prod of p\^2 over p <= 25040016 lies in \[5000, 10000\]$"):
            dense_q_step(state, 0.5, 10**4)
        assert limits == [10**4] and reads == [2, 3, 5, 7]
        assert state.anchors == [2, 5004] and state.reports == []

    @pytest.mark.parametrize(
        "x, message",
        [
            (0, r"multiples of prod of p\^2 over p <= 4 in \[0, 0\] all violate the spacing"),
            (1, r"multiples of prod of p\^2 over p <= 4 in \[1, 1\] all violate the spacing"),
            (8, r"no multiple of prod of p\^2 over p <= 4 lies in \[4, 8\]"),
        ],
    )
    def test_tiny_x_is_an_argument_error(self, x, message):
        with pytest.raises(ValueError, match=message):
            dense_q_step(DenseQState.start(2), 0.5, x)

    def test_requires_started_state(self):
        with pytest.raises(ValueError):
            dense_q_step(DenseQState(), 0.5, 100)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_or_nan_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            dense_q_step(DenseQState.start(2), epsilon, 10**4)

    def test_first_slice_lies_between_the_anchors(self):
        state = DenseQState.start(2)
        dense_q_step(state, 0.5, 10**4)
        assert all(2 < a <= state.anchors[-1] for a in state.slices[0])


class TestDenseStepAgainstTrialDivision:
    def test_seeded_random_steps(self, monkeypatch):
        monkeypatch.setattr("kfree.constructions.DENSE_WINDOW_BUDGET", 100)
        # 143 anchors of 2 put the spacing floor at 288: for x = 360 only the
        # multiples 288, 324 and 360 of 36 remain, and 289, 325 and 361 are
        # not squarefree; for x = 280 no multiple clears the floor
        cases = [([2] * 143, 2, 360, None), ([2] * 143, 2, 360, 1), ([2] * 143, 2, 280, None)]
        rng = random.Random(36)
        for _ in range(40):
            anchors = [rng.choice([2, 3])] * rng.randrange(1, 4)
            seed = rng.choice([None, rng.randrange(1000)])
            cases.append((anchors, rng.choice([2, 3]), int(10 ** rng.uniform(2, 6)), seed))
        for anchors, k, x, seed in cases:
            expected, position = dense_anchor_flat(anchors, k, x, seed)
            state = DenseQState(k=k, anchors=list(anchors))
            if position == 0:
                with pytest.raises(ValueError):
                    dense_q_step(state, 0.5, x, seed=seed)
            elif expected is None:
                with pytest.raises(BudgetError, match=f"none of the {position} "):
                    dense_q_step(state, 0.5, x, seed=seed)
            else:
                dense_q_step(state, 0.5, x, seed=seed)
                report = state.reports[-1]
                assert (report.anchor, report.candidates_examined) == (expected, position), (anchors, k, x, seed)

    def test_candidate_count_checked_against_byte_cap(self, monkeypatch):
        # W = 36: the multiples 5004, 5040, ..., 9972 in [5000, 10^4] number 139
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 138)
        with pytest.raises(ResourceError, match="139 candidate multiples"):
            dense_q_step(DenseQState.start(2), 0.5, 10**4)

    def test_seeded_order_checked_at_four_bytes_a_candidate(self, monkeypatch):
        # the 139 candidates pass a 300-byte cap, their seeded order (556
        # bytes) does not; a small window budget keeps the density strikes under it
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 300)
        monkeypatch.setattr("kfree.constructions.DENSE_WINDOW_BUDGET", 100)
        with pytest.raises(ResourceError, match="seeded order of 139 candidates"):
            dense_q_step(DenseQState.start(2), 0.5, 10**4, seed=1)
        state = dense_q_step(DenseQState.start(2), 0.5, 10**4)
        assert state.anchors == [2, 5004]


class TestSampler:
    def test_probability_formula(self):
        assert abs(membership_probability(3, 5) - 0.172203) < 1e-5
        assert membership_probability(3, 100) == 1.0

    def test_domain_restriction(self):
        sample = sample_counterexample(5, 2000, seed=3)
        assert all(n >= 3 for n in sample)
        assert all(kfree_by_factorization(n) for n in sample)

    def test_determinism_and_seed_sensitivity(self):
        assert sample_counterexample(5, 5000, seed=11) == sample_counterexample(
            5, 5000, seed=11
        )
        assert sample_counterexample(5, 5000, seed=11) != sample_counterexample(
            5, 5000, seed=12
        )

    def test_clamped_probability_forces_membership(self):
        for seed in range(10):
            assert 3 in sample_counterexample(100, 10, seed=seed)

    def test_mean_tracks_expectation_roughly(self):
        x = 20_000
        window = kfree_window(3, x - 2)
        expected = sum(membership_probability(n, 5) for n in window.members())
        sizes = [len(sample_counterexample(5, x, seed=s)) for s in range(40)]
        mean = sum(sizes) / len(sizes)
        assert abs(mean - expected) / expected < 0.15

    def test_matches_flat_reference(self):
        # x_max on both sides of every doubling-block edge up to 2**15, and
        # seeds outside [0, 2**64) that the draw reduces mod 2**64
        rates = (0.01, 0.5, 5, 100, 10**6, math.inf)
        ends = (3, 9, 10, 11, 19, 20, 21) + tuple(
            sorted({2**j + d for j in range(2, 16) for d in (-1, 0, 1)})
        )
        rng = random.Random(20261018)
        for x_max in ends:
            for c in rates if x_max <= 2**10 + 1 else rng.sample(rates, 2):
                seed = rng.choice(
                    (
                        rng.randrange(-(2**70), 0),
                        rng.randrange(2**64, 2**72),
                        rng.randrange(2**64),
                    )
                )
                k = rng.choice((2, 3))
                assert sample_counterexample(c, x_max, seed, k) == sample_flat(
                    c, x_max, seed, k
                ), (c, x_max, seed, k)
        # rates capped at 1 on part of the range (up to n = 439 at c = 40) or
        # on all of it (c = 1000), and x_max on either side of the first two
        # chunk edges
        chunk = constructions._LANE_CHUNK
        cases = [(c, x_max) for c in (40, 1000) for x_max in (12, 250, 1500)]
        cases += [(c, 3 + j * chunk + d) for c in (0.5, 5) for j in (1, 2) for d in (-1, 0, 1)]
        for c, x_max in cases:
            seed = rng.randrange(2**64)
            k = rng.choice((2, 3))
            assert sample_counterexample(c, x_max, seed, k) == sample_flat(
                c, x_max, seed, k
            ), (c, x_max, seed, k)

    def test_lane_chunks_match_flat_reference(self, monkeypatch):
        # x_max on both sides of the first chunk edges, so chunks of one
        # member, partial last chunks and chunks with no k-free member (4;
        # 48, 49, 50 at chunk length 3) all occur
        rng = random.Random(20261019)
        empty_chunk_seen = False
        for chunk in (1, 2, 3, 5):
            monkeypatch.setattr(constructions, "_LANE_CHUNK", chunk)
            edges = sorted({3 + j * chunk + d for j in range(1, 20) for d in (-1, 0, 1)})
            for k in (2, 3):
                flags = kfree_window(3, edges[-1] - 2, k).flags
                empty_chunk_seen |= not all(
                    any(flags[i : i + chunk]) for i in range(0, len(flags) - chunk + 1, chunk)
                )
                for x_max in edges + [1000 + chunk]:
                    seed = rng.choice((rng.randrange(-(2**70), 0), rng.randrange(2**64, 2**72)))
                    c = rng.choice((0.5, 5, 100))
                    assert sample_counterexample(c, x_max, seed, k) == sample_flat(
                        c, x_max, seed, k
                    ), (chunk, c, x_max, seed, k)
        assert empty_chunk_seen


def _covers_exact_rate(bound, n, c):
    """bound / 2**64 >= min(c * ln n * lnln n / n, 1), the rate as a real
    number, computed to 40 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ln = decimal.Decimal(n).ln()
        rate = min(decimal.Decimal(c) * ln * ln.ln() / n, decimal.Decimal(1))
        return decimal.Decimal(bound) / 2**64 >= rate


class TestRejectBound:
    """_reject_bound(n0, c) / 2**64 must cover the inclusion rate on the whole
    block [n0, 2*n0), as computed in floats and as an exact real number."""

    def _cases(self):
        rng = random.Random(1018)
        for _ in range(60):
            n0 = rng.choice((10, 11, 12, rng.randrange(10, 2000)))
            yield n0, 10 ** rng.uniform(-3, 2)
            # p(n0) just below 1: c = n0 / (ln n0 * lnln n0), less a few ulps
            edge = n0 / (math.log(n0) * math.log(math.log(n0)))
            yield n0, edge * (1 - rng.randrange(1, 64) * 2**-53)

    def test_covers_float_rate(self):
        for n0, c in self._cases():
            bound = _reject_bound(n0, c)
            for n in range(n0, 2 * n0):
                assert bound / 2**64 >= membership_probability(n, c), (n0, c, n)

    def test_covers_exact_rate(self):
        for n0, c in self._cases():
            bound = _reject_bound(n0, c)
            for n in range(n0, min(2 * n0, n0 + 40)):
                assert _covers_exact_rate(bound, n, c), (n0, c, n)

    def test_capped_rate_bound_exceeds_every_draw(self):
        for n0 in (3, 9, 10, 1000):
            assert _reject_bound(n0, math.inf) > 2**64 - 1
            assert _reject_bound(n0, 10**6) > 2**64 - 1


class TestOverPBasePoints:
    def test_p3_base_point(self):
        assert overp_base_point(3) == 252

    def test_p3_independent_condition_scan(self):
        n = overp_base_point(3)
        assert n % 36 == 0
        for q in trial_division_primes(60):
            if q <= 3:
                continue
            reach = int(q / math.log(math.log(q)) ** 2)
            if q * q > n + reach:
                break
            for a in range(1, reach + 1):
                assert (n + a) % (q * q) != 0, (q, a)

    def test_budget_of_one_fails(self):
        with pytest.raises(BudgetError):
            overp_base_point(3, max_candidates=1)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(ValueError, match="max_candidates"):
            overp_base_point(3, max_candidates=budget)

    def test_p5_within_budget(self):
        n = overp_base_point(5, max_candidates=10**6)
        assert n % 900 == 0
        for q in trial_division_primes(80):
            if q <= 5:
                continue
            reach = int(q / math.log(math.log(q)) ** 2)
            if q * q > n + reach:
                break
            for a in range(1, reach + 1):
                assert (n + a) % (q * q) != 0, (q, a)

    def test_unverifiable_range_raises_a_short_budget_error(self):
        # the first multiple at P = 12000 has about 34000 bits: its kth root
        # runs past Python's 4300-digit limit on int-to-str conversion, so
        # the message names the root's bit length
        with pytest.raises(BudgetError, match="up to a 17083-bit bound, past 10\\^7") as info:
            overp_base_point(12000)
        assert len(str(info.value)) < 200

    def test_primorial_over_the_bit_budget_is_refused_before_any_prime(self, monkeypatch):
        def no_primes(limit):
            raise AssertionError(f"primes up to {limit} requested")

        monkeypatch.setattr(constructions, "primes_upto", no_primes)
        with pytest.raises(BudgetError, match="threshold 3000000 needs roughly 8700000 bits"):
            overp_base_point(3_000_000)

    def test_min_value_forces_larger_points(self):
        first = overp_base_point(3)
        second = overp_base_point(3, min_value=first)
        assert second > first and second % 36 == 0

    def test_reach_stays_within_the_skip_bound(self):
        # violates takes reach(q) only where -n mod q^k <= _REACH_FACTOR * q
        # or q^k > n; that skips no decision only while reach(q) stays within
        # the factor.  reach(q) exceeds q at q = 5, 7, 11, 13, so a factor of
        # 1 would skip real violations: at P = 3 it would accept 180, whose
        # translate 180 + 20 is divisible by 5^2.
        factor = constructions._REACH_FACTOR
        assert all(constructions._loglog_range(q) <= factor * q for q in range(5, 10**6 + 1))
        assert [constructions._loglog_range(q) for q in (5, 7, 11, 13)] == [22, 15, 14, 14]
        for p_threshold in (3, 5, 7):
            assert overp_base_point(p_threshold) == overp_base_point_flat(p_threshold)

    def test_matches_flat_reference(self):
        # 61 and 67 end the first group of 16 primes above 3 exactly and one
        # prime past it; the other caps end groups part-way for most P.  For
        # time, the cap of 10**5 is checked on every eighth P, and the
        # uncapped check is left out at P = 18 (the primes of P = 17) and
        # P = 19..22 (640k primes a candidate); from P = 23 on it raises
        # BudgetError on both sides.
        def outcome(function, p_threshold, k, cap, min_value=0):
            try:
                return function(p_threshold, k, verify_prime_cap=cap, min_value=min_value)
            except BudgetError as error:
                return str(error)

        for k in (2, 3):
            for p_threshold in range(3, 61):
                caps = [None, 10, 61, 67, 100, 1000]
                if 18 <= p_threshold <= 22:
                    caps.remove(None)
                if p_threshold % 8 == 3:
                    caps.append(10**5)
                for cap in caps:
                    first = outcome(overp_base_point, p_threshold, k, cap)
                    assert first == outcome(overp_base_point_flat, p_threshold, k, cap), (
                        p_threshold, k, cap
                    )
                    if isinstance(first, int):
                        assert outcome(overp_base_point, p_threshold, k, cap, first) == outcome(
                            overp_base_point_flat, p_threshold, k, cap, first
                        ), (p_threshold, k, cap)


class TestOverPSequence:
    def test_depth_zero(self):
        result = overp_sequence(3, 0, induced_cap=30)
        assert result.anchors == ()
        assert result.induced == tuple(kfree_window(1, 30).members())
        assert result.certification.is_full

    def test_depth_one_threshold_and_anchor(self):
        result = overp_sequence(3, 1, induced_cap=50)
        assert result.thresholds == (46,)
        modulus = 1
        for p in build_prime_table(46).primes:
            modulus *= p * p
        assert result.anchors[0] % modulus == 0
        assert result.certification.level == "PI_CERTIFIED"
        # induced members a < 4 survive: translates checked mod every small p^2
        assert 1 in result.induced and 4 not in result.induced

    def test_depth_three_refused(self):
        # the base point search refuses the third threshold, after the first two
        with pytest.raises(BudgetError, match="primorial power at threshold 1585473935 "):
            overp_sequence(3, 3)

    def test_depth_two_anchors_match_flat_reference(self):
        result = overp_sequence(3, 2)
        assert result.thresholds == (46, 4855)
        first = overp_base_point_flat(46, 2, 100_000, 100_000)
        second = overp_base_point_flat(4855, 2, 100_000, 100_000, first)
        assert result.anchors == (first, second)
        assert second.bit_length() == 13706

    # each anchor strikes only the primes above its threshold with reach
    # below the cap; the oracle strikes every prime up to the cutoff
    @pytest.mark.parametrize(
        "k, scales, caps",
        [
            (2, (3, 4, 5, 7, 10, 20), (1, 10, 50, 200, 1000, 5000)),
            (3, (3, 5, 10), (1, 100, 1000)),
        ],
    )
    def test_induced_set_matches_striking_every_prime(self, monkeypatch, k, scales, caps):
        # the anchors do not depend on the cap: search each base point once
        monkeypatch.setattr(constructions, "overp_base_point", functools.cache(overp_base_point))
        for scale in scales:
            for depth in (0, 1, 2):
                for cap in caps:
                    result = overp_sequence(scale, depth, k, induced_cap=cap)
                    expected = overp_induced_flat(
                        result.anchors, cap, k, result.certification.prime_cutoff
                    )
                    assert result.induced == expected, (scale, depth, cap)

    def test_repr_shows_anchor_bits_and_hash(self):
        # both second anchors have more than 4300 decimal digits, past the
        # limit of int-to-str conversion
        for result, bits in ((overp_sequence(4, 2), (154, 18442)), (overp_sequence(3, 2, 3), (161, 20559))):
            assert tuple(n.bit_length() for n in result.anchors) == bits
            text = repr(result)
            for n in result.anchors:
                digest = hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).hexdigest()
                assert f"<{n.bit_length()} bits, sha256 {digest[:12]}>" in text
            assert text.startswith(f"OverPSequence(thresholds={result.thresholds!r}, anchors=(<")
            assert text.endswith(
                f", induced={result.induced!r}, induced_cap={result.induced_cap!r}, "
                f"certification={result.certification!r})"
            )

    def test_strikes_primes_with_reach_between_half_cap_and_cap(self):
        # at scale 17 the anchor is -138 mod 409^2 and reach(409) = 127: the
        # base point search leaves the squarefree 138 open, so a cap of 200
        # must strike 409 although its reach is past half the cap
        result = overp_sequence(17, 1, induced_cap=200)
        assert result.thresholds == (258,)
        assert constructions._loglog_range(409) == 127
        assert -result.anchors[0] % 409**2 == 138
        assert 138 not in result.induced
        assert result.induced == overp_induced_flat(result.anchors, 200, 2, 100_000)

    def test_reach_is_non_decreasing_above_the_smallest_threshold(self):
        # every threshold is at least ceil(3 * e^e) = 46, and the induced set
        # stops striking at the first prime above it whose reach meets the cap
        assert math.ceil(3 * math.exp(math.e)) == 46
        reaches = [constructions._loglog_range(q) for q in trial_division_primes(10**5) if q > 46]
        assert reaches == sorted(reaches)
