import random
import types

import pytest

from kfree import admissible, sieve
from kfree.admissible import (
    _class_masks,
    _class_overlap,
    _constraining_primes,
    _forced_loss,
    _least_hit_after,
    admissible_max_exact,
    admissible_max_lower_shift,
    admissible_max_sweep,
    admissible_max_upper_sieve,
    recompute_witness_value,
)
from kfree.errors import ResourceError
from kfree.sieve import count_power_free_upto

from oracles import (
    _flat_class_masks,
    admissible_max_bnb,
    admissible_max_flat,
    forced_loss_flat,
    lex_smallest_optimal_flat,
    lower_shift_flat,
    min_removed_flat,
)


@pytest.fixture(scope="module")
def exact_upto_30():
    return {x: admissible_max_exact(x) for x in range(1, 31)}


def _ticking_clock(monkeypatch):
    """A clock that ticks once a read; the next tick is the number of reads."""
    ticks = iter(range(10**9))
    monkeypatch.setattr(admissible, "time", types.SimpleNamespace(monotonic=lambda: float(next(ticks))))
    return ticks


class TestExact:
    def test_examples(self):
        assert admissible_max_exact(1).value == 1
        assert admissible_max_exact(4).value == 3
        assert admissible_max_exact(10).value == 8

    def test_matches_flat_enumeration(self):
        for x in range(1, 13):
            assert admissible_max_exact(x).value == admissible_max_flat(x), x

    def test_matches_flat_enumeration_through_fixture_range(self):
        # covers the whole shipped A083544 prefix, primes {2, 3, 5, 7}
        for x in range(13, 61):
            assert admissible_max_exact(x).value == admissible_max_flat(x), x

    def test_matches_flat_enumeration_cubefree(self):
        for x in range(1, 41):
            assert admissible_max_exact(x, k=3).value == admissible_max_flat(x, k=3), x

    def test_witness_reproduces_value(self, exact_upto_30):
        for x, result in exact_upto_30.items():
            assert result.is_exact
            assert recompute_witness_value(result) == result.value

    def test_witness_covers_all_constraining_primes(self, exact_upto_30):
        assert set(exact_upto_30[10].witness) == {2, 3}
        assert set(exact_upto_30[30].witness) == {2, 3, 5}
        assert exact_upto_30[3].witness == {}

    def test_witness_is_lexicographically_smallest(self):
        # for x = 10 both (0 mod 4, 4 mod 9) and (3 mod 4, 3 mod 9) attain 8;
        # the search must return the smaller assignment
        assert admissible_max_exact(10).witness == {2: 0, 3: 4}

    def test_unit_steps(self, exact_upto_30):
        for x in range(1, 30):
            delta = exact_upto_30[x + 1].value - exact_upto_30[x].value
            assert delta in (0, 1), x

    def test_dominates_kfree_count(self, exact_upto_30):
        for x, result in exact_upto_30.items():
            assert result.value >= count_power_free_upto(x)

    def test_strictly_exceeds_kfree_count_from_18(self, exact_upto_30):
        for x in range(18, 31):
            assert exact_upto_30[x].value > count_power_free_upto(x), x

    def test_budget_degrades_status_not_correctness(self):
        rushed = admissible_max_exact(42, time_budget=0.0)
        assert rushed.status == "LOWER_BOUND"
        assert recompute_witness_value(rushed) == rushed.value
        assert rushed.value <= admissible_max_exact(42).value

    def test_cubefree_variant(self):
        # no prime cube is <= 7, so the whole window survives
        assert admissible_max_exact(7, k=3).value == 7
        result = admissible_max_exact(8, k=3)
        assert result.value == 7 and set(result.witness) == {2}


class TestLexicographicWitness:
    # the reflection a -> x + 1 - a prunes half the root classes, so every
    # tie-break has to be pinned, not only x = 10's
    @pytest.mark.parametrize("k, x_max", [(2, 60), (3, 120)])
    def test_matches_flat_enumeration(self, k, x_max):
        for x in range(1, x_max + 1):
            assert admissible_max_exact(x, k).witness == lex_smallest_optimal_flat(x, k), (x, k)


class TestBeyondFixture:
    # past the A083544 prefix no independent exact value exists, so these
    # check only what must hold of any correct answer
    def test_seeded_windows_are_exact_and_bracketed(self):
        rng = random.Random(169)
        for x in sorted(rng.sample(range(169, 301), 4)) + [300]:
            result = admissible_max_exact(x)
            assert result.is_exact, x
            assert recompute_witness_value(result) == result.value, x
            lower, _ = admissible_max_lower_shift(x, shifts=range(1000))
            assert lower <= result.value <= admissible_max_upper_sieve(x), x
            assert result.value - admissible_max_exact(x - 1).value in (0, 1), x

    def test_zero_budget_at_300_keeps_a_valid_witness(self):
        rushed = admissible_max_exact(300, time_budget=0.0)
        assert rushed.status == "LOWER_BOUND"
        assert set(rushed.witness) == set(_constraining_primes(300, 2))
        assert recompute_witness_value(rushed) == rushed.value
        assert rushed.value <= admissible_max_exact(300).value


class TestIndependentSearch:
    # the plain recursive search shares no code with the package and has no
    # reflection, so it checks value and witness past the flat oracles' reach
    def test_seeded_windows_match_plain_search(self):
        rng = random.Random(400)
        cases = [(x, 2) for x in sorted(rng.sample(range(169, 401), 3))]
        cases += [(x, 3) for x in sorted(rng.sample(range(121, 301), 2))]
        for x, k in cases:
            result = admissible_max_exact(x, k)
            assert result.is_exact, (x, k)
            assert (result.value, result.witness) == admissible_max_bnb(x, k), (x, k)


class TestSweep:
    # with no budget the sweep seeds each search with A(x - 1) - 1 and stops
    # at A(x - 1) + 1, which must leave value, witness and status as the
    # unseeded search has them
    @pytest.mark.parametrize("k, x_max", [(2, 400), (3, 200)])
    def test_matches_unseeded_searches(self, k, x_max):
        swept = admissible_max_sweep(x_max, k)
        assert [result.x for result in swept] == list(range(1, x_max + 1))
        for result in swept:
            assert repr(result) == repr(admissible_max_exact(result.x, k)), (result.x, k)

    def test_empty_below_one(self):
        assert admissible_max_sweep(0) == []

    def test_budgeted_rows_are_the_unseeded_searches(self, monkeypatch):
        # a clock that ticks once a read makes the budget a node count, so a
        # budgeted sweep can be compared row by row with single searches;
        # a cap seeded from an EXACT A(x - 1) would make x = 9..11 EXACT here,
        # where a single search reports LOWER_BOUND
        _ticking_clock(monkeypatch)
        swept = admissible_max_sweep(40, 2, 5.0)
        assert swept == [admissible_max_exact(x, 2, 5.0) for x in range(1, 41)]
        assert swept[7].is_exact and swept[8].status == "LOWER_BOUND"

    def test_zero_budget_figure_rows_reproduce_their_values(self, monkeypatch):
        from kfree import cli

        swept = []
        real = cli.admissible_max_sweep
        monkeypatch.setattr(cli, "admissible_max_sweep", lambda *args: swept.extend(real(*args)) or swept)
        rows = cli.figure_shift_data(25, time_budget=0.0)
        assert [row.x for row in rows] == [result.x for result in swept] == list(range(1, 26))
        for row, result in zip(rows, swept):
            assert recompute_witness_value(result) == result.value, row.x
            assert set(result.witness) == set(_constraining_primes(row.x, 2)), row.x
            assert row.a_minus_main == result.value - sieve.density_main_term(row.x, 2), row.x
            assert row.status == result.status, row.x
            assert count_power_free_upto(row.x) <= result.value <= admissible_max_exact(row.x).value, row.x


class TestZeroBudget:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stops_after_a_valid_leaf(self, k):
        for x in range(1, 61):
            exact = admissible_max_exact(x, k)
            rushed = admissible_max_exact(x, k, time_budget=0.0)
            # the deadline comparison is strict, so a fast run may finish
            assert rushed.status == "LOWER_BOUND" or rushed == exact, (x, k)
            assert set(rushed.witness) == set(_constraining_primes(x, k)), (x, k)
            assert recompute_witness_value(rushed) == rushed.value, (x, k)
            assert count_power_free_upto(x, k) <= rushed.value <= exact.value, (x, k)


class TestClassMasks:
    @pytest.mark.parametrize("k", [2, 3])
    def test_masks_match_the_flat_classes(self, k):
        # the flat oracle sets bit a for a, the search bit a - 1
        for x in range(1, 301):
            primes, flat = _flat_class_masks(x, k)
            masks = _class_masks(x, k, _constraining_primes(x, k))
            assert list(masks) == primes, x
            for p, per_class in zip(primes, flat):
                assert [mask << 1 for mask in masks[p]] == per_class, (x, p)


class TestMaskByteCap:
    def test_cap_is_checked_before_any_mask_is_built(self, monkeypatch):
        # x = 200: primes 2..13, sum of p^2 = 377, ceil(200 / 8) * 377 = 9425
        # bytes; x = 201 needs 26 * 377 = 9802
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 9425)
        built = []
        real = admissible._class_masks
        monkeypatch.setattr(admissible, "_class_masks", lambda x, *rest: built.append(x) or real(x, *rest))
        assert admissible_max_exact(200).is_exact
        with pytest.raises(ResourceError, match="class masks"):
            admissible_max_exact(201)
        assert built == [200]


class TestForcedLoss:
    @pytest.mark.parametrize("k", [2, 3])
    def test_never_exceeds_true_minimum_loss(self, k):
        rng = random.Random(k)
        checked = 0
        while checked < 150:
            x = rng.randrange(1, 41)
            primes = _constraining_primes(x, k)
            if not primes:
                continue
            order = rng.sample(primes, len(primes))
            idx = rng.randrange(len(order))
            density = rng.random()
            alive = {a for a in range(1, x + 1) if rng.random() < density}
            survivors = sum(1 << (a - 1) for a in alive)
            bound = _forced_loss(survivors, order[idx:], _class_masks(x, k, primes))
            assert bound <= min_removed_flat(k, alive, order[idx:]), (x, order[idx:], alive)
            checked += 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_early_exit_keeps_the_flat_value(self, k):
        # the early exit may only skip classes that cannot change the value,
        # so the bound must equal the full max-of-min, not just stay below it
        rng = random.Random(100 + k)
        for trial in range(400):
            x = rng.randrange(2**k, 301)
            primes = _constraining_primes(x, k)
            masks = _class_masks(x, k, primes)
            idx = rng.randrange(len(primes))
            rest = primes[idx:] if trial % 2 else rng.sample(primes[idx:], len(primes) - idx)
            density = (0.0, 1.0, rng.random())[trial % 3]
            survivors = sum(1 << (a - 1) for a in range(1, x + 1) if rng.random() < density)
            flat = forced_loss_flat(survivors, rest, masks)
            assert _forced_loss(survivors, rest, masks) == flat, (x, rest)
            known = rng.randrange(x + 1)
            assert _forced_loss(survivors, rest, masks, known) == max(known, flat), (x, rest, known)

    @pytest.mark.parametrize("k", [2, 3])
    def test_least_hit_after_a_strike_matches_a_recount(self, k):
        rng = random.Random(200 + k)
        for trial in range(400):
            x = rng.randrange(2**k, 301)
            primes = _constraining_primes(x, k)
            masks = _class_masks(x, k, primes)
            per_class = masks[rng.choice(primes)]
            density = (1.0, rng.random())[trial % 2]
            survivors = sum(1 << (a - 1) for a in range(1, x + 1) if rng.random() < density)
            # the survivors in a class of some constraining prime, as in the
            # search, or any subset of them
            struck = survivors & (rng.choice(masks[rng.choice(primes)]) if trial % 3 else rng.getrandbits(x))
            hits = [(survivors & mask).bit_count() for mask in per_class]
            recount = min((survivors & ~struck & mask).bit_count() for mask in per_class)
            assert _least_hit_after(hits, min(hits), struck) == recount, (x, trial)


class TestLossFloor:
    @pytest.mark.parametrize("k", [2, 3])
    def test_loss_floor_is_below_the_recount_and_the_exact_bound(self, k):
        # for every class c of a prime p and r the next prime: the parent's
        # least hit for r less the pair overlap <= r's least hit once c is
        # struck <= the forced loss of the primes from r on
        rng = random.Random(300 + k)
        checked = 0
        for trial in range(120):
            x = rng.randrange(2 * 3**k, 301)
            primes = _constraining_primes(x, k)
            masks = _class_masks(x, k, primes)
            idx = rng.randrange(len(primes) - 1)
            p, r = primes[idx], primes[idx + 1]
            density = (1.0, rng.random())[trial % 2]
            survivors = sum(1 << (a - 1) for a in range(1, x + 1) if rng.random() < density)
            least = min((survivors & mask).bit_count() for mask in masks[r])
            floor_loss = least - _class_overlap(x, p**k, r**k)
            for mask in masks[p]:
                child = survivors & ~mask
                recount = min((child & r_mask).bit_count() for r_mask in masks[r])
                assert floor_loss <= recount <= forced_loss_flat(child, primes[idx + 1 :], masks), (x, p)
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("x, k", [(121, 2), (168, 2), (300, 2), (700, 2), (200, 3)])
    def test_floor_skips_bound_calls_only(self, monkeypatch, x, k):
        # a clock that ticks once a read counts the nodes after the first
        # leaf; an overlap of x + 1 makes the floor negative, so it prunes
        # nothing and every child goes to the exact bound
        real = admissible._forced_loss

        def run(overlap):
            ticks = _ticking_clock(monkeypatch)
            monkeypatch.setattr(admissible, "_class_overlap", overlap)
            calls = []
            monkeypatch.setattr(admissible, "_forced_loss", lambda *args: calls.append(1) or real(*args))
            result = admissible_max_exact(x, k, 10.0**8)
            return repr(result), next(ticks), len(calls)

        with_floor = run(_class_overlap)
        without = run(lambda x, q, s: x + 1)
        assert with_floor[:2] == without[:2]
        assert with_floor[2] < without[2]


class TestLeafRow:
    # a last-prime node scores its children in one pass over its class masks,
    # reading the clock before each child once a leaf is kept, as a call per
    # leaf did; the pins below are those of the search with one call per leaf
    @pytest.mark.parametrize(
        "x, k, reads, value",
        [(121, 2, 614, 80), (168, 2, 618, 109), (300, 2, 2640, 192), (700, 2, 7095, 441), (200, 3, 251, 169)],
    )
    def test_clock_reads_and_values(self, monkeypatch, x, k, reads, value):
        ticks = _ticking_clock(monkeypatch)
        result = admissible_max_exact(x, k, 10.0**8)
        assert (next(ticks), result.value, result.status) == (reads, value, "EXACT")

    # budget b stops the search at the first clock read above b; at x = 42
    # budgets 1..23 and at x = 121 budgets 1..40 stop inside a leaf row, and
    # at x = 42 a budget of 24 or more lets the search finish
    @pytest.mark.parametrize(
        "x, stops",
        [
            (
                42,
                [
                    (1, "value=28, witness={2: 0, 3: 0, 5: 0}, status='LOWER_BOUND'"),
                    (18, "value=29, witness={2: 0, 3: 0, 5: 18}, status='LOWER_BOUND'"),
                    (24, "value=29, witness={2: 0, 3: 0, 5: 18}, status='EXACT'"),
                ],
            ),
            (
                121,
                [
                    (1, "value=75, witness={2: 0, 3: 0, 5: 0, 7: 0, 11: 0}, status='LOWER_BOUND'"),
                    (4, "value=76, witness={2: 0, 3: 0, 5: 0, 7: 0, 11: 4}, status='LOWER_BOUND'"),
                ],
            ),
        ],
    )
    def test_deadline_inside_a_leaf_row(self, monkeypatch, x, stops):
        for budget in range(1, 41):
            _ticking_clock(monkeypatch)
            fields = [tail for first, tail in stops if first <= budget][-1]
            expected = f"AdmissibleMaxResult(x={x}, k=2, {fields})"
            assert repr(admissible_max_exact(x, 2, float(budget))) == expected, budget

    @pytest.mark.parametrize("k, reads", [(2, [1, 1, 1, 2, 3, 2, 3, 2]), (3, [1, 1, 1, 1, 1, 1, 1, 4])])
    def test_root_as_last_prime_matches_the_flat_oracles(self, monkeypatch, k, reads):
        # up to x = 8 the root is the last prime, or there is none, and its
        # row reads the clock only for the classes c <= (x + 1 - c) mod p^k
        for x in range(1, 9):
            ticks = _ticking_clock(monkeypatch)
            result = admissible_max_exact(x, k, 10.0**8)
            assert result.is_exact and next(ticks) == reads[x - 1], (x, k)
            assert result.value == admissible_max_flat(x, k), (x, k)
            assert result.witness == lex_smallest_optimal_flat(x, k), (x, k)
            for budget in range(0, 5):
                _ticking_clock(monkeypatch)
                rushed = admissible_max_exact(x, k, float(budget))
                assert recompute_witness_value(rushed) == rushed.value <= result.value, (x, k, budget)


class TestLowerShift:
    def test_zero_shift_is_plain_count(self):
        assert admissible_max_lower_shift(10, shifts=[0]) == (7, 0)

    def test_ties_go_to_the_first_candidate(self):
        # shifts 5 and 0 both keep 7 of [1, 10]; the first one listed wins
        assert admissible_max_lower_shift(10, shifts=[5, 0]) == (7, 5)
        assert admissible_max_lower_shift(10, shifts=[0, 5]) == (7, 0)

    def test_scan_finds_richer_window(self):
        count, shift = admissible_max_lower_shift(10, shifts=range(10**4 + 1))
        assert count == 8
        # independently recheck the reported shift
        survivors = [
            a
            for a in range(1, 11)
            if (shift + a) % 4 != 0 and (shift + a) % 9 != 0
        ]
        assert len(survivors) == 8

    def test_trivial_window(self):
        assert admissible_max_lower_shift(1, shifts=[0]) == (1, 0)

    def test_shifts_are_required_by_keyword(self):
        with pytest.raises(TypeError):
            admissible_max_lower_shift(10)
        with pytest.raises(TypeError):
            admissible_max_lower_shift(10, 2, [0])

    def test_never_exceeds_exact(self):
        for x in (6, 11, 17, 23, 29):
            count, _ = admissible_max_lower_shift(x, shifts=range(2000))
            assert count <= admissible_max_exact(x).value

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_trial_division(self, k):
        # unsorted, duplicated and negative shifts (y = -1 puts 0 in the
        # window) and both tie orders, at every x; the strided and random
        # sets, whose runs hold many shifts, at a spread of x
        rng = random.Random(k)
        mixed = [17, -4, 3, 17, 0, -130, 9, 3, 250, -1]
        for x in range(1, 131):
            for shifts in (mixed, [5, 0], [0, 5], [rng.randrange(-500, 5000) for _ in range(40)]):
                assert admissible_max_lower_shift(x, k, shifts=shifts) == lower_shift_flat(x, k, shifts), (x, shifts)
        for x in (1, 6, 7, 8, 13, 14, 60, 61, 97, 120, 129, 130):
            assert admissible_max_lower_shift(x, k, shifts=range(0, 4000, 7)) == lower_shift_flat(
                x, k, range(0, 4000, 7)
            ), x
            shifts = [rng.randrange(-500, 5000) for _ in range(200)]
            assert admissible_max_lower_shift(x, k, shifts=shifts) == lower_shift_flat(x, k, shifts), x

    def test_runs_stay_within_the_byte_cap(self, monkeypatch):
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 10**4)
        lengths = []

        def strike(lo, count, *args):
            lengths.append(count)
            return sieve.translate_flags(lo, count, *args)

        monkeypatch.setattr(admissible, "translate_flags", strike)
        assert admissible_max_lower_shift(10**4, shifts=range(3)) == lower_shift_flat(10**4, 2, range(3))
        assert lengths and max(lengths) <= 10**4

        def no_primes(n):
            raise AssertionError("primes requested")

        monkeypatch.setattr(admissible, "primes_upto", no_primes)
        with pytest.raises(ResourceError, match="window of length"):
            admissible_max_lower_shift(10**4 + 1, shifts=range(3))

    def test_window_byte_cap_is_checked_before_any_prime(self, monkeypatch):
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 10**4)
        count, _ = admissible_max_lower_shift(10**4, shifts=[0])
        assert count == count_power_free_upto(10**4)

        def no_primes(n):
            raise AssertionError("primes requested")

        monkeypatch.setattr(admissible, "primes_upto", no_primes)
        with pytest.raises(ResourceError, match="window of length"):
            admissible_max_lower_shift(10**4 + 1, shifts=[0])


class TestUpperSieve:
    def test_examples(self):
        assert admissible_max_upper_sieve(100) == 87
        assert admissible_max_upper_sieve(1) == 2
        assert admissible_max_upper_sieve(10) >= 8

    def test_sandwich(self, exact_upto_30):
        for x, result in exact_upto_30.items():
            lower, _ = admissible_max_lower_shift(x, shifts=range(1000))
            upper = admissible_max_upper_sieve(x)
            assert lower <= result.value <= upper, x

    def test_fifth_root_choice_already_dominates(self, exact_upto_30):
        from kfree.large_sieve import OmegaProfile, sieve_bound

        profile = OmegaProfile.constant_one(2)
        for x, result in exact_upto_30.items():
            q = max(1, round(x ** (1 / 5)))
            assert sieve_bound(x, q, profile) >= result.value, x


class TestTimeBudgetValidation:
    @pytest.mark.parametrize("budget", [float("nan"), -1.0, -1e-9, float("-inf")])
    def test_nan_or_negative_budget_raises(self, budget):
        with pytest.raises(ValueError, match="time budget"):
            admissible_max_exact(50, time_budget=budget)

    def test_budget_checked_before_any_work(self):
        # x = 1 has no constraining prime and returns before any search
        with pytest.raises(ValueError, match="time budget"):
            admissible_max_exact(1, time_budget=float("nan"))

    def test_zero_and_infinite_budgets_are_valid(self):
        assert admissible_max_exact(30, time_budget=float("inf")) == admissible_max_exact(30)
        assert admissible_max_exact(3, time_budget=0.0).is_exact
