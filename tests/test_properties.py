import ast
import pathlib
import random
import tracemalloc

import pytest

from kfree import properties, sieve
from kfree.errors import KfreeError, NotAdmissibleError, ResourceError
from kfree.properties import (
    _check_named_certificate,
    AvoidanceCertificate,
    NoWitness,
    SumViolation,
    admissibility_certificate,
    as_elements,
    check_q_prefix,
    check_squarefree_sums,
    find_translate_witness,
    named_sequence_certificate,
    named_sequence_prefix,
    named_sequence_term,
    property_p_evidence,
)
from kfree.sieve import ResidueClass

from oracles import kfree_by_factorization, smallest_power_divisor_oracle


def test_as_elements_sorts_and_removes_duplicates():
    assert as_elements([5, 3, 3, 9]) == (3, 5, 9)
    assert as_elements(iter([2, 2, 1])) == (1, 2)
    assert as_elements(()) == ()


@pytest.mark.parametrize("values", [(0, 1), (2, -3), [0], [-1]])
def test_as_elements_rejects_nonpositive(values):
    with pytest.raises(ValueError, match="elements must be >= 1"):
        as_elements(values)


class TestAdmissibility:
    def test_a1_prefix_certificate(self):
        cert = admissibility_certificate([3, 5, 9, 17, 33], k=2, prime_bound=3)
        assert isinstance(cert, AvoidanceCertificate)
        assert cert.avoided(2) == ResidueClass(0, 4)
        assert cert.avoided(3) == ResidueClass(1, 9)

    def test_fully_occupied_modulus(self):
        with pytest.raises(NotAdmissibleError) as info:
            admissibility_certificate([1, 2, 3, 4], k=2)
        assert info.value.prime == 2
        assert str(info.value) == "set occupies all residue classes modulo 2^k"

    def test_singleton(self):
        cert = admissibility_certificate([7], k=2)
        assert cert.avoided(2) == ResidueClass(0, 4)

    def test_prime_bound_too_small_rejected(self):
        with pytest.raises(ValueError):
            admissibility_certificate(list(range(1, 30)), k=2, prime_bound=2)

    def test_certificate_soundness(self):
        rng = random.Random(5)
        for _ in range(100):
            elements = sorted(rng.sample(range(1, 500), rng.randrange(1, 20)))
            blocked = [p for p in (2, 3, 5, 7) if len({a % (p * p) for a in elements}) == p * p]
            if blocked:
                with pytest.raises(NotAdmissibleError) as info:
                    admissibility_certificate(elements, k=2, prime_bound=7)
                assert info.value.prime == blocked[0]
                continue
            cert = admissibility_certificate(elements, k=2, prime_bound=7)
            for p, cls in cert.explicit.items():
                assert all(a % cls.modulus != cls.residue for a in elements), (p, elements)

    def test_completeness_small_sets(self):
        # NotAdmissibleError(p) exactly when some p with p^k <= |A| is fully occupied
        rng = random.Random(11)
        for _ in range(300):
            size = rng.randrange(1, 31)
            elements = sorted(rng.sample(range(1, 80), size))
            blocked = [
                p
                for p in (2, 3, 5)
                if p * p <= size and len({a % (p * p) for a in elements}) == p * p
            ]
            if blocked:
                with pytest.raises(NotAdmissibleError) as info:
                    admissibility_certificate(elements, k=2)
                assert info.value.prime == blocked[0]
            else:
                assert isinstance(admissibility_certificate(elements, k=2), AvoidanceCertificate)

    def test_downward_monotone(self):
        base = [3, 5, 9, 17, 33, 65, 129, 257, 513, 1025]
        assert isinstance(admissibility_certificate(base), AvoidanceCertificate)
        rng = random.Random(17)
        for _ in range(200):
            subset = sorted(rng.sample(base, rng.randrange(1, len(base) + 1)))
            assert isinstance(admissibility_certificate(subset), AvoidanceCertificate)

    @pytest.mark.parametrize("k", [2, 3])
    def test_least_free_class_matches_set_difference(self, k):
        rng = random.Random(29 + k)
        for _ in range(100):
            elements = sorted(rng.sample(range(1, 400), rng.randrange(1, 40)))
            blocked = [p for p in (2, 3, 5, 7, 11, 13) if len({a % p**k for a in elements}) == p**k]
            if blocked:
                with pytest.raises(NotAdmissibleError) as info:
                    admissibility_certificate(elements, k, prime_bound=13)
                assert info.value.prime == blocked[0]
                continue
            cert = admissibility_certificate(elements, k, prime_bound=13)
            for p, cls in cert.explicit.items():
                q = p**k
                assert cls == ResidueClass(min(set(range(q)) - {a % q for a in elements}), q)

    def test_no_class_list_is_built(self):
        # listing every class modulo p^2 for p <= 300 peaks near 10 MB
        tracemalloc.start()
        try:
            cert = admissibility_certificate([1, 2, 3], prime_bound=300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.avoided(293) == ResidueClass(0, 293**2)
        assert peak < 1_000_000


class TestNamedSequences:
    def test_terms(self):
        assert named_sequence_term("A1", 5) == 33
        assert named_sequence_term("A3", 4) == 25
        assert named_sequence_term("A4", 2) == 1

    def test_prefixes(self):
        assert named_sequence_prefix("A1", 5) == (3, 5, 9, 17, 33)
        assert named_sequence_prefix("A2", 5) == (1, 3, 7, 15, 31)
        assert named_sequence_prefix("A3", 5) == (2, 3, 7, 25, 121)
        assert named_sequence_prefix("A4", 5) == (1, 5, 23, 119, 719)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            named_sequence_term("A4", 1)
        with pytest.raises(ValueError):
            named_sequence_term("A1", 0)
        with pytest.raises(ValueError):
            named_sequence_term("A9", 1)

    @pytest.mark.parametrize("tag", ["A3", "A4"])
    def test_factorial_certificates_match_set_difference(self, tag):
        for p in (2, 3, 5, 7, 11, 13, 97):
            q = p * p
            sign = 1 if tag == "A3" else -1
            occupied = {sign % q, -sign % q}
            occupied |= {named_sequence_term(tag, j) % q for j in range(2 if tag == "A4" else 1, 2 * p)}
            assert named_sequence_certificate(tag, p) == ResidueClass(min(set(range(q)) - occupied), q)

    def test_certificates_match_closed_forms(self):
        assert named_sequence_certificate("A2", 2) == ResidueClass(2, 4)
        assert named_sequence_certificate("A2", 3) == ResidueClass(8, 9)
        assert named_sequence_certificate("A3", 3) == ResidueClass(0, 9)
        assert named_sequence_certificate("A1", 2) == ResidueClass(0, 4)
        assert named_sequence_certificate("A1", 3) == ResidueClass(1, 9)
        assert named_sequence_certificate("A1", 5) == ResidueClass(1, 25)
        assert named_sequence_certificate("A4", 2) == ResidueClass(0, 4)

    @pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4"])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_certificates_avoid_long_prefixes(self, tag, p):
        cls = named_sequence_certificate(tag, p)
        for term in named_sequence_prefix(tag, 60):
            assert term % cls.modulus != cls.residue

    def test_not_prime_rejected(self):
        for p in (6, 1, 0, -3, 4, 9, 91):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                named_sequence_certificate("A1", p)

    def test_prime_past_byte_cap_raises_resource_error(self, monkeypatch):
        monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 1000)
        with pytest.raises(ResourceError):
            named_sequence_certificate("A3", 1009)

    def test_hit_certificate_raises_kfree_error(self):
        # A1's first term 2^1 + 1 = 3 lies in the class 3 mod 9
        with pytest.raises(KfreeError, match="hit by A1 term j=1"):
            _check_named_certificate("A1", 3, ResidueClass(3, 9))


class TestTranslateWitness:
    def test_examples(self):
        assert find_translate_witness([1, 3], 1, 100).witness == 2
        assert find_translate_witness([3, 5], 1, 100).witness == 2
        assert find_translate_witness([1, 2, 3, 4], 1, 10**4) == NoWitness(10**4)

    def test_witness_is_smallest(self):
        report = find_translate_witness([3, 5], 1, 100)
        # n = 1 fails because 1 + 3 = 4
        assert report.witness == 2

    def test_full_reports_reverify(self):
        rng = random.Random(23)
        for _ in range(50):
            elements = sorted(rng.sample(range(1, 60), rng.randrange(1, 6)))
            report = find_translate_witness(elements, 1, 500)
            if isinstance(report, NoWitness):
                continue
            assert report.certification.is_full
            for entry in report.trace:
                assert entry.shifted == report.witness + entry.element
                assert entry.divisor is None
                assert kfree_by_factorization(entry.shifted, 2)

    def test_empty_set_is_vacuous(self):
        report = find_translate_witness([], 5, 10)
        assert report.witness == 5 and report.trace == ()

    def test_empty_interval(self):
        assert find_translate_witness([1], 7, 6) == NoWitness(0)

    def test_scan_byte_cap_is_checked_before_any_prime(self, monkeypatch):
        monkeypatch.setattr(sieve, "PRIME_TABLE_BYTE_CAP", 1000)
        assert find_translate_witness([1, 2], 1, 1000).witness == 1

        def no_primes(n):
            raise AssertionError("primes requested")

        monkeypatch.setattr(properties, "primes_upto", no_primes)
        with pytest.raises(ResourceError, match=r"scan range \[1, 1001\]"):
            find_translate_witness([1, 2], 1, 1001)

    def test_astronomical_elements_need_explicit_cutoff(self):
        huge = named_sequence_term("A3", 25)
        with pytest.raises(ResourceError):
            find_translate_witness([huge], 1, 10)  # full certification infeasible


class TestQPrefix:
    def test_a1_witnesses(self):
        assert check_q_prefix("A1", 3).witness == 8
        assert check_q_prefix("A1", 2).witness == 4
        assert check_q_prefix("A2", 3).witness == 4

    def test_witness_lies_in_open_gap(self):
        for j in range(2, 10):
            report = check_q_prefix("A1", j)
            assert report, f"no witness at j={j}"
            prefix = named_sequence_prefix("A1", j)
            assert prefix[j - 2] < report.witness < prefix[j - 1]
            for entry in report.trace:
                assert kfree_by_factorization(entry.shifted, 2)

    def test_half_interval_strategy(self):
        report = check_q_prefix("A1", 5, strategy="HALF_INTERVAL")
        a5 = named_sequence_term("A1", 5)
        assert (a5 + 1) // 2 <= report.witness <= a5

    def test_crt_is_not_a_strategy(self):
        # the primorial-structured search is reached as suff_witness_search
        with pytest.raises(ValueError, match="unknown strategy"):
            check_q_prefix("A1", 5, strategy="CRT")

    def test_strategy_is_checked_before_the_certificate(self, monkeypatch):
        # [1, ..., 5] fills every class mod 4, so a certificate would refuse it
        with pytest.raises(ValueError, match="unknown strategy"):
            check_q_prefix([1, 2, 3, 4, 5, 6], 6, strategy="BOGUS")

        def no_certificate(*args, **kwargs):
            raise AssertionError("certificate built")

        monkeypatch.setattr(properties, "admissibility_certificate", no_certificate)
        for seq in ("A1", [1, 5, 21, 37]):
            with pytest.raises(ValueError, match="unknown strategy"):
                check_q_prefix(seq, 3, strategy="BOGUS")

    def test_non_admissible_prefix_is_diagnosed(self):
        with pytest.raises(NotAdmissibleError) as info:
            check_q_prefix([1, 2, 3, 4, 9], 5)
        assert info.value.prime == 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            check_q_prefix("A1", 1)
        with pytest.raises(ValueError):
            check_q_prefix([3, 5], 3)
        with pytest.raises(ValueError):
            check_q_prefix("A1", 3, strategy="MAGIC")


class TestSquarefreeSums:
    def test_examples(self):
        assert check_squarefree_sums([3, 5]) == SumViolation(3, 5, 2)
        assert check_squarefree_sums([1, 2]) == SumViolation(2, 2, 2)
        assert check_squarefree_sums([1, 5, 21]) is None

    def test_diagonal_flag(self):
        assert check_squarefree_sums([2]) == SumViolation(2, 2, 2)

    def test_named_prefixes_all_fail(self):
        for tag in ("A1", "A2", "A3", "A4"):
            violation = check_squarefree_sums(named_sequence_prefix(tag, 5))
            assert violation is not None and violation.prime == 2

    def test_agreement_with_oracle(self):
        rng = random.Random(31)
        for _ in range(500):
            elements = sorted(rng.sample(range(1, 10_000), rng.randrange(1, 9)))
            got = check_squarefree_sums(elements)
            expected = None
            for i, a in enumerate(elements):
                if expected:
                    break
                for a2 in elements[i:]:
                    p = smallest_power_divisor_oracle(a + a2, 2)
                    if p is not None:
                        expected = SumViolation(a, a2, p)
                        break
            assert got == expected

    def test_downward_monotone(self):
        base = [1, 5, 21, 37, 41]
        assert check_squarefree_sums(base) is None
        rng = random.Random(37)
        for _ in range(200):
            subset = sorted(rng.sample(base, rng.randrange(1, 6)))
            assert check_squarefree_sums(subset) is None


def test_property_p_evidence():
    assert property_p_evidence([1], 3) == {1: 1, 2: 1, 3: 0}
    assert property_p_evidence([], 4) == {1: 0, 2: 0, 3: 0, 4: 0}
    assert property_p_evidence([1], 0) == {}


def test_properties_imports_nothing_from_constructions():
    # constructions builds on properties, never the reverse
    tree = ast.parse(pathlib.Path(properties.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "constructions" for name in names), ast.dump(node)
