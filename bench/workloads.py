"""Seeded job lists of the three benchmark workloads, and the check of every
job's output.

A workload is a sequence of rounds.  Round r of seed s draws its inputs from
``Random(f"{workload}/{s}/{r}")``, so a seed always gives the same jobs, and
every round of a workload costs about the same because each input is drawn
from a fixed stratum.  Jobs reach kfree only through module attributes looked
up at call time, so the traced run's rebinding sees every call.

Each workload also has a tiny round with the same job kinds at small sizes.
Every pass runs the tiny rounds of all workloads once, with a fixed seed,
before its first round (the layer probe), so each per-layer metric is
measured on every workload; the self-test runs the tiny rounds alone.
"""

import hashlib
import importlib
import json
from dataclasses import dataclass
from functools import lru_cache
from io import StringIO
from math import ceil, exp, factorial, fsum, log
from random import Random
from typing import Callable

import oracles

LAYERS = ("sieve", "admissible", "large_sieve", "properties", "constructions", "oeis", "cli")
MODULES = {name: importlib.import_module(f"kfree.{name}") for name in LAYERS}

WORKLOADS = ("window-max", "count-sweep", "construct-mix")

# Far above the few seconds an exact search in the 121..168 band takes, so a
# budgeted job still ends EXACT while the per-node deadline check runs.
EXACT_BUDGET = 600.0


@dataclass
class Job:
    key: str  # canonical description of the call; reference digests are keyed by it
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None, or why the output is wrong


def lib(path: str):
    """The kfree function at ``module.name``, as currently bound."""
    module, name = path.split(".")
    return getattr(MODULES[module], name)


def digest(value) -> str:
    """Hash of a job output's canonical form."""
    h = hashlib.sha256()
    sieve = MODULES["sieve"]
    if isinstance(value, sieve.KFreeWindow):
        h.update(f"KFreeWindow({value.start}, {value.length}, {value.k})".encode())
        h.update(value.flags)
    elif isinstance(value, sieve.PrimeTable):
        h.update(f"PrimeTable({value.limit})".encode())
        for i in range(0, len(value.primes), 1 << 14):
            h.update(",".join(map(str, value.primes[i : i + (1 << 14)])).encode())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


def _fail(condition: bool, reason: str) -> str | None:
    return None if condition else reason


# --- window-max --------------------------------------------------------------


def exact_job(x: int, budget: float | None) -> Job:
    def call():
        return lib("admissible.admissible_max_exact")(x, time_budget=budget)

    def check(result):
        if result.x != x or result.status != "EXACT":
            return f"status {result.status} at x={result.x}"
        if MODULES["admissible"].recompute_witness_value(result) != result.value:
            return "witness does not reproduce the value"
        lower = oracles.kfree_count(x)  # the unshifted window is one admissible pattern
        upper = lib("admissible.admissible_max_upper_sieve")(x)
        return _fail(lower <= result.value <= upper, f"{result.value} outside [{lower}, {upper}]")

    return Job(f"admissible.admissible_max_exact({x}, time_budget={budget})", call, check)


def _shift_survivors(x: int, y: int) -> int:
    """a in [1, x] with y + a divisible by no p^2 <= x."""
    squares = [p * p for p in oracles.small_primes() if p * p <= x]
    return sum(1 for a in range(1, x + 1) if all((y + a) % q for q in squares))


def bracket_job(x: int, fixture_range: tuple[int, int] | None) -> Job:
    def call():
        lower, shift = lib("admissible.admissible_max_lower_shift")(x, shifts=range(2000))
        upper = lib("admissible.admissible_max_upper_sieve")(x)
        oeis = MODULES["oeis"]
        report = lib("oeis.crosscheck")(
            oeis.load_bfile("A083544"), oeis.load_manifest()["A083544"], fixture_range
        )
        return lower, shift, upper, report

    def check(out):
        lower, shift, upper, report = out
        if not report.ok:
            return report.summary()
        if _shift_survivors(x, shift) != lower:
            return f"shift {shift} does not keep {lower} survivors"
        exact = lib("admissible.admissible_max_exact")(x).value
        return _fail(lower <= exact <= upper, f"A({x}) = {exact} outside [{lower}, {upper}]")

    return Job(f"brackets({x}, A083544 {fixture_range})", call, check)


def window_max_round(rng: Random, seed: int, r: int, tiny: bool) -> list[Job]:
    # 11^2 = 121 constrains the search from x = 121; from 169 on, 13^2 does and
    # the search no longer finishes in minutes.
    bands = ((25, 36), (37, 48)) if tiny else ((121, 144), (145, 168))
    budgeted = (seed + r) % 2
    jobs = [
        exact_job(rng.randint(*band), EXACT_BUDGET if i == budgeted else None)
        for i, band in enumerate(bands)
    ]
    jobs.append(bracket_job(rng.randint(*((20, 30) if tiny else (61, 120))), (1, 20) if tiny else None))
    return jobs


# --- count-sweep -------------------------------------------------------------


def count_job(x: int, k: int) -> Job:
    def call():
        return lib("sieve.count_power_free_upto")(x, k)

    def check(count):
        expected = oracles.kfree_count(x, k)
        return _fail(count == expected, f"count {count}, Moebius sum {expected}")

    return Job(f"sieve.count_power_free_upto({x}, {k})", call, check)


def window_job(start: int, length: int) -> Job:
    def call():
        return lib("sieve.kfree_window")(start, length)

    def check(window):
        if (window.start, window.length, window.k) != (start, length, 2):
            return "window header does not match the request"
        return _fail(window.flags == oracles.kfree_flags(start, length), "flags differ from the oracle sieve")

    return Job(f"sieve.kfree_window({start}, {length})", call, check)


def table_job(limit: int) -> Job:
    def call():
        return lib("sieve.build_prime_table")(limit)

    def check(table):
        flags = oracles.prime_flags(limit)
        if table.limit != limit or len(table.primes) != sum(flags):
            return f"{len(table.primes)} primes up to {table.limit}, oracle has {sum(flags)}"
        return _fail(all(flags[p] for p in table.primes), "table lists a composite")

    return Job(f"sieve.build_prime_table({limit})", call, check)


def sequence_crosscheck_job(ids: tuple[str, ...], index_range: tuple[int, int] | None) -> Job:
    def call():
        oeis = MODULES["oeis"]
        rules = oeis.load_manifest()
        return tuple(lib("oeis.crosscheck")(oeis.load_bfile(i), rules[i], index_range) for i in ids)

    def check(reports):
        bad = [r.summary() for r in reports if not r.ok]
        return "; ".join(bad) or None

    return Job(f"oeis.crosscheck({', '.join(ids)}, {index_range})", call, check)


def count_sweep_round(rng: Random, seed: int, r: int, tiny: bool) -> list[Job]:
    scale = 10**3 if tiny else 1
    # k = 3 counts run near 1.35 * 10^8, where they cost about as much as a
    # k = 2 count near 10^8
    x2, x3, jitter = 10**8 // scale, 135 * 10**6 // scale, 10**6 // scale
    length = 10**6 // scale
    # window offsets from three narrow strata, so the prime tables behind them
    # reach about 10^6, 3 * 10^6 and 10^7 in every round
    strata = (
        ((10**6, 10**5), (10**7, 10**6), (9 * 10**7, 10**7))
        if tiny
        else ((10**12, 10**11), (10**13, 10**12), (9 * 10**13, 10**13))
    )
    # Eight counts of about equal cost, the costliest jobs, and five cheaper
    # jobs: for any number of rounds, the median job and the tail (the 11th
    # slowest job of a run, or the slowest below 20 jobs) are counts.
    jobs = [count_job(x2 - rng.randrange(jitter), 2) for _ in range(5)]
    jobs += [count_job(x3 - rng.randrange(jitter), 3) for _ in range(3)]
    jobs += [window_job(base + rng.randrange(span), length) for base, span in strata]
    jobs.append(table_job(10**4 if tiny else 10**7))
    jobs.append(sequence_crosscheck_job(("A005117", "A013928"), (1, 30) if tiny else None))
    return jobs


# --- construct-mix -----------------------------------------------------------


def sample_job(c: float, x_max: int, seed: int) -> Job:
    def call():
        return lib("constructions.sample_counterexample")(c, x_max, seed)

    def check(sample):
        free = oracles.kfree_flags(1, x_max)
        if not sample or list(sample) != sorted(set(sample)):
            return "sample is empty or not strictly increasing"
        return _fail(
            sample[0] >= 3 and sample[-1] <= x_max and all(free[n - 1] for n in sample),
            "sample holds an element that is out of range or not k-free",
        )

    return Job(f"constructions.sample_counterexample({c}, {x_max}, {seed})", call, check)


@lru_cache(maxsize=None)
def _greedy(count: int) -> tuple[int, ...]:
    return oracles.greedy_sum_terms(count)


def greedy_job(count: int) -> Job:
    def call():
        return lib("constructions.greedy_squarefree_sums")(count)

    def check(result):
        if result.terms != _greedy(count):
            return "greedy terms differ from the oracle"
        return _fail(
            all((s.candidate + s.partner) % s.prime**2 == 0 for s in result.skipped),
            "a logged skip has no violating prime square",
        )

    return Job(f"constructions.greedy_squarefree_sums({count})", call, check)


def sums_job(values: tuple[int, ...]) -> Job:
    def call():
        return lib("properties.check_squarefree_sums")(values)

    def check(violation):
        expected = oracles.first_sum_violation(values)
        got = None if violation is None else (violation.a, violation.a_prime, violation.prime)
        return _fail(got == expected, f"violation {got}, oracle {expected}")

    return Job(f"properties.check_squarefree_sums({values})", call, check)


def evidence_job(values: tuple[int, ...], n_max: int) -> Job:
    def call():
        return lib("properties.property_p_evidence")(values, n_max)

    def check(counts):
        expected = {n: sum(oracles.is_kfree(n + a) for a in values) for n in range(1, n_max + 1)}
        return _fail(counts == expected, "evidence counts differ from trial division")

    return Job(f"properties.property_p_evidence({values}, {n_max})", call, check)


def named_terms(tag: str, count: int) -> tuple[int, ...]:
    """A1: 2^j+1, A2: 2^j-1, A3: j!+1 (from j = 1), A4: j!-1 (from j = 2)."""
    first = 2 if tag == "A4" else 1
    term = {
        "A1": lambda j: 2**j + 1,
        "A2": lambda j: 2**j - 1,
        "A3": lambda j: factorial(j) + 1,
        "A4": lambda j: factorial(j) - 1,
    }[tag]
    return tuple(term(j) for j in range(first, first + count))


def qprefix_job(tag: str, j: int, strategy: str) -> Job:
    def call():
        return lib("properties.check_q_prefix")(tag, j, strategy=strategy)

    def check(report):
        terms = named_terms(tag, j)
        lo, hi = (terms[-2] + 1, terms[-1] - 1) if strategy == "PLAIN_SCAN" else ((terms[-1] + 1) // 2, terms[-1])
        expected = oracles.first_translate_witness(terms[:-1], lo, hi)
        if expected is None:
            return _fail(not report, f"witness {report} where the oracle finds none")
        if not report or report.witness != expected:
            return f"witness {getattr(report, 'witness', None)}, oracle {expected}"
        return _fail(report.certification.is_full, "witness is not FULL-certified")

    return Job(f"properties.check_q_prefix({tag!r}, {j}, strategy={strategy!r})", call, check)


def suff_job(j: int, theta: float, seed: int) -> Job:
    values = named_terms("A1", j)

    def call():
        return lib("constructions.suff_witness_search")(values, values[-1], theta=theta, seed=seed)

    def check(report):
        if not report:
            return "no witness"
        n = report.witness
        if not (values[-1] + 1) // 2 <= n <= values[-1]:
            return f"witness {n} outside the half interval"
        if not report.certification.is_full:
            return "witness is not FULL-certified"
        return _fail(all(oracles.is_kfree(n + a) for a in values), f"some {n} + a is not k-free")

    return Job(f"constructions.suff_witness_search(A1[:{j}], theta={theta}, seed={seed})", call, check)


def dense_job(n1: int, x: int, seed: int) -> Job:
    def call():
        constructions = MODULES["constructions"]
        return lib("constructions.dense_q_step")(constructions.DenseQState.start(n1), 0.5, x, seed=seed)

    def check(state):
        if len(state.anchors) != 2 or state.anchors[0] != n1:
            return f"anchors {state.anchors}"
        anchor = state.anchors[1]
        modulus = 1
        for p in oracles.small_primes():
            if p > n1 * n1:
                break
            modulus *= p * p
        if anchor % modulus or not max((x + 1) // 2, 2 * n1) <= anchor <= x:
            return f"anchor {anchor} is not a multiple of {modulus} in range"
        kept = [a for a in range(1, n1 + 1) if oracles.is_kfree(a)]
        return _fail(all(oracles.is_kfree(anchor + a) for a in kept), "anchor breaks a k-free translate")

    return Job(f"constructions.dense_q_step(start({n1}), 0.5, {x}, seed={seed})", call, check)


def _es_omega(p: int) -> int:
    return 3 if p == 2 else (p * p + 1) // 2


PROFILES = {"constant_one": lambda p: 1, "es_sumfree": _es_omega}


def _profile(name: str):
    large_sieve = MODULES["large_sieve"]
    return large_sieve.OmegaProfile.constant_one(2) if name == "constant_one" else large_sieve.OmegaProfile.es_sumfree()


def h_sum_job(q_max: int, profile: str) -> Job:
    def call():
        return lib("large_sieve.h_sum")(q_max, _profile(profile))

    def check(total):
        expected = fsum(map(float, oracles.h_weights(q_max, PROFILES[profile])))
        return _fail(abs(float(total) - expected) <= 1e-12 * expected, f"h_sum {float(total)}, oracle {expected}")

    return Job(f"large_sieve.h_sum({q_max}, {profile})", call, check)


def optimize_q_job(n: int, q_max: int) -> Job:
    def call():
        return lib("large_sieve.optimize_q")(n, _profile("es_sumfree"), range(1, q_max + 1))

    def check(result):
        q_star, bound = result
        partial, bounds = 0, []
        for q, weight in enumerate(oracles.h_weights(q_max, _es_omega), start=1):
            partial += weight
            bounds.append((n + q**4) / partial)
        best = min(bounds)
        return _fail(bound == best and q_star == bounds.index(best) + 1, f"Q*={q_star}, oracle {bounds.index(best) + 1}")

    return Job(f"large_sieve.optimize_q({n}, es_sumfree, 1..{q_max})", call, check)


def overp_point_job(p_threshold: int) -> Job:
    def call():
        return lib("constructions.overp_base_point")(p_threshold)

    def check(n):
        small = [p for p in oracles.small_primes() if p <= p_threshold]
        modulus = 1
        for p in small:
            modulus *= p * p
        if n <= 0 or n % modulus:
            return f"{n} is not a positive multiple of {modulus}"
        for q in oracles.small_primes():
            if q <= p_threshold:
                continue
            reach = int(q / log(log(q)) ** 2)
            if q * q > n + reach:
                return None
            if 1 <= -n % (q * q) <= reach:
                return f"{q}^2 divides n + {-n % (q * q)}"
        return None

    return Job(f"constructions.overp_base_point({p_threshold})", call, check)


def cli_job(argv: tuple[str, ...], check_output: Callable[[str], str | None]) -> Job:
    def call():
        out = StringIO()
        code = lib("cli.main")(list(argv), out=out)
        return code, out.getvalue()

    def check(result):
        code, text = result
        return f"exit code {code}" if code else check_output(text)

    return Job("cli.main " + " ".join(argv), call, check)


def appendix_cli_job(trials: int, seed: int) -> Job:
    expected = f"{trials}/{trials} randomized instances hold\n"
    return cli_job(
        ("verify-appendix", "--trials", str(trials), "--seed", str(seed)),
        lambda text: _fail(text == expected, text.strip()),
    )


def overp_cli_job(depth: int) -> Job:
    def check(text):
        payload = json.loads(text)
        thresholds = [ceil(3 * exp(exp(j))) for j in range(1, depth + 1)]
        if payload["thresholds"] != thresholds or len(payload["anchor_bits"]) != depth:
            return f"thresholds {payload['thresholds']}, expected {thresholds}"
        induced = payload["induced"]
        return _fail(all(1 <= a <= 100 and oracles.is_kfree(a) for a in induced), "induced set leaves [1, 100] or the k-free numbers")

    return cli_job(("construct", "overp", "--depth", str(depth)), check)


def crosscheck_cli_job(sequence_id: str) -> Job:
    return cli_job(
        ("crosscheck", "--id", sequence_id),
        lambda text: _fail(text.startswith(f"{sequence_id} [NAMED_TERM]") and text.endswith(", OK\n"), text.strip()),
    )


def sequence_p_cli_job(count: int) -> Job:
    def check(text):
        terms = [int(line) for line in text.split()]
        return _fail(len(terms) == count and terms == sorted(set(terms)), "terms are not a strictly increasing list of the requested length")

    return cli_job(("construct", "P", "--growth", "jlogj", "--count", str(count)), check)


def construct_mix_round(rng: Random, seed: int, r: int, tiny: bool) -> list[Job]:
    def pick(full, small):
        return rng.randint(*(small if tiny else full))

    # Each input is drawn from a narrow range, so a job's cost hardly depends
    # on the seed.  Thirteen of the 21 jobs cost 0.1-5 ms and eight cost far
    # more, so the median job falls inside the cheap group, among the q-prefix
    # checks, the CLI crosscheck and the sum check.  On the 2-core development
    # host those kept their ratio to the reference loop within about 6% from
    # run to run; the sampler and the larger CLI jobs varied by 14-18%.
    evidence_values = tuple(sorted(rng.sample(range(1, 5001), 10 if tiny else 40)))
    named = ("A000051", "A000225", "A038507", "A033312")
    x_max = 2000 if tiny else 10**5
    power_j = 7 if tiny else 18  # A1 and A2 scan 2^(j-1) candidates either way
    return [
        sample_job(5.0, x_max, rng.randrange(1 << 32)),
        sample_job(5.0, x_max, rng.randrange(1 << 32)),
        greedy_job(pick((31, 32), (5, 10))),
        sums_job(_greedy(pick((28, 30), (4, 8)))),
        evidence_job(evidence_values, pick((400, 440), (20, 40))),
        qprefix_job("A1", power_j, "PLAIN_SCAN"),
        qprefix_job("A1", power_j, "HALF_INTERVAL"),
        qprefix_job("A2", power_j, "PLAIN_SCAN"),
        qprefix_job("A2", power_j, "HALF_INTERVAL"),
        qprefix_job("A3", 5 if tiny else 9, "PLAIN_SCAN"),
        qprefix_job("A4", 5 if tiny else 8, "PLAIN_SCAN"),
        suff_job(9 if tiny else 13, 0.2, rng.randrange(1 << 16)),
        dense_job(2, pick((150_000, 160_000), (150_000, 160_000)), rng.randrange(1 << 16)),
        h_sum_job(pick((300, 320), (50, 100)), "constant_one"),
        h_sum_job(pick((300, 320), (50, 100)), "es_sumfree"),
        optimize_q_job(pick((10**5, 10**7), (10**3, 10**4)), pick((200, 220), (5, 20))),
        overp_point_job(rng.choice((3, 5, 7, 11, 13))),
        appendix_cli_job(pick((40, 44), (3, 6)), rng.randrange(1 << 16)),
        overp_cli_job(1 if tiny else 2),
        crosscheck_cli_job(named[(seed + r) % len(named)]),
        sequence_p_cli_job(pick((1000, 1100), (20, 50))),
    ]


ROUNDS = {
    "window-max": window_max_round,
    "count-sweep": count_sweep_round,
    "construct-mix": construct_mix_round,
}


def round_jobs(workload: str, seed: int, r: int, tiny: bool = False) -> list[Job]:
    """The jobs of round r of a workload; the same arguments give the same jobs."""
    return ROUNDS[workload](Random(f"{workload}/{seed}/{r}"), seed, r, tiny)


def probe_jobs() -> list[Job]:
    """The tiny round of every workload, with fixed inputs."""
    return [job for workload in WORKLOADS for job in round_jobs(workload, 0, 0, tiny=True)]
