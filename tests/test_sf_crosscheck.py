"""The squarefree crosschecks (A005117, A013928) against per-index oracles.

A crosscheck reads every in-range value of an SF_NTH or SF_COUNT rule from
one sieved window.  Each report here is compared with a per-index loop over
``tests/oracles``, and the shipped fixtures are pinned against the same flat
methods, since ``tools/gen_fixtures.py`` writes them with the package's own
sieve.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from functools import cache
from itertools import accumulate, compress, count
from random import Random

import pytest

from kfree import oeis
from kfree.errors import ResourceError
from kfree.oeis import (
    SF_COUNT,
    SF_NTH,
    BFile,
    CrosscheckReport,
    ManifestRule,
    computed_value,
    crosscheck,
    emit_bfile,
    load_bfile,
    load_manifest,
)

from oracles import kfree_window_flat, mobius_count_flat, nth_squarefree_bisect
from test_oeis_cli import run_cli

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
GEN_FIXTURES = os.path.join(TOOLS, "gen_fixtures.py")
SF_IDS = {SF_NTH: "A005117", SF_COUNT: "A013928"}


@cache
def oracle_value(quantity, n):
    return nth_squarefree_bisect(n) if quantity == SF_NTH else mobius_count_flat(n - 1)


def per_index_report(bfile, rule, index_range=None):
    """``crosscheck``'s report, one oracle call per checked index."""
    lo, hi = index_range or (rule.index_start, bfile.last_index)
    checked, mismatches, skipped = [], [], []
    for index in sorted(bfile.entries):
        if index < rule.index_start:
            skipped.append(index)
            continue
        if not lo <= index <= hi:
            continue
        checked.append(index)
        actual = oracle_value(rule.quantity, index)
        if actual != bfile.entries[index]:
            mismatches.append((index, bfile.entries[index], actual))
    return CrosscheckReport(bfile.sequence_id, rule.quantity, tuple(checked), tuple(mismatches), tuple(skipped))


@pytest.mark.parametrize("quantity", [SF_NTH, SF_COUNT])
def test_contiguous_bfile_sieves_one_window(quantity, tmp_path, monkeypatch):
    flags = kfree_window_flat(1, 40_000)
    if quantity == SF_NTH:
        values = list(compress(count(1), flags))[:20_000]
    else:
        values = list(accumulate(flags[:19_999], initial=0))
    sequence_id = SF_IDS[quantity]
    path = tmp_path / f"b{sequence_id[1:]}.txt"
    path.write_text(emit_bfile(BFile(sequence_id, dict(enumerate(values, start=1)))))

    windows = []

    def counted_window(*args):
        windows.append(args)
        return real_window(*args)

    def no_count(*args):
        pytest.fail("a squarefree crosscheck counted an index on its own")

    real_window = oeis.kfree_window
    monkeypatch.setattr(oeis, "kfree_window", counted_window)
    monkeypatch.setattr(oeis, "count_power_free_upto", no_count, raising=False)
    monkeypatch.setattr("kfree.sieve.count_power_free_upto", no_count)
    report = crosscheck(load_bfile(sequence_id, str(path)), load_manifest()[sequence_id])
    assert report.ok and report.checked == tuple(range(1, 20_001))
    assert windows == [(1, 40_000) if quantity == SF_NTH else (1, 19_999)]


def test_sparse_indices_match_the_per_index_oracles():
    rng = Random(27)
    mismatched = skipped = 0
    for trial in range(100):
        quantity = rng.choice((SF_NTH, SF_COUNT))
        sequence_id = SF_IDS[quantity]
        rule = ManifestRule(sequence_id, quantity, "-", rng.randrange(1, 4), "")
        # a few indices at or below the rule's first, the rest sparse
        low = rng.sample(range(-2, 5), rng.randrange(0, 4))
        indices = sorted(low + rng.sample(range(5, 3000), rng.randrange(1, 25)))
        entries = {}
        for index in indices:
            value = oracle_value(quantity, index) if index >= 1 else 0
            if rng.random() < 0.2:
                value += rng.choice((-3, -1, 1, 2))
            entries[index] = value
        bfile = BFile(sequence_id, entries)
        index_range = None
        if trial % 2:
            index_range = tuple(sorted(rng.sample(range(-5, 3005), 2)))
            if trial % 4 == 3:
                index_range = index_range[::-1]
        expected = per_index_report(bfile, rule, index_range)
        assert crosscheck(bfile, rule, index_range) == expected, (trial, index_range)
        mismatched += len(expected.mismatches)
        skipped += len(expected.skipped)
    assert mismatched and skipped


def test_computed_value_matches_the_oracles():
    rules = load_manifest()
    rng = Random(11)
    for n in [1, 2, 3, 4, 5] + rng.sample(range(6, 5000), 20):
        for quantity, sequence_id in SF_IDS.items():
            assert computed_value(rules[sequence_id], n) == oracle_value(quantity, n), (sequence_id, n)
    with pytest.raises(ValueError):
        computed_value(rules["A013928"], 0)


@pytest.mark.parametrize("sequence_id", SF_IDS.values())
def test_window_over_byte_cap_raises_before_any_prime(sequence_id, tmp_path, monkeypatch, capsys):
    # A005117 at index 6000 and A013928 at index 12001 need a window of length 12000
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)

    def no_primes(n):
        pytest.fail("primes requested for a window past the byte cap")

    monkeypatch.setattr("kfree.sieve.primes_upto", no_primes)
    last = 6000 if sequence_id == "A005117" else 12_001
    bfile = BFile(sequence_id, {1: 1 if sequence_id == "A005117" else 0, last: 9999})
    with pytest.raises(ResourceError):
        crosscheck(bfile, load_manifest()[sequence_id])
    path = tmp_path / "bfile.txt"
    path.write_text(emit_bfile(bfile))
    code, text = run_cli(["crosscheck", "--id", sequence_id, "--bfile", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: window of length 12000") and "Traceback" not in err


def test_shipped_fixtures_match_the_flat_oracles(monkeypatch):
    monkeypatch.delenv(oeis.CACHE_ENV, raising=False)
    for quantity, sequence_id in SF_IDS.items():
        entries = load_bfile(sequence_id).entries
        assert list(entries) == list(range(1, len(entries) + 1)), sequence_id
        assert entries == {n: oracle_value(quantity, n) for n in entries}, sequence_id


def test_gen_fixtures_check_passes_on_the_shipped_files():
    result = subprocess.run(
        [sys.executable, GEN_FIXTURES, "--check"], capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_gen_fixtures_check_names_each_stale_file(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("gen_fixtures", GEN_FIXTURES)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    shipped = tmp_path / "oeis"
    shutil.copytree(gen_fixtures.OUT, shipped)
    (shipped / "b005117.txt").write_text("1 1\n")
    (shipped / "b000051.txt").unlink()
    before = {path.name: path.read_bytes() for path in shipped.iterdir()}
    monkeypatch.setattr(gen_fixtures, "OUT", str(shipped))
    assert gen_fixtures.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"differs: {shipped / name}" for name in ("b005117.txt", "b000051.txt")]
    assert {path.name: path.read_bytes() for path in shipped.iterdir()} == before
