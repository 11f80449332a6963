import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from kfree import cli
from kfree.admissible import admissible_max_lower_shift, admissible_max_upper_sieve
from kfree.cli import figure_shift_data, main, render_figure_csv
from kfree.constructions import DenseQState, dense_q_step
from kfree.errors import BudgetError
from kfree.oeis import (
    BFile,
    BFileError,
    crosscheck,
    emit_bfile,
    load_bfile,
    load_manifest,
    parse_oeis_bfile,
    SF_NTH,
    _squarefree_values,
)

from oracles import mobius_count_flat, nth_squarefree_bisect

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "figure_shift_30.csv")
TABLE_1400 = os.path.join(os.path.dirname(__file__), "..", "tools", "admissible_max_1400.csv")

ALL_IDS = ["A013928", "A083544", "A000051", "A000225", "A038507", "A033312"]


class TestBFileParsing:
    def test_basic(self):
        assert parse_oeis_bfile("1 1\n2 2\n").entries == {1: 1, 2: 2}

    def test_comments_and_blanks(self):
        assert parse_oeis_bfile("# header\n\n5 7\n").entries == {5: 7}

    def test_malformed_line(self):
        with pytest.raises(BFileError) as info:
            parse_oeis_bfile("5 x\n")
        assert info.value.line == 1

    def test_duplicate_index(self):
        with pytest.raises(BFileError):
            parse_oeis_bfile("3 1\n3 2\n")

    def test_decreasing_index(self):
        with pytest.raises(BFileError):
            parse_oeis_bfile("5 1\n4 2\n")

    def test_round_trip(self):
        rng = random.Random(6)
        for _ in range(100):
            indices = sorted(rng.sample(range(-5, 400), rng.randrange(1, 30)))
            entries = {i: rng.randrange(-(10**12), 10**12) for i in indices}
            bfile = BFile("A000000", entries)
            assert parse_oeis_bfile(emit_bfile(bfile), "A000000") == bfile


class TestCrosscheck:
    def test_documented_offset_example(self):
        rules = load_manifest()
        bfile = parse_oeis_bfile("11 7\n", "A013928")
        report = crosscheck(bfile, rules["A013928"])
        assert report.ok and report.checked == (11,)

    def test_named_prefix(self):
        rules = load_manifest()
        bfile = parse_oeis_bfile("1 3\n2 5\n3 9\n4 17\n5 33\n", "A000051")
        assert crosscheck(bfile, rules["A000051"]).ok

    def test_mismatch_is_reported(self):
        rules = load_manifest()
        bfile = parse_oeis_bfile("11 8\n", "A013928")
        report = crosscheck(bfile, rules["A013928"])
        assert not report.ok
        assert report.mismatches == ((11, 8, 7),)

    def test_wrong_rule_rejected(self):
        rules = load_manifest()
        with pytest.raises(ValueError):
            crosscheck(parse_oeis_bfile("1 1\n", "A083544"), rules["A013928"])

    def test_empty_bfile_verifies_nothing(self):
        rules = load_manifest()
        report = crosscheck(parse_oeis_bfile("# only comments\n", "A013928"), rules["A013928"])
        assert not report.ok and report.checked == ()

    @pytest.mark.parametrize("sequence_id", ALL_IDS + ["A005117"])
    def test_all_fixtures_pass(self, sequence_id):
        rules = load_manifest()
        report = crosscheck(load_bfile(sequence_id), rules[sequence_id])
        assert report.ok, report.summary()

    def test_cache_env_lookup(self, tmp_path, monkeypatch):
        cached = tmp_path / "b999999.txt"
        cached.write_text("1 42\n")
        monkeypatch.setenv("KFREE_OEIS_CACHE", str(tmp_path))
        bfile = load_bfile("A999999")
        assert bfile.entries == {1: 42}
        monkeypatch.delenv("KFREE_OEIS_CACHE")
        with pytest.raises(FileNotFoundError):
            load_bfile("A999999")


class TestFigureData:
    def test_documented_rows(self):
        rows = figure_shift_data(10)
        assert rows[0].x == 1
        assert abs(rows[0].a_minus_main - 0.3920728981) < 1e-9
        assert abs(rows[0].q_minus_main - rows[0].a_minus_main) < 1e-12
        assert abs(rows[9].a_minus_main - 1.9207289815) < 1e-9
        assert abs(rows[9].q_minus_main - 0.9207289815) < 1e-9
        assert all(row.status == "EXACT" for row in rows)

    def test_header_and_shape(self):
        text = render_figure_csv(figure_shift_data(1))
        lines = text.splitlines()
        assert lines[0] == "x,a_minus_main,q_minus_main,status"
        assert len(lines) == 2

    def test_golden_file(self):
        with open(GOLDEN, "rb") as handle:
            golden = handle.read()
        produced = render_figure_csv(figure_shift_data(30)).encode("ascii")
        assert produced == golden

    def test_committed_table_starts_with_the_cli_rows(self):
        # tools/admissible_max_1400.csv is `admissible-max --table --x 1400
        # --bounds`; its first rows must be what the CLI prints today
        with open(TABLE_1400, encoding="ascii") as handle:
            committed = handle.read().splitlines()
        assert len(committed) == 1401
        code, text = run_cli(["admissible-max", "--table", "--x", "60", "--bounds"])
        assert code == 0
        assert text.splitlines() == committed[:61]

    def test_committed_table_bounds_match_the_library(self):
        # every row's bracket, not only the first 61 rows the CLI test runs
        with open(TABLE_1400, encoding="ascii") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(row["x"]) for row in rows] == list(range(1, 1401))
        for row in rows:
            x = int(row["x"])
            assert int(row["lower_shift"]) == admissible_max_lower_shift(x, shifts=range(2000))[0], x
            assert int(row["upper_sieve"]) == admissible_max_upper_sieve(x), x

    def test_k_below_two_is_refused_before_the_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "admissible_max_sweep", no_sweep)
        with pytest.raises(ValueError, match="k must be >= 2"):
            figure_shift_data(400, 1)
        assert run_cli(["figure-shift", "--xmax", "400", "--k", "1"]) == (1, "")

    def test_budget_degrades_status_column(self):
        rows = figure_shift_data(25, time_budget=0.0)
        assert any(row.status == "LOWER_BOUND" for row in rows)
        text = render_figure_csv(rows)
        assert "LOWER_BOUND" in text


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


class TestCli:
    def test_sieve_count(self):
        code, text = run_cli(["sieve-count", "--x", "100", "--k", "2"])
        assert code == 0 and text == "61\n"

    def test_determinism(self):
        for argv in (
            ["figure-shift", "--xmax", "12"],
            ["admissible-max", "--x", "20", "--table"],
            ["construct", "sample-counter", "--xmax", "2000", "--seed", "5"],
            ["construct", "greedy-sums", "--count", "8"],
            ["verify-named", "--tag", "A2", "--mode", "certificate"],
        ):
            assert run_cli(argv) == run_cli(argv)

    def test_q_witness_mode(self):
        code, text = run_cli(
            ["verify-named", "--tag", "A1", "--prefix", "15", "--mode", "q-witness"]
        )
        assert code == 0
        assert text.startswith("witness ")
        assert "[FULL]" in text

    def test_q_prefix_mode(self):
        code, text = run_cli(
            ["verify-named", "--tag", "A1", "--prefix", "3", "--mode", "q-prefix"]
        )
        assert code == 0 and text.startswith("witness 8 ")

    def test_terms_mode(self):
        code, text = run_cli(["verify-named", "--tag", "A3", "--prefix", "5"])
        assert code == 0
        assert text.splitlines() == ["2", "3", "7", "25", "121"]

    def test_bounds_columns(self):
        code, text = run_cli(["admissible-max", "--x", "10", "--bounds"])
        assert code == 0
        assert text.splitlines()[1] == "10,8,EXACT,2:0;3:4,8,11"

    def test_figure_shift_xmax_1(self):
        code, text = run_cli(["figure-shift", "--xmax", "1"])
        assert code == 0
        assert len(text.splitlines()) == 2

    def test_crosscheck_exit_codes(self, tmp_path):
        code, _ = run_cli(["crosscheck"])
        assert code == 0
        bad = tmp_path / "b013928.txt"
        bad.write_text("11 8\n")
        code, text = run_cli(["crosscheck", "--id", "A013928", "--bfile", str(bad)])
        assert code == 1 and "MISMATCH" in text

    def test_empty_crosscheck_range_checks_nothing(self):
        code, text = run_cli(["crosscheck", "--id", "A005117", "--range", "5:1"])
        assert code == 1
        assert text == "A005117 [SF_NTH]: 0 checked, 0 outside domain, NOTHING CHECKED\n"

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    @pytest.mark.parametrize("bad_range", ["5", "a:b"])
    def test_malformed_range_is_usage_error(self, bad_range):
        with pytest.raises(SystemExit) as info:
            main(["crosscheck", "--id", "A083544", "--range", bad_range])
        assert info.value.code == 2

    def test_computation_error_exit_1(self):
        code, _ = run_cli(["construct", "P", "--count", "-3"])
        assert code == 1

    def test_sieve_bound(self):
        code, text = run_cli(["sieve-bound", "--n", "100", "--q", "2"])
        assert code == 0 and "bound=87" in text

    def test_overp_subcommand(self):
        code, text = run_cli(["construct", "overp", "--p", "3"])
        assert code == 0 and text == "252\n"

    def test_overp_depth_two_stdout(self):
        code, text = run_cli(["construct", "overp", "--depth", "2"])
        assert code == 0
        assert text == (
            '{"thresholds": [46, 4855], "anchor_bits": [110, 13706], "induced": '
            "[1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, "
            "30, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43, 46, 47, 51, 53, 55, 57, "
            "58, 59, 61, 62, 65, 66, 67, 69, 70, 71, 73, 74, 77, 78, 79, 82, 83, "
            "85, 86, 87, 89, 91, 93, 94, 95, 97], "
            '"certification": "PI_CERTIFIED(100000)"}\n'
        )

    def test_overp_depth_two_scale_five_stdout(self):
        code, text = run_cli(["construct", "overp", "--depth", "2", "--cap", "1000", "--scale", "5"])
        assert code == 0
        result = json.loads(text)
        assert result["thresholds"] == [76, 8091] and result["anchor_bits"] == [191, 22983]
        assert len(result["induced"]) == 608 and result["certification"] == "PI_CERTIFIED(100000)"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "64c7e3ae51a121685c1bebd2d9a422fdf8c7672343e17102fcc5e2c0bab62293"
        )

    def test_overp_depth_one_empty_cap_stdout(self):
        code, text = run_cli(["construct", "overp", "--depth", "1", "--cap", "0"])
        assert code == 0
        assert text == (
            '{"thresholds": [46], "anchor_bits": [110], "induced": [], '
            '"certification": "PI_CERTIFIED(100000)"}\n'
        )

    def test_verify_appendix(self):
        code, text = run_cli(["verify-appendix", "--trials", "50", "--seed", "1"])
        assert code == 0 and "50/50" in text

    def test_dense_q(self):
        code, text = run_cli(["construct", "dense-q", "--n1", "2", "--x", "10000"])
        assert code == 0 and '"anchors": [2, 5004]' in text

    def test_admissible_max_json(self):
        code, text = run_cli(["admissible-max", "--x", "10", "--format", "json"])
        assert code == 0
        assert '"value": 8' in text


def test_nth_squarefree_matches_the_bisected_count():
    assert _squarefree_values(SF_NTH, range(1, 3001)) == [nth_squarefree_bisect(n) for n in range(1, 3001)]


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve-count", "--x", "100000000", "--k", "1"],
        ["sieve-count", "--x", "100", "--k", "0"],
        ["sieve-count", "--x", "-5"],
        ["sieve-count", "--x", "1" + "0" * 30],
    ],
)
def test_bad_count_input_exits_1(argv, capsys):
    code, text = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_integer_count_input_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["sieve-count", "--x", "abc"])
    assert info.value.code == 2


def test_sieve_count_within_byte_cap_past_sqrt_x(monkeypatch, capsys):
    # the cap is sqrt(10^10) = 10^5 bytes, while the Mertens values held, in
    # blocks of 1000, take 68080
    monkeypatch.setattr("kfree.sieve.MOBIUS_SEGMENT", 1000)
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**5)
    code, text = run_cli(["sieve-count", "--x", str(10**10)])
    assert (code, text, capsys.readouterr().err) == (0, f"{mobius_count_flat(10**10)}\n", "")


def test_sample_counter_window_over_byte_cap_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
    code, text = run_cli(["construct", "sample-counter", "--xmax", str(10**5)])
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith("error: window of length")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-named", "--tag", "A1", "--prefix", "0", "--mode", "q-witness"],
        ["verify-named", "--tag", "A1", "--prefix", "-3", "--mode", "sums"],
        ["verify-appendix", "--trials", "-1"],
        ["construct", "overp", "--cap", "-5"],
        ["construct", "overp", "--p", "3", "--candidates", "-5"],
        ["construct", "overp", "--p", "3000000"],
        ["construct", "dense-q", "--x", "0"],
        ["sieve-bound", "--n", "10", "--q", "0"],
        ["admissible-max", "--x", "0"],
        ["construct", "sample-counter", "--c", "nan", "--xmax", "1000"],
        ["construct", "dense-q", "--x", "10000", "--epsilon", "nan"],
        ["sieve-bound", "--n", "1000", "--q", "4", "--profile", "es-sumfree", "--k", "3"],
        ["sieve-bound", "--n", "1000", "--q", "1", "--k", "0"],
        ["sieve-bound", "--n", "10", "--q", "2", "--k", "600"],
        ["sieve-bound", "--n", "10", "--q", "10", "--k", "1000000000"],
        ["sieve-bound", "--n", "10", "--optimize", "--qmax", "10", "--k", "1000000000"],
        ["sieve-bound", "--n", "-5", "--optimize", "--qmax", "3"],
        ["construct", "dense-q", "--n1", "2", "--x", "10000", "--steps", "2"],
    ],
)
def test_bad_input_exits_1_without_traceback(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_repeated_main_calls_match_separate_processes(capsys):
    # main reuses one parser per process: an --id list, a parse error or a
    # failed command must not leak into the next call
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argvs = [
        ["crosscheck", "--id", "A000051", "--id", "A000225"],
        ["crosscheck", "--id", "A038507"],
        ["sieve-count", "--x", "abc"],
        ["sieve-count", "--x", "100"],
        ["construct", "greedy-sums", "--count", "12", "--no-diagonal"],
        ["construct", "greedy-sums", "--count", "12"],
        ["sieve-count", "--x", "-5"],
        ["verify-appendix", "--trials", "5", "--seed", "3"],
        ["crosscheck", "--id", "A033312"],
    ]
    for argv in argvs:
        buffer = io.StringIO()
        try:
            code = main(argv, out=buffer)
        except SystemExit as error:
            code = error.code
        capsys.readouterr()
        separate = subprocess.run(
            [sys.executable, "-m", "kfree.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert (code, buffer.getvalue()) == (separate.returncode, separate.stdout), argv


def test_cli_import_leaves_hashlib_unloaded():
    # OverPSequence.__repr__ imports hashlib where it is used, so that
    # start-up does not load OpenSSL; only a fresh interpreter shows whether
    # some module imports it at the top
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, kfree.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve-bound", "--n", "10", "--q", str(10**6)],
        ["sieve-bound", "--n", "10", "--optimize", "--qmax", str(10**6)],
    ],
)
def test_sieve_bound_over_weight_byte_cap_exits_1(argv, monkeypatch, capsys):
    monkeypatch.setattr("kfree.sieve.PRIME_TABLE_BYTE_CAP", 10**4)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: h weights up to") and "Traceback" not in captured.err
    assert peak < 10**6


def test_negative_dense_q_steps_exits_1(capsys):
    code = main(["construct", "dense-q", "--x", "10000", "--steps", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_infinite_dense_q_epsilon_grid_is_n_and_cap(capsys):
    code, text = run_cli(["construct", "dense-q", "--x", "10000", "--epsilon", "inf"])
    assert code == 0 and json.loads(text) == {"anchors": [2, 5004]}
    report = dense_q_step(DenseQState.start(2), float("inf"), 10**4).reports[-1]
    assert [r for r, _ in report.grid] == [2, 5004]


def test_admissible_max_over_mask_byte_cap_exits_1(capsys):
    # the class masks for x = 30000 would take about 1.3 GB
    code = main(["admissible-max", "--x", "30000", "--budget", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: class masks") and "Traceback" not in captured.err


def test_non_integer_trials_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["verify-appendix", "--trials", "abc"])
    assert info.value.code == 2


class TestBudgetedCrosscheck:
    def test_lower_bound_is_not_counted_as_checked(self):
        rules = load_manifest()
        with pytest.raises(BudgetError, match=r"A\(4\)"):
            crosscheck(load_bfile("A083544"), rules["A083544"], (1, 60), time_budget=0.0)

    def test_ample_budget_matches_the_unbudgeted_report(self):
        rules = load_manifest()
        bfile = load_bfile("A083544")
        assert crosscheck(bfile, rules["A083544"], (1, 40), time_budget=600.0) == crosscheck(
            bfile, rules["A083544"], (1, 40)
        )

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_invalid_budget_raises_for_any_quantity(self, budget):
        rules = load_manifest()
        with pytest.raises(ValueError, match="time budget"):
            crosscheck(load_bfile("A013928"), rules["A013928"], time_budget=budget)


@pytest.mark.parametrize(
    "argv",
    [
        ["crosscheck", "--id", "A083544", "--range", "1:60", "--budget", "0"],
        ["admissible-max", "--x", "50", "--budget", "-1"],
        ["admissible-max", "--x", "50", "--budget", "nan"],
        ["admissible-max", "--table", "--x", "0", "--budget", "-1"],
        ["figure-shift", "--xmax", "5", "--budget", "-1"],
        ["figure-shift", "--xmax", "5", "--budget", "nan"],
        ["crosscheck", "--id", "A083544", "--budget", "-1"],
        ["crosscheck", "--id", "A083544", "--budget", "nan"],
    ],
)
def test_unprovable_or_invalid_budget_exits_1(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
