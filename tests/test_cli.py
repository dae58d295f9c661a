"""Command-line interface: tables, exit codes, JSON round trips."""

import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seqroots import IDENTITY_SHIFT, RootEstimate, RootStatus
from seqroots.cli import (
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_TIE,
    EXIT_USAGE,
    _estimate_field,
    main,
    render_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSequencesCommand:
    def test_quadratic_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequences", "--poly", "1,2,-1", "--steps", "6", "--digits", "5"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["j", "S(1)", "S(2)", "S(1)/S(2)"]
        assert lines[1].split() == ["0", "1", "0", "inf"]
        assert lines[-1].split() == ["6", "169", "-70", "-2.4143"]

    def test_shifted_cubic_final_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sequences",
            "--poly", "1,0,0,-2",
            "--shift", "1,1",
            "--seed", "1,1,0",
            "--steps", "25",
            "--digits", "7",
        )
        assert code == EXIT_OK
        last = out.splitlines()[-1].split()
        assert last == ["25", "536171481", "425559582", "337766841", "1.259921", "1.259921"]

    def test_steps_zero_echoes_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequences", "--poly", "1,2,-1", "--steps", "0", "--digits", "5"
        )
        assert code == EXIT_OK
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[1].split() == ["0", "1", "0", "inf"]

    def test_json_round_trips_to_table(self, capsys):
        args = [
            "sequences",
            "--poly", "1,0,0,-2",
            "--shift", "1,1",
            "--seed", "1,1,0",
            "--steps", "25",
            "--digits", "7",
        ]
        code, table, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        code, raw, _ = run_cli(capsys, *args, "--json")
        assert code == EXIT_OK
        doc = json.loads(raw)
        assert render_text(doc) + "\n" == table

    def test_json_terms_are_strings(self, capsys):
        _, raw, _ = run_cli(
            capsys, "sequences", "--poly", "1,2,-1", "--steps", "3", "--json"
        )
        doc = json.loads(raw)
        assert doc["command"] == "sequences"
        assert doc["polynomial"] == ["1", "2", "-1"]
        assert all(isinstance(t, str) for row in doc["rows"] for t in row["terms"])


class TestRootCommand:
    def test_dominant(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--poly", "1,2,-1")
        assert code == EXIT_OK
        assert out.startswith("-2.41421356237")
        assert "status=converged" in out

    def test_via_shift(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--poly", "1,2,-1", "--shift", "2,1")
        assert code == EXIT_OK
        assert out.startswith("0.414213562373")

    def test_tie_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--poly", "1,0,1")
        assert code == EXIT_TIE
        assert "tie-detected" in out

    def test_zero_denominator_steps_tie_without_an_error(self, capsys):
        # x^3 + x under 2x: the cross ratio is exactly 0 on every other step
        # and undefined in between, so no two samples are consecutive and
        # the run ties at its first checkpoint
        code, out, err = run_cli(capsys, "root", "--poly", "1,0,1,0", "--shift", "0,2")
        assert (code, err) == (EXIT_TIE, "")
        assert "tie-detected" in out

    def test_budget_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "root", "--poly", "1,2,-1", "--max-iters", "4"
        )
        assert code == EXIT_MAX_ITERS
        assert "max-iters-exceeded" in out

    def test_collapse_exit_code(self, capsys):
        # (x+3)^2 under x -> x + 3: the iteration matrix is nilpotent, and
        # the square-free part x + 3 is linear, which proves the root -3
        # before any step
        code, out, _ = run_cli(capsys, "root", "--poly", "1,6,9", "--shift=3,1")
        assert code == EXIT_OK
        assert out == "-3  status=converged  iterations=0  shift=3,1  estimator=exact\n"

    def test_json_estimate_fields(self, capsys):
        _, raw, _ = run_cli(capsys, "root", "--poly", "1,2,-1", "--json")
        doc = json.loads(raw)
        est = doc["estimates"][0]
        assert est["status"] == "converged"
        assert est["shift"] == ["0", "1"]
        assert est["value"].startswith("-2.414")
        assert "/" in est["fraction"] or est["fraction"].lstrip("-").isdigit()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="no int-to-str digit limit")
def test_fraction_field_past_the_int_to_str_limit():
    # str() of either integer would raise under the limit; the field does not
    value = Fraction(10**700 + 1, 10**700)
    est = RootEstimate(value, 12, 1, RootStatus.CONVERGED, IDENTITY_SHIFT, "cross-ratio")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        field = _estimate_field(est, 12)
    finally:
        sys.set_int_max_str_digits(limit)
    assert field["fraction"] == "1" + "0" * 699 + "1/1" + "0" * 700
    assert field["value"] == "1.00000000000"


class TestRootsCommand:
    def test_two_roots(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--poly", "1,2,-1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("-2.41421356237")
        assert lines[1].startswith("0.414213562373")

    def test_single_real_root_cubic(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--poly", "1,0,0,-2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("1.259921049")

    def test_empty_list_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--poly", "1,0,1")
        assert code == EXIT_OK
        assert "no real roots" in out


class TestBenchCommand:
    def test_builtin_cases_report(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--runs", "5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three cases
        header = lines[0]
        for column in ("case", "digits", "exact s", "exact iters", "peak bits",
                       "float s", "float iters"):
            assert column in header

    def test_single_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--poly", "1,2,-1", "--digits", "1", "--runs", "5"
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2

    def test_fewer_than_five_runs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--runs", "4"])
        assert info.value.code == EXIT_USAGE
        assert "--runs: must be >= 5, got 4" in capsys.readouterr().err

    def test_runs_are_timed_as_many_times_as_asked(self, monkeypatch):
        # no silent clamp: run_bench times each side exactly ``runs`` times
        import seqroots.bench as bench

        calls = []
        real = bench._run_exact
        monkeypatch.setattr(bench, "_run_exact", lambda *a: calls.append(a) or real(*a))
        bench.run_bench(bench.builtin_cases()[:1], runs=2)
        assert len(calls) == 2
        with pytest.raises(ValueError, match="runs must be >= 1, got 0"):
            bench.run_bench(bench.builtin_cases()[:1], runs=0)

    def test_json_rows(self, capsys):
        _, raw, _ = run_cli(capsys, "bench", "--poly", "1,2,-1", "--json")
        doc = json.loads(raw)
        row = doc["rows"][0]
        assert row["digits"] == 12
        assert row["exact_iterations"] > 0
        assert row["exact_peak_bits"] > 0
        assert row["exact_seconds"] >= 0.0

    def test_without_numpy_exits_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        code, out, err = run_cli(capsys, "bench", "--runs", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "pip install seqroots[oracle]" in err

    def test_tied_run_shows_status_and_no_value(self, capsys):
        # under shift 1,1 the roots -1 +- sqrt(2) map to +-sqrt(2): a tie
        args = ["bench", "--poly", "1,2,-1", "--shift", "1,1", "--runs", "5"]
        code, out, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert "exact status" in header
        cells = row.split()
        assert "tie-detected" in cells
        assert cells[cells.index("tie-detected") - 1] == "-"
        _, raw, _ = run_cli(capsys, *args, "--json")
        (doc_row,) = json.loads(raw)["rows"]
        assert doc_row["exact_status"] == "tie-detected"
        assert doc_row["exact_value"] == "-"
        _, raw, _ = run_cli(capsys, "bench", "--poly", "1,2,-1", "--json")
        (doc_row,) = json.loads(raw)["rows"]
        assert doc_row["exact_status"] == "converged"
        assert doc_row["exact_value"] == "-2.41421356237"


class TestNegativeValues:
    """A value that starts with a minus sign parses with or without ``=``."""

    @pytest.mark.parametrize(
        "command, flag, value, line",
        [
            (["root", "--poly", "1,-3,-4"], "--shift", "-1,1", "4  status=converged"),
            (["sequences", "--poly", "1,-3,-4", "--steps", "1"], "--seed", "-1,2",
             "0    -1     2       -0.5"),
        ],
    )
    def test_space_form_matches_equals_form(self, capsys, command, flag, value, line):
        spaced = run_cli(capsys, *command, flag, value)
        assert spaced == run_cli(capsys, *command, f"{flag}={value}")
        code, out, err = spaced
        assert (code, err) == (EXIT_OK, "")
        assert any(row.startswith(line) for row in out.splitlines())

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["root", "--poly", "1,-3,-4"], "--shi", "-1,1"),
            (["root", "--poly", "1,-3,-4"], "--sh", "-1,1"),
            (["sequences", "--poly", "1,-3,-4", "--steps", "1"], "--se", "-1,2"),
        ],
    )
    def test_abbreviated_flag_matches_full_flag(self, capsys, command, flag, value):
        full = "--shift" if "--shift".startswith(flag) else "--seed"
        abbreviated = run_cli(capsys, *command, flag, value)
        assert abbreviated == run_cli(capsys, *command, full, value)
        assert abbreviated[0] == EXIT_OK

    def test_ambiguous_abbreviation_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sequences", "--poly", "1,-3,-4", "--s", "-1,2"])
        assert info.value.code == EXIT_USAGE
        assert "ambiguous option" in capsys.readouterr().err

    def test_missing_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root", "--poly", "1,-3,-4", "--shift", "--json"])
        assert info.value.code == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err


class TestUsageErrors:
    def test_non_monic_polynomial(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root", "--poly", "2,1"])
        assert info.value.code == EXIT_USAGE

    def test_zero_shift_scale(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root", "--poly", "1,2,-1", "--shift", "1,0"])
        assert info.value.code == EXIT_USAGE

    def test_malformed_shift(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root", "--poly", "1,2,-1", "--shift", "1"])
        assert info.value.code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == EXIT_USAGE

    def test_missing_poly(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["root"])
        assert info.value.code == EXIT_USAGE

    def test_negative_steps(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sequences", "--poly", "1,2,-1", "--steps", "-1"])
        assert info.value.code == EXIT_USAGE

    def test_wrong_seed_length(self, capsys):
        code = main(["sequences", "--poly", "1,2,-1", "--seed", "1,0,0", "--steps", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "error" in captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """``(argv, stdout)`` of each ``$ seqroots ...`` example in README.md,
    except ``bench``, whose timings vary.  An example's output runs to the
    next ``$`` line or the end of its fenced block."""
    examples = []
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    for block in blocks:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            argv = shlex.split(command)[1:]
            if argv[0] != "bench":
                examples.append(pytest.param(argv, output.rstrip("\n") + "\n", id=command))
    return examples


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(_readme_examples()) >= 6

    @pytest.mark.parametrize("argv, expected", _readme_examples())
    def test_output_is_byte_identical(self, capsys, argv, expected):
        _, out, _ = run_cli(capsys, *argv)
        assert out == expected
