import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import boolsum.asymptotics
import boolsum.cli
import boolsum.recurrence
from boolsum import (
    CyclotomicInt,
    DegreeSet,
    exp_sum,
    expand,
    full_charpoly,
    limit_correlation,
    orbit_sums,
    sign_exponents,
    to_recurrence,
)
from boolsum.cli import DegreeParseError, _decimal, cli, format_degree, parse_degrees


def run(*args, env=None):
    return CliRunner().invoke(cli, list(args), env=env, catch_exceptions=False)


def payload(result):
    report = json.loads(result.output)
    return report, report["result"]


def patch_every_binding(monkeypatch, name, replacement):
    """Replace `name` in every boolsum module that binds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "boolsum" and hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def parse_decimal(text: str) -> int:
    """int(text) in 1000-digit chunks, so no int->str digit limit applies."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


class TestParseDegrees:
    def test_basic(self):
        assert parse_degrees("3,5") == DegreeSet.of(3, 5)

    def test_sorting(self):
        assert parse_degrees("5,3") == DegreeSet.of(3, 5)

    def test_power_sums(self):
        K = parse_degrees("31,2^10000+64,2^10000+32+128")
        assert K.degrees == (
            (0, 1, 2, 3, 4),
            (6, 10000),
            (5, 7, 10000),
        )

    def test_mixed_terms(self):
        assert parse_degrees("2^1000000+5").degrees == ((0, 2, 1000000),)
        assert parse_degrees("6+1") == DegreeSet.of(7)

    @pytest.mark.parametrize(
        "expr",
        ["", "3,", "3,,5", "3,3", "x", "2^", "2^-1", "0", "3+1", "2^2+4", "-3"],
    )
    def test_rejects_bad_expressions(self, expr):
        with pytest.raises(DegreeParseError):
            parse_degrees(expr)

    def test_canonical_form_round_trips(self):
        K = parse_degrees("31,2^10000+64,2^10000+32+128")
        rendered = ",".join(format_degree(bits) for bits in K.degrees)
        assert parse_degrees(rendered) == K
        assert format_degree(K.degrees[0]) == "31"
        assert format_degree(K.degrees[1]) == "2^10000+2^6"


class TestSumCommand:
    def test_oracle_agreement(self):
        report, result = payload(run("sum", "--degrees", "3", "--n", "4", "--oracle"))
        assert result == {
            "n": 4,
            "exponential_sum": 8,
            "correlation": "1/2",
            "oracle": 8,
            "match": True,
        }
        assert report["command"] == "sum"
        assert report["degrees"] == ["3"]
        assert report["precision_bits"] is None

    def test_big_values_serialize_as_strings(self):
        _, result = payload(run("sum", "--degrees", "3", "--n", "200"))
        assert isinstance(result["exponential_sum"], str)
        assert int(result["exponential_sum"]) == exp_sum(200, DegreeSet.of(3))

    def test_values_past_the_int_str_digit_limit(self):
        result = run("sum", "--degrees", "3", "--n", "24000")
        assert result.exit_code == 0
        _, out = payload(result)
        value = exp_sum(24000, DegreeSet.of(3))
        assert parse_decimal(out["exponential_sum"]) == value
        num, den = out["correlation"].split("/")
        assert Fraction(parse_decimal(num), parse_decimal(den)) == Fraction(value, 2**24000)

    def test_decimal_has_no_digit_limit(self):
        for value in (0, -5, 10**4299, -(10**4300), 7**12000, -(3**30000) + 1):
            text = _decimal(value)
            assert parse_decimal(text) == value
            if len(text.lstrip("-")) <= 4300:
                assert text == str(value)

    def test_negative_n_is_input_error(self):
        result = run("sum", "--degrees", "3", "--n", "-1")
        assert result.exit_code == 2

    def test_brute_cap_is_a_resource_error(self):
        result = run("sum", "--degrees", "3", "--n", "30", "--oracle")
        assert result.exit_code == 3


class TestRecurrenceCommand:
    def test_pair_6_17(self):
        _, result = payload(run("recurrence", "--degrees", "6,17"))
        assert result["minimal"] == {
            "x_minus_2": True,
            "levels": [1, 2, 4],
            "degree": 23,
        }
        assert result["degree_bounds"] == {"lower": 16, "upper": 23}
        assert len(result["recurrence"]) == 23

    def test_full_and_verify(self):
        _, result = payload(
            run("recurrence", "--degrees", "3,5", "--full", "--verify", "40")
        )
        assert result["recurrence"] == [6, -14, 16, -10, 4]
        assert result["valid_from"] == 6
        assert result["verify"] == {"through": 40, "ok": True}
        expected_full = list(to_recurrence(full_charpoly(3)).coefficients)
        assert result["full_recurrence"] == expected_full

    def test_expands_the_polynomial_once(self, monkeypatch):
        calls = []

        def counting_expand(f):
            calls.append(f)
            return expand(f)

        monkeypatch.setattr(boolsum.cli, "expand", counting_expand)
        monkeypatch.setattr(boolsum.recurrence, "expand", counting_expand)
        assert run("recurrence", "--degrees", "6,17").exit_code == 0
        assert len(calls) == 1

    def test_folds_the_sign_table_once(self, monkeypatch):
        # Every command that needs the fold builds it once per request, including
        # the S(n) windows behind --verify, asym and error-table.
        calls = []

        def counting_orbit_sums(K, **kwargs):
            calls.append(K)
            return orbit_sums(K, **kwargs)

        for module in (boolsum.cli, boolsum.recurrence, boolsum.asymptotics):
            monkeypatch.setattr(module, "orbit_sums", counting_orbit_sums)
        for argv in (
            ("recurrence", "--degrees", "6,17"),
            ("recurrence", "--degrees", "5,9,12", "--verify", "300"),
            ("asym", "--degrees", "5,9,12", "--n", "100"),
            ("error-table", "--degrees", "5,9,12", "--rows", "100,200,300"),
        ):
            calls.clear()
            assert run(*argv).exit_code == 0, argv
            assert len(calls) == 1, argv

    def test_verify_does_not_use_the_recurrence_it_checks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("minimal_recurrence called")

        patch_every_binding(monkeypatch, "minimal_recurrence", refuse)
        result = run("recurrence", "--degrees", "5,9,12", "--verify", "300")
        assert result.exit_code == 0
        _, out = payload(result)
        assert out["verify"] == {"through": 300, "ok": True}

    def test_infeasible_period_is_exit_3(self):
        result = run("recurrence", "--degrees", "2^25")
        assert result.exit_code == 3

    def test_r_max_override(self):
        assert run("recurrence", "--degrees", "33", "--r-max", "5").exit_code == 3
        assert run("recurrence", "--degrees", "33", "--r-max", "6").exit_code == 0

    def test_degenerate_degree_is_exit_2(self):
        result = run("recurrence", "--degrees", "1")
        assert result.exit_code == 2


class TestC0Command:
    def test_huge_example(self):
        _, result = payload(
            run("c0", "--degrees", "7,9,2^100000+2^10000,2^1000000+5")
        )
        assert result == {"c0": "1/4", "asymptotically_balanced": False}

    def test_balanced_example(self):
        _, result = payload(run("c0", "--degrees", "5,9,12"))
        assert result == {"c0": "0", "asymptotically_balanced": True}

    def test_decimal_term_past_the_int_str_digit_limit(self):
        # 5000 decimal digits: past the interpreter's 4300-digit int parsing limit.
        done = run("c0", "--degrees", "1" * 5000)
        assert done.exit_code == 0, done.output
        _, result = payload(done)
        numerator, denominator = result["c0"].split("/")
        K = DegreeSet.of(sum(10**i for i in range(5000)))
        expected = limit_correlation(K)
        assert Fraction(parse_decimal(numerator), parse_decimal(denominator)) == expected


class TestAsymCommand:
    def test_error_term_reported_when_limit_vanishes(self):
        report, result = payload(
            run("asym", "--degrees", "5,9,12", "--n", "100", "--precision", "1024")
        )
        assert report["precision_bits"] == 1024
        assert result["c0"] == "0"
        assert abs(float(result["error_term"]) - 0.001530582098) < 1e-9

    def test_no_error_term_when_limit_is_nonzero(self):
        _, result = payload(run("asym", "--degrees", "3,5", "--n", "40"))
        assert result["c0"] == "1/2"
        assert "error_term" not in result

    def test_env_precision(self):
        report, _ = payload(
            run("asym", "--degrees", "3,5", "--n", "10",
                env={"BOOLSUM_PRECISION": "256"})
        )
        assert report["precision_bits"] == 256

    @pytest.mark.parametrize(
        "args, env",
        [
            (("asym", "--degrees", "3,5", "--n", "10", "--precision", "0"), None),
            (("asym", "--degrees", "3,5", "--n", "10"), {"BOOLSUM_PRECISION": "0"}),
            (("error-table", "--degrees", "5,9,12", "--rows", "100",
              "--precision", "0"), None),
        ],
    )
    def test_zero_precision_is_exit_2(self, args, env):
        assert run(*args, env=env).exit_code == 2

    def test_precision_guard_is_exit_3(self):
        result = run(
            "asym", "--degrees", "5,9,12", "--n", "5000", "--precision", "256"
        )
        assert result.exit_code == 3

    def test_c0_comes_from_the_fold(self, monkeypatch):
        argv = ("asym", "--degrees", "5,9,12", "--n", "100")
        expected = run(*argv).output

        def refuse(K):
            raise AssertionError("limit_correlation called")

        patch_every_binding(monkeypatch, "limit_correlation", refuse)
        assert run(*argv).output == expected


class TestErrorTableCommand:
    def test_csv_default(self):
        result = run(
            "error-table", "--degrees", "5,9,12", "--rows", "100,200",
            "--precision", "1024",
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,error"
        assert lines[1].startswith("100,0.0015305820975")
        assert lines[2].startswith("200,-1.6077603870")

    def test_json_format(self):
        report, result = payload(
            run("error-table", "--degrees", "5,9,12", "--rows", "100",
                "--precision", "1024", "--format", "json")
        )
        assert result["rows"][0]["n"] == 100
        assert result["rows"][0]["error"].startswith("0.0015305820975")

    def test_bad_rows_exit_2(self):
        assert run("error-table", "--degrees", "5,9,12", "--rows", "a,b").exit_code == 2

    def test_nonvanishing_limit_exit_2(self):
        assert run("error-table", "--degrees", "3,5", "--rows", "100").exit_code == 2

    def test_evaluates_the_dominant_coefficient_once(self, monkeypatch):
        calls = []
        evaluate = CyclotomicInt.evaluate

        def counting_evaluate(self, ctx):
            calls.append(self)
            return evaluate(self, ctx)

        monkeypatch.setattr(CyclotomicInt, "evaluate", counting_evaluate)
        result = run("error-table", "--degrees", "5,9,12", "--rows", "100,200,300")
        assert result.exit_code == 0
        assert len(calls) == 1


class TestBalancedCommand:
    def test_degree_two(self):
        _, result = payload(run("balanced", "--degrees", "2", "--max-n", "20"))
        assert result == {"max_n": 20, "balanced": [3, 7, 11, 15, 19]}

    def test_csv_format(self):
        result = run("balanced", "--degrees", "2", "--max-n", "10", "--format", "csv")
        assert result.output.strip().splitlines() == ["n", "3", "7"]

    def test_scan_builds_no_period_table(self, monkeypatch):
        # r = 20 here; the scan may read only the signs its window needs.
        K = parse_degrees("2^19+1")
        expected = [n for n in range(1, 101) if exp_sum(n, K) == 0]

        def small_sign_exponents(K, limit):
            if limit > 4096:
                raise AssertionError(f"sign table of {limit} entries requested")
            return sign_exponents(K, limit)

        patch_every_binding(monkeypatch, "sign_exponents", small_sign_exponents)
        result = run("balanced", "--degrees", "2^19+1", "--max-n", "100")
        assert result.exit_code == 0
        _, out = payload(result)
        assert out == {"max_n": 100, "balanced": expected}


class TestReportDiscipline:
    def test_output_is_deterministic(self):
        first = run("recurrence", "--degrees", "6,17").output
        second = run("recurrence", "--degrees", "6,17").output
        assert first == second

    def test_keys_sorted(self):
        output = run("c0", "--degrees", "3,5").output
        report = json.loads(output)
        assert list(report) == sorted(report)
        assert output == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_version_echoed(self):
        report, _ = payload(run("c0", "--degrees", "3"))
        from boolsum import __version__

        assert report["version"] == __version__

    def test_scalar_csv_flattening(self):
        result = run("c0", "--degrees", "3,5", "--format", "csv")
        lines = result.output.strip().splitlines()
        assert lines == ["asymptotically_balanced,false", "c0,1/2"]
