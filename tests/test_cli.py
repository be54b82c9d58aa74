import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from singlink import (
    BoundExceededError,
    CancelledMonomialError,
    DuplicateMonomialWarning,
    ExpandedPoly,
    InexactDivisionError,
    PolynomialSyntaxError,
    SinglinkError,
    WeightSystem,
    analyze,
    characteristic_divisor,
    is_well_formed_space,
    middle_betti,
    milnor_number,
    quasi_degree,
    registry_dump,
)
from singlink import classify, cli, monodromy
from singlink.milnor_algebra import require_polynomial_series
from singlink.monodromy import brief
from singlink.cli import (
    _big_int,
    _big_int_list,
    _divisor_pretty,
    _factored_pretty,
    _row_mu_b2,
    entry,
    parse_polynomial,
    render_json,
    render_json_line,
    render_polynomial,
    report_to_json_dict,
    scan_rows,
)
from conftest import clear_memos, count_calls, fermat, one_above_mu, relabeled
from divisibility import divisibility_condition
from poincare import poincare_series

DK1_POLY = "z0^5*z1 + z0*z2^3 + z1^4 + z3^3"
DK2_POLY = "z0^17*z2 + z0*z1^5 + z1*z2^3 + z3^2"


def test_parse_polynomial_reads_the_reference_support():
    assert parse_polynomial(DK1_POLY, nvars=4) == frozenset(
        {(5, 1, 0, 0), (1, 0, 3, 0), (0, 4, 0, 0), (0, 0, 0, 3)}
    )


def test_parse_polynomial_signs_coefficients_and_juxtaposition():
    assert parse_polynomial("-z0 + z1") == frozenset({(1, 0), (0, 1)})
    assert parse_polynomial("3*z0^2 + 2z1") == frozenset({(2, 0), (0, 1)})
    assert parse_polynomial("z0*z0") == frozenset({(2,)})
    assert parse_polynomial("z0 - -z1") == frozenset({(1, 0), (0, 1)})
    assert parse_polynomial("z0", nvars=3) == frozenset({(1, 0, 0)})
    assert parse_polynomial("2 + z0") == frozenset({(0,), (1,)})
    assert parse_polynomial("- -z1") == frozenset({(0, 1)})
    assert parse_polynomial("2z1") == frozenset({(0, 1)})
    assert parse_polynomial("z0 z1") == frozenset({(1, 1)})
    assert parse_polynomial("*z0 + * 3 z1") == frozenset({(1, 0), (0, 1)})
    assert parse_polynomial("z0\u00a0+\u3000z1 ^ 2") == frozenset({(1, 0), (0, 2)})
    assert parse_polynomial("z\u0663^\uff12", nvars=4) == frozenset({(0, 0, 0, 2)})
    assert parse_polynomial("z99") == frozenset({(0,) * 99 + (1,)})


# text, nvars, message, position: one row per kind of syntax error
SYNTAX_ERRORS = [
    ("", None, "empty polynomial", 0),
    ("   ", None, "empty polynomial", 0),
    ("z0 @", None, "unexpected character '@'", 3),
    ("z3^²", None, "unexpected character '²'", 3),
    ("z²", None, "variable needs an index, like z0", 0),
    ("z", None, "variable needs an index, like z0", 0),
    ("z0 + z ^2", None, "variable needs an index, like z0", 5),
    ("z0 +", None, "dangling sign at the end of the expression", 3),
    ("z0 - -", None, "dangling sign at the end of the expression", 5),
    ("z0 * ", None, "'*' needs a following factor", 3),
    ("z0*z1*z2 *", None, "'*' needs a following factor", 9),
    ("z0 * + z1", None, "'*' needs a following factor", 5),
    ("z0 ** z1", None, "'*' needs a following factor", 4),
    ("z0^", None, "'^' needs an integer exponent", 2),
    ("z0^z1", None, "'^' needs an integer exponent", 3),
    ("z0 ^ -2", None, "'^' needs an integer exponent", 5),
    ("^2 + z0", None, "expected a term", 0),
    ("z0 + 3^2", None, "expected a term", 6),
    ("z0^2^3", None, "expected a term", 4),
    ("z0^" + "9" * 5000, None, "integer has too many digits", 3),
    ("z" + "1" * 5000, 4, "integer has too many digits", 0),
    ("z2", 2, "variable z2 is out of range for 2 variables", 0),
    ("z0 + z1*z7", 4, "variable z7 is out of range for 4 variables", 5),
    ("z0 + z20000000", None, "variable z20000000 is out of range for 100 variables", 5),
    ("z0 + z1 + z5", 4, "variable z5 is out of range for 4 variables", 10),
    # a lexical error anywhere wins over an earlier syntax error
    ("z0 * + z1^" + "9" * 5000, None, "integer has too many digits", 10),
    ("z0 ^ ^ z1 @", None, "unexpected character '@'", 10),
    # positions count characters, and any Unicode space is one
    ("z0\u00a0+\u3000z1 ^", None, "'^' needs an integer exponent", 8),
    ("z0\u3000*\u00a0@", None, "unexpected character '@'", 5),
]


def test_parse_polynomial_syntax_errors_carry_positions():
    for text, nvars, message, position in SYNTAX_ERRORS:
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, nvars=nvars)
        assert str(err.value) == f"{message} (position {position})", text[:20]
        assert err.value.position == position


def test_parse_polynomial_cancellation_and_merging():
    with pytest.raises(CancelledMonomialError):
        parse_polynomial("z0 - z0")
    with pytest.raises(CancelledMonomialError):
        parse_polynomial("2*z0 - z0 - z0")
    with pytest.warns(DuplicateMonomialWarning):
        support = parse_polynomial("z0 + z0")
    assert support == frozenset({(1,)})


def test_render_polynomial_descending_order():
    support = {(5, 1, 0, 0), (1, 0, 3, 0), (0, 4, 0, 0), (0, 0, 0, 3)}
    assert render_polynomial(support) == DK1_POLY
    assert render_polynomial([]) == "0"
    assert render_polynomial([(0, 0)]) == "1"


def test_render_polynomial_refuses_non_integer_exponents():
    # truncation would print z0*z1^2
    with pytest.raises(TypeError, match="1.5 is a float"):
        render_polynomial([(1.5, 2, 0)])


def test_render_polynomial_refuses_negative_exponents():
    # the negative exponent used to be dropped, printing z1^2
    with pytest.raises(ValueError, match=r"monomial \(-1, 2\) has a negative exponent"):
        render_polynomial([(-1, 2)])
    with pytest.raises(ValueError, match="negative exponent"):
        render_polynomial([(0, 0, 3), (2, 0, -1)])


def test_divisor_pretty_renders_the_lambda_combination(report60):
    assert _divisor_pretty(()) == "0"
    assert _divisor_pretty(((2, -1),)) == "-Λ2"
    assert _divisor_pretty(((1, -1),)) == "-1"
    assert _divisor_pretty(((1, 1),)) == "1"
    assert _divisor_pretty(((1, -4), (2, 2), (6, -3))) == "-3·Λ6 + 2·Λ2 - 4"
    assert _divisor_pretty(report60.divisor) == "Λ60 + Λ20 + Λ12 - Λ4 - Λ3 + 1"
    d256 = characteristic_divisor(WeightSystem((11, 49, 69, 128), 256))
    assert _divisor_pretty(d256) == "Λ256 - Λ2 + 1"


def test_factored_pretty_renders_the_binomial_quotient(report60):
    assert _factored_pretty(((1, 2),)) == "(t-1)^2"
    assert _factored_pretty(()) == "1"
    assert _factored_pretty(((2, -1), (3, 2))) == "(t^3-1)^2 / (t^2-1)"
    quotient = "(t^60-1)(t^20-1)(t^12-1)(t-1) / (t^4-1)(t^3-1)"
    assert _factored_pretty(report60.divisor) == quotient
    invariants = report_to_json_dict(report60)["invariants"]
    assert invariants["factored_pretty"] == quotient
    assert invariants["factored"] == [[1, 1], [3, -1], [4, -1], [12, 1], [20, 1], [60, 1]]


def test_parse_render_round_trip():
    rng = random.Random(60)
    for _ in range(40):
        width = rng.randint(1, 5)
        support = {
            tuple(rng.randint(0, 6) for _ in range(width))
            for _ in range(rng.randint(1, 6))
        }
        text = render_polynomial(support)
        assert parse_polynomial(text, nvars=width) == frozenset(support)


def test_big_int_keeps_a_numeric_key_only_when_safe():
    out = {}
    _big_int(out, "small", 86)
    _big_int(out, "big", 2**60)
    assert out == {"small": 86, "small_str": "86", "big_str": str(2**60)}
    out = {}
    _big_int_list(out, "xs", [1, -2])
    _big_int_list(out, "ys", [1, 2**60])
    assert out == {"xs": [1, -2], "xs_str": ["1", "-2"], "ys_str": ["1", str(2**60)]}


def test_json_report_structure(report60):
    data = report_to_json_dict(report60)
    assert list(data) == [
        "input", "flags", "invariants", "strata", "classification", "provenance",
    ]
    assert data["input"]["polynomial"] == DK1_POLY
    assert data["input"]["weights"] == [9, 15, 17, 20]
    assert data["invariants"]["milnor_number"] == 86
    assert data["invariants"]["milnor_number_str"] == "86"
    assert data["invariants"]["characteristic_divisor"] == "Λ60 + Λ20 + Λ12 - Λ4 - Λ3 + 1"
    assert data["invariants"]["divisor_terms"][0] == [60, 1]
    assert data["invariants"]["hodge_numbers"] == {
        "h^{0,2}": 0, "h^{1,1}": 2, "h^{2,0}": 0,
    }
    assert data["classification"]["diffeomorphism_type"] == "#2(S²×S³)"
    assert data["classification"]["se_status"] == "known_SE"
    assert data["classification"]["registry_tag"] == "DK-1"
    assert data["provenance"]["orbifold_order_source"] == "derived"
    assert len(data["strata"]) == 6


def test_json_rendering_round_trips_byte_identically(all_reports):
    for report in all_reports:
        text = render_json(report)
        reloaded = json.loads(text)
        assert json.dumps(reloaded, indent=2, ensure_ascii=False) + "\n" == text


def test_cli_analyze_text_ends_with_the_diffeomorphism_type(capsys):
    code = entry(
        ["analyze", "--weights", "9,15,17,20", "--poly", DK1_POLY]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("diffeomorphism type: #2(S²×S³)\n")
    assert "Milnor number: 86" in out
    assert "SE status: known_SE (DK-1)" in out
    assert "\nfactored: (t^60-1)(t^20-1)(t^12-1)(t-1) / (t^4-1)(t^3-1)\n" in out


def test_cli_analyze_json_matches_the_library(capsys, report60):
    code = entry(
        ["analyze", "--weights", "9,15,17,20", "--poly", DK1_POLY, "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == render_json(report60)


def test_cli_analyze_reports_undetermined_type(capsys):
    code = entry(["analyze", "--weights", "1,1,2,2", "--poly", "z0^3 + z1^3 + z0*z2 + z1*z3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flags: quasi-smooth, space well formed, fano (index 3)\n" in out
    assert "SE status: not_well_formed\n" in out
    assert out.endswith("diffeomorphism type: undetermined (torsion status unknown)\n")


@pytest.mark.parametrize(
    "weights, poly, subset",
    [("1,1,1,1", "z0^2*z1 + z2^3 + z3^3", "{z1}"), ("2,2,1,3", "z0*z3 + z1*z3", "{z0}")],
)
def test_cli_analyze_reports_a_support_that_is_not_quasi_smooth(capsys, weights, poly, subset):
    assert entry(["analyze", "--weights", weights, "--poly", poly]) == 0
    out = capsys.readouterr().out
    assert "flags: not quasi-smooth, " in out
    assert "SE status: not_quasi_smooth\n" in out
    assert f"not quasi-smooth at {subset}: the generic member is singular off the origin" in out
    assert out.endswith("diffeomorphism type: undetermined (not quasi-smooth)\n")
    assert entry(["analyze", "--weights", weights, "--poly", poly, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["flags"])[0] == "quasi_smooth"
    assert data["flags"]["quasi_smooth"] is False
    assert data["classification"]["smale_k"] is None
    assert data["classification"]["diffeomorphism_type"] is None
    assert data["classification"]["se_status"] == "not_quasi_smooth"
    assert any(subset in n for n in data["provenance"]["notes"])


def test_cli_analyze_rejects_bad_input(capsys):
    # weights share a factor
    assert entry(["analyze", "--weights", "2,4,6,8", "--poly", "z0^4"]) == 1
    assert "error" in capsys.readouterr().err
    # polynomial is not quasi-homogeneous for the weights
    assert entry(["analyze", "--weights", "1,1,1,1", "--poly", "z0^2 + z1^3"]) == 1
    # explicit degree contradicts the monomials
    assert (
        entry(
            ["analyze", "--weights", "1,1,1,1", "--poly", "z0^2", "--degree", "3"]
        )
        == 1
    )


def test_cli_usage_errors_exit_one(capsys):
    assert entry(["analyze", "--weights", "1,1,1,1"]) == 1
    assert entry(["frobnicate"]) == 1
    assert entry([]) == 1
    assert entry(["analyze", "--weights", "a,b", "--poly", "z0"]) == 1
    capsys.readouterr()


def test_cli_wrong_registry_reference_is_a_consistency_failure(tmp_path, capsys):
    lines = registry_dump().splitlines()
    record = json.loads(lines[1])
    assert record["tag"] == "DK-2"
    record["invariants"] = {"orbifold_order": 99}
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = entry(
        [
            "analyze",
            "--weights", "11,49,69,128",
            "--poly", DK2_POLY,
            "--registry", str(path),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "consistency failure" in err
    assert "orbifold order vs registry reference" in err


def test_cli_unknown_registry_reference_exits_one(tmp_path, capsys):
    record = json.loads(registry_dump().splitlines()[1])
    record["invariants"] = {"orbifold_ordr": 37191}
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = entry(
        ["analyze", "--weights", "11,49,69,128", "--poly", DK2_POLY, "--registry", str(path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    message = "registry line 1: unknown reference invariants ['orbifold_ordr']"
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "value, message",
    [
        (None, "the reference orbifold order is null; omit it for no reference"),
        (0, "the reference orbifold order 0 is not positive"),
        (-37191, "the reference orbifold order -37191 is not positive"),
    ],
)
def test_cli_bad_registry_reference_order_exits_one(value, message, tmp_path, capsys):
    # each used to load: null as no reference, 0 and -37191 to fail only as exit 2
    record = json.loads(registry_dump().splitlines()[1])
    assert record["tag"] == "DK-2"
    record["invariants"] = {"orbifold_order": value}
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = entry(
        ["analyze", "--weights", "11,49,69,128", "--poly", DK2_POLY, "--registry", str(path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: registry line 1: {message}\n"


def test_cli_duplicate_registry_entries_exit_one(tmp_path, capsys):
    lines = registry_dump().splitlines()
    record = json.loads(lines[0])
    assert record["tag"] == "DK-1"
    record["tag"] = "DK-1 again"
    record["support"] = record["support"][::-1]
    path = tmp_path / "registry.jsonl"
    path.write_text("\n".join(lines + [json.dumps(record)]) + "\n", encoding="utf-8")
    assert entry(["registry", "--registry", str(path)]) == 1
    err = capsys.readouterr().err
    assert "registry line 4: DK-1 again duplicates DK-1 from line 1" in err


def test_cli_io_errors_exit_three(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert entry(["batch", missing]) == 3
    assert entry(["analyze", "--weights", "1,1,1,1", "--poly", "z0^2",
                  "--registry", missing]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_cli_divisor_degree_mismatch_is_a_consistency_failure(capsys, monkeypatch):
    clear_memos()
    monkeypatch.setattr(monodromy, "milnor_product", one_above_mu(monodromy.milnor_product))
    code = entry(["analyze", "--weights", "9,15,17,20", "--poly", DK1_POLY])
    assert code == 2
    assert capsys.readouterr().err == (
        "consistency failure: [stage: characteristic divisor] "
        "divisor degree 86 differs from Milnor product 87\n"
    )


def test_cli_batch_processes_good_records(tmp_path, capsys):
    records = [
        {"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY},
        {"weights": [1, 1, 1, 1], "degree": 2, "poly": "z0^2 + z1^2 + z2^2 + z3^2"},
        {"weights": [11, 49, 69, 128], "degree": 256, "poly": DK2_POLY},
    ]
    path = tmp_path / "batch.jsonl"
    # a whitespace-only line is skipped without being counted
    path.write_text(
        " \t\n".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    code = entry(["batch", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    out_lines = captured.out.splitlines()
    assert len(out_lines) == 3
    assert [json.loads(line)["classification"]["se_status"] for line in out_lines] == [
        "known_SE", "candidate", "known_SE",
    ]
    assert "ok=3 skipped=0 failed=0" in captured.err


def test_cli_batch_counts_skipped_and_failed_records(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(
        "\n".join(
            [
                json.dumps({"weights": [1, 1, 1, 1], "degree": 2,
                            "poly": "z0^2 + z1^2 + z2^2 + z3^2"}),
                "not json at all",
                json.dumps({"weights": [1, 1, 1, 1], "degree": 2}),
                json.dumps({"weights": [1, 1, 1, 1], "degree": 3,
                            "poly": "z0^2 + z1^2 + z2^2 + z3^2"}),
                "",
            ]
        ),
        encoding="utf-8",
    )
    code = entry(["batch", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 1
    assert "ok=1 skipped=2 failed=1" in captured.err
    assert "line 2: skipped" in captured.err
    assert "line 3: skipped" in captured.err
    assert "line 4: failed" in captured.err


# (weights, degree, poly): two cubics and DK-1 with a relabeling share a weight system,
# Fermat d = 14 is above the memos' mu cutoff, and the last two are refused, one with a
# non-integral mu and one on an ambient space that is not well formed
SHARED_RECORDS = [
    ("1,1,1,1", 3, "z0^3 + z1^3 + z2^3 + z3^3"),
    ("1,1,1,1", 3, "z0^2*z1 + z2^3 + z3^3"),
    ("9,15,17,20", 60, DK1_POLY),
    ("17,15,20,9", 60, "z1*z3^5 + z0^3*z3 + z1^4 + z2^3"),
    ("1,1,1,1", 14, "z0^14 + z1^14 + z2^14 + z3^14"),
    ("2,3,5,7", 16, "z0^8 + z0*z3^2 + z1^3*z3 + z0^3*z2^2"),
    ("2,2,2,1", 4, "z0^2 + z1^2 + z2^2 + z3^4"),
]


def test_cli_batch_lines_are_what_a_cold_analyze_prints_for_each_record(tmp_path, capsys):
    """A memo hit inside batch gives analyze's report, and a refused line the [stage: ...]
    text analyze prints."""
    path = tmp_path / "batch.jsonl"
    path.write_text(
        "".join(
            json.dumps({"weights": [int(w) for w in weights.split(",")], "degree": d, "poly": poly})
            + "\n"
            for weights, d, poly in SHARED_RECORDS
        ),
        encoding="utf-8",
    )
    clear_memos()
    assert entry(["batch", str(path)]) == 0
    batch = capsys.readouterr()
    reports, refusals = [], []
    for line, (weights, d, poly) in enumerate(SHARED_RECORDS, start=1):
        clear_memos()
        code = entry(["analyze", "--weights", weights, "--degree", str(d), "--poly", poly,
                      "--format", "json"])
        single = capsys.readouterr()
        assert code == (0 if line <= 5 else 1)
        if code == 0:
            reports.append(json.loads(single.out))
        else:
            refusals.append(f"line {line}: failed ({single.err.strip().removeprefix('error: ')})")
    assert [json.loads(x) for x in batch.out.splitlines()] == reports
    assert batch.err.splitlines() == refusals + ["ok=5 skipped=0 failed=2"]


FERMAT_16 = "z0^16 + z1^16 + z2^16 + z3^16"


def test_cli_analyze_over_the_milnor_ceiling_exits_one(capsys):
    start = time.perf_counter()
    assert entry(["analyze", "--weights", "1,1,1,1", "--poly", FERMAT_16]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "exceeds the analyze ceiling" in captured.err


def test_cli_batch_counts_a_record_over_the_milnor_ceiling_as_failed(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(
        json.dumps({"weights": [1, 1, 1, 1], "degree": 16, "poly": FERMAT_16}) + "\n"
        + json.dumps({"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY}) + "\n",
        encoding="utf-8",
    )
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    assert [json.loads(line)["input"]["weights"] for line in captured.out.splitlines()] == [
        [9, 15, 17, 20]
    ]
    assert "line 1: failed" in captured.err
    assert "ok=1 skipped=0 failed=1" in captured.err


SUPERSCRIPT_POLY = "z0^3 + z1^3 + z2^3 + z3^²"


def test_cli_analyze_refuses_a_superscript_exponent(capsys):
    assert entry(["analyze", "--weights", "1,1,1,1", "--poly", SUPERSCRIPT_POLY]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected character '²' (position 24)\n"


def test_cli_batch_counts_a_superscript_exponent_as_failed_and_goes_on(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(
        json.dumps({"weights": [1, 1, 1, 1], "degree": 3, "poly": SUPERSCRIPT_POLY}) + "\n"
        + json.dumps({"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY}) + "\n",
        encoding="utf-8",
    )
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    assert "line 1: failed (unexpected character '²' (position 24))" in captured.err
    assert captured.err.splitlines()[-1] == "ok=1 skipped=0 failed=1"
    golden = (Path(__file__).parent / "golden" / "report_dk1.json").read_text(encoding="utf-8")
    assert [json.loads(line) for line in captured.out.splitlines()] == [json.loads(golden)]


def test_parse_polynomial_refuses_an_explicit_width_over_the_ceiling(tmp_path, capsys):
    """An explicit width would give every term a vector that wide, so a width
    over the ceiling is refused before any is built."""
    assert parse_polynomial("z0", nvars=cli.SCAN_MAX_VARS) == frozenset(
        {(1,) + (0,) * (cli.SCAN_MAX_VARS - 1)}
    )
    with pytest.raises(BoundExceededError) as err:
        parse_polynomial("z0", nvars=cli.SCAN_MAX_VARS + 1)
    assert str(err.value) == "101 variables exceed the ceiling 100"
    # a batch record with 40,000 weights and 400 terms fails at once
    record = {"weights": [1] * 40000, "degree": 1, "poly": " + ".join(f"z{i}" for i in range(400))}
    path = tmp_path / "wide.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    start = time.perf_counter()
    assert entry(["batch", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "ok=0 skipped=0 failed=1"


def test_cli_batch_reads_past_bytes_that_are_not_utf8(tmp_path, capsys):
    """A byte that is not UTF-8 costs only its own line: outside a string the
    line is not JSON, inside the poly it is an unexpected character."""
    dk1 = json.dumps({"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY}).encode()
    path = tmp_path / "batch.jsonl"
    path.write_bytes(
        dk1 + b"\n"
        + b'{"weights": [1, 1, 1, 1], "degree": 3, \xff"poly": "z0^3 + z1^3 + z2^3 + z3^3"}\n'
        + b'{"weights": [1, 1, 1, 1], "degree": 3, "poly": "z0^3 + z1^3 + z2^3 + z3^3\xff"}\n'
    )
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err[0].startswith("line 2: skipped (")
    assert err[1:] == [
        "line 3: failed (unexpected character '\ufffd' (position 25))",
        "ok=1 skipped=1 failed=1",
    ]
    golden = (Path(__file__).parent / "golden" / "report_dk1.json").read_text(encoding="utf-8")
    assert [json.loads(line) for line in captured.out.splitlines()] == [json.loads(golden)]


def test_cli_registry_that_is_not_utf8_exits_one(tmp_path, capsys):
    """Replacing the bytes would accept a corrupted tag, so the file is refused."""
    path = tmp_path / "registry.jsonl"
    text = registry_dump().replace("DK-2", "DK-\udcff2")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    for argv in (["registry"], ["analyze", "--weights", "1,1,1,1", "--poly", "z0^3"]):
        assert entry([*argv, "--registry", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: registry {path} is not valid UTF-8 (")


def _batch_of(tmp_path, capsys, records):
    """Run `batch` on the records, then DK-1, check that DK-1's golden is the one
    report, and return the stderr lines."""
    path = tmp_path / "batch.jsonl"
    records = [*records, {"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    golden = (Path(__file__).parent / "golden" / "report_dk1.json").read_text(encoding="utf-8")
    assert [json.loads(line) for line in captured.out.splitlines()] == [json.loads(golden)]
    return captured.err.splitlines()


# Milnor products with more digits than int -> str allows (4,300 by default on
# CPython 3.11+): mu = (E - 1)^4 for E = 1,100 nines, and for E = 1,099 nines
# then an 8 a product E^3 (E - 3) / 3 that is not an integer.
HUGE_E = int("9" * 1_100)
ODD_E = int("9" * 1_099 + "8")
DIGIT_LIMIT_RECORDS = [
    {"weights": [1, 1, 1, 1], "degree": HUGE_E,
     "poly": " + ".join(f"z{i}^{HUGE_E}" for i in range(4))},
    {"weights": [1, 1, 1, 3], "degree": ODD_E,
     "poly": f"z0^{ODD_E} + z1^{ODD_E} + z2^{ODD_E} + z0^{ODD_E - 3}*z3"},
]


@pytest.mark.parametrize("record", DIGIT_LIMIT_RECORDS, ids=["mu over the ceiling", "fractional mu"])
def test_cli_analyze_refuses_a_milnor_product_past_the_digit_limit(record, capsys):
    weights = ",".join(map(str, record["weights"]))
    assert entry(["analyze", "--weights", weights, "--poly", record["poly"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [stage: milnor number] Milnor ")
    assert len(captured.err.splitlines()) == 1


def test_cli_batch_counts_a_milnor_product_past_the_digit_limit_as_failed(tmp_path, capsys):
    err = _batch_of(tmp_path, capsys, DIGIT_LIMIT_RECORDS)
    for lineno, line in enumerate(err[:2], start=1):
        assert line.startswith(f"line {lineno}: failed ([stage: milnor number] Milnor ")
    assert err[-1] == "ok=1 skipped=0 failed=2"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int -> str digit limit")
def test_brief_shows_a_number_past_the_digit_limit_as_a_power_of_ten():
    assert brief(50625) == "50625"
    assert brief(Fraction(7, 3)) == "7/3"
    assert brief(10**5000) == "~10^5000"
    assert brief(Fraction(10**9000 + 1, 10**3000)) == "~10^6000"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int -> str digit limit")
def test_rendering_refuses_an_integer_past_the_digit_limit(report60):
    """No analyze input under MAX_MU has such a coefficient (Fermat d = 15 has
    well under 1,000 digits), but a report that does is refused by name."""
    report = report60._replace(expanded=ExpandedPoly((-1, 0, 10**5000)))
    limit = sys.get_int_max_str_digits()
    message = f"expanded_coefficients exceeds the int -> str limit of {limit} digits"
    for render in (render_json, render_json_line):
        with pytest.raises(BoundExceededError) as caught:
            render(report)
        assert str(caught.value) == message
    with pytest.raises(BoundExceededError, match="^milnor_number exceeds"):
        _big_int({}, "milnor_number", -(10**5000))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int -> str digit limit")
def test_rendering_refuses_an_integer_past_the_digit_limit_after_a_warm_render(report60):
    for _ in range(2):
        render_json_line(report60)
    test_rendering_refuses_an_integer_past_the_digit_limit(report60)


def _assert_line_is_the_plain_dump(report):
    assert render_json_line(report) == json.dumps(report_to_json_dict(report), ensure_ascii=False)


def test_render_json_line_is_the_plain_dump_on_memo_hits(all_reports):
    """The fragment memo is keyed on the weight-only field values: each relabeling
    hits it, and so does DK-3, whose values are DK-2's."""
    clear_memos()
    perms = ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0))
    for report in all_reports:
        for perm in perms:
            _assert_line_is_the_plain_dump(analyze(relabeled(report.support, report.weights, perm)))
    distinct = len({cli._weight_only_fields(r) for r in all_reports})
    assert distinct == 2
    info = cli._invariants_fragment.cache_info()
    assert (info.misses, info.hits) == (distinct, len(all_reports) * len(perms) - distinct)


def test_render_json_line_is_the_plain_dump_for_cubics_that_share_a_weight_system():
    clear_memos()
    for poly in ("z0^3 + z1^3 + z2^3 + z3^3", "z0^2*z1 + z2^3 + z3^3"):
        _assert_line_is_the_plain_dump(analyze(quasi_degree(parse_polynomial(poly), (1, 1, 1, 1))))
    assert cli._invariants_fragment.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_render_json_line_stores_no_fragment_above_the_mu_cutoff():
    d = next(d for d in range(2, 20) if (d - 1) ** 4 > classify.MEMO_MAX_MU)
    report = analyze(fermat(d))
    before = cli._invariants_fragment.cache_info()
    for _ in range(2):
        _assert_line_is_the_plain_dump(report)
    assert cli._invariants_fragment.cache_info() == before


def test_a_replaced_field_renders_its_own_value_after_a_memo_hit(report60):
    for _ in range(2):
        render_json_line(report60)
    replaced = report60._replace(expanded=ExpandedPoly((-1, 0, 7)))
    invariants = json.loads(render_json_line(replaced))["invariants"]
    assert invariants["expanded_coefficients"] == [-1, 0, 7]
    assert invariants["expanded_degree"] == 2
    _assert_line_is_the_plain_dump(replaced)
    # an equal value of another type is another key: 86.0 renders as 86.0
    _assert_line_is_the_plain_dump(report60._replace(milnor_number=86.0))
    invariants = json.loads(render_json_line(report60))["invariants"]
    assert invariants["expanded_coefficients"] == list(report60.expanded.coefficients)


def test_the_fragment_memo_keeps_at_most_its_entry_bound(report60):
    clear_memos()
    for signature in range(classify.MEMO_ENTRIES + 50):
        render_json_line(report60._replace(signature=-signature))
    info = cli._invariants_fragment.cache_info()
    assert info.currsize == info.maxsize == classify.MEMO_ENTRIES


def test_both_renderers_are_the_plain_dump(all_reports):
    """The joined expanded_* lists give json.dumps's own bytes: Fermat d = 2..15 (both lists
    up to d = 5, only the strings above), the DK links, and replaced expansions at the edge of
    JSON-safe (both lists, then only the strings) and with one coefficient."""
    reports = [analyze(fermat(d)) for d in range(2, 16)] + list(all_reports)
    # mu = (d - 1)^4 and both routes give b2 = d^3 - 4d^2 + 6d - 3: 28,561 and 2,041 at d = 14
    assert [(r.milnor_number, r.b2_divisor, r.b2_hodge) for r in reports[:14]] == [
        ((d - 1) ** 4, d**3 - 4 * d**2 + 6 * d - 3, d**3 - 4 * d**2 + 6 * d - 3) for d in range(2, 16)
    ]
    reports += [
        all_reports[0]._replace(expanded=ExpandedPoly(coefficients))
        for coefficients in ((-(2**53 - 1), 0, 2**53 - 1), (-1, 0, 2**53), (7,))
    ]
    clear_memos()
    for report in reports:
        data = report_to_json_dict(report)
        assert render_json(report) == json.dumps(data, indent=2, ensure_ascii=False) + "\n"
        for _ in range(2):  # a memo miss, then a hit up to MEMO_MAX_MU
            assert render_json_line(report) == json.dumps(data, ensure_ascii=False)
    safe = [json.loads(render_json(r))["invariants"] for r in reports[-3:]]
    assert ["expanded_coefficients" in invariants for invariants in safe] == [True, False, True]


def test_the_renderers_encode_no_coefficient_item_by_item(monkeypatch):
    """At Fermat d = 8 (mu = 2,401, above MEMO_MAX_MU) each coefficient used to cost one
    call of the string encoder, 2,456 calls per render in all."""
    report = analyze(fermat(8))
    calls = count_calls(monkeypatch, json.encoder, "encode_basestring")
    clear_memos()
    for render in (render_json, render_json_line):
        calls.clear()
        render(report)
        assert 0 < len(calls) < 100, render.__name__


def test_decimals_converts_repeated_values_like_str():
    big = 3**500
    values = [0, big, -big, 0, -1, big, 1, -big, 0, 2**53, -(2**53), 1]
    assert cli._decimals("xs", values) == ([str(v) for v in values], False)
    lone_negatives = [-7, 0, -(3**400)]  # no positive twin shares their magnitude's str
    assert cli._decimals("xs", lone_negatives) == ([str(v) for v in lone_negatives], False)
    assert cli._decimals("xs", []) == ([], True)
    # the flag is whether every magnitude is under 2^53, a bound the JSON numbers keep
    edge = [-(2**53 - 1), 0, 2**53 - 1, -(2**53 - 1)]
    assert cli._decimals("xs", edge) == ([str(v) for v in edge], True)
    assert cli._decimals("xs", [1, -(2**53)]) == (["1", str(-(2**53))], False)


def test_the_largest_memoized_fragment_is_stored_one_byte_per_character():
    """(2, 3, 5, 7) at d = 28 (mu = 1,495) has the largest fragment at mu <= MEMO_MAX_MU
    (README, Performance): 86,142 bytes as one string, two bytes per character for its Λ."""
    support = parse_polynomial("z0^14 + z1^7*z3 + z1*z2^5 + z3^4")
    report = analyze(quasi_degree(support, (2, 3, 5, 7)))
    assert report.milnor_number == 1495 <= classify.MEMO_MAX_MU
    head, bulk = cli._invariants_fragment(*cli._weight_only_fields(report))
    assert bulk.isascii() and bulk.startswith('"expanded_degree"')
    assert sys.getsizeof(head) + sys.getsizeof(bulk) < 45_000


def test_cli_batch_counts_a_render_failure_as_failed(tmp_path, capsys, monkeypatch):
    original = cli.render_json_line
    rendered = []

    def refuse_the_first(report):
        rendered.append(report.weights)
        if len(rendered) == 1:
            raise BoundExceededError("too many digits")
        return original(report)

    monkeypatch.setattr(cli, "render_json_line", refuse_the_first)
    cubic = {"weights": [1, 1, 1, 1], "degree": 3, "poly": "z0^3 + z1^3 + z2^3 + z3^3"}
    err = _batch_of(tmp_path, capsys, [cubic])
    assert err == ["line 1: failed (too many digits)", "ok=1 skipped=0 failed=1"]
    assert rendered == [(1, 1, 1, 1), (9, 15, 17, 20)]


def test_cli_batch_counts_a_record_with_socle_degree_2e7_and_mu_2_as_ok(tmp_path, capsys):
    """Socle degree T = 2 * 10^7 with mu = 2 is reported: analyze bounds mu, not T."""
    m = 10**7
    record = {"weights": [2 * m, 3 * m, 1, 6 * m - 1], "degree": 6 * m, "poly": "z0^3 + z1^2 + z2*z3"}
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["ok=1 skipped=0 failed=0"]
    report = json.loads(captured.out)
    assert report["invariants"]["milnor_number"] == 2
    assert report["classification"]["diffeomorphism_type"] == "S⁵"


def test_cli_batch_skips_non_integer_numbers_and_a_non_string_poly(tmp_path, capsys):
    # the first record used to be truncated to DK-1 and analyzed (ok=1)
    path = tmp_path / "batch.jsonl"
    path.write_text(
        "".join(
            json.dumps(r) + "\n"
            for r in [
                {"weights": [9.9, 15, 17, 20], "degree": 60.7, "poly": DK1_POLY},
                {"weights": [9, 15, 17, 20], "degree": 60.0, "poly": DK1_POLY},
                {"weights": [True, 15, 17, 20], "degree": 60, "poly": DK1_POLY},
                {"weights": [9, 15, 17, 20], "degree": 60, "poly": 5},
            ]
        ),
        encoding="utf-8",
    )
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "ok=0 skipped=4 failed=0"
    refused = "skipped (weights and degree must be of type int;"
    assert f"line 1: {refused} 9.9 is a float)" in captured.err
    assert f"line 2: {refused} 60.0 is a float)" in captured.err
    assert f"line 3: {refused} True is a bool)" in captured.err
    assert "line 4: skipped (poly must be a string, got 5)" in captured.err


def test_cli_wrong_stated_degree_is_named(tmp_path, capsys):
    quadric = "z0^2 + z1^2 + z2^2 + z3^2"
    assert entry(["analyze", "--weights", "1,1,1,1", "--poly", quadric, "--degree", "3"]) == 1
    message = "monomials have weighted degrees 2; the stated degree is 3"
    assert capsys.readouterr().err == f"error: {message}\n"
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"weights": [1, 1, 1, 1], "degree": 3, "poly": quadric}) + "\n",
                    encoding="utf-8")
    assert entry(["batch", str(path)]) == 0
    assert f"line 1: failed ({message})" in capsys.readouterr().err


def test_cli_batch_writes_to_a_file(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text(
        json.dumps({"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY}) + "\n",
        encoding="utf-8",
    )
    dst = tmp_path / "out.jsonl"
    code = entry(["batch", str(src), "--out", str(dst)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "ok=1 skipped=0 failed=0" in captured.err
    record = json.loads(dst.read_text(encoding="utf-8"))
    assert record["invariants"]["milnor_number"] == 86
    # the line is the golden report, dumped compactly by this Python's own json
    golden = (Path(__file__).parent / "golden" / "report_dk1.json").read_text(encoding="utf-8")
    assert dst.read_text(encoding="utf-8") == json.dumps(json.loads(golden), ensure_ascii=False) + "\n"


def test_cli_batch_refuses_to_overwrite_its_input(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    text = json.dumps({"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY}) + "\n"
    path.write_text(text, encoding="utf-8")
    assert entry(["batch", str(path), "--out", str(path)]) == 1
    assert "is the input file" in capsys.readouterr().err
    assert path.read_text(encoding="utf-8") == text


def test_cli_batch_streams_its_input(tmp_path, monkeypatch, capsys):
    """Record 2 is written only after record 1 was analyzed, so a batch that
    reads its whole input before the first record sees one record, not two."""
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    first_analyzed = threading.Event()
    real_analyze = cli.analyze

    def analyze_and_signal(*args, **kwargs):
        report = real_analyze(*args, **kwargs)
        first_analyzed.set()
        return report

    monkeypatch.setattr(cli, "analyze", analyze_and_signal)
    records = [
        {"weights": [9, 15, 17, 20], "degree": 60, "poly": DK1_POLY},
        {"weights": [1, 1, 1, 1], "degree": 2, "poly": "z0^2 + z1^2 + z2^2 + z3^2"},
    ]

    def writer():
        with open(fifo, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(records[0]) + "\n")
            handle.flush()
            if first_analyzed.wait(timeout=10):
                handle.write(json.dumps(records[1]) + "\n")

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    code = entry(["batch", str(fifo)])
    thread.join(timeout=10)
    assert not thread.is_alive()
    captured = capsys.readouterr()
    assert code == 0
    assert "ok=2 skipped=0 failed=0" in captured.err
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["invariants"]["milnor_number"] for r in reports] == [86, 1]


def test_cli_batch_accepts_an_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert entry(["batch", str(path)]) == 0
    assert "ok=0 skipped=0 failed=0" in capsys.readouterr().err


def test_scan_includes_the_reference_weight_system():
    rows = list(scan_rows(20))
    target = {
        "weights": [9, 15, 17, 20],
        "degree": 60,
        "milnor_number": 86,
        "b2_divisor": 2,
    }
    assert target in rows
    # nondecreasing weight order, no duplicates
    keys = [tuple(r["weights"]) for r in rows]
    assert all(tuple(sorted(k)) == k for k in keys)
    assert len(keys) == len(set(keys))


def test_scan_smallest_case():
    rows = list(scan_rows(1))
    assert rows == [
        {"weights": [1, 1, 1, 1], "degree": 3, "milnor_number": 16, "b2_divisor": 6}
    ]


def pipeline_mu_b2(system):
    """milnor_number and middle_betti(characteristic_divisor), null on failure."""
    try:
        mu = milnor_number(system)
    except SinglinkError:
        return None, None
    try:
        return mu, middle_betti(characteristic_divisor(system))
    except SinglinkError:
        return mu, None


def reference_scan_rows(max_weight, index, nvars):
    """The scan by its definition: every nondecreasing tuple, the weights
    module's well-formedness and divisibility tests, and the library's
    milnor_number and characteristic_divisor (pipeline_mu_b2)."""
    for ws in combinations_with_replacement(range(1, max_weight + 1), nvars):
        if math.gcd(*ws) != 1:
            continue
        degree = sum(ws) - index
        if degree < 1:
            continue
        system = WeightSystem(ws, degree)
        if not is_well_formed_space(system):
            continue
        if not divisibility_condition(system):
            continue
        mu, b2 = pipeline_mu_b2(system)
        yield {"weights": list(ws), "degree": degree, "milnor_number": mu, "b2_divisor": b2}


def test_scan_fast_path_matches_the_generic_path():
    """Whole rows, in order, equal the reference scan for every variable count."""
    with_b2 = 0
    for nvars, max_weight in ((2, 12), (3, 24), (4, 15), (5, 15), (6, 8)):
        for index in (-1, 0, 1, 2):
            rows = list(scan_rows(max_weight, index=index, nvars=nvars))
            assert rows == list(reference_scan_rows(max_weight, index, nvars)), (nvars, index)
            assert rows or nvars == 2
            with_b2 += sum(r["b2_divisor"] is not None for r in rows)
    assert with_b2 > 0


def _prefix_residue(row):
    """K_P = base * prod(base - w) over the prefix, base = d - last weight."""
    *prefix, last = row["weights"]
    base = row["degree"] - last
    return base * math.prod(base - w for w in prefix)


def _integral_mu(row):
    ws, degree = row["weights"], row["degree"]
    mu, rest = divmod(math.prod(degree - w for w in ws), math.prod(ws))
    return mu if degree > max(ws) and not rest else None


def test_scan_integral_rows_satisfy_the_prefix_residue_lemma():
    """An integral mu needs the last weight to divide K_P, and the scan's mu is
    null exactly where the products say it is not integral."""
    integral = 0
    for nvars, max_weight in ((3, 30), (4, 20), (5, 12)):
        for index in (-1, 0, 1, 2):
            for row in scan_rows(max_weight, index=index, nvars=nvars):
                mu = _integral_mu(row)
                assert row["milnor_number"] == mu, row
                if mu is not None:
                    integral += 1
                    assert _prefix_residue(row) % row["weights"][-1] == 0, row
    assert integral > 100


def test_scan_rows_at_max_weight_128_keep_every_integral_mu():
    """The (128, 4) rows with a Milnor number, counted before the prune: each
    satisfies the lemma and the library's mu and b2; 25 of the 78 with a b2
    have no polynomial Poincare product, so the row certifies no isolated
    singularity."""
    kept = [r for r in scan_rows(128) if r["milnor_number"] is not None]
    with_b2 = [r for r in kept if r["b2_divisor"] is not None]
    assert (len(kept), len(with_b2)) == (425, 78)
    for row in kept:
        assert _prefix_residue(row) % row["weights"][-1] == 0, row
        assert (row["milnor_number"], row["b2_divisor"]) == pipeline_mu_b2(
            WeightSystem(tuple(row["weights"]), row["degree"])
        ), row
    no_series, refused = [], []
    for row in with_b2:
        w = WeightSystem(tuple(row["weights"]), row["degree"])
        for route, failed in ((poincare_series, no_series), (require_polynomial_series, refused)):
            try:
                route(w)
            except InexactDivisionError:
                failed.append(row["weights"])
    assert len(no_series) == 25 and [2, 3, 13, 35] in no_series
    assert refused == no_series  # the subset-gcd test decides the same rows


def test_scan_runs_the_row_kernel_only_where_the_last_weight_divides_k(monkeypatch):
    calls = []
    real = cli._row_mu_b2

    def counting(ws, degree):
        calls.append((ws, degree))
        return real(ws, degree)

    expected = list(scan_rows(48))
    monkeypatch.setattr(cli, "_row_mu_b2", counting)
    assert list(scan_rows(48)) == expected
    reached = [
        (tuple(r["weights"]), r["degree"])
        for r in expected
        if _prefix_residue(r) % r["weights"][-1] == 0
    ]
    assert calls == reached
    assert len(expected) > 5 * len(reached)


def test_scan_other_variable_counts_use_the_generic_path():
    rows = list(scan_rows(6, index=1, nvars=3))
    assert all(len(r["weights"]) == 3 for r in rows)
    # cone over a conic: Delta = t + 1, so the eigenvalue 1 does not occur
    assert {"weights": [1, 1, 1], "degree": 2, "milnor_number": 1, "b2_divisor": 0} in rows


def test_scan_validates_its_bounds():
    with pytest.raises(BoundExceededError):
        list(scan_rows(513))
    with pytest.raises(BoundExceededError):
        list(scan_rows(0))
    with pytest.raises(BoundExceededError):
        list(scan_rows(5, nvars=1))


def test_scan_bounds_its_variable_count():
    # one tuple passes the tuple ceiling; 1200 variables used to overflow the recursion
    with pytest.raises(BoundExceededError):
        scan_rows(1, nvars=cli.SCAN_MAX_VARS + 1)
    with pytest.raises(BoundExceededError):
        scan_rows(1, nvars=1200)
    assert [len(r["weights"]) for r in scan_rows(1, nvars=cli.SCAN_MAX_VARS)] == [100]


def test_scan_work_ceiling_is_the_largest_four_variable_scan():
    # nondecreasing tuples: comb(max_weight + nvars - 1, nvars) <= comb(515, 4)
    with pytest.raises(BoundExceededError):
        scan_rows(202, nvars=5)
    with pytest.raises(BoundExceededError):
        scan_rows(111, nvars=6)
    scan_rows(512)
    scan_rows(201, nvars=5)
    scan_rows(110, nvars=6)


def test_row_mu_b2_nulls_mirror_the_pipeline_rules():
    assert _row_mu_b2((9, 15, 17, 20), 60) == (86, 2)
    assert _row_mu_b2((1, 1, 1, 1), 2) == (1, 1)
    # non-integral Milnor product
    assert _row_mu_b2((2, 3, 5, 7), 16) == (None, None)
    # degree not above the largest weight
    assert _row_mu_b2((2, 1, 1, 1), 2) == (None, None)
    assert _row_mu_b2((12, 6, 1, 1), 4) == (None, None)


def test_cli_scan_text_format(capsys):
    code = entry(["scan", "--max-weight", "1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "w=(1,1,1,1) d=3 mu=16 b2=6\n"


def test_cli_scan_jsonl_and_out_file(tmp_path, capsys):
    dst = tmp_path / "rows.jsonl"
    code = entry(["scan", "--max-weight", "4", "--out", str(dst)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rows = [json.loads(line) for line in dst.read_text(encoding="utf-8").splitlines()]
    assert rows == list(scan_rows(4))


def test_cli_scan_jsonl_writes_mu_and_b2_as_plain_integers_past_two_to_the_53(capsys):
    """A scan row has no _str twins: 13 of the 14 rows of 16 weights up to 2 carry a mu
    above 2^53, as a plain JSON integer."""
    assert entry(["scan", "--max-weight", "2", "--vars", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        '{"weights": [' + ", ".join(["1"] * 16) + '], "degree": 15, '
        '"milnor_number": 2177953337809371136, "b2_divisor": 145196889187291410}'
    )
    rows = [json.loads(line) for line in lines]
    assert {tuple(row) for row in rows} == {("weights", "degree", "milnor_number", "b2_divisor")}
    assert (len(rows), sum((row["milnor_number"] or 0) > 2**53 for row in rows)) == (14, 13)


def test_cli_scan_over_the_ceiling_exits_one(capsys):
    assert entry(["scan", "--max-weight", "513"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_scan_over_the_work_ceiling_exits_one_at_once(capsys):
    assert entry(["scan", "--vars", "5", "--max-weight", "512"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_scan_over_the_variable_ceiling_exits_one(capsys):
    assert entry(["scan", "--vars", "1200", "--max-weight", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_cli_registry_prints_the_builtin_table(capsys):
    code = entry(["registry"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == registry_dump()


def test_cli_registry_round_trips_through_a_file(tmp_path, capsys):
    path = tmp_path / "registry.jsonl"
    assert entry(["registry", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == registry_dump()
    assert entry(["registry", "--registry", str(path)]) == 0
    assert capsys.readouterr().out == registry_dump()


def test_cli_assume_isolated_flag(tmp_path, capsys):
    # isolatedness is decided from the support: the old flag is a usage error
    batch = tmp_path / "in.jsonl"
    batch.write_text("", encoding="utf-8")
    for flag in ("--assume-isolated", "--no-assume-isolated"):
        assert entry(["analyze", "--weights", "9,15,17,20", "--poly", DK1_POLY, flag]) == 1
        assert entry(["batch", str(batch), flag]) == 1
    assert capsys.readouterr().out == ""


def test_cli_registry_refuses_an_entry_that_is_not_quasi_smooth(tmp_path, capsys):
    record = {
        "weights": [1, 1, 1, 1],
        "degree": 3,
        "support": [[2, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
        "tag": "axis",
        "citation": "a cubic cone singular along a line",
    }
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert entry(["registry", "--registry", str(path)]) == 1
    err = capsys.readouterr().err
    assert "registry line 1: registry entry axis is not quasi-smooth at {z1}" in err


def test_cli_registry_refuses_a_non_fano_se_claim(tmp_path, capsys):
    # refused input like any other bad line: exit 1 with the line number, not 2
    record = {
        "weights": [1, 1, 1, 1],
        "degree": 5,
        "support": [[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]],
        "tag": "quintic",
        "citation": "none",
    }
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert entry(["registry", "--registry", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: registry line 1: registry entry quintic claims an SE metric"
    )


def test_cli_registry_refuses_a_string_obstructed_flag(tmp_path, capsys):
    record = dict(json.loads(registry_dump().splitlines()[0]), obstructed="false")
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert entry(["registry", "--registry", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: registry line 1: obstructed must be a bool, not 'false'\n"


def test_cli_degree_option_matches_inference(capsys, report60):
    code = entry(
        ["analyze", "--weights", "9,15,17,20", "--poly", DK1_POLY,
         "--degree", "60", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == render_json(report60)


# dataclasses would load inspect, ast, dis and tokenize, and fractions decimal and numbers;
# typing is read only in annotations, which `from __future__ import annotations` never runs
_COLD_START = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import singlink, singlink.cli\n"
    "from singlink.cli import parse_polynomial, render_json, render_text\n"
    f"f = singlink.quasi_degree(parse_polynomial({DK1_POLY!r}, 4), (9, 15, 17, 20))\n"
    "report = singlink.analyze(f)\n"
    "assert render_text(report) and render_json(report)\n"
    "loaded = set(sys.modules) - before\n"
    "heavy = {'dataclasses', 'inspect', 'fractions', 'decimal', 'typing'}\n"
    "print(report.registry_tag, sorted(loaded & heavy))\n"
)


def test_a_cold_dk1_report_loads_neither_dataclasses_nor_fractions():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START], capture_output=True, text=True, env=env, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "DK-1 []\n", "")
