import hashlib
import json

import pytest

from schurlab import cli, factor, ffield, mpoly, vschur
from schurlab.cli import main
from schurlab.ffield import FieldSpec
from schurlab.mpoly import MultiPoly


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_tpoly_prints_polynomial(capsys):
    status, out, _ = run_cli(capsys, "tpoly", "--A", "3", "--B", "1", "--char", "0")
    assert status == 0
    assert out == "X + Y + Z\n"


def test_rpoly_over_f2(capsys):
    status, out, _ = run_cli(capsys, "rpoly", "--A", "3", "--B", "1", "--char", "2")
    assert status == 0
    assert "X^3*Y" in out


def test_schur_command(capsys):
    status, out, _ = run_cli(capsys, "schur", "--l1", "1", "--l2", "0", "--l3", "0")
    assert status == 0
    assert out == "X + Y + Z\n"


def test_verify_fact_pass(capsys):
    status, out, _ = run_cli(capsys, "verify-fact", "--which", "eq1", "--p", "3", "--r", "1")
    assert status == 0
    assert "verdict=pass" in out and "factor_count=1" in out


def test_degree_both_mode(capsys):
    status, out, _ = run_cli(capsys, "degree", "--p", "3", "--r", "3", "--s", "1", "--mode", "both")
    assert status == 0
    assert out.strip() == "formula=2 oracle=2 agree=true"


def test_degree_json_record(capsys):
    status, out, _ = run_cli(
        capsys, "degree", "--p", "3", "--r", "3", "--s", "1", "--mode", "both",
        "--format", "json",
    )
    assert status == 0
    record = json.loads(out)
    assert record["formula"] == 2 and record["oracle"] == 2 and record["agree"] is True


def test_counterexample_family(capsys):
    status, out, _ = run_cli(capsys, "counterexample", "--p", "3", "--m", "1,4,28")
    assert status == 0
    assert out.count("identity_holds=true") == 3


def test_counterexample_negative_control_fails(capsys):
    status, out, _ = run_cli(capsys, "counterexample", "--p", "3", "--m", "10")
    assert status == 1
    assert "identity_holds=false" in out


def test_counterexample_single_mode_refusals_come_from_the_library(capsys):
    status, out, err = run_cli(
        capsys, "counterexample", "--p", "3", "--m", "10001", "--mode", "direct"
    )
    assert status == 2
    assert "m=10001 is too large to expand directly" in err
    assert "identity_holds" not in out
    status, out, err = run_cli(
        capsys, "counterexample", "--p", "3", "--m", "7", "--mode", "frobenius_shortcut"
    )
    assert status == 2
    assert "shortcut mode needs m = 3^j + 1" in err
    assert "identity_holds" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "--chars", "0,4"),
        ("counterexample", "--p", "3", "--m", "4,0"),
        ("counterexample", "--p", "3", "--m", "4,10001", "--mode", "direct"),
    ],
    ids=["identity-chars-0-4", "counterexample-m-4-0", "counterexample-m-4-10001-direct"],
)
def test_bad_value_after_good_ones_is_a_usage_error_before_any_output(capsys, argv):
    """A bad value late in a list refuses the whole run before the first record."""
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error: ")


def test_signature_command_json(capsys):
    status, out, _ = run_cli(
        capsys, "signature", "--A", "5", "--B", "2", "--p", "7", "--r", "1",
        "--format", "json",
    )
    assert status == 0
    record = json.loads(out)
    assert record["all_verdicts_true"] is True
    assert len(record["witnesses"]) == 3


def test_signature_refuses_a_small_field_before_any_work(capsys, monkeypatch):
    from schurlab import factor

    def unreachable(*args, **kwargs):
        raise AssertionError("i_poly was built before the roots of unity were taken")

    monkeypatch.setattr(factor, "i_poly", unreachable)
    status, out, err = run_cli(capsys, "signature", "--A", "7", "--B", "2", "--p", "3", "--r", "1")
    assert (status, out) == (2, "")
    assert err == "error: 10 does not divide 3 - 1; need extension degree 4 over F_3\n"


def test_signature_refusal_names_the_degree_that_holds_every_root(capsys):
    # (13, 5) needs the 5th and 8th roots: F_7 lacks both, F_49 holds only the
    # 8th, and F_{7^4} holds the 40th
    status, out, err = run_cli(capsys, "signature", "--A", "13", "--B", "5", "--p", "7", "--r", "1")
    assert (status, out) == (2, "")
    assert err == "error: 40 does not divide 7 - 1; need extension degree 4 over F_7\n"
    status, out, err = run_cli(capsys, "signature", "--A", "13", "--B", "5", "--p", "7", "--r", "4")
    assert (status, err) == (0, "")
    assert out == "witnesses=11 lower=7 upper=4 all_verdicts_true=true\n"


def test_signature_reports_a_failed_check_of_the_quotient_as_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(vschur, "r_poly", lambda e: MultiPoly.zero(e.field))
    status, out, err = run_cli(capsys, "signature", "--A", "5", "--B", "2", "--p", "7", "--r", "1")
    assert (status, out) == (3, "")
    assert err == (
        "error: internal check failed: "
        "closed form of I times X^d - Y^d is not R for (A,B)=(5,2)\n"
    )


def test_factor_command_tsv(capsys):
    status, out, _ = run_cli(
        capsys, "factor", "--A", "3", "--B", "1", "--p", "3", "--r", "1",
        "--format", "tsv",
    )
    assert status == 0
    header, row = out.strip().split("\n")
    assert header.split("\t")[0] == "command"
    assert "3^1:[2]" in row


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_factor_never_formats_the_quotient(capsys, monkeypatch, fmt):
    # only T's leading Z-coefficient, a constant, is formatted; the report
    # would format T itself only if its to_json() were read
    formatted = []
    to_text = MultiPoly.to_text

    def recording(self, *args):
        formatted.append(self.num_terms())
        return to_text(self, *args)

    monkeypatch.setattr(MultiPoly, "to_text", recording)
    status, out, _ = run_cli(capsys, "factor", "--A", "16", "--B", "1", "--p", "2", "--r", "4",
                             "--format", fmt)
    assert status == 0 and "14" in out
    assert formatted == [1]


def test_tpoly_text_format_builds_no_terms_list(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the JSON terms list was built for a text record")

    monkeypatch.setattr(MultiPoly, "to_json_terms", refuse)
    status, out, _ = run_cli(capsys, "tpoly", "--A", "4", "--B", "1", "--char", "3")
    assert status == 0
    assert out == "X^2 + X*Y + X*Z + Y^2 + Y*Z + Z^2\n"
    with pytest.raises(AssertionError, match="terms list"):
        run_cli(capsys, "tpoly", "--A", "4", "--B", "1", "--char", "3", "--format", "json")


def test_factor_obeys_ceiling_above_512(capsys):
    args = ["factor", "--A", "11", "--B", "4", "--p", "521", "--r", "1"]
    status, out, _ = run_cli(capsys, *args)
    assert status == 0
    assert "factors=0" in out
    status, out, err = run_cli(capsys, *args, "--ceiling", "520")
    assert status == 2 and not out
    assert "exceeds the ceiling 520" in err


def test_factor_refuses_over_the_ceiling_before_building_the_field(capsys, monkeypatch):
    built = []

    def unreachable(*args):
        built.append(args)
        raise AssertionError("the field or T was built before the ceiling check")

    monkeypatch.setattr(ffield, "make_field", unreachable)
    monkeypatch.setattr(vschur, "t_poly", unreachable)
    monkeypatch.delenv(cli.CEILING_ENV, raising=False)
    args = ["factor", "--A", "3", "--B", "1", "--p", "3", "--r", "80"]
    for ceiling in ([], ["--ceiling", "1000000"]):  # the default, then the same cap named
        status, out, err = run_cli(capsys, *args, *ceiling)
        assert (status, out, built) == (2, "", [])
        assert err == "error: field order 3^80 exceeds the ceiling 1000000\n"


def test_sweep_verify_fact(capsys):
    status, out, _ = run_cli(
        capsys, "sweep", "verify-fact", "--which", "eq1", "--p", "2,3,5", "--r", "1:2"
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7  # 6 grid points + summary
    assert lines[-1] == "command=sweep target=verify-fact pass=6 fail=0 skip=0 points=6"


def test_sweep_degree_defaults_s_range(capsys):
    status, out, _ = run_cli(capsys, "sweep", "degree", "--p", "3", "--r", "2:5")
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + sum(r - 1 for r in range(2, 6))
    assert all("verdict=pass" in line for line in lines[:-1])


def test_sweep_ceiling_skip_and_strict(capsys, monkeypatch):
    args = ["sweep", "degree", "--p", "3", "--r", "13:13", "--s", "1", "--ceiling", "1000"]
    status, out, _ = run_cli(capsys, *args)
    assert status == 0
    assert "verdict=skip" in out and "reason=ceiling" in out
    status, out, _ = run_cli(capsys, *args, "--strict")
    assert status == 1


def test_sweep_jobs_deterministic(capsys):
    base = ["sweep", "degree", "--p", "2,3", "--r", "2:4", "--format", "json"]
    _, out1, _ = run_cli(capsys, *base)
    _, out2, _ = run_cli(capsys, *base, "--jobs", "4")
    assert out1 == out2


def test_identity_command(capsys):
    status, out, _ = run_cli(capsys, "identity", "--max-a", "5", "--chars", "0,2,5")
    assert status == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3 * 10
    assert all(line.endswith("verdict=pass") for line in lines)


def test_identity_determinism(capsys):
    base = ["identity", "--max-a", "4", "--chars", "3", "--format", "json"]
    status1, out1, _ = run_cli(capsys, *base)
    status2, out2, _ = run_cli(capsys, *base)
    assert (status1, status2) == (0, 0)
    assert len(out1.splitlines()) == 1 + 2 + 3  # the pairs A > B >= 1 with A <= 4
    assert out1 == out2


@pytest.mark.parametrize("flag, value", [("--seed", "7"), ("--samples", "2")])
def test_identity_takes_no_randomness_flags(capsys, flag, value):
    status, out, err = run_cli(capsys, "identity", flag, value)
    assert (status, out) == (2, "")
    assert "unrecognized arguments" in err


def test_identity_json_record_keys_are_the_exact_checks(capsys):
    status, out, _ = run_cli(capsys, "identity", "--max-a", "3", "--chars", "0,3",
                             "--format", "json")
    assert status == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2 * 3
    base = {"A", "B", "char", "command", "roundtrip", "schur", "symmetric", "verdict"}
    for record in records:
        want = base | {"complete_homogeneous"} if record["B"] == 1 else base
        assert set(record) == want


def test_config_file_supplies_parameters(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"A": 3, "B": 1, "char": 0}))
    status, out, _ = run_cli(capsys, "tpoly", "--config", str(cfg))
    assert status == 0
    assert out == "X + Y + Z\n"


def test_config_flag_wins_over_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"A": 3, "B": 1, "char": 0}))
    status, out, _ = run_cli(capsys, "tpoly", "--A", "4", "--config", str(cfg))
    assert status == 0
    assert out == "X^2 + X*Y + X*Z + Y^2 + Y*Z + Z^2\n"


def test_config_file_can_set_strict(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"strict": True}))
    args = ["sweep", "degree", "--p", "3", "--r", "13:13", "--s", "1", "--ceiling", "1000"]
    status, out, _ = run_cli(capsys, *args, "--config", str(cfg))
    assert "reason=ceiling" in out
    assert status == 1


def test_config_false_leaves_the_flag_at_its_default(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"strict": False}))
    args = ["sweep", "degree", "--p", "3", "--r", "13:13", "--s", "1", "--ceiling", "1000"]
    _, plain, _ = run_cli(capsys, *args)
    status, out, err = run_cli(capsys, *args, "--config", str(cfg))
    assert (status, out, err) == (0, plain, "")
    assert out.endswith("command=sweep target=degree pass=0 fail=0 skip=1 points=1\n")


def test_config_integer_grid_value_reads_as_the_flag(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 3, "r": "2:3"}))
    _, from_flags, _ = run_cli(capsys, "sweep", "degree", "--p", "3", "--r", "2:3")
    status, out, _ = run_cli(capsys, "sweep", "degree", "--config", str(cfg))
    assert status == 0
    assert out == from_flags


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    status, _, err = run_cli(capsys, "tpoly", "--A", "3", "--B", "1", "--config", str(cfg))
    assert status == 2
    assert "unknown config key" in err


def test_missing_parameter_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "tpoly", "--A", "3")
    assert status == 2
    assert "missing required" in err


def test_unknown_flag_is_usage_error(capsys):
    status, _, _ = run_cli(capsys, "tpoly", "--A", "3", "--B", "1", "--frobnicate")
    assert status == 2


def test_empty_grid_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "sweep", "degree", "--p", "3", "--r", "5:4")
    assert status == 2
    assert "empty" in err


def test_a_range_past_the_cap_is_refused_before_it_is_expanded(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_RANGE", 5)
    assert cli._parse_int_set("3:7,9") == [3, 4, 5, 6, 7, 9]
    for r, err_tail in (("2:7", "range '2:7' holds 6 values"),
                        ("2:4,5:7", "range '5:7' holds 3 values")):  # 3 + 3 values in all
        status, out, err = run_cli(capsys, "sweep", "degree", "--p", "3", "--r", r)
        assert (status, out) == (2, "")
        assert err.endswith(f"error: argument --r: {err_tail}; a grid flag takes at most 5\n")


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_a_sweep_builds_no_text_line_outside_text_format(capsys, monkeypatch, fmt):
    argv = ("sweep", "degree", "--p", "2,3", "--r", "2:4", "--format", fmt)
    expected = run_cli(capsys, *argv)

    def refuse(record):
        raise AssertionError(f"a text line built in {fmt} format")

    monkeypatch.setattr(cli, "_kv", refuse)
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "degree", "--p", "4,3", "--r", "2:3"),
        ("sweep", "verify-fact", "--which", "eq1", "--p", "6", "--r", "1:2"),
    ],
    ids=["degree", "verify-fact"],
)
def test_non_prime_p_in_sweep_grid_is_usage_error(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""  # no grid point ran
    assert "characteristic must be prime, got" in err


@pytest.mark.parametrize(
    "argv, p",
    [
        (("tpoly", "--A", "3", "--B", "1", "--char", "4"), 4),
        (("factor", "--A", "3", "--B", "1", "--p", "4", "--r", "80"), 4),
        (("factor", "--A", "3", "--B", "1", "--p", "4", "--r", "1"), 4),
        (("signature", "--A", "5", "--B", "2", "--p", "4", "--r", "1"), 4),
        (("verify-fact", "--which", "eq1", "--p", "4", "--r", "80"), 4),
        (("verify-fact", "--which", "eq2", "--p", "6", "--r", "5"), 6),
        (("sweep", "verify-fact", "--which", "eq1", "--p", "4", "--r", "1"), 4),
        (("sweep", "degree", "--p", "4", "--r", "2", "--s", "5"), 4),
        (("degree", "--p", "4", "--r", "3", "--s", "1"), 4),
        (("counterexample", "--p", "9", "--m", "4"), 9),
        (("counterexample", "--p", "9", "--eta", "1", "--m", "4"), 9),
    ],
    ids=["tpoly", "factor-over-ceiling", "factor", "signature", "eq1-over-ceiling",
         "eq2-over-ceiling", "sweep-verify-fact", "sweep-degree-empty-grid", "degree",
         "counterexample", "counterexample-eta"],
)
def test_a_non_field_is_refused_as_one_at_every_entry_point(capsys, argv, p):
    status, out, err = run_cli(capsys, *argv)
    assert (status, out, err) == (2, "", f"error: characteristic must be prime, got {p}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "verify-fact", "--which", "eq1", "--p", "3", "--r", "0:1"),
         "extension degree must be >= 1, got 0"),
        (("sweep", "degree", "--p", "3", "--r", "2:4", "--s", "0:1"),
         "need r > s >= 1, got r=2, s=0"),
    ],
    ids=["verify-fact-r", "degree-s"],
)
def test_bad_grid_value_is_usage_error(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""  # no grid point ran
    assert message in err


def test_ceiling_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SCHURLAB_CEILING", "1000")
    status, out, _ = run_cli(capsys, "sweep", "degree", "--p", "3", "--r", "13:13", "--s", "1")
    assert status == 0
    assert "verdict=skip" in out


def test_byte_identical_reruns(capsys):
    args = ["sweep", "verify-fact", "--which", "eq2", "--p", "2,3", "--r", "1:1",
            "--format", "json"]
    status1, out1, _ = run_cli(capsys, *args)
    status2, out2, _ = run_cli(capsys, *args)
    assert (status1, status2) == (0, 0)
    assert len(out1.splitlines()) == 2 + 1  # two points and the summary
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("verify-fact",), {"which": "eq3", "p": 3, "r": 1},
         "argument --which: invalid choice: 'eq3'"),
        (("verify-fact",), {"which": "eq1", "p": 3, "r": 1, "format": "xml"},
         "argument --format: invalid choice: 'xml'"),
        (("sweep", "degree"), {"p": ["a"], "r": 2}, "argument --p: not an integer: 'a'"),
        (("tpoly",), {"A": 3.5, "B": 1}, "argument --A: invalid int value: '3.5'"),
        (("sweep", "degree"), {"p": 3, "r": 2, "strict": "no"},
         'error: config key \'strict\' takes true or false, got "no"'),
        # a value that is no string is quoted as the file wrote it
        (("sweep", "degree"), {"p": [3, None], "r": 2}, "argument --p: not an integer: 'null'"),
        (("verify-fact",), {"which": True, "p": 3, "r": 1},
         "argument --which: invalid choice: 'true'"),
        (("sweep", "degree"), {"p": {"a": 1}, "r": 2},
         'error: config key \'p\' takes a value, got {"a": 1}'),
    ],
    ids=["which", "format", "grid-element", "float", "strict", "grid-null", "which-true",
         "object"],
)
def test_config_values_meet_their_flags_checks(capsys, tmp_path, argv, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    status, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert status == 2
    assert out == ""
    assert message in err


def test_config_list_reads_as_the_flags_comma_text(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": [3, 2], "r": [2, 3]}))
    base = ("sweep", "verify-fact", "--which", "eq1")
    _, from_flags, _ = run_cli(capsys, *base, "--p", "3,2", "--r", "2,3")
    status, out, _ = run_cli(capsys, *base, "--config", str(cfg))
    assert status == 0
    assert out == from_flags


def test_verify_fact_honours_the_ceiling(capsys):
    point = ("--which", "eq2", "--p", "3", "--r", "1", "--ceiling", "2")
    status, out, err = run_cli(capsys, "verify-fact", *point)
    assert status == 2
    assert out == ""
    assert err == "error: field order 3^1 exceeds the ceiling 2\n"
    status, out, _ = run_cli(capsys, "sweep", "verify-fact", *point)
    assert status == 0
    assert out.splitlines()[0] == "target=verify-fact which=eq2 p=3 r=1 verdict=skip reason=ceiling"


def test_a_huge_characteristic_is_refused_at_once(capsys):
    p = 2**89 - 1  # a Mersenne prime past the bound of the strong-probable-prime test
    status, out, err = run_cli(capsys, "degree", "--p", str(p), "--r", "3", "--s", "1",
                               "--mode", "formula")
    assert (status, out) == (2, "")
    assert err.startswith("error: characteristic must be below ") and err.endswith(f"got {p}\n")


@pytest.mark.parametrize(
    "which, r, q, points",
    [("eq1", "60:63", "2^62", 4), ("eq2", "29:31", "2^31", 3)],
    ids=["eq1", "eq2"],
)
def test_a_sweep_past_the_exponent_cap_is_refused_before_its_first_record(capsys, which, r, q, points):
    # the points below the cap would pass; the grid refuses before any runs
    argv = ("sweep", "verify-fact", "--which", which, "--p", "2", "--r", r)
    status, out, err = run_cli(capsys, *argv, "--ceiling", str(10**23))
    assert (status, out) == (2, "")
    assert err == f"error: exponent too large: the {which} check for q = {q} writes exponents of 2^62 or more\n"
    # under the default ceiling every point is a skip, as before
    status, out, err = run_cli(capsys, *argv)
    assert (status, err) == (0, "")
    assert out.count("verdict=skip reason=ceiling") == points


def test_verify_fact_builds_no_form(capsys, monkeypatch):
    """The records read factor_count alone, so no command enumerates a field."""

    def refuse(self):
        raise AssertionError("verify-fact enumerated a field")

    monkeypatch.setattr(FieldSpec, "elements", refuse)
    status, out, _ = run_cli(capsys, "verify-fact", "--which", "eq2", "--p", "3", "--r", "3",
                             "--format", "json")
    assert status == 0 and json.loads(out)["factor_count"] == 26**2
    status, out, _ = run_cli(capsys, "sweep", "verify-fact", "--which", "eq1", "--p", "2,3",
                             "--r", "1:3", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert status == 0 and records[-1]["pass"] == 6
    assert [r["factor_count"] for r in records[:-1]] == [0, 2, 6, 1, 7, 25]


def test_flag_where_it_does_nothing_is_usage_error(capsys):
    status, out, _ = run_cli(capsys, "tpoly", "--A", "3", "--B", "1", "--seed", "0")
    assert status == 2
    assert out == ""


def test_input_too_large_is_usage_error(capsys):
    status, out, err = run_cli(capsys, "tpoly", "--A", str(2**62), "--B", "1")
    assert status == 2
    assert out == ""
    assert "exponent too large" in err


def test_failed_internal_check_exits_3(capsys, monkeypatch):
    from schurlab import cli

    monkeypatch.setattr(cli, "verify_newton_identity", lambda pair, m, mode: mode == "direct")
    status, _, err = run_cli(capsys, "counterexample", "--p", "3", "--m", "4")
    assert status == 3
    assert "internal check failed: modes disagree at m=4" in err


def test_only_a_ceiling_refusal_is_a_skip(capsys, monkeypatch):
    from schurlab import cli

    def refuse(*args):
        raise ValueError("not a ceiling")

    monkeypatch.setattr(cli, "_degree_point", refuse)
    status, out, err = run_cli(capsys, "sweep", "degree", "--p", "3", "--r", "2:3")
    assert status == 2
    assert "verdict=skip" not in out
    assert "not a ceiling" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tpoly", "--A", "3", "--B", "1", "--char", "0", "--ext", "2"),
         "error: characteristic must be prime, got 0\n"),
        (("sweep", "verify-fact", "--p", "3", "--r", "1"),
         "error: sweep verify-fact needs --which eq1|eq2\n"),
        (("sweep", "degree", "--p", "3", "--r", "2", "--s", "5"),
         "error: the sweep grid is empty\n"),
        (("sweep", "verify-fact", "--which", "eq1", "--p", "3", "--r", "1:2", "--s", "5"),
         "error: sweep verify-fact does not read --s\n"),
        (("sweep", "degree", "--which", "eq1", "--p", "3", "--r", "3"),
         "error: sweep degree does not read --which\n"),
        (("identity", "--max-a", "1"), "error: the identity grid is empty\n"),
        (("counterexample", "--p", "2", "--eta", "1", "--m", "5"),
         "error: eta applies only to odd p; characteristic 2 uses a cube root of unity\n"),
        (("degree", "--p", "3", "--r", "3", "--s", "1", "--ceiling", "x"),
         "error: argument --ceiling: not an integer: 'x'\n"),
        (("degree", "--p", "3", "--r", "3", "--s", "1", "--ceiling", "1"),
         "error: argument --ceiling: must be at least 2, got 1\n"),
    ],
    ids=["ext-over-Q", "sweep-without-which", "empty-s-grid", "s-to-verify-fact",
         "which-to-degree", "empty-identity-grid",
         "eta-at-p-2", "ceiling-not-int", "ceiling-below-2"],
)
def test_usage_errors_exit_2_before_any_output(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.endswith(message)


DEGREE_ARGV = ("degree", "--p", "3", "--r", "3", "--s", "1")


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (DEGREE_ARGV, [1, 2], "error: --config must hold a JSON object\n"),
        (DEGREE_ARGV, {"run": "degree"}, "error: unknown config key 'run'\n"),
        (DEGREE_ARGV, {"required": []}, "error: unknown config key 'required'\n"),
        # the positional's dest is no flag, so the file cannot name it
        (("sweep", "degree"), {"target": "degree", "p": 3, "r": 3},
         "error: unknown config key 'target'\n"),
        # a flag of the command that the sweep target never reads
        (("sweep", "verify-fact", "--which", "eq1", "--p", "3", "--r", "1:2"), {"s": 5},
         "error: sweep verify-fact does not read --s\n"),
        (("sweep", "degree", "--p", "3", "--r", "3"), {"which": "eq1"},
         "error: sweep degree does not read --which\n"),
        # a bare flag takes true or false, and no flag takes null
        (("sweep", "degree", "--p", "3", "--r", "3"), {"strict": 1},
         "error: config key 'strict' takes true or false, got 1\n"),
        (("sweep", "--p", "3", "--r", "3", "degree"), {"strict": "verify-fact"},
         "error: config key 'strict' takes true or false, got \"verify-fact\"\n"),
        (("sweep", "degree", "--p", "3", "--r", "3"), {"strict": None},
         "error: config key 'strict' takes true or false, got null\n"),
        (("sweep", "degree", "--r", "3"), {"p": None},
         "error: config key 'p' takes a value, got null\n"),
        (("sweep", "degree", "--p", "3", "--r", "2"), {"strict": "no"},
         "error: config key 'strict' takes true or false, got \"no\"\n"),
    ],
    ids=["list", "run", "required", "target", "s-to-verify-fact", "which-to-degree",
         "strict-int", "strict-target", "strict-null", "p-null", "strict-string"],
)
def test_config_file_must_be_an_object_of_flags(capsys, tmp_path, argv, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    status, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (status, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "argv, missing",
    [
        (("tpoly",), "A, B"),
        (("rpoly", "--A", "3"), "B"),
        (("schur", "--l2", "1"), "l1, l3"),
        (("factor",), "A, B, p, r"),
        (("signature", "--B", "1"), "A, p, r"),
        (("verify-fact",), "which, p, r"),
        (("counterexample",), "p, m"),
        (("degree", "--r", "3"), "p, s"),
        (("sweep", "degree"), "p, r"),
    ],
    ids=["tpoly", "rpoly", "schur", "factor", "signature", "verify-fact", "counterexample",
         "degree", "sweep"],
)
def test_missing_parameters_are_listed_in_flag_order(capsys, argv, missing):
    status, out, err = run_cli(capsys, *argv)
    assert (status, out, err) == (2, "", f"error: missing required parameters: {missing}\n")


#: every subset of --which eq1, --p 3, --r 2 and --s 1 for both sweep
#: targets: the exit code and the last line printed, stderr on a refusal and
#: the summary otherwise
_SWEEP_FLAG_SUBSETS = [
    ('verify-fact', 2, 'error: missing required parameters: p, r'),
    ('verify-fact --which eq1', 2, 'error: missing required parameters: p, r'),
    ('verify-fact --p 3', 2, 'error: missing required parameters: r'),
    ('verify-fact --r 2', 2, 'error: missing required parameters: p'),
    ('verify-fact --s 1', 2, 'error: missing required parameters: p, r'),
    ('verify-fact --which eq1 --p 3', 2, 'error: missing required parameters: r'),
    ('verify-fact --which eq1 --r 2', 2, 'error: missing required parameters: p'),
    ('verify-fact --which eq1 --s 1', 2, 'error: missing required parameters: p, r'),
    ('verify-fact --p 3 --r 2', 2, 'error: sweep verify-fact needs --which eq1|eq2'),
    ('verify-fact --p 3 --s 1', 2, 'error: missing required parameters: r'),
    ('verify-fact --r 2 --s 1', 2, 'error: missing required parameters: p'),
    ('verify-fact --which eq1 --p 3 --r 2', 0, 
     'command=sweep target=verify-fact pass=1 fail=0 skip=0 points=1'),
    ('verify-fact --which eq1 --p 3 --s 1', 2, 'error: missing required parameters: r'),
    ('verify-fact --which eq1 --r 2 --s 1', 2, 'error: missing required parameters: p'),
    ('verify-fact --p 3 --r 2 --s 1', 2, 'error: sweep verify-fact needs --which eq1|eq2'),
    ('verify-fact --which eq1 --p 3 --r 2 --s 1', 2, 'error: sweep verify-fact does not read --s'),
    ('degree', 2, 'error: missing required parameters: p, r'),
    ('degree --which eq1', 2, 'error: missing required parameters: p, r'),
    ('degree --p 3', 2, 'error: missing required parameters: r'),
    ('degree --r 2', 2, 'error: missing required parameters: p'),
    ('degree --s 1', 2, 'error: missing required parameters: p, r'),
    ('degree --which eq1 --p 3', 2, 'error: missing required parameters: r'),
    ('degree --which eq1 --r 2', 2, 'error: missing required parameters: p'),
    ('degree --which eq1 --s 1', 2, 'error: missing required parameters: p, r'),
    ('degree --p 3 --r 2', 0, 'command=sweep target=degree pass=1 fail=0 skip=0 points=1'),
    ('degree --p 3 --s 1', 2, 'error: missing required parameters: r'),
    ('degree --r 2 --s 1', 2, 'error: missing required parameters: p'),
    ('degree --which eq1 --p 3 --r 2', 2, 'error: sweep degree does not read --which'),
    ('degree --which eq1 --p 3 --s 1', 2, 'error: missing required parameters: r'),
    ('degree --which eq1 --r 2 --s 1', 2, 'error: missing required parameters: p'),
    ('degree --p 3 --r 2 --s 1', 0, 'command=sweep target=degree pass=1 fail=0 skip=0 points=1'),
    ('degree --which eq1 --p 3 --r 2 --s 1', 2, 'error: sweep degree does not read --which'),
]


@pytest.mark.parametrize("argv, status, last", _SWEEP_FLAG_SUBSETS,
                         ids=[argv for argv, *_ in _SWEEP_FLAG_SUBSETS])
def test_the_sweep_refuses_its_flags_in_one_order(capsys, tmp_path, argv, status, last):
    target, *flags = argv.split()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(dict(zip((f[2:] for f in flags[::2]), flags[1::2]))))
    for call in ([target, *flags], [target, "--config", str(cfg)]):
        got, out, err = run_cli(capsys, "sweep", *call)
        assert (got, bool(out), bool(err)) == (status, status == 0, status != 0), call
        assert (err or out).splitlines()[-1] == last, call


def test_a_target_refuses_every_grid_flag_it_does_not_read(capsys, monkeypatch):
    grid_and_runner = cli._SWEEP_TARGETS["degree"][2:]
    monkeypatch.setitem(cli._SWEEP_TARGETS, "degree", ({"p": None}, (), *grid_and_runner))
    for flag in ("--r", "--s"):
        assert run_cli(capsys, "sweep", "degree", "--p", "3", flag, "2") == (
            2, "", f"error: sweep degree does not read {flag}\n")


def test_the_sweep_help_keeps_its_option_lines(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["sweep", "--help"]) == 0
    out = capsys.readouterr().out
    assert out[out.index("options:\n"):] == """\
options:
  -h, --help            show this help message and exit
  --which {eq1,eq2}
  --p P                 grid values, e.g. 2,3,5
  --r R                 grid values, e.g. 1:2
  --s S                 grid values; defaults to 1..r-1
  --strict              treat points skipped over the ceiling as failures
  --jobs JOBS           accepted for compatibility; has no effect, points run
                        in order
  --ceiling CEILING     field-size cap, at least 2 (default $SCHURLAB_CEILING
                        or 1000000)
  --format {json,tsv,text}
                        output format (default text)
  --config CONFIG       JSON file whose keys are this command's flags
"""


def test_degree_disagreement_exits_1(capsys, monkeypatch):
    from schurlab.newton import DegreeReport

    report = DegreeReport(p=3, r=3, s=1, m=1, formula_value=2, oracle_count=2,
                          oracle_value=1, agree=False)
    monkeypatch.setattr(cli, "degree_of_extension", lambda t, mode, ceiling: report)
    status, out, _ = run_cli(capsys, "degree", "--p", "3", "--r", "3", "--s", "1")
    assert status == 1
    assert out == "formula=2 oracle=1 agree=false\n"


def test_failed_identity_record_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(mpoly, "is_symmetric3", lambda poly: False)
    status, out, _ = run_cli(capsys, "identity", "--chars", "0", "--max-a", "3")
    assert status == 1
    assert out.splitlines() == [
        "char=0 A=2 B=1 verdict=fail",
        "char=0 A=3 B=1 verdict=fail",
        "char=0 A=3 B=2 verdict=fail",
    ]


_EMPTY = "e3b0c44298fc1c14"  # no output
_HUGE = 2**89 - 1
_PAST_BOUND = f"error: characteristic must be below 3317044064679887385961981, got {_HUGE}\n"


@pytest.mark.parametrize(
    "argv, config, status, stdout_sha, err",
    [
        # sweep verify-fact: every format, skips over the ceiling, --strict
        ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:2", None,
         0, "6cb4538b2f3c7388", ""),
        ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:2 --format json", None,
         0, "76ff9dfb760c5eb2", ""),
        ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:2 --format tsv", None,
         0, "4b9339b1b0b8937b", ""),
        ("sweep verify-fact --which eq2 --p 2,3 --r 1:3 --format json", None,
         0, "6e5d93d126132736", ""),
        ("sweep verify-fact --which eq1 --p 2,3 --r 1:11 --ceiling 1000", None,
         0, "c5629add6f5210cb", ""),
        ("sweep verify-fact --which eq1 --p 2,3 --r 1:11 --ceiling 1000 --strict", None,
         1, "c5629add6f5210cb", ""),
        ("sweep verify-fact --which eq2 --p 5,7 --r 1:3 --ceiling 30 --format tsv", None,
         0, "d5ebb5601266a358", ""),
        # sweep degree: every format, the default s range, skips, --strict, --jobs
        ("sweep degree --p 2,3 --r 2:4", None,
         0, "1199dc83828043bd", ""),
        ("sweep degree --p 2,3 --r 2:4 --format json", None,
         0, "33e03342c7dbfb03", ""),
        ("sweep degree --p 2,3 --r 2:4 --format tsv", None,
         0, "742df5ebef256a21", ""),
        ("sweep degree --p 2,3,5 --r 2:6 --s 1,2 --ceiling 100", None,
         0, "266a856b47e97d62", ""),
        ("sweep degree --p 2,3,5 --r 2:6 --s 1,2 --ceiling 100 --strict --format json", None,
         1, "1c64e246113fd4ed", ""),
        ("sweep degree --p 3 --r 3:4 --s 1:5 --jobs 2 --format tsv", None,
         0, "d9ca047d1240399f", ""),
        # --config files
        ("sweep verify-fact", {"which": "eq2", "p": [2, 3], "r": "1:2", "format": "json"},
         0, "f6ec423d44cb5484", ""),
        ("sweep degree --r 2:3", {"p": 3, "r": "9", "strict": True, "ceiling": 10},
         0, "92fab847c434f3e2", ""),
        ("sweep degree --p 3 --r 3", {"target": "degree"},
         2, _EMPTY, "error: unknown config key 'target'\n"),
        ("sweep verify-fact --p 3 --r 1", {"s": "1"},
         2, _EMPTY, "error: sweep verify-fact needs --which eq1|eq2\n"),
        ("verify-fact --format tsv", {"which": "eq1", "p": 5, "r": 2},
         0, "e56258c318155924", ""),
        ("degree", {"p": 2, "r": 5, "s": 2, "mode": "oracle", "format": "json"},
         0, "cd8a952603e9ca39", ""),
        # refusals with two faults, where the check order decides the message
        ("sweep verify-fact --p 3 --r 1 --s 1", None,
         2, _EMPTY, "error: sweep verify-fact needs --which eq1|eq2\n"),
        ("sweep verify-fact --p 4 --r 0", None,
         2, _EMPTY, "error: sweep verify-fact needs --which eq1|eq2\n"),
        ("sweep verify-fact --which eq1 --p 4 --r 1 --s 1", None,
         2, _EMPTY, "error: sweep verify-fact does not read --s\n"),
        ("sweep verify-fact --which eq1 --p 3,4 --r 0:1", None,
         2, _EMPTY, "error: extension degree must be >= 1, got 0\n"),
        ("sweep verify-fact --which eq1 --p 4,3 --r 0:1", None,
         2, _EMPTY, "error: extension degree must be >= 1, got 0\n"),
        (f"sweep verify-fact --which eq1 --p {_HUGE} --r 0", None,
         2, _EMPTY, _PAST_BOUND),
        ("sweep degree --which eq1 --p 4 --r 2 --s 5", None,
         2, _EMPTY, "error: sweep degree does not read --which\n"),
        ("sweep degree --p 4 --r 2 --s 5", None,
         2, _EMPTY, "error: characteristic must be prime, got 4\n"),
        ("sweep degree --p 3,4 --r 1", None,
         2, _EMPTY, "error: characteristic must be prime, got 4\n"),
        ("sweep degree --p 3 --r 3 --s 0,5", None,
         2, _EMPTY, "error: need r > s >= 1, got r=3, s=0\n"),
        ("sweep degree --p 3 --r 1 --s 0", None,
         2, _EMPTY, "error: need r > s >= 1, got r=1, s=0\n"),
        ("sweep degree --p 3 --r 3 --s 0", None,
         2, _EMPTY, "error: need r > s >= 1, got r=3, s=0\n"),
        ("sweep degree --p 3 --r 0:1", None,
         2, _EMPTY, "error: the sweep grid is empty\n"),
        (f"sweep degree --p {_HUGE} --r 1", None,
         2, _EMPTY, _PAST_BOUND),
        ("sweep degree --r 3 --s 7 --which eq2", None,
         2, _EMPTY, "error: missing required parameters: p\n"),
        # the single commands the sweep shares its points with
        ("verify-fact --which eq1 --p 3 --r 2", None,
         0, "a97686191c4d6637", ""),
        ("verify-fact --which eq2 --p 2 --r 3 --format json", None,
         0, "69d906020e303890", ""),
        ("verify-fact --which eq1 --p 2 --r 20", None,
         2, _EMPTY, "error: field order 2^20 exceeds the ceiling 1000000\n"),
        ("verify-fact --which eq1 --p 4 --r 2", None,
         2, _EMPTY, "error: characteristic must be prime, got 4\n"),
        ("degree --p 3 --r 3 --s 1", None,
         0, "c05832e80670d8bd", ""),
        ("degree --p 3 --r 4 --s 2 --format tsv", None,
         0, "8e4de0469617aa2a", ""),
        ("degree --p 2 --r 20 --s 1", None,
         0, "4da092789a3d2d7b", ""),
        ("degree --p 2 --r 20 --s 1 --mode formula --format json", None,
         0, "5542697617e2ae40", ""),
        ("degree --p 3 --r 2 --s 2", None,
         2, _EMPTY, "error: need r > s >= 1, got r=2, s=2\n"),
        # the degree oracle over fields above TABLE_CEILING, a prime field near
        # the desk ceiling, and a grid of 198 points with six skips
        ("sweep degree --p 3 --r 13:15 --s 1:3", None,
         0, "6e5102fd7fd2fd80", ""),
        ("degree --p 999983 --r 2 --s 1", None,
         0, "4da092789a3d2d7b", ""),
        ("sweep degree --p 2,3,5 --r 2:12 --format json", None,
         0, "3d65ff092261b483", ""),
    ],
)
def test_sweep_targets_and_their_commands_keep_their_bytes(
    capsys, monkeypatch, tmp_path, argv, config, status, stdout_sha, err
):
    """Exit code, stdout (the first 16 hex digits of its sha256) and stderr,
    pinned for both sweep targets, the single commands that share their
    points, --config files, and the order of the sweep's refusals."""
    monkeypatch.delenv(cli.CEILING_ENV, raising=False)
    argv = argv.split()
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    got_status, out, got_err = run_cli(capsys, *argv)
    assert (got_status, hashlib.sha256(out.encode()).hexdigest()[:16], got_err) == (
        status, stdout_sha, err)


class _Count:
    def factor_count(self):
        return 7


def test_sweep_records_failed_points_of_either_target(capsys, monkeypatch):
    degree_of_extension = cli.degree_of_extension

    def disagree(tower, mode, ceiling):
        report = degree_of_extension(tower, mode=mode, ceiling=ceiling)
        if tower.s > 1:
            return report
        return report._replace(oracle_value=report.formula_value + 1, agree=False)

    monkeypatch.setattr(cli, "degree_of_extension", disagree)
    assert run_cli(capsys, "sweep", "degree", "--p", "3", "--r", "2:3") == (1, (
        "target=degree p=3 r=2 s=1 verdict=fail formula=1 oracle=2\n"
        "target=degree p=3 r=3 s=1 verdict=fail formula=2 oracle=3\n"
        "target=degree p=3 r=3 s=2 verdict=pass formula=1 oracle=1\n"
        "command=sweep target=degree pass=1 fail=2 skip=0 points=3\n"), "")
    monkeypatch.setattr(factor, "verify_fact_eq1", lambda p, r, ceiling: (p != 3, _Count()))
    assert run_cli(capsys, "sweep", "verify-fact", "--which", "eq1", "--p", "2,3", "--r", "1") == (
        1, ("target=verify-fact which=eq1 p=2 r=1 verdict=pass factor_count=7\n"
            "target=verify-fact which=eq1 p=3 r=1 verdict=fail factor_count=7\n"
            "command=sweep target=verify-fact pass=1 fail=1 skip=0 points=2\n"), "")
    assert run_cli(capsys, "verify-fact", "--which", "eq1", "--p", "3", "--r", "1",
                   "--format", "json") == (1, (
        '{"command": "verify-fact", "factor_count": 7, "p": 3, "r": 1, "verdict": "fail", '
        '"which": "eq1"}\n'), "")


@pytest.mark.parametrize("argv, err", [
    ("sweep degree --p , --r 2", "schurlab sweep: error: argument --p: empty grid component ','\n"),
    ("counterexample --p 3 --m 10001", "error: no applicable mode for m=10001\n"),
    # a grid value that is no integer is named as one
    ("sweep degree --p x --r 2", "schurlab sweep: error: argument --p: not an integer: 'x'\n"),
    ("sweep degree --p 3 --r 2:x", "schurlab sweep: error: argument --r: not an integer: 'x'\n"),
    ("counterexample --p 3 --m a",
     "schurlab counterexample: error: argument --m: not an integer: 'a'\n"),
    ("identity --chars 0,b", "schurlab identity: error: argument --chars: not an integer: 'b'\n"),
])
def test_refusals_before_any_output(capsys, argv, err):
    status, out, got_err = run_cli(capsys, *argv.split())
    assert (status, out) == (2, "")
    assert got_err.endswith(err)


_POLYNOMIAL_LAYERS = {"schurlab.mpoly", "schurlab.vschur", "schurlab.factor"}
# the coefficient fields and the standard modules only they need
_FIELD_LAYER = {"schurlab.ffield", "fractions", "dataclasses"}


@pytest.mark.parametrize("argv, layers", [
    ("degree --p 3 --r 3 --s 1 --mode formula", set()),
    ("degree --p 3 --r 4 --s 1", set()),
    ("sweep degree --p 2,3 --r 2:4 --format json", set()),
    ("tpoly --A 3 --B 1", _FIELD_LAYER | {"schurlab.mpoly", "schurlab.vschur"}),
    ("verify-fact --which eq1 --p 3 --r 1", _FIELD_LAYER | _POLYNOMIAL_LAYERS),
])
def test_a_command_loads_only_the_layers_it_runs(fresh_python, argv, layers):
    # a fresh interpreter through the real entry point, package __init__
    # included; -X importtime names every module the process imports
    proc = fresh_python("-X", "importtime", "-m", "schurlab.cli", *argv.split())
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"schurlab.modp", "schurlab.newton"} <= imported
    assert imported & (_FIELD_LAYER | _POLYNOMIAL_LAYERS) == layers


class _Length:
    """Equal to any list of n items: a JSON field too long to write out."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, list) and len(other) == self.n

    def __repr__(self):
        return f"<a list of {self.n}>"


def _last_line(text):
    return text.splitlines()[-1] if text else None


_2GB = 2_000_000  # KiB
_BOTH = ["direct", "frobenius_shortcut"]
_SHORTCUT = ["frobenius_shortcut"]
_SWEEP_PASS = "command=sweep target=verify-fact pass={0} fail=0 skip=0 points={0}"
_SIGNATURE_5_2 = "witnesses=3 lower=2 upper=1 all_verdicts_true=true"

#: the real entry point in a fresh interpreter, under an address-space limit
#: (KiB, as ``ulimit -v`` counts) and a timeout (s): the exit code, then the
#: last stdout line or the fields of each JSON record in turn, and the last
#: stderr line (None for no output)
_BOUNDED_RUNS = [
    ("tpoly --A 3 --B 1 --char 0", _2GB, 60, 0, "X + Y + Z", None),
    ("degree --p 3 --r 3 --s 1 --mode formula", _2GB, 60, 0, "formula=2", None),
    # 1 GiB, where expanding the range would take tens of gigabytes
    ("sweep degree --p 3 --r 60:1000000000", 1 << 20, 60, 2, None,
     "schurlab sweep: error: argument --r: range '60:1000000000' holds 999999941 values; "
     "a grid flag takes at most 1000000"),
    # the roots of order 6 in F_{5^80} factor 6, not 5^80 - 1
    ("signature --A 5 --B 2 --p 7 --r 2", _2GB, 60, 0, _SIGNATURE_5_2, None),
    ("signature --A 7 --B 2 --p 1000003 --r 4", _2GB, 60, 0,
     "witnesses=5 lower=4 upper=1 all_verdicts_true=true", None),
    ("signature --A 5 --B 2 --p 5 --r 80", _2GB, 20, 0, _SIGNATURE_5_2, None),
    # primality near 10^18 and past the strong-probable-prime bound, and the
    # modulus search over a large prime
    ("degree --p 1000000000000000003 --r 3 --s 1 --mode formula", _2GB, 20, 0,
     "formula=500000000000000002", None),
    (f"degree --p {_HUGE} --r 3 --s 1 --mode formula", _2GB, 5, 2, None, _PAST_BOUND.strip()),
    # x^2 + y^2 is no member of the family, so the verdict is false and the exit 1
    ("counterexample --p 1000000000000000003 --m 2", _2GB, 5, 1,
     "m=2 identity_holds=false modes=direct", None),
    ("tpoly --A 3 --B 1 --char 1000000007 --ext 2", _2GB, 20, 0,
     "1000000007^2:[1,0]*X + 1000000007^2:[1,0]*Y + 1000000007^2:[1,0]*Z", None),
    # the int kernels over Q and the pattern counts mod p, past the sizes the
    # in-process tests reach
    ("identity --chars 0,2,3,5 --max-a 16 --format json", _2GB, 60, 0,
     [{"verdict": "pass"}] * 480, None),
    ("identity --chars 0 --max-a 30 --format json", _2GB, 60, 0, [{"verdict": "pass"}] * 435, None),
    ("tpoly --A 400 --B 1 --char 0 --format json", _2GB, 60, 0, [{"terms": _Length(79800)}], None),
    # linear-factor sweeps: a zero set, no linear factor, a cube, the
    # three-point gate on T(125,1) and exact division on logarithms in
    # characteristic 2
    ("factor --A 16 --B 1 --p 2 --r 4 --format json", _2GB, 60, 0,
     [{"factor_count": 14, "fully_split": True}], None),
    ("factor --A 11 --B 4 --p 13 --r 1 --format json", _2GB, 60, 0,
     [{"factor_count": 0, "residual_degree_in_z": 9, "fully_split": False}], None),
    ("factor --A 9 --B 3 --p 3 --r 1 --format json", _2GB, 60, 0,
     [{"factors": [{"alpha": "3^1:[2]", "beta": "3^1:[2]", "multiplicity": 3}],
       "factor_count": 3, "fully_split": True}], None),
    ("factor --A 125 --B 1 --p 5 --r 3 --format json", _2GB, 60, 0,
     [{"factor_count": 123, "residual_degree_in_z": 0, "fully_split": True}], None),
    ("factor --A 128 --B 1 --p 2 --r 7 --format json", _2GB, 60, 0,
     [{"factor_count": 126, "residual_degree_in_z": 0, "fully_split": True}], None),
    # the Moore splitting and determinant routes, up to q = 5^8 and 3^12
    ("verify-fact --which eq2 --p 3 --r 3 --format json", _2GB, 60, 0,
     [{"verdict": "pass", "factor_count": 676}], None),
    ("sweep verify-fact --which eq2 --p 2,3,5,7 --r 1:2", _2GB, 60, 0, _SWEEP_PASS.format(8), None),
    ("sweep verify-fact --which eq1 --p 2 --r 1:14 --strict", _2GB, 60, 0,
     _SWEEP_PASS.format(14), None),
    ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:8 --strict", _2GB, 120, 0,
     _SWEEP_PASS.format(24), None),
    ("sweep verify-fact --which eq2 --p 2,3 --r 1:12 --strict", _2GB, 60, 0,
     _SWEEP_PASS.format(24), None),
    ("verify-fact --which eq1 --p 2 --r 20 --ceiling 1048576", _2GB, 30, 0,
     "verdict=pass which=eq1 p=2 r=20 factor_count=1048574", None),
    # the Frobenius power route; past DIRECT_EXPANSION_CAP = 10^4 only the
    # shortcut applies
    ("counterexample --p 3 --m 4,28,244,19684 --format json", _2GB, 60, 0,
     [{"alpha": "3^2:[2,1]", "m": None}]
     + [{"m": m, "identity_holds": True, "modes": _BOTH} for m in (4, 28, 244)]
     + [{"m": 19684, "identity_holds": True, "modes": _SHORTCUT}], None),
    ("counterexample --p 2 --m 5,17,65537 --format json", _2GB, 60, 0,
     [{"alpha": "2^2:[0,1]", "m": None}]
     + [{"m": m, "identity_holds": True, "modes": _BOTH} for m in (5, 17)]
     + [{"m": 65537, "identity_holds": True, "modes": _SHORTCUT}], None),
    # the degree oracle over F_{3^12}, above TABLE_CEILING = 2^17; over F_{7^7},
    # whose log and Zech lists would not fit in 80 MB, as one 7x7 rank mod 7;
    # and over F_{3^40}, about 1.2e19 elements, as one 40x40 rank mod 3
    ("degree --p 3 --r 13 --s 1", _2GB, 20, 0, "formula=2 oracle=2 agree=true", None),
    ("degree --p 7 --r 8 --s 1 --mode oracle", 80_000, 10, 0, "oracle=1", None),
    ("degree --p 3 --r 41 --s 1 --ceiling 100000000000000000000", 200_000, 10, 0,
     "formula=2 oracle=2 agree=true", None),
]


@pytest.mark.parametrize("argv, limit_kib, timeout, status, out, err", _BOUNDED_RUNS,
                         ids=[row[0] for row in _BOUNDED_RUNS])
def test_the_entry_point_runs_within_its_bounds(
    fresh_python, monkeypatch, argv, limit_kib, timeout, status, out, err
):
    monkeypatch.delenv(cli.CEILING_ENV, raising=False)
    proc = fresh_python("-m", "schurlab.cli", *argv.split(), limit_kib=limit_kib, timeout=timeout)
    assert (proc.returncode, _last_line(proc.stderr)) == (status, err)
    if isinstance(out, list):
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(records) == len(out)
        assert [{key: r.get(key) for key in want} for r, want in zip(records, out)] == out
    else:
        assert _last_line(proc.stdout) == out
