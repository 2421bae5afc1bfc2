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


def test_signature_refuses_a_small_field_before_any_work(capsys, monkeypatch):
    from schurlab import factor

    def unreachable(*args, **kwargs):
        raise AssertionError("i_poly was built before the roots of unity were taken")

    monkeypatch.setattr(factor, "i_poly", unreachable)
    status, out, err = run_cli(capsys, "signature", "--A", "7", "--B", "2", "--p", "3", "--r", "1")
    assert (status, out) == (2, "")
    assert err == "error: 10 does not divide 3 - 1; need extension degree 4 over F_3\n"


def test_signature_reports_a_failed_check_of_the_quotient_as_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(vschur, "r_poly", lambda e: MultiPoly.zero(e.field))
    status, out, err = run_cli(capsys, "signature", "--A", "5", "--B", "2", "--p", "7", "--r", "1")
    assert (status, out) == (3, "")
    assert err == (
        "error: internal check failed: "
        "closed form of I times X^d - Y^d is not R for (A,B)=(5,2)\n"
    )


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


def test_identity_determinism(capsys):
    base = ["identity", "--max-a", "4", "--chars", "3", "--format", "json"]
    status1, out1, _ = run_cli(capsys, *base)
    status2, out2, _ = run_cli(capsys, *base)
    assert (status1, status2) == (0, 0)
    assert len(out1.splitlines()) == 1 + 2 + 3  # the pairs A > B >= 1 with A <= 4
    assert out1 == out2


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


class _Sha:
    """Equal to any text whose sha256 starts with these 16 hex digits: stdout
    too long to write out."""

    def __init__(self, prefix):
        self.prefix = prefix

    def __eq__(self, other):
        return (isinstance(other, str)
                and hashlib.sha256(other.encode()).hexdigest()[:16] == self.prefix)

    def __repr__(self):
        return f"<text of sha256 {self.prefix}...>"


def _last_line(text):
    return text.splitlines()[-1] if text else None


_HUGE = 2**89 - 1
_PAST_BOUND = f"error: characteristic must be below 3317044064679887385961981, got {_HUGE}"


#: every in-process call of main(argv) whose outcome is pinned: the argv, the
#: --config object written to a file and named last (None for no file), the
#: exit code, all of stdout (exact, or by _Sha where it runs past a few
#: lines) and the last stderr line (None for no output)
_CALLS = [
    # one call of each command, and the refusals its library makes
    ("tpoly --A 3 --B 1 --char 0", None, 0, "X + Y + Z\n", None),
    ("rpoly --A 3 --B 1 --char 2", None,
     0, "X^3*Y + X^3*Z + X*Y^3 + X*Z^3 + Y^3*Z + Y*Z^3\n", None),
    ("schur --l1 1 --l2 0 --l3 0", None, 0, "X + Y + Z\n", None),
    ("factor --A 3 --B 1 --p 3 --r 1 --format tsv", None, 0,
     "command\tA\tB\tp\tr\tfactors\tfactor_count\tresidual_degree_in_z\tfully_split\n"
     'factor\t3\t1\t3\t1\t[{"alpha": "3^1:[2]", "beta": "3^1:[2]", "multiplicity": 1}]\t'
     "1\t0\ttrue\n", None),
    ("factor --A 11 --B 4 --p 521 --r 1", None,
     0, "factors=0 residual_degree=9 fully_split=false\n", None),
    ("factor --A 11 --B 4 --p 521 --r 1 --ceiling 520", None,
     2, "", "error: field order 521^1 exceeds the ceiling 520"),
    # the smallest prime above TABLE_CEILING: F_131101 has no tables, so the
    # sweep runs on log and Zech lists built for the one call
    ("factor --A 3 --B 1 --p 131101 --r 1", None,
     0, "factors=1 residual_degree=0 fully_split=true\n", None),
    ("signature --A 5 --B 2 --p 7 --r 1 --format json", None, 0, _Sha("196ec2ba545ec708"), None),
    # (13, 5) needs the 5th and 8th roots: F_7 lacks both, F_49 holds only the
    # 8th, and F_{7^4} holds the 40th
    ("signature --A 13 --B 5 --p 7 --r 1", None,
     2, "", "error: 40 does not divide 7 - 1; need extension degree 4 over F_7"),
    ("signature --A 13 --B 5 --p 7 --r 4", None,
     0, "witnesses=11 lower=7 upper=4 all_verdicts_true=true\n", None),
    ("identity --max-a 5 --chars 0,2,5", None, 0, _Sha("821972a1a480e7e5"), None),
    ("identity --max-a 3 --chars 0,3 --format json", None, 0, _Sha("cf42a91a802f3c8d"), None),
    # the Frobenius identities at m = 3^j + 1, a negative control, and the
    # refusals of a mode that does not apply
    ("counterexample --p 3 --m 1,4,28", None, 0, _Sha("9d0d512e5cf4c021"), None),
    ("counterexample --p 3 --m 10", None, 1,
     "p=3 alpha=3^2:[2,1]\n"
     "m=10 identity_holds=false modes=direct,frobenius_shortcut\n", None),
    ("counterexample --p 3 --m 10001 --mode direct", None,
     2, "", "error: m=10001 is too large to expand directly; use frobenius_shortcut"),
    ("counterexample --p 3 --m 7 --mode frobenius_shortcut", None,
     2, "", "error: shortcut mode needs m = 3^j + 1 with j >= 1, got m=7"),
    ("counterexample --p 3 --m 10001", None, 2, "", "error: no applicable mode for m=10001"),
    # the single commands the sweep shares its points with
    ("verify-fact --which eq1 --p 3 --r 1", None,
     0, "verdict=pass which=eq1 p=3 r=1 factor_count=1\n", None),
    ("verify-fact --which eq1 --p 3 --r 2", None,
     0, "verdict=pass which=eq1 p=3 r=2 factor_count=7\n", None),
    ("verify-fact --which eq2 --p 2 --r 3 --format json", None, 0,
     '{"command": "verify-fact", "factor_count": 49, "p": 2, "r": 3, "verdict": "pass", '
     '"which": "eq2"}\n', None),
    ("verify-fact --which eq1 --p 2 --r 20", None,
     2, "", "error: field order 2^20 exceeds the ceiling 1000000"),
    ("verify-fact --which eq2 --p 3 --r 1 --ceiling 2", None,
     2, "", "error: field order 3^1 exceeds the ceiling 2"),
    ("degree --p 3 --r 3 --s 1 --mode both", None, 0, "formula=2 oracle=2 agree=true\n", None),
    ("degree --p 3 --r 3 --s 1 --mode both --format json", None, 0,
     '{"agree": true, "command": "degree", "formula": 2, "m": 1, "mode": "both", '
     '"oracle": 2, "oracle_count": 4, "p": 3, "r": 3, "s": 1}\n', None),
    ("degree --p 3 --r 3 --s 1", None, 0, "formula=2 oracle=2 agree=true\n", None),
    ("degree --p 3 --r 4 --s 2 --format tsv", None, 0,
     "command\tp\tr\ts\tm\tformula\toracle_count\toracle\tagree\tmode\n"
     "degree\t3\t4\t2\t2\t1\t2\t1\ttrue\tboth\n", None),
    ("degree --p 2 --r 20 --s 1", None, 0, "formula=1 oracle=1 agree=true\n", None),
    ("degree --p 2 --r 20 --s 1 --mode formula --format json", None, 0,
     '{"agree": null, "command": "degree", "formula": 1, "m": 1, "mode": "formula", '
     '"oracle": null, "oracle_count": null, "p": 2, "r": 20, "s": 1}\n', None),
    ("degree --p 3 --r 2 --s 2", None, 2, "", "error: need r > s >= 1, got r=2, s=2"),
    # the degree oracle over a prime field near the desk ceiling
    ("degree --p 999983 --r 2 --s 1", None, 0, "formula=1 oracle=1 agree=true\n", None),
    # sweep verify-fact: every format, skips over the ceiling, --strict
    ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:2", None, 0, _Sha("6cb4538b2f3c7388"), None),
    ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:2 --format json", None,
     0, _Sha("76ff9dfb760c5eb2"), None),
    ("sweep verify-fact --which eq1 --p 2,3,5 --r 1:2 --format tsv", None,
     0, _Sha("4b9339b1b0b8937b"), None),
    ("sweep verify-fact --which eq2 --p 2,3 --r 1:3 --format json", None,
     0, _Sha("6e5d93d126132736"), None),
    ("sweep verify-fact --which eq1 --p 2,3 --r 1:11 --ceiling 1000", None,
     0, _Sha("c5629add6f5210cb"), None),
    ("sweep verify-fact --which eq1 --p 2,3 --r 1:11 --ceiling 1000 --strict", None,
     1, _Sha("c5629add6f5210cb"), None),
    ("sweep verify-fact --which eq2 --p 5,7 --r 1:3 --ceiling 30 --format tsv", None,
     0, _Sha("d5ebb5601266a358"), None),
    ("sweep verify-fact --which eq2 --p 3 --r 1 --ceiling 2", None, 0,
     "target=verify-fact which=eq2 p=3 r=1 verdict=skip reason=ceiling\n"
     "command=sweep target=verify-fact pass=0 fail=0 skip=1 points=1\n", None),
    ("sweep verify-fact --which eq1 --p 3,2 --r 2,3", None, 0, _Sha("a200175117035936"), None),
    # past the exponent cap the grid refuses before its first record, though
    # the points below the cap would pass; under the default ceiling every
    # point is a skip
    (f"sweep verify-fact --which eq1 --p 2 --r 60:63 --ceiling {10**23}", None, 2, "",
     "error: exponent too large: the eq1 check for q = 2^62 writes exponents of 2^62 or more"),
    ("sweep verify-fact --which eq1 --p 2 --r 60:63", None, 0, _Sha("034e1531bd5fccaa"), None),
    (f"sweep verify-fact --which eq2 --p 2 --r 29:31 --ceiling {10**23}", None, 2, "",
     "error: exponent too large: the eq2 check for q = 2^31 writes exponents of 2^62 or more"),
    ("sweep verify-fact --which eq2 --p 2 --r 29:31", None, 0, _Sha("fca668fcb2f377e3"), None),
    # sweep degree: every format, the default s range, skips, --strict, --jobs
    ("sweep degree --p 2,3 --r 2:4", None, 0, _Sha("1199dc83828043bd"), None),
    ("sweep degree --p 2,3 --r 2:4 --format json", None, 0, _Sha("33e03342c7dbfb03"), None),
    ("sweep degree --p 2,3 --r 2:4 --format json --jobs 4", None,
     0, _Sha("33e03342c7dbfb03"), None),
    ("sweep degree --p 2,3 --r 2:4 --format tsv", None, 0, _Sha("742df5ebef256a21"), None),
    ("sweep degree --p 3 --r 2:5", None, 0, _Sha("97401e7cbea9d2f5"), None),
    ("sweep degree --p 3 --r 2:3", None, 0, _Sha("92fab847c434f3e2"), None),
    ("sweep degree --p 2,3,5 --r 2:6 --s 1,2 --ceiling 100", None,
     0, _Sha("266a856b47e97d62"), None),
    ("sweep degree --p 2,3,5 --r 2:6 --s 1,2 --ceiling 100 --strict --format json", None,
     1, _Sha("1c64e246113fd4ed"), None),
    ("sweep degree --p 3 --r 13:13 --s 1 --ceiling 1000", None, 0,
     "target=degree p=3 r=13 s=1 verdict=skip reason=ceiling\n"
     "command=sweep target=degree pass=0 fail=0 skip=1 points=1\n", None),
    ("sweep degree --p 3 --r 13:13 --s 1 --ceiling 1000 --strict", None, 1,
     "target=degree p=3 r=13 s=1 verdict=skip reason=ceiling\n"
     "command=sweep target=degree pass=0 fail=0 skip=1 points=1\n", None),
    ("sweep degree --p 3 --r 3:4 --s 1:5 --jobs 2 --format tsv", None,
     0, _Sha("d9ca047d1240399f"), None),
    # the degree oracle over fields above TABLE_CEILING, and a grid of 198
    # points with six skips
    ("sweep degree --p 3 --r 13:15 --s 1:3", None, 0, _Sha("6e5102fd7fd2fd80"), None),
    ("sweep degree --p 2,3,5 --r 2:12 --format json", None, 0, _Sha("3d65ff092261b483"), None),
    # --config files: a key reads as its flag, and a flag on the command line
    # beats the file
    ("tpoly", {"A": 3, "B": 1, "char": 0}, 0, "X + Y + Z\n", None),
    ("tpoly --A 4", {"A": 3, "B": 1, "char": 0}, 0, "X^2 + X*Y + X*Z + Y^2 + Y*Z + Z^2\n", None),
    ("sweep verify-fact", {"which": "eq2", "p": [2, 3], "r": "1:2", "format": "json"},
     0, _Sha("f6ec423d44cb5484"), None),
    ("sweep verify-fact --which eq1", {"p": [3, 2], "r": [2, 3]},
     0, _Sha("a200175117035936"), None),
    ("sweep degree", {"p": 3, "r": "2:3"}, 0, _Sha("92fab847c434f3e2"), None),
    ("sweep degree --r 2:3", {"p": 3, "r": "9", "strict": True, "ceiling": 10},
     0, _Sha("92fab847c434f3e2"), None),
    ("sweep degree --p 3 --r 13:13 --s 1 --ceiling 1000", {"strict": True}, 1,
     "target=degree p=3 r=13 s=1 verdict=skip reason=ceiling\n"
     "command=sweep target=degree pass=0 fail=0 skip=1 points=1\n", None),
    ("sweep degree --p 3 --r 13:13 --s 1 --ceiling 1000", {"strict": False}, 0,
     "target=degree p=3 r=13 s=1 verdict=skip reason=ceiling\n"
     "command=sweep target=degree pass=0 fail=0 skip=1 points=1\n", None),
    ("verify-fact --format tsv", {"which": "eq1", "p": 5, "r": 2}, 0,
     "command\twhich\tp\tr\tverdict\tfactor_count\n"
     "verify-fact\teq1\t5\t2\tpass\t23\n", None),
    ("degree", {"p": 2, "r": 5, "s": 2, "mode": "oracle", "format": "json"}, 0,
     '{"agree": null, "command": "degree", "formula": null, "m": 1, "mode": "oracle", '
     '"oracle": 1, "oracle_count": 2, "p": 2, "r": 5, "s": 2}\n', None),
    # a --config file holds an object whose keys are flags the command reads
    ("degree --p 3 --r 3 --s 1", [1, 2], 2, "", "error: --config must hold a JSON object"),
    ("degree --p 3 --r 3 --s 1", {"run": "degree"}, 2, "", "error: unknown config key 'run'"),
    ("degree --p 3 --r 3 --s 1", {"required": []}, 2, "", "error: unknown config key 'required'"),
    ("tpoly --A 3 --B 1", {"bogus": 1}, 2, "", "error: unknown config key 'bogus'"),
    # the positional's dest is no flag, so the file cannot name it
    ("sweep degree", {"target": "degree", "p": 3, "r": 3},
     2, "", "error: unknown config key 'target'"),
    ("sweep degree --p 3 --r 3", {"target": "degree"},
     2, "", "error: unknown config key 'target'"),
    # a flag of the command that the sweep target never reads
    ("sweep verify-fact --which eq1 --p 3 --r 1:2", {"s": 5},
     2, "", "error: sweep verify-fact does not read --s"),
    ("sweep degree --p 3 --r 3", {"which": "eq1"},
     2, "", "error: sweep degree does not read --which"),
    ("sweep verify-fact --p 3 --r 1", {"s": "1"},
     2, "", "error: sweep verify-fact needs --which eq1|eq2"),
    # a bare flag takes true or false, and no flag takes null, an object, or a
    # list that is empty or holds a list or an object
    ("sweep degree --p 3 --r 3", {"strict": 1},
     2, "", "error: config key 'strict' takes true or false, got 1"),
    ("sweep --p 3 --r 3 degree", {"strict": "verify-fact"},
     2, "", 'error: config key \'strict\' takes true or false, got "verify-fact"'),
    ("sweep degree --p 3 --r 3", {"strict": None},
     2, "", "error: config key 'strict' takes true or false, got null"),
    ("sweep degree --p 3 --r 2", {"strict": "no"},
     2, "", 'error: config key \'strict\' takes true or false, got "no"'),
    ("sweep degree", {"p": 3, "r": 2, "strict": "no"},
     2, "", 'error: config key \'strict\' takes true or false, got "no"'),
    ("sweep degree --r 3", {"p": None}, 2, "", "error: config key 'p' takes a value, got null"),
    ("sweep degree", {"p": {"a": 1}, "r": 2},
     2, "", 'error: config key \'p\' takes a value, got {"a": 1}'),
    ("sweep degree", {"p": [3, {"a": 1}], "r": 2},
     2, "", 'error: config key \'p\' takes a value, got [3, {"a": 1}]'),
    ("sweep degree", {"p": [3, [5, 7]]},
     2, "", "error: config key 'p' takes a value, got [3, [5, 7]]"),
    ("sweep degree", {"p": []}, 2, "", "error: config key 'p' takes a value, got []"),
    # every other value meets its flag's type and choices, quoted as the file
    # wrote it
    ("verify-fact", {"which": "eq3", "p": 3, "r": 1}, 2, "",
     "schurlab verify-fact: error: argument --which: invalid choice: 'eq3' "
     "(choose from 'eq1', 'eq2')"),
    ("verify-fact", {"which": True, "p": 3, "r": 1}, 2, "",
     "schurlab verify-fact: error: argument --which: invalid choice: 'true' "
     "(choose from 'eq1', 'eq2')"),
    ("verify-fact", {"which": "eq1", "p": 3, "r": 1, "format": "xml"}, 2, "",
     "schurlab verify-fact: error: argument --format: invalid choice: 'xml' "
     "(choose from 'json', 'tsv', 'text')"),
    ("sweep degree", {"p": ["a"], "r": 2},
     2, "", "schurlab sweep: error: argument --p: not an integer: 'a'"),
    ("sweep degree", {"p": [3, None], "r": 2},
     2, "", "schurlab sweep: error: argument --p: not an integer: 'null'"),
    ("tpoly", {"A": 3.5, "B": 1},
     2, "", "schurlab tpoly: error: argument --A: invalid int value: '3.5'"),
    # missing parameters, listed in flag order
    ("tpoly", None, 2, "", "error: missing required parameters: A, B"),
    ("tpoly --A 3", None, 2, "", "error: missing required parameters: B"),
    ("rpoly --A 3", None, 2, "", "error: missing required parameters: B"),
    ("schur --l2 1", None, 2, "", "error: missing required parameters: l1, l3"),
    ("factor", None, 2, "", "error: missing required parameters: A, B, p, r"),
    ("signature --B 1", None, 2, "", "error: missing required parameters: A, p, r"),
    ("verify-fact", None, 2, "", "error: missing required parameters: which, p, r"),
    ("counterexample", None, 2, "", "error: missing required parameters: p, m"),
    ("degree --r 3", None, 2, "", "error: missing required parameters: p, s"),
    ("sweep degree", None, 2, "", "error: missing required parameters: p, r"),
    # flags a command does not take, and values its flags refuse
    ("tpoly --A 3 --B 1 --frobnicate", None,
     2, "", "schurlab: error: unrecognized arguments: --frobnicate"),
    ("tpoly --A 3 --B 1 --seed 0", None,
     2, "", "schurlab: error: unrecognized arguments: --seed 0"),
    ("identity --seed 7", None, 2, "", "schurlab: error: unrecognized arguments: --seed 7"),
    ("identity --samples 2", None, 2, "", "schurlab: error: unrecognized arguments: --samples 2"),
    ("degree --p 3 --r 3 --s 1 --ceiling x", None,
     2, "", "schurlab degree: error: argument --ceiling: not an integer: 'x'"),
    ("degree --p 3 --r 3 --s 1 --ceiling 1", None,
     2, "", "schurlab degree: error: argument --ceiling: must be at least 2, got 1"),
    ("sweep degree --p , --r 2", None,
     2, "", "schurlab sweep: error: argument --p: empty grid component ','"),
    # a value that is no integer is named as one
    ("sweep degree --p x --r 2", None,
     2, "", "schurlab sweep: error: argument --p: not an integer: 'x'"),
    ("sweep degree --p 3 --r 2:x", None,
     2, "", "schurlab sweep: error: argument --r: not an integer: 'x'"),
    ("counterexample --p 3 --m a", None,
     2, "", "schurlab counterexample: error: argument --m: not an integer: 'a'"),
    ("identity --chars 0,b", None,
     2, "", "schurlab identity: error: argument --chars: not an integer: 'b'"),
    # input too large to represent
    (f"tpoly --A {2**62} --B 1", None,
     2, "", "error: exponent too large in the pair (A,B)=(4611686018427387904,1)"),
    (f"degree --p {_HUGE} --r 3 --s 1 --mode formula", None, 2, "", _PAST_BOUND),
    # a bad value after good ones refuses the whole run before the first record
    ("identity --chars 0,4", None, 2, "", "error: characteristic must be prime, got 4"),
    ("counterexample --p 3 --m 4,0", None, 2, "", "error: need m >= 1, got 0"),
    ("counterexample --p 3 --m 4,10001 --mode direct", None,
     2, "", "error: m=10001 is too large to expand directly; use frobenius_shortcut"),
    # a non-field, refused as one at every entry point
    ("tpoly --A 3 --B 1 --char 4", None, 2, "", "error: characteristic must be prime, got 4"),
    ("factor --A 3 --B 1 --p 4 --r 80", None, 2, "", "error: characteristic must be prime, got 4"),
    ("factor --A 3 --B 1 --p 4 --r 1", None, 2, "", "error: characteristic must be prime, got 4"),
    ("signature --A 5 --B 2 --p 4 --r 1", None,
     2, "", "error: characteristic must be prime, got 4"),
    ("verify-fact --which eq1 --p 4 --r 80", None,
     2, "", "error: characteristic must be prime, got 4"),
    ("verify-fact --which eq2 --p 6 --r 5", None,
     2, "", "error: characteristic must be prime, got 6"),
    ("verify-fact --which eq1 --p 4 --r 2", None,
     2, "", "error: characteristic must be prime, got 4"),
    ("sweep verify-fact --which eq1 --p 4 --r 1", None,
     2, "", "error: characteristic must be prime, got 4"),
    ("sweep verify-fact --which eq1 --p 6 --r 1:2", None,
     2, "", "error: characteristic must be prime, got 6"),
    ("sweep degree --p 4 --r 2 --s 5", None, 2, "", "error: characteristic must be prime, got 4"),
    ("sweep degree --p 4,3 --r 2:3", None, 2, "", "error: characteristic must be prime, got 4"),
    ("sweep degree --p 3,4 --r 1", None, 2, "", "error: characteristic must be prime, got 4"),
    ("degree --p 4 --r 3 --s 1", None, 2, "", "error: characteristic must be prime, got 4"),
    ("counterexample --p 9 --m 4", None, 2, "", "error: characteristic must be prime, got 9"),
    ("counterexample --p 9 --eta 1 --m 4", None,
     2, "", "error: characteristic must be prime, got 9"),
    ("tpoly --A 3 --B 1 --char 0 --ext 2", None,
     2, "", "error: characteristic must be prime, got 0"),
    # the refusals the library makes of a grid, and of an empty grid
    ("sweep verify-fact --which eq1 --p 3 --r 0:1", None,
     2, "", "error: extension degree must be >= 1, got 0"),
    ("sweep degree --p 3 --r 2:4 --s 0:1", None, 2, "", "error: need r > s >= 1, got r=2, s=0"),
    ("sweep degree --p 3 --r 3 --s 0,5", None, 2, "", "error: need r > s >= 1, got r=3, s=0"),
    ("sweep degree --p 3 --r 1 --s 0", None, 2, "", "error: need r > s >= 1, got r=1, s=0"),
    ("sweep degree --p 3 --r 3 --s 0", None, 2, "", "error: need r > s >= 1, got r=3, s=0"),
    ("sweep degree --p 3 --r 5:4", None,
     2, "", "schurlab sweep: error: argument --r: empty range '5:4'"),
    ("sweep degree --p 3 --r 2 --s 5", None, 2, "", "error: the sweep grid is empty"),
    ("sweep degree --p 3 --r 0:1", None, 2, "", "error: the sweep grid is empty"),
    ("identity --max-a 1", None, 2, "", "error: the identity grid is empty"),
    ("counterexample --p 2 --eta 1 --m 5", None,
     2, "", "error: eta applies only to odd p; characteristic 2 uses a cube root of unity"),
    # the sweep's own refusals, and refusals with two faults, where the check
    # order decides the message
    ("sweep verify-fact --p 3 --r 1", None,
     2, "", "error: sweep verify-fact needs --which eq1|eq2"),
    ("sweep verify-fact --which eq1 --p 3 --r 1:2 --s 5", None,
     2, "", "error: sweep verify-fact does not read --s"),
    ("sweep degree --which eq1 --p 3 --r 3", None,
     2, "", "error: sweep degree does not read --which"),
    ("sweep verify-fact --p 3 --r 1 --s 1", None,
     2, "", "error: sweep verify-fact needs --which eq1|eq2"),
    ("sweep verify-fact --p 4 --r 0", None,
     2, "", "error: sweep verify-fact needs --which eq1|eq2"),
    ("sweep verify-fact --which eq1 --p 4 --r 1 --s 1", None,
     2, "", "error: sweep verify-fact does not read --s"),
    ("sweep verify-fact --which eq1 --p 3,4 --r 0:1", None,
     2, "", "error: extension degree must be >= 1, got 0"),
    ("sweep verify-fact --which eq1 --p 4,3 --r 0:1", None,
     2, "", "error: extension degree must be >= 1, got 0"),
    (f"sweep verify-fact --which eq1 --p {_HUGE} --r 0", None, 2, "", _PAST_BOUND),
    ("sweep degree --which eq1 --p 4 --r 2 --s 5", None,
     2, "", "error: sweep degree does not read --which"),
    (f"sweep degree --p {_HUGE} --r 1", None, 2, "", _PAST_BOUND),
    ("sweep degree --r 3 --s 7 --which eq2", None, 2, "", "error: missing required parameters: p"),
]
# a row with a config file is named by its object and then its argv, so rows
# that differ only in their config differ at the head of their ids
_CALL_IDS = [argv if config is None else f"{json.dumps(config)} {argv}"
             for argv, config, *_ in _CALLS]
assert len(set(_CALL_IDS)) == len(_CALL_IDS), "two rows of _CALLS make one call"


@pytest.mark.parametrize("argv, config, status, out, err", _CALLS, ids=_CALL_IDS)
def test_a_call_keeps_its_exit_code_and_output(
    capsys, monkeypatch, tmp_path, argv, config, status, out, err
):
    monkeypatch.delenv(cli.CEILING_ENV, raising=False)
    argv = argv.split()
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    got_status, got_out, got_err = run_cli(capsys, *argv)
    assert (got_status, got_out, _last_line(got_err)) == (status, out, err)
    # the error line ends stderr, and only argparse's usage block comes before it
    assert got_err in ("", f"{err}\n") or (
        got_err.startswith("usage: ") and got_err.endswith(f"\n{err}\n"))


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
    # three-point gate on T(125,1) and the sweep's synthetic division on
    # logarithms in characteristic 2
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
