import json

import pytest

from betaring import checks, config
from betaring.cli import main
from betaring.config import get_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evalz_example(capsys):
    code, out, _ = run(capsys, "evalz", "--class", "S2:S2", "--r", "3")
    assert code == 0
    assert out.strip() == "6"


def test_catalog_dump(capsys):
    code, out, _ = run(capsys, "catalog", "--ambient", "S3")
    assert code == 0
    assert "4 subgroup classes" in out
    assert "C3" in out


def test_catalog_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "catalog", "--ambient", "S3")
    data = json.loads(out)
    assert data["descriptor"] == "S3"
    assert len(data["classes"]) == 4
    assert data["marks_matrix"][0] == [6, 0, 0, 0]
    assert {"index", "label", "generators", "order", "norm_order", "ptype", "marks"} <= set(
        data["classes"][0]
    )


def test_marks_table(capsys):
    code, out, _ = run(capsys, "--json", "marks", "--ambient", "S2")
    assert json.loads(out)["matrix"] == [[2, 0], [1, 1]]


def test_psik_n2(capsys):
    code, out, _ = run(capsys, "--json", "psiK", "--n", "2")
    data = json.loads(out)
    assert data["entries"][0]["beta_coeffs"] == [1, 0]
    assert data["entries"][1]["beta_coeffs"] == [-1, 2]


def test_prod_star_diag_lin(capsys):
    code, out, _ = run(capsys, "prod", "--left", "S1:e", "--right", "S1:e")
    assert code == 0 and "S2:e" in out
    code, out, _ = run(capsys, "star", "--left", "S2:S2", "--right", "S2:S2")
    assert code == 0 and "S4:" in out
    code, out, _ = run(capsys, "--json", "diag", "--class", "S2:e")
    assert sum(t["coeff"] for t in json.loads(out)) == 4
    code, out, _ = run(capsys, "lin", "--psi", "2")
    assert out.strip() == "p[2]"


def test_evalg(capsys):
    code, out, _ = run(capsys, "evalg", "--class", "S2:S2", "--group", "C3")
    assert code == 0
    assert "2*[G/e]" in out


@pytest.mark.parametrize("coords", [["--coords", "-1,0"], ["--coords=-1,0"]])
def test_evalg_on_a_virtual_x(capsys, coords):
    """S^2(-[C3/e]) has marks ((-3)^2 + (-3)) / 2 = 3 at e and 0 at C3: one
    [C3/e].  The coordinates may follow --coords as a separate argument,
    though argparse alone would read -1,0 as an option."""
    code, out, _ = run(capsys, "--json", "evalg", "--class", "S2:S2", "--group", "C3", *coords)
    assert code == 0
    assert json.loads(out)["coords"] == [1, 0]


def test_evalg_past_the_gset_cap(capsys):
    """[C6/e]^6 has 6^6 = 46,656 points, more than the default gset_cap, and
    every mark but the one at e is 0: 6^6 / 6 = 7,776 free orbits."""
    code, out, _ = run(capsys, "--json", "evalg", "--class", "S6:e", "--group", "C6")
    assert code == 0
    assert json.loads(out)["coords"] == [7776, 0, 0, 0]


def test_witt_subcommand(capsys):
    code, out, _ = run(capsys, "--json", "witt", "--op", "mul", "--a", "1,0", "--b", "1,0")
    data = json.loads(out)
    assert data["result"]["coeffs"] == [[1, 1], [1, 1]]


def test_witt_output_is_pinned(capsys):
    code, out, _ = run(capsys, "witt", "--op", "mul", "--a", "1,2,-3", "--b", "2,0,5")
    assert code == 0
    assert out == "1 + (2)t^1 + (-4)t^2 + (-118)t^3\n  ghost: ['2', '-12', '-322']\n"
    code, out, _ = run(capsys, "--json", "witt", "--op", "mul", "--a", "1,2,-3", "--b", "2,0,5")
    pinned = {
        "op": "mul",
        "result": {"precision": 3, "coeffs": [[2, 1], [-4, 1], [-118, 1]]},
        "ghost": ["2", "-12", "-322"],
    }
    assert out == json.dumps(pinned, indent=2) + "\n"
    code, out, _ = run(capsys, "witt", "--op", "mul", "--a", "1/2,3,-1", "--b", "2/3,1,4")
    assert code == 0
    assert out == (
        "1 + (1/3)t^1 + (163/36)t^2 + (-643/27)t^3\n"
        "  ghost: ['1/3', '161/18', '-8201/108']\n"
    )
    code, out, _ = run(capsys, "--json", "witt", "--op", "mul", "--a", "1/2,3,-1", "--b", "2/3,1,4")
    pinned = {
        "op": "mul",
        "result": {"precision": 3, "coeffs": [[1, 3], [163, 36], [-643, 27]]},
        "ghost": ["1/3", "161/18", "-8201/108"],
    }
    assert out == json.dumps(pinned, indent=2) + "\n"


@pytest.mark.parametrize("prec", ["-1", "2"])
def test_witt_bad_precision_exits_one(capsys, prec):
    code, _, err = run(capsys, "witt", "--op", "add", "--a", "1,2,3", "--b", "1", "--prec", prec)
    assert code == 1
    assert "precision" in err and "3 coefficients" in err


def test_lin_of_psi_zero_is_zero(capsys):
    """Psi^0 is the zero class: --psi 0 is a value, not a missing option."""
    for basis in ("p", "e"):
        code, out, _ = run(capsys, "lin", "--psi", "0", "--basis", basis)
        assert (code, out.strip()) == (0, "0")


def test_witt_zero_denominator_exits_one(capsys):
    code, out, err = run(capsys, "witt", "--op", "add", "--a", "1/0", "--b", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Fraction(1, 0)" in err
    code, out, err = run(capsys, "--json", "witt", "--op", "add", "--a", "1/0", "--b", "1")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "Fraction(1, 0)", "type": "ZeroDivisionError"}


def test_check_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "mod2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out.replace("0 failing", "")


def test_a_raising_suite_is_one_fail_line(capsys, monkeypatch):
    from betaring import checks
    from betaring.errors import IntegralityViolation

    def raising(n=None):
        raise IntegralityViolation("marks vector is not in the image of A(G)")

    monkeypatch.setitem(checks.SUITES, "beta-z", raising)
    code, out, _ = run(capsys, "check", "beta-z", "mod2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == (
        "FAIL beta-z :: beta-z suite ran to completion"
        "  [IntegralityViolation: marks vector is not in the image of A(G)]"
    )
    assert any(line.startswith("PASS mod2 :: ") for line in lines)
    assert lines[-1] == "FAILED: 1 failing checks"
    with pytest.raises(KeyError):
        checks.run_suites(["no-such-suite"])


def test_check_catalog_suite(capsys):
    from betaring import checks

    assert {"catalog", "beta-z", "lambda"} <= set(checks.SUITES)
    code, out, _ = run(capsys, "check", "catalog")
    assert code == 0
    assert "Sym(6) class count = 56" in out and "FAIL" not in out
    assert "PASS catalog :: S1..S5 catalogs read back from a freshly written cache file" in out


def test_check_adams_n1(capsys):
    code, out, _ = run(capsys, "check", "adams", "--n", "1")
    assert code == 0


def test_check_adams_n6_solves_degree_six(capsys):
    code, out, _ = run(capsys, "--json", "check", "adams", "--n", "6")
    assert code == 0
    reports = {r["identity"]: r["status"] for r in json.loads(out)["adams"]}
    assert reports["Psi_K system solves integrally for n=6"] == "pass"


def test_check_adams_past_the_degree_cap_is_one_fail_line(capsys):
    """At max_degree 6, `check adams --n 7` reports the cap as the suite's
    one FAIL line, not as a failed integrality solve for n=7."""
    with config.override(max_degree=6):
        code, out, _ = run(capsys, "check", "adams", "--n", "7")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == (
        "FAIL adams :: adams suite ran to completion  [DegreeCap: degree 7 exceeds max_degree 6]"
    )
    assert not any("solves integrally for n=7" in line for line in lines)


def test_unknown_class_is_a_computation_error(capsys):
    code, out, err = run(capsys, "evalz", "--class", "S2:bogus", "--r", "1")
    assert code == 1
    assert "error" in err


def test_json_error_object(capsys):
    code, out, _ = run(capsys, "--json", "evalz", "--class", "S2:bogus", "--r", "1")
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["evalz", "--r", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("depth", ["0", "-2"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_check_depth_below_one_is_a_usage_error(capsys, monkeypatch, depth, json_flag):
    """--n 0 is a depth, not a missing option: it is refused before any
    suite runs, never read as the default or passed vacuously."""
    ran = []
    monkeypatch.setitem(checks.SUITES, "lambda", lambda n=None: ran.append(n) or [])
    with pytest.raises(SystemExit) as exc:
        main([*json_flag, "check", "lambda", "--n", depth])
    assert exc.value.code == 2
    assert "depth n must be at least 1" in capsys.readouterr().err
    assert ran == []
    with pytest.raises(ValueError):
        checks.run_suites(["lambda"], n=int(depth))
    assert ran == []


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_check_unknown_suite_is_a_usage_error(capsys, monkeypatch, json_flag):
    """An unknown name is refused before any suite runs, also before a
    known suite named ahead of it."""
    ran = []
    monkeypatch.setitem(checks.SUITES, "mod2", lambda n=None: ran.append(n) or [])
    with pytest.raises(SystemExit) as exc:
        main([*json_flag, "check", "mod2", "bogus"])
    assert exc.value.code == 2
    assert "unknown suite 'bogus'" in capsys.readouterr().err
    with pytest.raises(KeyError):
        checks.run_suites(["mod2", "bogus"])
    assert ran == []


def test_empty_partition_is_a_computation_error(capsys):
    """--partition "" is a value, not a missing option: exit 1, no traceback."""
    code, out, err = run(capsys, "psi", "--partition", "")
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, _ = run(capsys, "--json", "psi", "--partition", "")
    assert code == 1
    assert set(json.loads(out)) == {"error", "type"}


@pytest.mark.parametrize(
    "argv, option",
    [
        (["catalog", "--ambient", "T3"], "--ambient"),
        (["catalog", "--ambient", "S"], "--ambient"),
        (["catalog", "--ambient", "Sx3"], "--ambient"),
        (["marks", "--ambient", "S2x"], "--ambient"),
        (["psi", "--partition", "2,,1"], "--partition"),
        (["evalg", "--class", "S2:S2", "--group", "C2", "--coords", "a"], "--coords"),
    ],
)
def test_malformed_option_text_names_the_option(capsys, argv, option):
    """Text that is not the option's integers exits 1, naming the option
    and the text, with no traceback, in text and in JSON mode."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {option} expects ") and repr(argv[-1]) in err
    assert "Traceback" not in err and "invalid literal" not in err
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 1
    assert json.loads(out) == {"error": err[len("error: "):].strip(), "type": "BetaringError"}


@pytest.mark.parametrize("degree", ["0", "9"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_max_degree_out_of_range_is_a_usage_error(capsys, degree, json_flag):
    with pytest.raises(SystemExit) as exc:
        main([*json_flag, "--max-degree", degree, "catalog", "--ambient", "S3"])
    assert exc.value.code == 2
    assert "max_degree must be in 1..7" in capsys.readouterr().err
    assert get_config().max_degree == 6


@pytest.mark.parametrize("ambient", ["S-1", "S3x-3"])
def test_negative_degree_is_an_error_and_writes_no_cache(capsys, ambient):
    code, _, err = run(capsys, "catalog", "--ambient", ambient)
    assert code == 1
    assert "nonnegative integers" in err
    code, out, _ = run(capsys, "--json", "catalog", "--ambient", ambient)
    assert code == 1 and json.loads(out)["type"] == "ValueError"
    assert not list(get_config().resolved_catalog_dir().glob("*-*_v*.json"))


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "--json", "catalog", "--ambient", "S4")
    _, second, _ = run(capsys, "--json", "catalog", "--ambient", "S4")
    assert first == second
