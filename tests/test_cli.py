import json

import pytest

from unitri import UniTriWindow, parse_partition
from unitri.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dim_pi_inv_csv(capsys):
    code, out = run(capsys, "dim", "--alpha", "const:pi-inv", "--N", "20",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_n_num,a_n_den,decimal"
    assert lines[-2].startswith("20,6,19,")
    assert lines[-1] == "# count_at_20,60"


def test_dim_half_parts(capsys):
    code, out = run(capsys, "dim", "--alpha", "1/2", "--N", "6", "--format", "json")
    report = json.loads(out)
    assert [row.get("mu_n") for row in report["rows"]] == [0, 1, 2, 2, 2]
    assert code == 0


def test_dim_family(capsys):
    code, out = run(capsys, "dim", "--family", "lower-central:2", "--N", "8",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "2,0,1,0"


def test_dim_requires_single_input(capsys):
    code = main(["dim", "--alpha", "1/2", "--family", "lower-central:2"])
    assert code == 1


def test_normalize_roundtrip(capsys):
    code, out = run(capsys, "normalize", "--alpha", "pi-inv", "--N", "20",
                    "--format", "json")
    report = json.loads(out)
    assert report["is_normal"] is True
    mu = parse_partition(report["normalized"])
    assert mu.parts == sorted(report["input_parts"])


def test_word_report(capsys):
    code, out = run(capsys, "word", "--p", "3", "--window", "6",
                    "--format", "json", "x y x y")
    report = json.loads(out)
    assert code == 0
    assert report["length"] == 2 and report["case"] == "i"
    mat = UniTriWindow.from_json(report["matrix"])
    assert mat.get(1, 2).val == 2 and mat.get(1, 5).val == 1


def test_nottingham_report(capsys):
    code, out = run(capsys, "nottingham", "--p", "101", "--gen", "1:1",
                    "--window", "6", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["inverse_coeffs"][:5] == ["100", "2", "96", "14", "59"]
    assert report["first_row_determined"] is True
    # round trip the series JSON back through the same subcommand
    code2, out2 = run(capsys, "nottingham", "--series",
                      json.dumps(report["series"]), "--window", "6",
                      "--format", "json")
    assert json.loads(out2)["matrix"] == report["matrix"]


def test_centralizer_report(capsys):
    code, out = run(capsys, "centralizer", "--p", "3", "--window", "5",
                    "--squares", "(3,4)", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["log_order"] == 7
    assert report["matches_orthogonal"] is True


def test_autos_verify(capsys):
    code, out = run(capsys, "autos-verify", "--p", "3", "--window", "4",
                    "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["failures"] == 0
    assert {c["kind"] for c in report["checks"]} >= {"flip", "central",
                                                     "extremal-first"}


def test_padic_csv(capsys):
    code, out = run(capsys, "padic", "--p", "3", "--k", "1",
                    "--alpha", "pi-inv", "--N", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("n,log_order")
    assert "claimed_zero_limit_discrepancy,1" in out


def test_fieldext_report(capsys):
    code, out = run(capsys, "fieldext", "--p", "3", "--f", "2",
                    "--window", "10", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["sandwich_holds"] is True
    assert report["valuation_relation_holds"] is True
    assert report["extension_image_ratio"] == "1/2"


def test_error_exit_codes(capsys):
    assert main(["dim", "--alpha", "3/2", "--N", "5"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "seq.csv"
    code = main(["dim", "--alpha", "1/2", "--N", "4", "--format", "csv",
                 "--out", str(target)])
    assert code == 0
    assert target.read_text().splitlines()[0] == "n,a_n_num,a_n_den,decimal"


def test_deterministic_outputs(capsys):
    _, out1 = run(capsys, "autos-verify", "--p", "3", "--window", "4",
                  "--format", "json")
    _, out2 = run(capsys, "autos-verify", "--p", "3", "--window", "4",
                  "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("family, usage", [("lower-central", "lower-central:d"),
                                           ("rectangular:2", "rectangular:c,d")])
def test_family_arity_error(capsys, family, usage):
    assert main(["dim", "--family", family, "--N", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert usage in err


def test_fieldext_rejects_small_window(capsys):
    assert main(["fieldext", "--p", "3", "--f", "2", "--window", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: fieldext needs --window >= 2\n"


def test_autos_verify_small_windows(capsys):
    code, out = run(capsys, "autos-verify", "--p", "3", "--window", "3",
                    "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["failures"] == 0
    checks = {c["kind"]: c for c in report["checks"]}
    assert len(checks) == 7
    assert checks["central"]["pass"] is None and "window >= 4" in checks["central"]["note"]
    assert all(c["pass"] is True for k, c in checks.items() if k != "central")
    assert main(["autos-verify", "--window", "2"]) == 1
    assert capsys.readouterr().err == "error: autos-verify needs --window >= 3\n"
