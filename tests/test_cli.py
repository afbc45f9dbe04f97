import hashlib
import json
import time

import pytest

from unitri import Ring, UniTriWindow, parse_partition, series
from unitri.cli import build_parser, main


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
    assert report["inverse_verified"] is True
    # round trip the series JSON back through the same subcommand
    code2, out2 = run(capsys, "nottingham", "--series",
                      json.dumps(report["series"]), "--window", "6",
                      "--format", "json")
    assert json.loads(out2)["matrix"] == report["matrix"]


def test_nottingham_report_builds_each_series_once(capsys, monkeypatch):
    # u's power rows serve the printed matrix and invert; first_row_determined
    # and inverse_verified build the rows of the series they check
    built = []
    kernel = series._power_rows
    monkeypatch.setattr(series, "_power_rows", lambda u: built.append(u) or kernel(u))
    u = series.SeriesAut(Ring.ext_field(3, 2), [(1, 2), 0, (0, 1), 1, 2, (2, 2), 0])
    code, out = run(capsys, "nottingham", "--series", json.dumps(u.to_json()),
                    "--window", "8", "--format", "json")
    report = json.loads(out)
    v = series.SeriesAut.from_json({"q": report["series"]["q"],
                                    "coeffs": report["inverse_coeffs"]})
    assert code == 0 and report["inverse_verified"] and report["first_row_determined"]
    assert built == [u, u, v]
    assert len({id(s) for s in built}) == 3


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


def test_autos_verify_over_f3_8(capsys):
    code, out = run(capsys, "autos-verify", "--p", "3", "--f", "8", "--window", "4",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["failures"] == 0


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


# 2: argparse rejects the command line; 1: the computation rejects a parsed value
EXIT_CODES = [
    (["dim", "--alpha", "3/2", "--N", "5"], 1),
    (["definitely-not-a-command"], 2),
    (["dim", "--p", "x", "--alpha", "1/2"], 2),
    (["dim", "--format", "xml", "--alpha", "1/2"], 2),
    (["word", "--window", "0", "x"], 1),
    (["fieldext", "--f", "40"], 1),
    (["word", "--p", "x", "x"], 2),
]


@pytest.mark.parametrize("argv, code",
                         [pytest.param(*case, id=" ".join(case[0])) for case in EXIT_CODES])
def test_error_exit_codes(capsys, argv, code):
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("argv, message", [
    (["padic", "--cap", "0", "--alpha", "pi-inv", "--N", "6"], "--cap >= 1"),
    (["padic", "--cap", "-1", "--alpha", "pi-inv", "--N", "6"], "--cap >= 1"),
    (["centralizer", "--window", "0", "--family", "lower-central:1"],
     "window size must be >= 1"),
    (["nottingham", "--series", "{}"], '{"q": ring, "coeffs": [...]}'),
    (["nottingham", "--gen", "x:1"], "r:coeff"),
    (["nottingham", "--series", "notjson"], '--series wants a JSON object {"q": ring, "coeffs": [...]}'),
    (["dim", "--alpha", "1/2", "--N", "5", "--out", "."], "Is a directory"),
    (["dim", "--alpha", "1/2", "--N", "5", "--out", "no-such-dir/seq.csv"],
     "No such file or directory"),
    (["nottingham", "--gen", "1:1", "--window", "0"], "window size must be >= 1"),
    (["dim", "--squares", "(", "--N", "5"], "--squares wants a square list like (3,4);(1,2)"),
    (["dim", "--alpha", "1/0", "--N", "5"], "--alpha wants a/b, a decimal or a named constant"),
    (["word", "--p", "3", "--window", "6", "x^a"],
     "word text wants letters x and y with integer exponents"),
    (["dim", "--family", "lower-central:x", "--N", "5"],
     "--family wants name:args, e.g. lower-central:2, not 'lower-central:x'"),
])
def test_bad_values_exit_1_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    run(capsys, "dim", "--alpha", "3/7", "--N", "6")
    run(capsys, "normalize", "--alpha", "3/7", "--N", "6")
    assert build_parser.cache_info().misses == 1


def test_rejected_argv_leaves_the_parser_intact(capsys):
    argv = ["dim", "--alpha", "3/7", "--N", "12", "--format", "json"]
    build_parser.cache_clear()
    want = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--p", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == want
    # a default is not overwritten by an earlier command line's value
    assert run(capsys, "dim", "--alpha", "3/7", "--N", "12")[1].startswith("input:\n")
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["centralizer", "--p", "3", "--k", "2", "--family", "lower-central:1", "--format", "json"],
    ["autos-verify", "--p", "3", "--window", "4", "--N", "5"],
    ["dim", "--p", "3", "--alpha", "1/2"],  # not read as an abbreviated --partition
], ids=" ".join)
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_centralizer_window_30_budget(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "centralizer", "--p", "5", "--window", "30",
                    "--family", "lower-central:2", "--format", "json")
    assert code == 0 and json.loads(out)["window"] == 30
    assert time.perf_counter() - start <= 6.0


# sha256 of stdout and the exit code of each argv, recorded before windows
# stored codes: every subcommand over F_5, F_9 and Z/27 (padic at n = 3),
# the README examples (fieldext at window 60) and one error exit.  A change
# that should not alter output keeps every pin.
OUTPUT_PINS = [
    (['dim', '--alpha', 'const:pi-inv', '--N', '20', '--format', 'csv'],
     "cfa1a89b6e5f7114b37c40bee8290f8d786e2f46082b4f4acecccc2f6a40db62", 0),
    (['normalize', '--alpha', 'pi-inv', '--N', '20'],
     "1c6ee440cad15bf602bdb11911741ceff09f43d00bb1a0091b9df2cb8eb007e2", 0),
    (['word', '--p', '3', '--window', '8', 'x y x y'],
     "61494273fd6cb5d83bf0f9fe7ac7e115883c93773db3f4ff2447ec0005ebbff7", 0),
    (['nottingham', '--p', '101', '--gen', '1:1', '--window', '8', '--format', 'json'],
     "65af4b4dabdcab3c8be918c168634cbd2bba7eca566882b3ad367a844d7a3d17", 0),
    (['centralizer', '--p', '3', '--window', '5', '--squares', '(3,4)', '--format', 'json'],
     "4a32d7d5069a2115711282c18a12dc9eed5079ba8049f9e581ccff3d761b35c9", 0),
    (['autos-verify', '--p', '3', '--window', '4'],
     "b34b159941e643cfa5b0440c0b5166926e4b71b0c8868fa5009e51b8e1af4266", 0),
    (['padic', '--p', '3', '--k', '1', '--alpha', 'pi-inv', '--N', '12', '--format', 'csv'],
     "bd2f87d0c91f9eec9ab348c68db2c0035d1040608c974f6f2b5f59b671673081", 0),
    (['fieldext', '--p', '3', '--f', '2', '--window', '60'],
     "c84ac9d51f8872d65e63b993e947f77201a9179319129d550f0feb9377b1f355", 0),
    (['dim', '--family', 'lower-central:2', '--N', '12', '--format', 'json'],
     "32c871cbb1f579e8ff79125cd74cbedbfb5d903788d7bed541c3fe99316421aa", 0),
    (['word', '--p', '5', '--window', '10', '--format', 'json', 'x^2 y x^3 y^4'],
     "738657b70510d2c83db0a5d2cf554ee7324365bc01456db5e83e33022757b682", 0),
    (['nottingham', '--p', '5', '--gen', '2:3', '--window', '10', '--format', 'json'],
     "9f3ba2f74d15d05bc83535651dddc5747b39ac4608acb33614c2d9bdb22f1a17", 0),
    (['nottingham', '--p', '3', '--f', '2', '--gen', '1:0,1', '--window', '8', '--format', 'json'],
     "1fed9bb2bea479a747368306ba74a887f5a9bf38f378f2af480b9214bdcac8bd", 0),
    (['centralizer', '--p', '5', '--window', '5', '--family', 'lower-central:2', '--format', 'json'],
     "d8ebd8abfe8e77bf0b32c140e262713521ddb40020a6ae4ab1a77f695c54b858", 0),
    (['centralizer', '--p', '3', '--f', '2', '--window', '4', '--family', 'lower-central:1', '--format', 'json'],
     "94efac90912cc08746a14142f078fda4d813fb9f3441e7cfaea89ae340a5a8b1", 0),
    (['autos-verify', '--p', '5', '--window', '4', '--format', 'json'],
     "25e14b9ff14c18efb728b2e6411c565c09d1d7a8eb1effeba2524bf8efa75ca2", 0),
    (['autos-verify', '--p', '3', '--f', '2', '--window', '4', '--format', 'json'],
     "d4da00c384c970cec87dcc999ccbec8c9e8c3acee609f4415369cd264d31eca1", 0),
    (['padic', '--p', '3', '--k', '1', '--family', 'lower-central:1', '--N', '3', '--format', 'json'],
     "10ee6e63c7ddbdffc7bad13879efc0d907e136ec1e66eb277f0995cea44094e1", 0),
    (['padic', '--p', '3', '--k', '1', '--family', 'lower-central:2', '--N', '6', '--cap', '20000', '--format', 'json'],
     "6f35f22f0a3a75cf3e686d39f02b61a02c3c106293a58d09c4f4d8bf8b0e7bcf", 0),
    (['fieldext', '--p', '5', '--f', '2', '--window', '20', '--format', 'json'],
     "41a5f1a07f512e873cb1b66f63849cf27018c57c12082ce40ac8f2b587d5bad7", 0),
    (['fieldext', '--p', '3', '--f', '1'],
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
]


@pytest.mark.parametrize("argv, digest, exit_code",
                         [pytest.param(*pin, id=" ".join(pin[0])) for pin in OUTPUT_PINS])
def test_output_bytes_are_pinned(capsys, argv, digest, exit_code):
    assert main(argv) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
