import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from unitri import Ring, UniTriWindow, parse_partition, series
from unitri.cli import READS, _json_text, build_parser, main


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
    # u's power rows serve the printed matrix and invert; the inverse's rows
    # serve first_row_determined and then compose from the inverse's cache
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
    assert built == [u, v]


def test_nottingham_report_checks_the_printed_inverse(capsys, monkeypatch):
    # a wrong inverse must show: its matrix does not invert the printed one
    monkeypatch.setattr(series, "invert", lambda u: series.identity_series(u.ring, u.degree))
    code, out = run(capsys, "nottingham", "--p", "5", "--gen", "1:1",
                    "--window", "6", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["first_row_determined"] is False and report["inverse_verified"] is False


def test_centralizer_report(capsys):
    code, out = run(capsys, "centralizer", "--p", "3", "--window", "5",
                    "--squares", "(3,4)", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["log_order"] == 7
    assert report["matches_orthogonal"] is True


@pytest.mark.parametrize("window, dim", [(9, 14), (12, 20)])
def test_centralizer_orthogonal_past_the_diagram_window(capsys, window, dim):
    # the tailed diagram has window 3 and its orthogonal window 6; the check
    # re-windows the diagram to n first, so it answers past both
    code, out = run(capsys, "centralizer", "--p", "3", "--window", str(window),
                    "--partition", "(1,0|tail=const:1)", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["log_order"] == dim
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
    (["padic", "--p", "3", "--k", "-1", "--family", "lower-central:1", "--N", "4"],
     "padic needs --k >= 0"),
    (["nottingham", "--gen", "0:1"], "--gen wants r >= 1 in r:coeff, not '0:1'"),
    (["word", "--p", "4", "x"], "--p wants an odd prime up to 2147483647, not 4"),
    (["nottingham", "--p", "4", "--gen", "1:1"], "--p wants an odd prime"),
    (["centralizer", "--p", "9", "--family", "lower-central:1"],
     "--p wants an odd prime up to 2147483647, not 9"),
    (["nottingham", "--gen", "9:1", "--window", "6"],
     "--gen wants r < 6 in r:coeff at --window 6, not '9:1'"),
    (["dim", "--family", "lower-central:1", "--N", "1"], "dim needs --N >= 2"),
    (["padic", "--family", "lower-central:1", "--N", "1"], "padic needs --N >= 2"),
    (["fieldext", "--f", "40"], "fieldext needs 2 <= --f <= 8"),
    (["normalize", "--alpha", "1/2", "--N", "1"], "--alpha needs --N >= 2"),
    (["nottingham", "--f", "40", "--gen", "1:1"], "--f must be <= 8"),
    (["word", "--window", "0", "x"], "--window 0: window size must be >= 1"),
    (["centralizer", "--window", "0", "--family", "lower-central:1"],
     "--window 0: window size must be >= 1"),
    (["nottingham", "--gen", "1:1", "--window", "0"], "--window 0: window size must be >= 1"),
    (["nottingham", "--series", '{"q":{"p":3,"f":1},"coeffs":[1]}', "--window", "9"],
     "--series has degree 2, below --window 9"),
    (["dim", "--partition", "(x", "--N", "5"],
     "--partition wants partition text like (0^2,1^2|tail=affine:2), not '(x'"),
    (["dim", "--partition", "(1,z)", "--N", "5"],
     "--partition wants partition text like (0^2,1^2|tail=affine:2), not '(1,z)'"),
    (["dim", "--partition", "(0^-1)", "--N", "5"], "--partition wants partition text"),
    (["padic", "--p", "3", "--k", "0", "--family", "lower-central:1", "--N", "4",
      "--cap", "1000000000000"], "padic needs --cap <= 2000000"),
    (["padic", "--family", "lower-central:1", "--N", "4", "--cap", "2000001"],
     "padic needs --cap <= 2000000"),
    (["centralizer", "--p", "3", "--window", "4", "--squares", "(2,2)"],
     "--squares wants a square list like (3,4);(1,2), each (i,j) with 1 <= i < j <= window, "
     "not '(2,2)'"),
])
def test_bad_values_exit_1_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["nottingham", "--p", "3", "--f", "0", "--gen", "1:1"],
    ["centralizer", "--p", "3", "--f", "-2", "--family", "lower-central:1"],
    ["autos-verify", "--p", "3", "--f", "0", "--window", "4"],
], ids=" ".join)
def test_f_below_1_exits_1(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --f must be >= 1\n")


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


ALPHA_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 40), st.integers(-1, 40)),  # b = 0 too
    st.text("0123456789", min_size=1, max_size=40).map("0.{}".format),
    st.sampled_from(["pi-inv", "const:pi-inv", "e-3", "const:e-3", "0", "1", "0.5", "1.5"]),
    st.text("0123456789./-:e+ πx", max_size=8),  # junk
)


@settings(max_examples=400)
@given(st.sampled_from(["dim", "normalize"]), ALPHA_TEXTS, st.integers(-3, 400),
       st.sampled_from(["json", "csv", "text", "xml"]))
def test_dim_and_normalize_argv_fuzz(command, alpha, N, fmt):
    _check_exit_contract([command, "--alpha", alpha, "--N", str(N), "--format", fmt])


def _check_exit_contract(argv):
    """Exit 0, 1 or 2; exit 1 with one error line; no traceback; json that parses."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 0 and argv[argv.index("--format") + 1] == "json":
        json.loads(out)


def test_centralizer_window_30_budget(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "centralizer", "--p", "5", "--window", "30",
                    "--family", "lower-central:2", "--format", "json")
    assert code == 0 and json.loads(out)["window"] == 30
    assert time.perf_counter() - start <= 6.0


def test_centralizer_window_60_budget(capsys):
    # F_9 with 1770 unknowns: rows come from the generators' nonzeros and the
    # elimination is sparse (the dense one took 3.4 s and 187 MB on a 2-core
    # CPython 3.11 host)
    start = time.perf_counter()
    code, out = run(capsys, "centralizer", "--p", "3", "--f", "2", "--window", "60",
                    "--partition", "(0^5,1^10,2^10|tail=const:3)", "--format", "json")
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    assert code == 0 and report["window"] == 60
    assert report["matches_orthogonal"] is True
    assert elapsed <= 1.0


def test_centralizer_full_group_window_200_budget(capsys):
    # 19,900 elementary generators would give 2.6 million one-term rows, nearly
    # all repeats; each zeroed column is yielded once (4.1-4.4 s when all of
    # them reached row_reduce, 1.1-1.5 s when it skipped the repeats,
    # 0.11-0.17 s now, on a 2-core CPython 3.11 host)
    start = time.perf_counter()
    code, out = run(capsys, "centralizer", "--p", "5", "--window", "200",
                    "--family", "lower-central:1", "--format", "json")
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    # the centralizer of the whole window group is its centre, 1 + F_5 e_(1,200)
    assert code == 0 and report["log_order"] == 1
    assert report["basis"] == [[[1, 200, "1"]]]
    assert elapsed <= 2.0


def test_centralizer_full_group_window_300_budget(capsys):
    # 44,850 elementary generators, each read as a column range and a row
    # range of zeroed unknowns, each range yielded once (3.1-3.6 s when every
    # generator's one-term rows reached row_reduce, on a 2-core CPython 3.11
    # host; 0.24-0.34 s now)
    start = time.perf_counter()
    code, out = run(capsys, "centralizer", "--p", "5", "--window", "300",
                    "--family", "lower-central:1", "--format", "json")
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    assert code == 0 and report["log_order"] == 1
    assert report["basis"] == [[[1, 300, "1"]]]
    assert elapsed <= 2.0


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
    # recorded before the JSON writer replaced json.dumps(indent=2): a json
    # report with mu_n on some rows only, every format of dim, and a json
    # normalize report (a flat list of ints)
    (['dim', '--alpha', 'pi-inv', '--N', '60', '--format', 'json'],
     "6463f0461ab7a64ad9d0ff353f7bf25abb0a4ec70e8c1eec1aa02dbc8886362b", 0),
    (['dim', '--family', 'rectangular:3,2', '--N', '40', '--format', 'text'],
     "1f9d661131a6ee19fe32ecb7211a5c60b7ec3d55e9a6775efefe0f6a19798fab", 0),
    (['dim', '--family', 'derived:2', '--N', '40', '--format', 'csv'],
     "cc256f296f7ddbcd0a172b8cea50938e455262c6be9a3801e881634a29485b9f", 0),
    (['normalize', '--alpha', 'e-3', '--N', '40', '--format', 'json'],
     "7bf2d430ed660c6f16ccba4f75dbb84bba920f2b02c8fd26b81f8225fb7a7a2f", 0),
    (['padic', '--p', '3', '--k', '1', '--family', 'lower-central:1', '--N', '6', '--format', 'text'],
     "368bd2cd23747317690880373a7ff6406acd6cd235572bf3f22d1b55ba71c0b3", 0),
    # recorded before cmd_padic built only what its format prints
    (['padic', '--p', '3', '--k', '1', '--family', 'lower-central:1', '--N', '6', '--format', 'json'],
     "2798484e7b85dcf6b766f853fb839020ae789243078e86f0929d9734efc3cfb4", 0),
    (['padic', '--p', '3', '--k', '1', '--family', 'lower-central:1', '--N', '6', '--format', 'csv'],
     "c41c311850061a67212992799a7250689ec001a76a4484010669433a7360dd62", 0),
]


@pytest.mark.parametrize("argv, digest, exit_code",
                         [pytest.param(*pin, id=" ".join(pin[0])) for pin in OUTPUT_PINS])
def test_output_bytes_are_pinned(capsys, argv, digest, exit_code):
    assert main(argv) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _as_json_argv(argv):
    if "--format" in argv:
        at = argv.index("--format") + 1
        return argv[:at] + ["json"] + argv[at + 1:]
    return argv + ["--format", "json"]


@pytest.mark.parametrize("argv", [pytest.param(_as_json_argv(pin[0]), id=" ".join(pin[0]))
                                  for pin in OUTPUT_PINS if pin[2] == 0])
def test_pinned_reports_re_emit_unchanged(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert _json_text(report) + "\n" == out == json.dumps(report, indent=2) + "\n"


def test_out_file_has_the_stdout_bytes(tmp_path, capsys):
    argv = ["dim", "--alpha", "pi-inv", "--N", "60", "--format", "json"]
    target = tmp_path / "report.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert run(capsys, *argv) == (0, target.read_text())


# -- the JSON writer against json.dumps(indent=2) --

TRICKY_TEXTS = ["},\n      {", "],\n    [", "line\nbreak", 'say "hi"', "naïve ☃ 字", "", "\t\x00"]
JSON_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY_TEXTS))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), JSON_TEXT,
    st.integers(-2 ** 70, 2 ** 70), st.sampled_from([2 ** 64 + 1, -(2 ** 80), 10 ** 30]),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
)


def _containers(items):
    lists = st.lists(items, max_size=4)
    return st.one_of(lists, lists.map(tuple), st.dictionaries(JSON_TEXT, items, max_size=4))


def _rows(items):
    """Lists of flat rows of one kind, sometimes with an empty row among them."""
    row = st.one_of(st.dictionaries(JSON_TEXT, items, min_size=1, max_size=4),
                    st.lists(items, min_size=1, max_size=4),
                    st.lists(items, min_size=1, max_size=4).map(tuple))
    return st.one_of(
        st.lists(st.dictionaries(JSON_TEXT, items, min_size=1, max_size=4), min_size=1, max_size=4),
        st.lists(st.lists(items, min_size=1, max_size=4), min_size=1, max_size=4),
        st.tuples(st.lists(row, max_size=3), st.sampled_from([{}, [], ()]), st.lists(row, max_size=3))
        .map(lambda t: [*t[0], t[1], *t[2]]),
    )


def _json_values(depth):
    """JSON values nested up to depth containers deep."""
    if depth == 0:
        return JSON_SCALARS
    below = _json_values(depth - 1)
    return st.one_of(JSON_SCALARS, _containers(below), _rows(JSON_SCALARS),
                     st.lists(_rows(JSON_SCALARS), min_size=1, max_size=3))


@settings(max_examples=400)
@given(_json_values(4))
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


# -- argv fuzz for the other six subcommands: windows from -1, junk texts --

WORD_TEXTS = st.one_of(st.sampled_from(["x y x y", "x^2 y^-1", "y^3 x", "", "x^"]),
                       st.text("xyz^-0123 ", max_size=8))
SERIES_TEXTS = st.one_of(st.sampled_from([
    '{"q": {"p": 3, "f": 1}, "coeffs": ["1", "2", "0", "1"]}',
    '{"q": {"p": 3, "f": 2}, "coeffs": ["0,1", "1", "2,2"]}',
    '{"q": {"p": 3, "k": 2}, "coeffs": ["4", "1"]}',
    '{"q": {"p": 4}, "coeffs": ["1"]}', '{"q": {"p": 3}, "coeffs": []}',
    '{"q": {"p": 3}, "coeffs": "12"}', '{"q": 3, "coeffs": [1]}', "{}", "[]", "null", "7",
]), st.text('{}[]":,pqfk0123 ', max_size=12))
GEN_TEXTS = st.one_of(st.sampled_from(["1:1", "2:0,1", "1:2", "0:1", "-1:1", "x:1", "1:", ":"]),
                      st.text("0123:,-x", max_size=6))
DIAGRAM_OPTIONS = st.one_of(
    st.tuples(st.just("--alpha"), st.sampled_from(["1/2", "pi-inv", "e-3", "3/2", "x"])),
    st.tuples(st.just("--partition"),
              st.sampled_from(["(0^2,1^2|tail=affine:2)", "(0,1,1|tail=const:1)", "(0,1)", "((", ""])),
    st.tuples(st.just("--squares"), st.sampled_from(["(3,4)", "(1,2);(2,5)", "(4,3)", "(", "()"])),
    st.tuples(st.just("--family"),
              st.sampled_from(["lower-central:1", "lower-central:2", "rectangular:2,2",
                               "derived:1", "lower-central:0", "nope", "lower-central:x"])),
)


def _mostly(valid, drawn):
    """Values from drawn, about half of them from its valid part."""
    return st.one_of(valid, drawn)


SMALL_INTS = {"p": _mostly(st.sampled_from([3, 5]), st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9])),
              "f": _mostly(st.integers(1, 3), st.integers(-2, 3)),
              "k": _mostly(st.integers(1, 3), st.integers(-1, 3)),
              "N": _mostly(st.integers(2, 8), st.integers(-1, 8)),
              "cap": st.sampled_from([-1, 0, 1, 50, 2000])}
WINDOW_MAX = {"autos-verify": 4, "fieldext": 12}


@st.composite
def ring_argv(draw):
    command = draw(st.sampled_from(["word", "nottingham", "centralizer", "autos-verify",
                                    "padic", "fieldext"]))
    argv = [command]
    top = WINDOW_MAX.get(command, 7)
    for opt in READS[command]:
        value = draw(_mostly(st.integers(3, top), st.integers(-1, top)) if opt == "window"
                     else SMALL_INTS[opt])
        argv += [f"--{opt}", str(value)]
    if command == "nottingham":
        argv += draw(st.one_of(st.tuples(st.just("--series"), SERIES_TEXTS),
                               st.tuples(st.just("--gen"), GEN_TEXTS), st.just(())))
    if command in ("centralizer", "padic"):
        picked = draw(_mostly(st.lists(DIAGRAM_OPTIONS, min_size=1, max_size=1),
                              st.lists(DIAGRAM_OPTIONS, max_size=2)))
        for opt, text in picked:
            argv += [opt, text]
    argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    if command == "word":
        argv.append(draw(WORD_TEXTS))
    return argv


@settings(max_examples=300)
@given(ring_argv())
def test_ring_subcommands_argv_fuzz(argv):
    _check_exit_contract(argv)


@pytest.mark.parametrize("argv", [
    ["dim", "--alpha", "pi-inv", "--N", "10000000"],
    ["normalize", "--alpha", "1/3", "--N", "1000001", "--format", "csv"],
    ["padic", "--family", "lower-central:1", "--N", "10000000"],
], ids=" ".join)
def test_N_past_the_exact_range_exits_1_at_once(capsys, argv):
    # dim --N 10^7 used to run 27 s into a MemoryError traceback
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: --N {argv[argv.index('--N') + 1]}: "
                                       "N must be <= 1000000, the exact range\n")
