import hashlib
import json

import pytest

from rscorr import autocorr
from rscorr.autocorr import AutocorrTable
from rscorr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_published_sequences(capsys):
    expected = {1: "+ +", 2: "+ + + -", 3: "+ + + - + + - +"}
    for m, text in expected.items():
        code, out, _ = run(capsys, "gen", "--m", str(m))
        assert code == 0
        assert out == text + "\n"


def test_gen_order_zero(capsys):
    assert run(capsys, "gen", "--m", "0") == (0, "+\n", "")


def test_gen_compact_and_flips(capsys):
    code, out, _ = run(capsys, "gen", "--m", "3", "--format", "compact")
    assert (code, out) == (0, "+++-++-+\n")
    # flip pattern 001 reproduces the plain sequence at order 3
    code, out, _ = run(capsys, "gen", "--m", "3", "--f", "001")
    assert (code, out) == (0, "+ + + - + + - +\n")
    # all-zero flips give the hand-unrolled variant
    code, out, _ = run(capsys, "gen", "--m", "3", "--f", "000")
    assert (code, out) == (0, "+ + + - - - + -\n")


def test_gen_bad_flips(capsys):
    code, _, err = run(capsys, "gen", "--m", "3", "--f", "01")
    assert code == 2 and "length 3" in err
    code, _, err = run(capsys, "gen", "--m", "3", "--f", "0x1")
    assert code == 2


def test_gen_order_cap(capsys):
    code, _, err = run(capsys, "gen", "--m", "99")
    assert code == 2 and "cap" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "gen")[0] == 2
    assert run(capsys, "autocorr", "--m", "3", "--kind", "circular")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_autocorr_order_zero(capsys):
    code, out, _ = run(capsys, "autocorr", "--m", "0")
    assert code == 0
    assert out.splitlines() == ["k,value", "0,1", "1,0"]
    code, out, _ = run(capsys, "autocorr", "--m", "0", "--kind", "periodic")
    assert code == 0
    assert out.splitlines() == ["k,value", "0,1"]


def test_autocorr_rows(capsys):
    code, out, _ = run(capsys, "autocorr", "--m", "3", "--kind", "aperiodic")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "k,value"
    assert "3,3" in lines
    assert "2,0" in lines
    code, out, _ = run(capsys, "autocorr", "--m", "3", "--kind", "periodic")
    assert code == 0
    assert "3,4" in out.splitlines()


def test_autocorr_check_and_methods(capsys):
    assert run(capsys, "autocorr", "--m", "6", "--check")[0] == 0
    fast = run(capsys, "autocorr", "--m", "6")[1]
    naive = run(capsys, "autocorr", "--m", "6", "--method", "naive")[1]
    assert fast == naive


@pytest.mark.parametrize("kind,fast_name", [
    ("aperiodic", "aperiodic_table_fast"),
    ("periodic", "periodic_table"),
])
def test_autocorr_naive_check_compares_with_fast_route(capsys, monkeypatch, kind, fast_name):
    argv = ("autocorr", "--m", "6", "--kind", kind, "--method", "naive", "--check")
    clean = run(capsys, *argv)
    assert clean[0] == 0 and clean[1] == run(capsys, "autocorr", "--m", "6", "--kind", kind)[1]

    fast = getattr(autocorr, fast_name)

    def corrupted(m, *args):
        values = fast(m, *args).values.copy()
        values[3] += 1
        return AutocorrTable(m, kind, values)

    monkeypatch.setattr(autocorr, fast_name, corrupted)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "check failed" in err and "fast route" in err


def test_autocorr_out_directory_naming(capsys, tmp_path):
    code, out, _ = run(capsys, "autocorr", "--m", "4", "--out", str(tmp_path))
    assert code == 0 and out == ""
    assert (tmp_path / "C_4.csv").read_text().startswith("k,value\n0,16\n")
    run(capsys, "autocorr", "--m", "4", "--kind", "periodic", "--out", str(tmp_path))
    assert (tmp_path / "P_4.csv").exists()


@pytest.mark.parametrize("suite,extra", [
    ("recurrences", ("--m-max", "8")),
    ("lemma4", ()),
    ("theorem12", ("--m-max", "8")),
    ("decomposition", ("--m-max", "8")),
    ("lemma6", ()),
    ("remark1", ()),
])
def test_verify_suites_pass(capsys, suite, extra):
    code, out, _ = run(capsys, "verify", suite, *extra)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_jsr_bnb_json(capsys):
    code, out, _ = run(capsys, "jsr", "--method", "bnb", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 6
    assert payload["lower"] <= 1.659 <= payload["upper"]
    assert payload["witness"] == ["MA"]


def test_jsr_polytope_json(capsys):
    code, out, _ = run(capsys, "jsr", "--method", "polytope", "--tol", "1e-8")
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is True
    assert 24 <= len(payload["vertices"]) <= 36
    assert payload["max_violation"] <= 1e-8
    assert payload["rounds"] <= 10


def test_table_rows(capsys):
    code, out, _ = run(capsys, "table", "--m-max", "5")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "m,k_star,value,unique,ell,abs_gap,ratio"
    assert lines[1] == "3,3,3,true,5,2,0.6"
    assert lines[2] == "4,11,-5,true,11,0,1"
    assert lines[3].startswith("5,13,7,true,21,8,")


def test_merit_rows(capsys):
    code, out, _ = run(capsys, "merit", "--m-max", "3")
    assert code == 0
    assert out.splitlines() == ["m,merit_factor", "1,2", "2,4", "3,2.66666666667"]


def test_plotdata(capsys):
    code, out, _ = run(capsys, "plotdata", "--m", "10")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "k,abs_C"
    assert len(lines) == 1 + 1023
    for line in lines[2::2]:  # even shifts all vanish
        _, val = line.split(",")
        assert val == "0"


def test_outputs_are_deterministic(capsys):
    for argv in (
        ("gen", "--m", "5"),
        ("table", "--m-max", "8"),
        ("jsr", "--method", "bnb", "--depth", "5"),
        ("verify", "lemma4",),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_out_file(capsys, tmp_path):
    target = tmp_path / "bracket.json"
    code, out, _ = run(capsys, "jsr", "--method", "bnb", "--depth", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["depth"] == 4


# sha256 of stdout at fixed flags: the table engine and the verification
# routes may change, the bytes the CLI prints may not.
PINNED_OUTPUTS = {
    ("autocorr", "--m", "10"):
        "1fe92895d4249ffd90a12b3be5d5b72381f5b07f9fe9cbbb0b136cd0298b2051",
    ("autocorr", "--m", "10", "--kind", "periodic"):
        "74321788d2b21f694229866b78048e7d9b4d4baaa880914b1a70dda4c275f767",
    ("plotdata", "--m", "10"):
        "a7f91c5fb3fe1ee3cfc492fcc6d2976f776711388ff07086ee354af927f4bfee",
    ("gen", "--m", "10"):
        "8baf697bf4c2df6821eb002ae9bf496eb3fdbdabf95fc75f299f4c59744f7ccf",
    ("gen", "--m", "10", "--format", "compact"):
        "1c938062490397bcec1ec98509aa45873c577f986b5e9f22a7272f44ba3ac561",
    ("table", "--m-max", "12"):
        "444bc66372d1c093d8763ec29522766b4cd34d23af2f3ceb81635cda7287045b",
    ("merit", "--m-max", "12"):
        "d74266dfe1ba0fef092721e529e49221b08864f23b3ede1c5ce3a2393ba6cd7c",
    ("verify", "decomposition", "--m-max", "12"):
        "fa41345a0324acef6117fcc3243c1a5056491ce9bbd896a9a0fb4fadecb2deda",
    ("verify", "recurrences", "--m-max", "11"):
        "1d81770dac0bc30d51fa643b0458bfafdbba6f0142df2ded6f2537fdb1f920ac",
    ("verify", "theorem12", "--m-max", "11"):
        "3fb48c37b2fd685414a3dad3af0decf94905b18f1728068927238c28dd80dbd0",
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=" ".join)
def test_pinned_output_bytes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv]
