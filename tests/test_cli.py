import json
import subprocess
import sys

import pytest

from ktf_kit.cli import main, load_spectral_data

HEADER = "t_re,t_im,a_m1_re,a_m1_im,a_m2_re,a_m2_im,norm_sq,lambda_re,lambda_im"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kloosterman_example(capsys):
    code, out, _ = run_cli(["kloosterman", "--a", "1", "--b", "1", "--n", "1",
                            "--c", "3", "--modulus", "1"], capsys)
    assert code == 0
    assert abs(float(out.strip()) + 1) < 1e-12


def test_kloosterman_modes_agree(capsys):
    vals = []
    for mode in ("direct", "factored", "salie"):
        code, out, _ = run_cli(["kloosterman", "--a", "2", "--b", "5", "--n", "3",
                                "--c", "12", "--modulus", "4", "--char-index", "1",
                                "--mode", mode], capsys)
        assert code == 0
        parts = [float(v) for v in out.split()]
        vals.append(complex(*parts) if len(parts) == 2 else complex(parts[0]))
    assert abs(vals[0] - vals[1]) < 1e-10
    assert abs(vals[0] - vals[2]) < 1e-10


@pytest.mark.parametrize("a, want", [
    ("1000000000000005", "-999.238859876284"),   # a X would wrap in int64
    ("9223372036854775813", "222.618671579357"),  # a itself above 2^63
])
def test_kloosterman_reduces_large_arguments_mod_c(capsys, a, want):
    # the direct route reduces a and b mod c before its int64 index arithmetic
    code, out, _ = run_cli(["kloosterman", "--a", a, "--b", "7", "--n", "1",
                            "--c", "1000003", "--modulus", "1"], capsys)
    assert code == 0 and out.strip() == want


def test_usage_error(capsys):
    assert main(["kloosterman", "--a", "1"]) == 2
    capsys.readouterr()
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_gauss(capsys):
    code, out, _ = run_cli(["gauss", "--modulus", "5", "--char-index", "1",
                            "--m", "1"], capsys)
    assert code == 0
    re, im = map(float, out.split())
    assert abs(complex(re, im)) == pytest.approx(5**0.5, abs=1e-9)


def test_index_out_of_range_is_usage_error(capsys):
    code, out, err = run_cli(["gauss", "--modulus", "5", "--char-index", "9",
                              "--m", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: character index 9 out of range")
    code, _, err = run_cli(["eisenstein", "--N", "5", "--element", "99",
                            "--s-re", "0.75"], capsys)
    assert code == 2 and err.startswith("error: element index out of range")
    proc = subprocess.run([sys.executable, "-m", "ktf_kit.cli", "gauss", "--modulus", "5",
                           "--char-index", "9", "--m", "1"], capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    ("ktf --N 12 --n 2 --m1 1 --m2 1 --h gaussian:1", "need n >= 1 coprime to N"),
    ("ktf --N 7 --n 1 --m1 0 --m2 1 --h gaussian:1", "need m1, m2 >= 1"),
    ("ktf --N 7 --h bogus:1", "unknown test function family 'bogus'"),
    ("crosscheck --N 5 --n 5 --m1 1 --m2 1 --h gaussian:1", "need n >= 1 coprime to N"),
    ("zagier --h gaussian:x --a 1", "could not convert"),
    ("zagier --h gaussian:1 --a 200", "geometric route needs"),
    ("kloosterman --a 1 --b 1 --n 1 --c 10 --modulus 3", "need chi modulus | c"),
    ("gauss --modulus 0 --m 1", "modulus must be positive"),
    ("kloosterman --a 1 --b 1 --n 1 --c 10 --modulus 0", "modulus must be positive"),
    ("ktf --N 0 --h gaussian:1", "modulus must be positive"),
    ("ktf --N -7 --h gaussian:1", "modulus must be positive"),
    ("crosscheck --N 0 --n 1 --m1 1 --m2 1 --h gaussian:1", "modulus must be positive"),
    ("eisenstein --N -3 --s-re 0.75", "modulus must be positive"),
    ("equidist --p 2 --m 1 --h gaussian:1 --N-list 7,abc", "invalid literal for int()"),
    ("equidist --p 2 --m 1 --h gaussian:1 --N-list 0", "modulus must be positive"),
    ("equidist --p 4 --m 1 --h gaussian:1 --N-list 7", "p must be a prime not dividing N"),
    ("equidist --p 2 --m 0 --h gaussian:1 --N-list 7", "need m1, m2 >= 1"),
    ("equidist --p 2 --m 1 --h gaussian:1 --N-list 7 --l-list -1",
     "degree ell must be nonnegative, got ell = -1"),
])
def test_flag_outside_domain_is_usage_error(argv, message, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_unconverged_c_series_is_tolerance_exit(monkeypatch, capsys):
    from ktf_kit import ktf
    monkeypatch.setattr(ktf, "_K_CAP", 10)
    code, out, err = run_cli(["ktf", "--N", "7", "--h", "gaussian:1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: c-sum not converged in 10 terms")
    # the cap stops the series after 10 terms, before the 64-term minimum
    assert "10 terms summed, below the 64-term minimum" in err
    assert "inf" not in err


def test_weil_scan_csv(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli(["weil-scan", "--max-c", "24", "--max-N", "6",
                          "--ab-pairs", "4", "--n-max", "3",
                          "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("N,chi,a,b,n,c")
    assert all(line.rsplit(",", 1)[1] == "True" for line in lines[1:])


def test_transform_roundtrip(capsys):
    code, out, _ = run_cli(["transform-roundtrip", "--h", "gaussian:1"], capsys)
    assert code == 0
    vals = dict(line.split() for line in out.strip().splitlines())
    assert float(vals["roundtrip_sup_error"]) < 1e-6


def test_eisenstein_both_modes(capsys):
    code, out, _ = run_cli(["eisenstein", "--N", "5", "--element", "1",
                            "--s-re", "0.75", "--z-re", "0.3", "--z-im", "0.8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    d = complex(*map(float, lines[0].split()[1:]))
    f = complex(*map(float, lines[1].split()[1:]))
    assert abs(d - f) < 1e-6 * abs(f)


def test_eisenstein_residue_and_listing(capsys):
    code, out, _ = run_cli(["eisenstein", "--N", "1", "--mode", "residue",
                            "--s-re", "0.5"], capsys)
    assert code == 0
    import math
    assert abs(float(out.strip()) - 3 / math.pi) < 1e-12
    code, out, _ = run_cli(["eisenstein", "--N", "12", "--list-basis",
                            "--s-re", "0.5"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 7  # header + 6 elements


def test_ktf_report_json(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, _, _ = run_cli(["ktf", "--N", "7", "--n", "1", "--m1", "1", "--m2", "1",
                          "--h", "gaussian:1", "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    lhs = complex(*doc["spec_cuspidal_inferred"])
    rhs = (complex(*doc["geo_main"]) + complex(*doc["geo_kloosterman"])
           - complex(*doc["spec_continuous"]))
    assert abs(lhs - rhs) < 1e-12
    assert "ratio_to_J_psi" in doc


def test_ktf_spectral_data(tmp_path, capsys):
    from ktf_kit.characters import DirichletCharacter
    from ktf_kit.ktf import KtfRequest, cuspidal_from_data
    from ktf_kit.transforms import TestFunction
    good = tmp_path / "good.csv"
    good.write_text(HEADER + "\n0.5,0,1,0.5,2,0,2.0,1,0\n")
    argv = ["ktf", "--N", "101", "--h", "gaussian:1", "--spectral-data", str(good)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    req = KtfRequest(101, DirichletCharacter.principal(101), 1, 1, 1,
                     TestFunction.parse("gaussian:1"))
    v = cuspidal_from_data(req, load_spectral_data(str(good)))
    assert json.loads(out)["spec_cuspidal_from_data"] == [v.real, v.imag]
    assert v.imag != 0
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "\n0.5,0,1,0,1,0,0.0,1,0\n")
    code, _, err = run_cli(argv[:-1] + [str(bad)], capsys)
    assert code == 4 and err.startswith("error: row 2")


def test_load_spectral_data(tmp_path):
    f = tmp_path / "data.csv"
    f.write_text("# comment line\n" + HEADER + "\n1.0,0,1,0,1,0,1.0,1,0\n")
    data = load_spectral_data(str(f))
    assert len(data) == 1 and data[0].norm_sq == 1.0

    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    assert load_spectral_data(str(empty)) == []

    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "\n1.0,0,1,0,1,0,-2.0,1,0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_spectral_data(str(bad))

    noheader = tmp_path / "nohdr.csv"
    noheader.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_spectral_data(str(noheader))


def test_load_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text(HEADER + "\n0.5,0,1,0,1,0,2.0,1,0\n")
    assert main(["load-check", "--file", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "\n0.5,0,1,0,1,0,0.0,1,0\n")
    assert main(["load-check", "--file", str(bad)]) == 4
    capsys.readouterr()


def test_reproducibility(capsys):
    args = ["kloosterman", "--a", "3", "--b", "7", "--n", "2", "--c", "20",
            "--modulus", "5", "--char-index", "2", "--mode", "factored"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "ktf_kit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("kloosterman", "gauss", "weil-scan", "transform-roundtrip",
                 "zagier", "eisenstein", "ktf", "crosscheck", "equidist",
                 "load-check"):
        assert name in proc.stdout
