import json

import numpy as np
import pytest

from threshq.cli import main
from threshq.gram import construct_library, gram
from threshq.spectra import save_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_exact4(capsys):
    code, out, _ = run(capsys, "bounds", "0001001")
    assert code == 0
    assert "q = 4 (exact)" in out


def test_bounds_k2(capsys):
    code, out, _ = run(capsys, "bounds", "01")
    assert code == 0 and "q = 2 (exact)" in out


def test_bounds_interval(capsys):
    code, out, _ = run(capsys, "bounds", "01001001")
    assert code == 0 and "q in [3, 4]" in out


def test_bounds_parse_error(capsys):
    code, _, err = run(capsys, "bounds", "10")
    assert code == 2 and "parse error" in err


def test_bounds_disconnected(capsys):
    code, _, err = run(capsys, "bounds", "010")
    assert code == 2 and "not connected" in err


def test_bounds_reports_a_failed_self_check(capsys, monkeypatch):
    # a certificate that fails the re-check made where it is built is a
    # verification failure: one error line and exit code 1, no traceback
    from threshq import bounds

    def failing(*args):
        raise bounds.SelfCheckError("chain lost the spectrum it carried")

    monkeypatch.setattr(bounds, "_checked", failing)
    code, out, err = run(capsys, "bounds", "0001001")
    assert (code, out, err) == (1, "", "error: chain lost the spectrum it carried\n")


def test_bounds_reports_a_completion_that_left_the_pattern(capsys, monkeypatch):
    # a q = 2 completion that leaves G's pattern, as on 0^548 1^548, where
    # its smallest support entry falls under the pattern test's tolerance:
    # the same one error line and exit code 1, no traceback
    from threshq import bounds
    from threshq.gram import InfeasibleRepair

    def leaving(*args):
        raise InfeasibleRepair("certificate left the pattern")

    monkeypatch.setattr(bounds.gramlib, "orthogonal_certificate", leaving)
    code, out, err = run(capsys, "bounds", "0101011")
    assert (code, out, err) == (1, "", "error: certificate left the pattern\n")


def test_bounds_json_round_trip(capsys):
    code, out, _ = run(capsys, "bounds", "0101011", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["exact"] is True and d["lower"] == 2
    assert json.loads(json.dumps(d)) == d


def test_table7(capsys):
    code, out, _ = run(capsys, "table", "7")
    assert code == 0 and "31/31 match" in out


def test_table8_json(capsys):
    code, out, _ = run(capsys, "table", "8", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["matched"] == 64 and d["total"] == 64
    assert json.loads(json.dumps(d)) == d


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,sequence,lower,upper,exact,cert-kinds"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "4")
    assert code == 0
    assert "4 sequences" in out
    assert out.splitlines()[:4] == ["0001", "0011", "0101", "0111"]


def test_certify_pass_and_fail(tmp_path, capsys):
    A = gram(construct_library("thm05"))
    p = tmp_path / "thm05.mat"
    save_matrix(p, A)
    code, out, _ = run(capsys, "certify", "010101", "3", str(p))
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "certify", "010101", "2", str(p))
    assert code == 1 and "FAIL" in out
    # wrong pattern
    code, out, _ = run(capsys, "certify", "001101", "3", str(p))
    assert code == 1


def test_tol_only_on_certify(tmp_path, capsys):
    code, _, err = run(capsys, "bounds", "0001001", "--tol", "1e-6")
    assert code == 2 and "--tol" in err
    p = tmp_path / "thm05.mat"
    save_matrix(p, gram(construct_library("thm05")))
    code, out, _ = run(capsys, "certify", "010101", "3", str(p), "--tol", "1e-6")
    assert code == 0 and "PASS" in out
    # spectrum {0^3, 7, 13^2}: a tolerance of 6.5 merges 7 and 13, one of 8 merges all
    for tol, q in (("6.5", 2), ("8", 1)):
        code, out, _ = run(capsys, "certify", "010101", "3", str(p), "--tol", tol)
        assert code == 1 and f"q={q}," in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_certify_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    # [[1, 1], [1, 3]] has two distinct eigenvalues, 2 -+ sqrt(2); a NaN or
    # infinite tolerance would merge them and certify q = 1
    p = tmp_path / "two.mat"
    save_matrix(p, np.array([[1.0, 1.0], [1.0, 3.0]]))
    code, out, err = run(capsys, "certify", "01", "1", str(p), "--tol", tol)
    assert code == 2 and out == "" and "tolerance" in err


def test_certify_factor_file(tmp_path, capsys):
    from threshq.spectra import save_factor

    f = construct_library("thm05")
    p = tmp_path / "thm05_factor.mat"
    save_factor(p, f.M, "thm05")
    code, out, _ = run(capsys, "certify", "010101", "3", str(p))
    assert code == 0 and "PASS" in out


def test_certify_rejects_a_non_symmetric_matrix_file(tmp_path, capsys):
    # a one-number header names a square matrix, never a factor
    p = tmp_path / "upper.mat"
    p.write_text("2\n1 1\n0 1\n")
    code, out, err = run(capsys, "certify", "01", "2", str(p))
    assert code == 2 and "symmetric" in err and "PASS" not in out


def test_certify_reports_a_short_factor_file_by_its_own_shape(tmp_path, capsys):
    # a 'rows cols' header names a factor, so a missing row is the factor's
    # shape error, not the square-matrix loader's header complaint
    p = tmp_path / "short_factor.mat"
    p.write_text("2 2\n1 1\n")
    code, out, err = run(capsys, "certify", "01", "2", str(p))
    assert code == 2 and "expected 2x2" in err and "matrix header" not in err


def test_certify_reads_a_square_factor_as_a_factor(tmp_path, capsys):
    # M = [[0, 1], [1, 0]] is symmetric and in S(01), but M M^T = I is not
    from threshq.spectra import save_factor

    p = tmp_path / "swap_factor.mat"
    save_factor(p, np.array([[0.0, 1.0], [1.0, 0.0]]), "adhoc")
    code, out, _ = run(capsys, "certify", "01", "2", str(p))
    assert code == 1 and "in_pattern=False" in out


@pytest.mark.parametrize("kind", ["factor", "matrix"])
def test_certify_parses_its_file_once(tmp_path, capsys, monkeypatch, kind):
    # the header read picks how the parsed rows are read, so the file is
    # read once, as a factor and as a square matrix alike
    from threshq import cli, spectra

    calls = []
    read_rows = spectra.read_rows

    def counted(path):
        calls.append(path)
        return read_rows(path)

    monkeypatch.setattr(spectra, "read_rows", counted)
    monkeypatch.setattr(cli, "read_rows", counted)
    f = construct_library("thm05")
    p = tmp_path / f"thm05.{kind}"
    if kind == "factor":
        spectra.save_factor(p, f.M, "thm05")
    else:
        save_matrix(p, gram(f))
    code, out, _ = run(capsys, "certify", "010101", "3", str(p))
    assert code == 0 and "PASS" in out
    assert calls == [str(p)]


@pytest.mark.parametrize("command", ["certify", "ssp"])
@pytest.mark.parametrize("body", ["1 nan\nnan 1\n", "1 nan\n0 1\n", "1 inf\ninf 1\n", "1 inf\n0 1\n"])
def test_non_finite_matrix_file_is_bad_input(tmp_path, capsys, command, body):
    # NaN or infinity, mirrored or not: exit 2 with one error line, no
    # traceback and no report
    p = tmp_path / "nonfinite.mat"
    p.write_text("2\n" + body)
    argv = ["certify", "01", "2", str(p)] if command == "certify" else ["ssp", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: matrix has an entry that is not finite"]


def test_ssp_command(tmp_path, capsys):
    p = tmp_path / "eye.mat"
    save_matrix(p, np.eye(3))
    code, out, _ = run(capsys, "ssp", str(p))
    assert code == 0 and "SSP: False" in out and "nullity 3" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "ssp", "/nonexistent/path.mat")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["table", "9"]) == 2


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import threshq

    # the child imports the same threshq as this process, however pytest
    # found it (installed, PYTHONPATH, or the pythonpath setting)
    src = str(Path(threshq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "threshq.cli", "bounds", "0101011"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0 and "q = 2 (exact)" in out.stdout
