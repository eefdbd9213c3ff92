import os

import mpmath as mp
import pytest
from mpmath.libmp import NoConvergence

from g2heights.cli import JobError, job_character, main, parse_complex, parse_job

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_complex():
    assert parse_complex("1.5+2.25*i") == ("1.5", "+2.25")
    assert parse_complex("-0.5-2.0*i") == ("-0.5", "-2.0")
    with pytest.raises(JobError):
        parse_complex("2i")


def test_parse_job_errors(tmp_path):
    bad = tmp_path / "bad.job"
    bad.write_text("this line has no equals\n")
    with pytest.raises(JobError):
        parse_job(str(bad))


def test_compare_example1(capsys):
    code, out = run_cli(capsys, "compare", os.path.join(JOBS, "ex1.job"))
    assert code == 0
    assert "result = PASS" in out
    assert "good reduction" in out


def test_igusa_example2(capsys):
    code, out = run_cli(capsys, "igusa", os.path.join(JOBS, "ex2.job"))
    assert code == 0
    assert "J2^5/J10 = " in out


def test_height_colmez_example3(capsys):
    code, out = run_cli(capsys, "height-colmez", os.path.join(JOBS, "ex3.job"))
    assert code == 0
    assert "-1.20161024974875" in out


def test_reports_deterministic(capsys):
    _, out1 = run_cli(capsys, "height-local", os.path.join(JOBS, "ex3.job"))
    _, out2 = run_cli(capsys, "height-local", os.path.join(JOBS, "ex3.job"))
    assert out1 == out2


def test_reduce_identity(tmp_path, capsys):
    f = tmp_path / "m.mat"
    f.write_text("0.0+1.0*i\n0.0+0.0*i\n0.0+1.0*i\n")
    code, out = run_cli(capsys, "reduce", "--matrix", str(f))
    assert code == 0
    assert "gamma = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]" in out


def test_missing_job_file_exit1(capsys):
    code, _ = run_cli(capsys, "compare", "/nonexistent.job")
    assert code == 1


def test_verify_bounds_cli(capsys):
    code, out = run_cli(capsys, "--precision-bits", "128",
                        "verify-bounds", "--samples", "3", "--seed", "2")
    assert code == 0
    assert "failures = 0" in out


def test_tau_digit_guard(tmp_path, capsys):
    job = tmp_path / "short.job"
    job.write_text(
        "precision = 256\ndelta_F = 5\nf_K = 5\n"
        "curve_P = -1, 0, 0, 0, 0, 1\ncurve_Q = 0\n"
        "tau_values = 0.69+2.12*i, 1.80+1.31*i\n"
        "character_table = 1=1, 2=i, 3=-i, 4=-1\n")
    code, _ = run_cli(capsys, "compare", str(job))
    assert code == 1


def _ex3_with(tmp_path, extra):
    job = tmp_path / "ex3plus.job"
    with open(os.path.join(JOBS, "ex3.job")) as fh:
        job.write_text(fh.read() + extra)
    return str(job)


def test_degree_must_match_periods(tmp_path, capsys):
    # a job has one period matrix, so its degree is not a job key
    path = _ex3_with(tmp_path, "degree = 2\n")
    with pytest.raises(JobError, match=r"ex3plus\.job:10: unknown key 'degree'"):
        parse_job(path)
    assert main(["height-local", path]) == 1
    assert "unknown key 'degree'" in capsys.readouterr().err


def test_unknown_job_key(tmp_path, capsys):
    path = _ex3_with(tmp_path, "primes = 7\n")
    with pytest.raises(JobError, match=r"ex3plus\.job:10: unknown key 'primes'"):
        parse_job(path)
    assert main(["compare", path]) == 1


def test_delta_F_not_a_discriminant_exit1(tmp_path, capsys):
    # 7 is 3 mod 4, so no real quadratic field has it as discriminant; the
    # appended line overrides the job's delta_F = 8
    assert main(["compare", _ex3_with(tmp_path, "delta_F = 7\n")]) == 1
    assert ("delta_F = 7 is not a real quadratic discriminant"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key,value,token", [
    ("character_table", "1", "'1'"),
    ("character_table", "1=1, 3", "'3'"),
    ("character_gen", "x=i", "'x=i'"),
], ids=["no-equals", "bare-residue", "non-integer-residue"])
def test_bad_character_token_exit1(tmp_path, capsys, key, value, token):
    path = tmp_path / "badchar.job"
    with open(os.path.join(JOBS, "ex3.job")) as fh:
        path.write_text("".join(line for line in fh
                                if not line.startswith("character_table"))
                        + f"{key} = {value}\n")
    path = str(path)
    with pytest.raises(JobError, match=f"{key}: bad token {token}"):
        job_character(parse_job(path))
    assert main(["height-colmez", path]) == 1
    assert f"error: {key}: bad token {token}" in capsys.readouterr().err


def test_precision_flag_overrides_job(capsys):
    code, out = run_cli(capsys, "--precision-bits", "128",
                        "compare", os.path.join(JOBS, "ex3.job"))
    assert code == 0
    assert "precision_bits = 128" in out
    assert "result = PASS" in out


def _ex3_without(tmp_path, key):
    job = tmp_path / "ex3minus.job"
    with open(os.path.join(JOBS, "ex3.job")) as fh:
        job.write_text("".join(line for line in fh if not line.startswith(key)))
    return str(job)


def test_missing_f_K_exit1(tmp_path, capsys):
    assert main(["compare", _ex3_without(tmp_path, "f_K")]) == 1
    assert "job lacks f_K" in capsys.readouterr().err


def test_missing_delta_F_exit1(tmp_path, capsys):
    assert main(["height-local", _ex3_without(tmp_path, "delta_F")]) == 1
    assert "job lacks delta_F" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,command", [
    ("f_K", "16.0", ["height-colmez"]),
    ("delta_F", "eight", ["height-local"]),
    ("precision", "abc", ["compare"]),
    ("precision", "abc", ["--precision-bits", "128", "compare"]),
], ids=["f_K", "delta_F", "precision", "precision-under-flag"])
def test_non_integer_job_key_exit1(tmp_path, capsys, key, value, command):
    # the appended line overrides the job's own value for key
    assert main(command + [_ex3_with(tmp_path, f"{key} = {value}\n")]) == 1
    assert f"error: {key}: not an integer: '{value}'" in capsys.readouterr().err


def test_theta_reports_truncation(capsys):
    code, out = run_cli(capsys, "theta", os.path.join(JOBS, "ex1.job"))
    assert code == 0
    # R^2 of the Deconinck et al. bound on the reduced ex1 matrix, and the
    # half-lattice points summed (the square box summed 3025)
    assert "theta_radius_sq = 222.904692553\n" in out
    assert "theta_terms = 506\n" in out
    assert "arch_term = -1.4525092396456" in out


def test_height_colmez_reports_stirling_plan(capsys):
    code, out = run_cli(capsys, "height-colmez", os.path.join(JOBS, "ex2.job"))
    assert code == 0
    # 256 bits: N = workbits/2 + 8, and K = 28 is the first n whose term at
    # z = N is below 2^-(workbits+16); by reflection only m < 61/2 is evaluated
    assert "stirling_shift = 152\n" in out
    assert "stirling_terms = 28\n" in out
    assert "log_gamma_calls = 30\n" in out
    assert "height = 0.268865172331348356482945814572\n" in out


def test_compare_reports_failed_root_seeding(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise NoConvergence("no convergence")
    monkeypatch.setattr(mp, "polyroots", no_convergence)
    assert main(["compare", os.path.join(JOBS, "ex2.job")]) == 1
    assert "error: root seeding did not converge" in capsys.readouterr().err
