import contextlib
import io
import os
import tempfile
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from g2heights import heights, theta
from g2heights.cli import (JobError, _rat_list, job_character, main, parse_complex,
                           parse_job)
from g2heights.prec import PrecisionContext

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


def test_reduce_integral_entries(tmp_path, capsys):
    # parts with no fraction bits: Z's ints take the scale 2^0
    f = tmp_path / "m.mat"
    f.write_text("0.0+2.0*i\n0.0+0.0*i\n0.0+2.0*i\n")
    code, out = run_cli(capsys, "reduce", "--matrix", str(f))
    assert code == 0
    assert "gamma = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]" in out
    f.write_text("4.0+2.0*i\n0.0+0.0*i\n2.0+8.0*i\n")
    code, out = run_cli(capsys, "reduce", "--matrix", str(f))
    assert code == 0
    assert "gamma = [[1, 0, -4, 0], [0, 1, 0, -2], [0, 0, 1, 0], [0, 0, 0, 1]]" in out


def test_reduce_not_positive_definite_exit1(tmp_path, capsys):
    # det Im Z = 1 - 4 < 0: the matrix is refused where it enters
    f = tmp_path / "m.mat"
    f.write_text("0.0+1.0*i\n0.0+2.0*i\n0.0+1.0*i\n")
    assert main(["reduce", "--matrix", str(f)]) == 1
    captured = capsys.readouterr()
    assert "Im Z is not positive definite" in captured.err
    assert "gamma" not in captured.out


def test_missing_job_file_exit1(capsys):
    code, _ = run_cli(capsys, "compare", "/nonexistent.job")
    assert code == 1


def test_verify_bounds_cli(capsys):
    code, out = run_cli(capsys, "--precision-bits", "128",
                        "verify-bounds", "--samples", "3", "--seed", "2")
    assert code == 0
    assert "failures = 0" in out


def test_tau_values_is_unknown_key(tmp_path, capsys):
    # a job gives its tau pair only as the roots in H of tau_poly
    job = tmp_path / "values.job"
    job.write_text(
        "f_K = 5\n"
        "curve_P = -1, 0, 0, 0, 0, 1\ncurve_Q = 0\n"
        "tau_values = 0.69+2.12*i, 1.80+1.31*i\n"
        "character_table = 1=1, 2=i, 3=-i, 4=-1\n")
    assert main(["compare", str(job)]) == 1
    assert "unknown key 'tau_values'" in capsys.readouterr().err


@pytest.mark.parametrize("bits", [64, 1024])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_compare_passes_at_ctx_tol(capsys, name, bits):
    # PASS means agreement to ctx.tol = 2^-(bits-32); 64 bits is the loosest
    code, out = run_cli(capsys, "--precision-bits", str(bits),
                        "compare", os.path.join(JOBS, f"{name}.job"))
    assert code == 0
    assert f"tolerance = {mp.nstr(PrecisionContext(bits).tol, 8)}\n" in out
    assert "result = PASS" in out


@pytest.mark.parametrize("moved_by,code,result", [(2, 2, "FAIL"), (0.5, 0, "PASS")])
def test_compare_fails_beyond_ctx_tol(monkeypatch, capsys, moved_by, code, result):
    # the Colmez value moved by a multiple of ctx.tol at the default 256 bits
    tol = PrecisionContext(256).tol
    colmez_height = heights.colmez_height
    monkeypatch.setattr(heights, "colmez_height",
                        lambda chi, ctx: colmez_height(chi, ctx) + moved_by * tol)
    got, out = run_cli(capsys, "compare", os.path.join(JOBS, "ex1.job"))
    assert got == code
    assert f"result = {result}\n" in out


def _ex3_with(tmp_path, extra):
    job = tmp_path / "ex3plus.job"
    with open(os.path.join(JOBS, "ex3.job")) as fh:
        job.write_text(fh.read() + extra)
    return str(job)


def _ex3_setting(tmp_path, key, value):
    """ex3.job with its line for key replaced by `key = value`."""
    path = _ex3_without(tmp_path, key)
    with open(path, "a") as fh:
        fh.write(f"{key} = {value}\n")
    return path


def test_degree_must_match_periods(tmp_path, capsys):
    # a job has one period matrix, so its degree is not a job key
    path = _ex3_with(tmp_path, "degree = 2\n")
    with pytest.raises(JobError, match=r"ex3plus\.job:8: unknown key 'degree'"):
        parse_job(path)
    assert main(["height-local", path]) == 1
    assert "unknown key 'degree'" in capsys.readouterr().err


def test_unknown_job_key(tmp_path, capsys):
    path = _ex3_with(tmp_path, "primes = 7\n")
    with pytest.raises(JobError, match=r"ex3plus\.job:8: unknown key 'primes'"):
        parse_job(path)
    assert main(["compare", path]) == 1
    # a job states only the mathematics; --precision-bits sets the precision,
    # and delta_F is the conductor of chi^2
    for key, value in (("precision", "256"), ("tolerance", "1e-9"), ("delta_F", "5")):
        assert main(["compare", _ex3_with(tmp_path, f"{key} = {value}\n")]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err


def _job_with_tau(tmp_path, name, tau_poly):
    """jobs/<name>.job with tau_poly = <tau_poly>."""
    with open(os.path.join(JOBS, f"{name}.job")) as fh:
        text = "".join(f"tau_poly = {tau_poly}\n" if line.startswith("tau_poly") else line
                       for line in fh)
    path = tmp_path / f"{name}.job"
    path.write_text(text)
    return str(path)


def _job_with_tau_poly(tmp_path, name, donor):
    """jobs/<name>.job with the tau_poly of jobs/<donor>.job."""
    tau_poly = parse_job(os.path.join(JOBS, f"{donor}.job"))["tau_poly"]
    return _job_with_tau(tmp_path, name, tau_poly)


@pytest.mark.parametrize("name,donor", [
    ("ex3", "ex2"), ("ex2", "ex3"), ("ex1", "ex2"), ("ex1", "ex3"), ("ex2", "ex1"),
    ("ex3", "ex1")])
def test_swapped_tau_poly_exit1(tmp_path, capsys, name, donor):
    # disc(tau_poly) over f_K^2 delta_F is not a rational square: the
    # discriminants are 5^7, 21719477^2 226981 and 2^29, against 125, 226981
    # and 2048; before the tie, ex3 with ex2's tau_poly printed a total and
    # exited 0
    path = _job_with_tau_poly(tmp_path, name, donor)
    f = parse_job(path)["f_K"]
    for command in ("height-local", "theta", "compare"):
        assert main([command, path]) == 1
        assert f"tau_poly does not fit f_K = {f}:" in capsys.readouterr().err


@pytest.mark.parametrize("name,tau_poly", [
    ("ex1", "25, -25, -210, 120, 521"),  # tau/(sqrt 5 tau + 1)
    ("ex2", "889319, -137677, -109469502, 8472656, 3369108691"),  # tau/(sqrt 61 tau + 1)
    ("ex3", "128, -512, 800, -576, 161"),  # tau/(tau + 1)
    ("ex3", "128, 0, -480, -64, 577"),
])
def test_hilbert_modular_image_compares_as_its_job(tmp_path, capsys, name, tau_poly):
    # an image of the tau pair under the Hilbert modular group has the same
    # lattice up to isomorphism, so the same order O_K and the same heights,
    # though pi is not Delta_K c4^4 (N(c) = c4 here)
    code, out = run_cli(capsys, "compare", _job_with_tau(tmp_path, name, tau_poly))
    assert code == 0
    with open(os.path.join(GOLDEN, f"compare_{name}.txt")) as fh:
        want = [line for line in fh if line.startswith("engine=")]
    assert want and all(line in out.splitlines(keepends=True) for line in want)


@pytest.mark.parametrize("name,tau_poly", [
    ("ex1", "400, -200, 60, -10, 1"),  # 2 tau
    ("ex1", "25, -50, 60, -40, 16"),  # tau/2
    ("ex1", "2025, -675, 135, -15, 1"),  # 3 tau
    ("ex1", "521, -600, 390, -125, 25"),  # tau + 1/sqrt 5
    ("ex1", "671, -2861, 2951, 219, 11"),
    ("ex2", "14229104, -1101416, 24156, -122, 1"),
    ("ex2", "3369108691, -516832016, 22474718, -226981, 3721"),  # tau + 1/sqrt 61
    ("ex3", "2048, 0, 128, 0, 1"),
    ("ex3", "2177, -520, 536, -32, 16"),  # tau + 1/2
    ("ex3", "8, 0, 8, 0, 1"),
])
def test_tau_poly_of_a_smaller_order_exit1(tmp_path, capsys, name, tau_poly):
    # each job's tau lies in the field of chi, with disc(tau_poly) over
    # Delta_K a rational square, but its lattice's order is not O_K: before
    # cmperiod.check_order, height-local and theta printed a wrong total
    path = _job_with_tau(tmp_path, name, tau_poly)
    f = int(parse_job(path)["f_K"])
    delta = {5: 5, 61: 61, 16: 8}[f]
    c4 = int(tau_poly.rsplit(",", 1)[1])
    for command in ("height-local", "theta", "compare"):
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert f"tau_poly does not fit f_K = {f}: N(c)^2 pi = " in err
        assert f" is not Delta_K c4^4 = {f * f * delta} * {c4}^4" in err


@pytest.mark.parametrize("argv", [
    ["--precision-bits", "abc", "compare", os.path.join(JOBS, "ex1.job")],
    ["compare"],
    ["no-such-command"],
    ["verify-bounds", "--samples", "x"],
], ids=["precision-not-int", "no-job", "unknown-command", "samples-not-int"])
def test_usage_error_exit1(capsys, argv):
    # exit 2 is a verification failure; a usage error is an input error
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: g2heights") and ": error: " in err


def test_help_exit0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: g2heights" in capsys.readouterr().out


def test_conflicting_job_keys_exit1(tmp_path, capsys):
    # ex3 gives character_table; a second source for the same character
    # must not be ignored in favour of whichever is read first
    assert main(["compare", _ex3_with(tmp_path, "character_gen = 3=i\n")]) == 1
    assert ("job gives both character_table and character_gen"
            in capsys.readouterr().err)
    # nor may a second line for the same key replace the first: ex1's
    # tau_poly after ex3's
    path = _ex3_with(tmp_path, "tau_poly = 25, -25, 15, -5, 1\n")
    with pytest.raises(JobError, match=r"ex3plus\.job:8: key 'tau_poly' given twice"):
        parse_job(path)
    assert main(["height-local", path]) == 1
    assert "key 'tau_poly' given twice" in capsys.readouterr().err


@pytest.mark.parametrize("quartic", ["4, 0, -5, 0, 1", "1, 1, 0, 0, 1"],
                         ids=["four-real-roots", "galois-S4"])
def test_tau_poly_without_pair_in_h_exit1(tmp_path, capsys, quartic):
    # (x^2 - 1)(x^2 - 4) has four real roots; x^4 + x + 1 has none, but its
    # Galois group is S4, so its resolvent cubic has no rational root
    path = tmp_path / "notcm.job"
    with open(os.path.join(JOBS, "ex1.job")) as fh:
        path.write_text("".join(line for line in fh if not line.startswith("tau_poly"))
                        + f"tau_poly = {quartic}\n")
    for command in ("height-local", "compare"):
        assert main([command, str(path)]) == 1
        assert ("quartic is not two conjugate pairs split over its resolvent cubic"
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


@pytest.mark.parametrize("table,message", [
    # the conjugate character, then the second half of ex1's own table
    ("1=1, 2=-i, 3=i, 4=-1, 2=i, 3=-i", "character_table: residue 2 given twice"),
    # 7 = 2 mod 5
    ("1=1, 2=i, 3=-i, 4=-1, 7=-i", "residue 2 mod 5 given twice"),
], ids=["same-residue", "same-residue-mod-f"])
def test_repeated_character_residue_exit1(tmp_path, capsys, table, message):
    path = tmp_path / "twice.job"
    with open(os.path.join(JOBS, "ex1.job")) as fh:
        path.write_text("".join(line for line in fh
                                if not line.startswith("character_table"))
                        + f"character_table = {table}\n")
    path = str(path)
    with pytest.raises(ValueError, match=message):
        job_character(parse_job(path))
    assert main(["height-colmez", path]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_precision_flag_sets_precision(capsys):
    code, out = run_cli(capsys, "--precision-bits", "128",
                        "compare", os.path.join(JOBS, "ex3.job"))
    assert code == 0
    assert "precision_bits = 128" in out
    assert "result = PASS" in out
    # 0 is a precision, not a request for the default
    assert main(["--precision-bits", "0", "compare", os.path.join(JOBS, "ex3.job")]) == 1
    assert "precision below 64 bits" in capsys.readouterr().err


def _ex3_without(tmp_path, key):
    job = tmp_path / "ex3minus.job"
    with open(os.path.join(JOBS, "ex3.job")) as fh:
        job.write_text("".join(line for line in fh if not line.startswith(key)))
    return str(job)


def test_missing_f_K_exit1(tmp_path, capsys):
    # delta_F is the conductor of chi^2, so the period matrix needs chi too
    for command in ("compare", "height-local", "theta"):
        assert main([command, _ex3_without(tmp_path, "f_K")]) == 1
        assert "job lacks f_K" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,command,error", [
    ("f_K", "16.0", ["height-colmez"], "error: f_K: not an integer: '16.0'"),
    # precision is not a job key, so its line fails before its value is read,
    # with or without --precision-bits
    ("precision", "abc", ["compare"], "unknown key 'precision'"),
    ("precision", "abc", ["--precision-bits", "128", "compare"],
     "unknown key 'precision'"),
], ids=["f_K", "precision", "precision-under-flag"])
def test_non_integer_job_key_exit1(tmp_path, capsys, key, value, command,
                                   error):
    assert main(command + [_ex3_setting(tmp_path, key, value)]) == 1
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("key,value,command,token", [
    ("curve_P", "1, x, 3, 0, 0, 1", "igusa", "'x'"),
    ("tau_poly", "128, 0, 32,, 1", "height-local", "''"),
    ("curve_Q", "1.5e", "compare", "'1.5e'"),
    ("curve_P", "1/0, 0, 0, 0, 0, 1", "height-local", "'1/0'"),
], ids=["letter", "empty", "exponent", "zero-denominator"])
def test_bad_coefficient_names_key_exit1(tmp_path, capsys, key, value, command,
                                         token):
    assert main([command, _ex3_setting(tmp_path, key, value)]) == 1
    assert f"error: {key}: bad coefficient {token}" in capsys.readouterr().err


@pytest.mark.parametrize("tok", ["7", "-7", "+7", " 7 ", "007", "1_000", "１２", "2/4",
                                 "-3/6", "1e3", "1.5", "1.5e", "0x10", "1/0", "x", ""])
def test_rat_list_reads_as_fraction(tok):
    # a token of ASCII digits takes the int path, any other Fraction's; both
    # give Fraction(tok)'s value or its error, on every Python.  int reads
    # 1_000 everywhere but Fraction only from 3.11 on, so that token must
    # take the Fraction path
    try:
        expect = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(JobError) as err:
            _rat_list("curve_P", tok)
        assert str(err.value) == f"curve_P: bad coefficient {tok.strip()!r}"
    else:
        assert _rat_list("curve_P", tok) == [expect]


@pytest.mark.parametrize("f", [0, 1, 2, -5])
def test_modulus_below_3_exit1(tmp_path, capsys, f):
    assert main(["height-colmez", _ex3_setting(tmp_path, "f_K", f)]) == 1
    assert f"error: character modulus {f} is below 3" in capsys.readouterr().err


@pytest.mark.parametrize("f", [10, 15, 20, 25])
def test_imprimitive_character_exit1(tmp_path, capsys, f):
    # ex1's character mod 5 lifted to mod f: the field is still Q(zeta_5),
    # so f is not its conductor, and at f = 20 and 25 the formula's extra
    # Euler factors would move the height
    chi5 = {1: "1", 2: "i", 3: "-i", 4: "-1"}
    table = ", ".join(f"{m}={chi5[m % 5]}" for m in range(1, f) if gcd(m, f) == 1)
    path = tmp_path / "lifted.job"
    with open(os.path.join(JOBS, "ex1.job")) as fh:
        path.write_text("".join(line for line in fh
                                if not line.startswith(("character_table", "f_K")))
                        + f"f_K = {f}\ncharacter_table = {table}\n")
    assert main(["height-colmez", str(path)]) == 1
    assert (f"error: character mod {f} has conductor 5: f_K must be the conductor"
            in capsys.readouterr().err)


def test_theta_reports_truncation(capsys):
    code, out = run_cli(capsys, "theta", os.path.join(JOBS, "ex1.job"))
    assert code == 0
    # the walk taken: at level 3, over the ellipsoid of 8Z for the reduced
    # ex1 matrix Z, the R^2 of the Deconinck et al. bound with the tail
    # target 2^-(workbits + 16 + e + 6), e = 12, for the bits of the two
    # root steps, and the half-lattice points summed (261 on 2Z, the direct
    # sum over Z's ellipsoid 506, and the square box 3025)
    assert "theta_level = 3\n" in out
    assert "theta_radius_sq = 252.912073012\n" in out
    assert "theta_terms = 73\n" in out
    assert "arch_term = -1.4525092396456" in out


def test_theta_report_one_walk(capsys, monkeypatch):
    # the signed constants, chi10 and both arch terms come from one walk
    calls, walk = [], theta._walk

    def counted(*args):
        calls.append(args)
        return walk(*args)
    monkeypatch.setattr(theta, "_walk", counted)
    code, _ = run_cli(capsys, "theta", os.path.join(JOBS, "ex3.job"))
    assert code == 0
    assert len(calls) == 1


def test_height_colmez_reports_stirling_plan(capsys):
    code, out = run_cli(capsys, "height-colmez", os.path.join(JOBS, "ex2.job"))
    assert code == 0
    # 256 bits: N = 64, the least power of two at or above workbits / 5, and
    # the Taylor series about it stops before its first term below
    # 2^-(workbits+16) at x = 1; by reflection only m < 61/2 is evaluated
    assert "taylor_shift = 64\n" in out
    assert "taylor_terms = 49\n" in out
    assert "log_gamma_args = 30\n" in out
    assert "height = 0.268865172331348356482945814572\n" in out


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CASES = [
    [cmd, os.path.join(JOBS, f"ex{n}.job")]
    for n in (1, 2, 3)
    for cmd in ("igusa", "theta", "height-colmez", "height-local", "compare")
] + [["verify-bounds", "--samples", "200", "--seed", "1"]]


def _golden_name(argv):
    return "_".join(os.path.basename(a).removesuffix(".job").lstrip("-")
                    for a in argv) + ".txt"


def _golden_record(argv):
    """'exit = <code>' and then the stdout of `g2heights <argv>`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return f"exit = {code}\n" + buf.getvalue()


@pytest.mark.parametrize("argv", GOLDEN_CASES, ids=_golden_name)
def test_golden_outputs(argv):
    # the whole report and the exit code, byte for byte
    with open(os.path.join(GOLDEN, _golden_name(argv)), encoding="utf-8") as fh:
        assert _golden_record(argv) == fh.read()


# the BIG curve of test_igusa.py, with a nonzero curve_Q and one coefficient
# written as a fraction, which no shipped job has: the parser's Fraction path
# and the integer sextic 4 dQ^2 P + dP Q^2 end to end
BIG_JOB = """curve_P = 6, -4, -9, -16/2, 3, 3, -8
curve_Q = -2, -3, 1
"""


def _big_argv(directory):
    path = os.path.join(directory, "big.job")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(BIG_JOB)
    return ["igusa", path]


def test_golden_igusa_rational_curve_with_Q(tmp_path):
    argv = _big_argv(tmp_path)
    with open(os.path.join(GOLDEN, _golden_name(argv)), encoding="utf-8") as fh:
        assert _golden_record(argv) == fh.read()


if __name__ == "__main__":
    # rewrites tests/golden/ from the current code:
    #   PYTHONPATH=src python3 tests/test_cli.py
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in GOLDEN_CASES + [_big_argv(tmp)]:
            with open(os.path.join(GOLDEN, _golden_name(argv)), "w",
                      encoding="utf-8") as fh:
                fh.write(_golden_record(argv))
