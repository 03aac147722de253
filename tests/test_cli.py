import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qharmonic
from qharmonic.cli import main
from qharmonic.exact import parse_rational, render_rational
from qharmonic.qseries import SeriesParams, zbar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_compute_xi_coeff_at_depth_60(capsys):
    code, out = run(capsys, "compute", "xi-coeff", "--l", "60")
    assert code == 0
    coeffs = json.loads(out)
    # at t = 0 only the head weight w(60) = B_0 / 61! survives
    assert coeffs["t^0"] == f"1/{math.factorial(61)}"
    assert max(int(key[2:]) for key in coeffs) <= 60


def test_compute_interpolated_pair(capsys):
    code, out = run(capsys, "compute", "zbar-t", "--n", "3", "--q", "zeta",
                    "--index", "1,1")
    assert code == 0
    assert out == '{"t^0":"1/3","t^1":"1/3"}\n'


def test_compute_rational_point(capsys):
    code, out = run(capsys, "compute", "zbar", "--n", "4", "--q", "1/2",
                    "--index", "2")
    assert code == 0
    assert out == '"1150/441"\n'


def test_compute_scalar_at_root(capsys):
    code, out = run(capsys, "compute", "zbar", "--n", "3", "--q", "zeta",
                    "--index", "2")
    assert code == 0
    assert out == '"-2/3"\n'


def test_compute_prints_values_past_the_int_string_limit():
    # str(int) refuses more than 4,300 digits by default, and this exact
    # value is longer; the limit is pinned so that the environment cannot
    # lift it.
    src = Path(qharmonic.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qharmonic.cli", "compute", "zbar",
                           "--n", "250", "--q", "1/2", "--index", "1"],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    value = json.loads(proc.stdout)
    p, q = value.split("/")
    assert max(len(p), len(q)) > 4300
    assert parse_rational(value) == zbar((1,), SeriesParams(250, Fraction(1, 2)))
    assert render_rational(parse_rational(value)) == value


def test_compute_underscore_kind_alias(capsys):
    _, hyphen = run(capsys, "compute", "xi-coeff", "--l", "2")
    _, underscore = run(capsys, "compute", "xi_coeff", "--l", "2")
    assert hyphen == underscore == '{"t^0":"1/6","t^1":"-1/12"}\n'


def test_compute_profile_sum(capsys):
    code, out = run(capsys, "compute", "g-sum", "--n", "3", "--k", "2", "--l", "2")
    assert code == 0
    assert out == '{"t^0":"1/3","t^1":"1/3"}\n'


def test_compute_u_poly_term_order(capsys):
    code, out = run(capsys, "compute", "u-poly", "--n", "2")
    assert code == 0
    assert out == ('{"1":{"t^0":"2"},"u3":{"t^1":"1/2"},"u2":{"t^1":"-1"},'
                   '"u1":{"t^0":"1"},"u1*u2":{"t^1":"-1/2"}}\n')


def test_compute_csv_flattening(capsys):
    code, out = run(capsys, "compute", "zbar-t", "--n", "3", "--q", "zeta",
                    "--index", "1,1", "--format", "csv")
    assert code == 0
    assert out == "t^0,1/3\nt^1,1/3\n"


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "value.json"
    code, out = run(capsys, "compute", "zbar", "--n", "4", "--q", "1/2",
                    "--index", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == '"1150/441"\n'


def test_compute_usage_errors(capsys):
    assert run(capsys, "compute", "zbar", "--index", "2")[0] == 2
    assert run(capsys, "compute", "zbar", "--n", "3", "--index", "a,b")[0] == 2
    assert run(capsys, "compute", "zbar", "--n", "3", "--q", "xyz",
               "--index", "2")[0] == 2
    assert run(capsys, "compute", "wat", "--n", "3")[0] == 2


def test_compute_zero_denominator_is_usage_error(capsys):
    assert run(capsys, "compute", "zbar", "--n", "3", "--q", "1/0",
               "--index", "2")[0] == 2


def test_compute_domain_errors(capsys):
    # q = 1 and premature roots of unity are rejected by the exact layer
    assert run(capsys, "compute", "zbar", "--n", "3", "--q", "1",
               "--index", "2")[0] == 3
    # a weight without a closed form is refused by the kind's declared
    # bounds, like table eval, before the exact layer is reached
    assert run(capsys, "compute", "eval-const", "--k", "4", "--l", "1",
               "--n", "3")[0] == 2


@pytest.mark.parametrize("argv,unread", [
    (["u-poly", "--n", "2", "--q", "1/2"], "--q"),
    (["eval-const", "--k", "2", "--l", "1", "--n", "3", "--q", "1/2"], "--q"),
    (["xi-coeff", "--l", "2", "--q", "zeta"], "--q"),
    (["xi_coeff", "--l", "2", "--n", "3", "--k", "1"], "--n, --k"),
    (["zbar", "--n", "3", "--index", "1", "--k", "2"], "--k"),
    (["L", "--n", "3", "--index", "1", "--h", "1"], "--h"),
    (["g-sum", "--n", "3", "--k", "2", "--l", "2", "--index", "1"], "--index"),
    (["u-poly", "--n", "2", "--j", "-1"], "--j"),
])
def test_compute_refuses_flags_its_kind_does_not_read(capsys, argv, unread):
    assert main(["compute"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: compute {argv[0]} does not read {unread}\n"


def test_compute_reads_every_flag_of_its_kind(capsys):
    # the flags a kind does read, given explicitly, change nothing
    assert run(capsys, "compute", "g-sum", "--n", "3", "--q", "zeta", "--k", "2",
               "--l", "2", "--h", "", "--j", "-1") == \
        run(capsys, "compute", "g-sum", "--n", "3", "--k", "2", "--l", "2")
    assert run(capsys, "compute", "zbar", "--n", "3", "--q", "zeta", "--index", "") == \
        (0, '"1"\n')


@pytest.mark.parametrize("n", ["0", "-2"])
def test_compute_u_poly_n_below_one_is_usage_error(capsys, n):
    assert main(["compute", "u-poly", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: u_poly needs --n >= 1, got {n}\n"


@pytest.mark.parametrize("argv,message", [
    (["--k", "2", "--l", "1", "--n", "1"], "--n >= 2, got 1"),
    (["--k", "1", "--l", "0", "--n", "-3"], "--n >= 2, got -3"),
    (["--k", "2", "--l", "-1", "--n", "3"], "--l >= 0, got -1"),
])
def test_compute_eval_const_out_of_range_is_usage_error(capsys, argv, message):
    assert main(["compute", "eval-const"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: eval_const needs {message}\n"


@pytest.mark.parametrize("q", ["zeta", "1/2"])
def test_compute_zero_modulus_is_domain_error(capsys, q):
    # --n below 1 is refused as a usage error (exit 2) before q is read,
    # like u-poly and eval-const; it exited 3 with "order must be >= 1"
    assert main(["compute", "zbar", "--n", "0", "--q", q, "--index", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: zbar needs --n >= 1, got 0\n"


@pytest.mark.parametrize("argv", [
    ["zbar", "--index", "1"],
    ["zbar-star", "--index", "1"],
    ["zbar-t", "--index", "1"],
    ["z-t", "--index", "1"],
    ["L", "--index", "1"],
    ["g-sum", "--k", "2", "--l", "2"],
])
@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("q", ["zeta", "1/2"])
def test_compute_sum_n_below_one_is_usage_error(capsys, argv, n, q):
    assert main(["compute", *argv, "--n", n, "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0].replace('-', '_')} needs --n >= 1, got {n}\n"


# Every compute and table kind: the flags it reads besides --format and
# --out, a value for each flag it cannot do without, and (least, most) for
# each bounded flag in the order they are checked, most None for no bound.
# This table is the reference the CLI's declarations are pinned to.
FLAGS = {"compute": ("n", "q", "index", "k", "l", "h", "j"), "table": ("n", "k", "l")}
SUM = (("n", "q", "index"), {"n": "3"}, {"n": (1, None)})
KIND_RULES = {
    ("compute", "zbar"): SUM,
    ("compute", "zbar-star"): SUM,
    ("compute", "zbar-t"): SUM,
    ("compute", "z-t"): SUM,
    ("compute", "L"): SUM,
    ("compute", "g-sum"): (("n", "q", "k", "l", "h", "j"), {"n": "3", "k": "2", "l": "2"},
                           {"n": (1, None), "k": (0, None), "l": (0, None)}),
    ("compute", "eval-const"): (("n", "k", "l"), {"n": "3", "k": "2", "l": "1"},
                                {"n": (2, None), "k": (1, 3), "l": (0, None)}),
    ("compute", "u-poly"): (("n",), {"n": "2"}, {"n": (1, None)}),
    ("compute", "xi-coeff"): (("l",), {"l": "2"}, {"l": (0, None)}),
    ("table", "gsum"): (("n", "k"), {"n": "3"}, {"n": (1, None), "k": (0, None)}),
    ("table", "eval"): (("n", "k", "l"), {"n": "3"},
                        {"n": (2, None), "k": (1, 3), "l": (0, None)}),
}


def _run_flags(capsys, command, kind, flags) -> tuple[int, str, str]:
    code = main([command, kind] + [a for flag, value in flags.items()
                                   for a in (f"--{flag}", value)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refused(capsys, command, kind, flags) -> str:
    """The one stderr line of a command line refused with exit 2."""
    code, out, err = _run_flags(capsys, command, kind, flags)
    assert (code, out, err.count("\n")) == (2, "", 1), (flags, err)
    return err


@pytest.mark.parametrize("command, kind", list(KIND_RULES))
def test_every_declared_rule_is_enforced(capsys, command, kind):
    reads, base, bounds = KIND_RULES[(command, kind)]
    assert _run_flags(capsys, command, kind, base)[0] == 0
    # compute messages name the kind with underscores, table ones the command
    who = f"table {kind}" if command == "table" else kind.replace("-", "_")
    for flag in FLAGS[command]:
        if flag not in reads:
            assert _refused(capsys, command, kind, dict(base, **{flag: "1"})) == \
                f"error: {command} {kind} does not read --{flag}\n"
    for flag in base:
        missing = {f: v for f, v in base.items() if f != flag}
        need = "at least one --n" if flag == "n" else f"--{flag}"
        assert _refused(capsys, command, kind, missing) == f"error: {who} needs {need}\n"
    for flag, (lo, hi) in bounds.items():
        assert _refused(capsys, command, kind, dict(base, **{flag: str(lo - 1)})) == \
            f"error: {who} needs --{flag} >= {lo}, got {lo - 1}\n"
        if hi is not None:
            assert _refused(capsys, command, kind, dict(base, **{flag: str(hi + 1)})) == \
                f"error: {who} needs --{flag} <= {hi}, got {hi + 1}\n"
    # with every bounded flag from the i-th on below its least value, the
    # i-th is named
    order = list(bounds.items())
    for i, (flag, (lo, _)) in enumerate(order):
        low = dict(base, **{f: str(least - 1) for f, (least, _) in order[i:]})
        assert _refused(capsys, command, kind, low) == \
            f"error: {who} needs --{flag} >= {lo}, got {lo - 1}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "zbar", "--n", "5", "--index", "1"],
    ["verify", "--suite", "lemma4_1"],
    ["table", "gsum", "--n", "3"],
])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {str(target)!r}: No such file or directory\n"


@pytest.mark.parametrize("kind,index", [
    ("zbar-t", "3,-1"), ("zbar-t", "0"), ("z-t", "2,0"),
])
def test_compute_interpolated_rejects_nonpositive_parts(capsys, kind, index):
    assert run(capsys, "compute", kind, "--n", "5", "--q", "1/2",
               "--index", index)[0] == 3


def test_verify_report_schema(capsys):
    code, out = run(capsys, "verify", "--suite", "chu_vandermonde")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "1 passed / 0 failed / 0 skipped"
    report = json.loads(lines[0])
    assert list(report) == ["identity", "params", "status", "lhs", "rhs",
                            "mismatch"]
    assert report["status"] == "pass"
    assert report["mismatch"] is None


def test_verify_filters_restrict_instances(capsys):
    code, out = run(capsys, "verify", "--suite", "cor1_5", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    reports = [json.loads(line) for line in lines[:-1]]
    assert reports and all(rep["params"]["n"] == 3 for rep in reports)


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nope")
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_fewer_than_one_job(capsys, jobs):
    code = main(["verify", "--suite", "chu_vandermonde", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("argv, message", [
    (["--suite", "thm1_3", "--n", "99"], "no instances of thm1_3 match --n 99"),
    (["--suite", "lemma4_1", "--r", "9"], "no instances of lemma4_1 match --r 9"),
    (["--suite", "thm1_1", "--n", "3", "--r", "1", "--q", "9/7"],
     "no instances of thm1_1 match --n 3 --r 1 --q 9/7"),
])
def test_verify_filter_matching_nothing_is_usage_error(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_cap_guard(capsys):
    # the registry's cap range of each check is the only guard: btt_3_13
    # accepts caps up to 10, thm1_3 up to 8
    code, out = run(capsys, "verify", "--suite", "btt_3_13", "--cap", "9")
    assert code == 0
    assert out.splitlines()[-1] == "5 passed / 0 failed / 0 skipped"
    assert main(["verify", "--suite", "thm1_3", "--cap", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap=9 outside [1, 8]\n"


def test_verify_parallel_output_is_byte_identical(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    code1, _ = run(capsys, "verify", "--suite", "cor1_5", "--jobs", "1",
                   "--out", str(serial))
    code2, _ = run(capsys, "verify", "--suite", "cor1_5", "--jobs", "4",
                   "--out", str(parallel))
    assert code1 == code2 == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_verify_csv_format(capsys):
    code, out = run(capsys, "verify", "--suite", "chu_vandermonde",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "identity,status,params,mismatch"
    assert lines[1].startswith("chu_vandermonde,pass,")


def test_table_gsum_rows(capsys):
    code, out = run(capsys, "table", "gsum", "--n", "3", "--k", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,l,t^0,t^1"
    assert "3,2,2,1/3,1/3" in lines


def test_table_eval_rows(capsys):
    code, out = run(capsys, "table", "eval", "--n", "3", "--k", "2", "--l", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert "3,2,1,-2/3,0" in lines
    assert "3,1,2,1/3,1/3" in lines


@pytest.mark.parametrize("argv, message", [
    (["gsum"], "table gsum needs at least one --n"),
    (["eval", "--k", "2"], "table eval needs at least one --n"),
    (["gsum", "--n", "5..3"], "table gsum needs at least one --n"),
    (["gsum", "--n", "3", "--k", "-1"], "table gsum needs --k >= 0, got -1"),
    (["eval", "--n", "3", "--k", "-2"], "table eval needs --k >= 1, got -2"),
    (["eval", "--n", "3", "--l", "-1"], "table eval needs --l >= 0, got -1"),
    (["eval", "--n", "3", "--k", "0"], "table eval needs --k >= 1, got 0"),
    (["eval", "--n", "3", "--k", "5"], "table eval needs --k <= 3, got 5"),
    (["eval", "--n", "1..5"], "table eval needs --n >= 2, got 1"),
    (["gsum", "--n", "0"], "table gsum needs --n >= 1, got 0"),
    (["gsum", "--n", "3,-2"], "table gsum needs --n >= 1, got -2"),
], ids=["gsum-no-n", "eval-no-n", "empty-n-range", "gsum-negative-k",
        "eval-negative-k", "eval-negative-l", "eval-k0", "eval-k5",
        "eval-n1", "gsum-n0", "gsum-negative-n"])
def test_table_without_rows_is_usage_error(capsys, argv, message):
    code = main(["table", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_table_smallest_selections_have_rows(capsys):
    # --k 0 is a one-row gsum table, and --l 0 still lists depth 0 for eval
    code, out = run(capsys, "table", "gsum", "--n", "3", "--k", "0")
    assert code == 0
    assert out == "n,k,l,t^0\n3,0,0,1\n"
    code, out = run(capsys, "table", "eval", "--n", "3", "--k", "1", "--l", "0")
    assert code == 0
    assert out == "n,k,l,t^0\n3,1,0,1\n"


def test_table_eval_reaches_k_3(capsys):
    # the largest weight with a closed form is in the table, not dropped
    code, out = run(capsys, "table", "eval", "--n", "3", "--k", "3", "--l", "1")
    assert code == 0
    assert out.strip().split("\n")[-2:] == ["3,3,0,1", "3,3,1,1/3"]


def test_table_json_format(capsys):
    code, out = run(capsys, "table", "gsum", "--n", "2", "--k", "1",
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["columns"][:3] == ["n", "k", "l"]
    assert ["2", "0", "0", "1"] in obj["rows"]


def test_xi_check_converges_at_defaults(capsys):
    code, out = run(capsys, "xi-check")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "converged"
    rows = [json.loads(line) for line in lines[:-1]]
    assert len(rows) == 9
    assert all(row["converging"] for row in rows)


def test_xi_check_rejects_short_run(capsys):
    # too few terms: the depth-3 value is still far from its limit
    code, out = run(capsys, "xi-check", "--l", "3", "--t", "1", "--n", "50,60")
    assert code == 1
    assert out.strip().split("\n")[-1] == "not converged"


def test_xi_check_exact_match_converges(capsys):
    # depth 0: every sum and its limit are exactly 1, so every error is 0
    code, out = run(capsys, "xi-check", "--l", "0", "--n", "5,10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "converged"
    rows = [json.loads(line) for line in lines[:-1]]
    assert [row["errors"] for row in rows] == [["0.000000e+00"] * 2] * 3
    assert all(row["converging"] for row in rows)


def test_xi_check_requires_increasing_n(capsys):
    assert run(capsys, "xi-check", "--n", "400,50")[0] == 2


@pytest.mark.parametrize("argv, code, message", [
    (["--n="], 2, "--n must be strictly increasing integers >= 1, got ''"),
    (["--l="], 2, "--l needs at least one depth"),
    (["--n", "0"], 2, "got '0'"),
    (["--n", "0,50"], 2, "got '0,50'"),
    (["--n", "10,20,20"], 2, "got '10,20,20'"),
    (["--t", "abc"], 2, "cannot parse --t value 'abc'"),
    (["--t="], 2, "cannot parse --t value ''"),
    (["--t", "0,,1"], 2, "cannot parse --t value ''"),
    (["--t", "inf"], 3, "--t value 'inf' is not a finite float"),
    (["--t", "nan"], 3, "--t value 'nan' is not a finite float"),
    (["--t", "1/0"], 3, "--t value '1/0' is not a finite float"),
    (["--t", "1e400"], 3, "--t value '1e400' is not a finite float"),
    (["--t", "1e308"], 3, "t = 1e+308 overflows a float at depth 2"),
    (["--l", "3", "--t", "1e200", "--n", "5,9"], 3, "t = 1e+200 overflows a float at depth 3"),
    (["--l", "-1"], 2, "--l must be >= 0, got -1"),
    (["--l", "2,-3,1"], 2, "--l must be >= 0, got -3"),
    (["--l=-2..1", "--n", "400,50"], 2, "--l must be >= 0, got -2"),
])
def test_xi_check_bad_input_is_one_line_error(capsys, argv, code, message):
    assert main(["xi-check", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_unexpected_exception_is_a_crash_not_a_failure(monkeypatch, capsys):
    import qharmonic.cli as cli

    def boom(args):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(cli, "_cmd_table", boom)
    assert cli.EXIT_CRASH == 4
    assert main(["table", "gsum", "--n", "3"]) == cli.EXIT_CRASH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.rstrip().endswith("RuntimeError: kaboom")


# sha256 of the `verify --suite S` stdout (reports and summary line) for the
# suites built on the u <-> x change of variables and the series kernels;
# the reports must stay byte-identical when those are rewritten.
PINNED_REPORTS = {
    "lemma3_2_roundtrip": "88b0958ad00b5a7e94bc5ab1ae6a7fa63f3aedf03dd9edaf9cdbda7c1e9692e1",
    "lemma4_1": "7a573e8d11c12358d24e8d2411b44674568bf93f04a505f2c230e65b9e5671d1",
    "pt_special": "84ba0d2ee82c9840feaa25827527a27b2856f7ad7657b770a9055c3e36dbe062",
    "thm1_1": "928fab8ec077fcc6ff843bf65264920496efb4268caf8e4ca9a33b9b544382b8",
    "reflection": "dc42065de8f5e5840229bc9abdfcfbbd6490d30282eca8fdb73fe9bc5dc33c50",
    "half_t_self_dual": "f581a65fff4c0f024c1b4af1199010ce008731a568ca6baca960c9f1ee8f14b2",
    "lemma2_1": "0b9cb28d60772372407bf101ca86eb7ee01f400858abda30394dcba66d90dc2a",
    "prop2_2": "f8434bb469c6d7beac3c27be190d3297cc49b38d420ac2854cc822433a9e7ba6",
    "cor2_3": "581ed1bba5be4691650f97235a9514183f3f650b4675572d2c8c29a2d2e0d7ec",
    "thm2_4": "27d8923c39a9b66171de2e99c1815947944e4ae69744bbed98bbdf8fb8c79a2a",
    "c_i": "429651ff479bec1621ec360be3fddfb78298810ed37d6722f1357739c3e740d8",
    "all": "175eedeb5545f9436f01b34860a0e0cb7a57362ae8aa08611857a3255425124b",
}


@pytest.mark.parametrize("suite", sorted(PINNED_REPORTS))
def test_verify_report_bytes_are_pinned(capsys, suite):
    code, out = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[suite]


def test_verify_all_is_pinned_at_two_jobs(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--jobs", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS["all"]


def test_verify_stream_is_pinned_under_optimize_and_a_hash_seed():
    # `python -O` strips asserts and PYTHONHASHSEED changes the iteration
    # order of str sets; neither may change the stream.  CycloNumber memoises
    # its hash, so this runs in a fresh interpreter.
    src = Path(qharmonic.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-m", "qharmonic.cli", "verify", "--suite", "all"],
                          env=env, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_REPORTS["all"]


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def _clear_caches():
    from qharmonic import exact, genfun, identities, indices, qseries
    for mod in (exact, indices, qseries, genfun, identities):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _clear_every_cache():
    """Clear every lru_cache of the package, in module and class namespaces."""
    import inspect
    for name, mod in list(sys.modules.items()):
        if not name.startswith("qharmonic."):
            continue
        spaces = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                if inspect.isclass(c) and c.__module__ == name]
        for space in spaces:
            for obj in space.values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


def test_verify_all_lines_do_not_depend_on_instance_order(capsys):
    # An exact result must not depend on call order or cache history: the
    # 281 instances run in one process in two seeded shuffled orders, each
    # from cleared caches, give the report lines of the default order, whose
    # stream is the pinned one.  The cached builders (_psi_brute,
    # phi_system_checks) hold Series values, so this also covers the form
    # that they are cached in.
    import argparse
    import random

    import qharmonic.cli as cli

    _clear_every_cache()
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS["all"]
    lines = out.splitlines()[:-1]
    instances = cli._select_instances(argparse.Namespace(
        suite="all", n=None, r=None, q=None, cap=None, max_cap=None))
    assert len(instances) == len(lines) == 281
    for seed in (2611, 2612):
        order = list(range(len(instances)))
        random.Random(seed).shuffle(order)
        _clear_every_cache()
        for i in order:
            report, trace = cli._verify_worker(instances[i])
            assert trace is None
            assert cli._json_line(report) == lines[i], instances[i]


def test_importing_the_cli_loads_no_process_pool():
    # only --jobs > 1 uses the pool, so its modules are imported there
    src = Path(qharmonic.__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, qharmonic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_package_loads_no_dataclasses_or_json():
    # every cold run and every pool worker pays for these imports; compared
    # against the modules loaded before, so a site hook cannot fail it
    src = Path(qharmonic.__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import {0}; "
            "print(sorted(m for m in set(sys.modules) - before if m in {1!r}))")
    for package, banned in (("qharmonic", ("dataclasses", "inspect", "ast", "dis",
                                           "tokenize", "json")),
                            ("qharmonic.cli", ("dataclasses", "inspect"))):
        proc = subprocess.run([sys.executable, "-c", code.format(package, banned)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", package


# the suites that share a cached builder: phi_system_checks for the first
# five, brute Psi for the last three
SHARED_BUILDER_SUITES = ["lemma2_1", "prop2_2", "cor2_3", "thm2_4", "c_i",
                         "thm1_1", "reflection", "half_t_self_dual"]


@pytest.mark.parametrize("suite", SHARED_BUILDER_SUITES)
def test_grouped_dispatch_is_byte_identical(capsys, suite):
    # each run starts from cleared caches, so the workers build for themselves
    _clear_caches()
    code3, parallel = run(capsys, "verify", "--suite", suite, "--n", "2..4", "--jobs", "3")
    _clear_caches()
    code1, serial = run(capsys, "verify", "--suite", suite, "--n", "2..4", "--jobs", "1")
    assert code1 == code3 == 0
    assert parallel == serial


def test_sharing_keys_group_by_n_and_q():
    # every cached builder (brute Psi, phi_system_checks) reads its n and q
    # from the instance, so one (n, q) task holds each builder and its sums
    from qharmonic.identities import sharing_key
    phi = {"n": 3, "r": 2, "q": "1/2", "cap": 3}
    psi = {"n": 3, "r": 1, "q": "1/2", "cap": 4}
    assert sharing_key("lemma2_1", phi) == sharing_key("c_i", phi) \
        == sharing_key("thm1_1", psi) == sharing_key("half_t_self_dual", psi) == (3, "1/2")
    assert sharing_key("thm1_3", {"n": 4, "cap": 5}) == (4, "zeta")
    assert sharing_key("cor1_5", {"k": 1, "n": 3, "lmax": 4}) == (3, "zeta")
    assert sharing_key("chu_vandermonde", {"nmax": 8}) == "chu_vandermonde"
    assert sharing_key("lemma4_1", {"r": 2, "cap": 2}) == "lemma4_1"


def test_every_instance_goes_through_check_identity_once(tmp_path, monkeypatch, capsys):
    import qharmonic.cli as cli

    log = tmp_path / "calls.tsv"
    check = cli.check_identity

    def recorded(ident, params):
        # the pool workers are forked, so they log to a file, not to a list
        with open(log, "a") as fh:
            fh.write(f"{ident}\t{json.dumps(params, sort_keys=True)}\n")
        return check(ident, params)

    monkeypatch.setattr(cli, "check_identity", recorded)
    argv = ["verify", "--suite", "all", "--n", "2", "--q", "zeta", "--jobs", "2"]
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    reports = [json.loads(line) for line in lines[:-1]]
    want = [(ident, json.dumps(params, sort_keys=True))
            for ident, params in cli._select_instances(cli._build_parser().parse_args(argv))]
    calls = [tuple(line.split("\t")) for line in log.read_text().splitlines()]
    assert sorted(calls) == sorted(want) and len(set(calls)) == len(calls)
    assert len(reports) == len(want)
    # the reports come back in instance order (a report may add parameters)
    assert [(rep["identity"], {key: rep["params"][key] for key in json.loads(params)})
            for rep, (_, params) in zip(reports, want)] == [
        (ident, json.loads(params)) for ident, params in want]
    assert lines[-1] == f"{len(want)} passed / 0 failed / 0 skipped"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_crashing_instance_is_contained(monkeypatch, capsys, jobs):
    from qharmonic import identities

    check = identities._REGISTRY["lemma4_1"]

    def crashes_at_r2(r, cap):
        if r == 2:
            raise RuntimeError("kaboom")
        return check.runner(r=r, cap=cap)

    monkeypatch.setitem(identities._REGISTRY, "lemma4_1",
                        check._replace(runner=crashes_at_r2))
    code = main(["verify", "--suite", "lemma4_1", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 4
    lines = captured.out.rstrip("\n").split("\n")
    assert lines[-1] == "3 passed / 0 failed / 0 skipped / 1 errors"
    reports = [json.loads(line) for line in lines[:-1]]
    assert [rep["params"]["r"] for rep in reports] == [1, 2, 3, 4]
    assert [rep["status"] for rep in reports] == ["pass", "error", "pass", "pass"]
    assert reports[1] == {"identity": "lemma4_1", "params": {"r": 2, "cap": 2},
                          "status": "error", "lhs": None, "rhs": None,
                          "mismatch": {"error": "RuntimeError: kaboom"}}
    assert "Traceback" not in captured.out
    assert captured.err.startswith("Traceback")
    assert captured.err.rstrip().endswith("RuntimeError: kaboom")


def test_package_error_in_an_instance_still_stops_the_run(monkeypatch, capsys):
    from qharmonic import identities

    def invalid(r, cap):
        raise identities.InvalidParams("r=9 outside [1, 5]")

    monkeypatch.setitem(identities._REGISTRY, "lemma4_1",
                        identities._REGISTRY["lemma4_1"]._replace(runner=invalid))
    assert main(["verify", "--suite", "lemma4_1", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r=9 outside [1, 5]\n"


def test_package_error_in_a_group_stops_the_pool(capsys):
    # the phi groups reject cap 7 at once while the psi groups accept it and
    # take seconds; the run must exit 3 on the first error either way
    assert main(["verify", "--suite", "all", "--n", "2", "--cap", "7", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap=7 outside [1, 6]\n"


def test_pool_stops_cleanly_when_its_workers_die_first(monkeypatch, capsys):
    # the pool's manager thread sees the terminated workers die before the
    # shutdown wakes it, and then fails every queued future; one cancelled
    # before that raised InvalidStateError in that thread
    import multiprocessing.process
    import threading

    errors = []
    monkeypatch.setattr(threading, "excepthook",
                        lambda info: errors.append(info.exc_type.__name__))
    terminate = multiprocessing.process.BaseProcess.terminate

    def terminate_and_wait(self):
        terminate(self)
        self.join(timeout=30)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate", terminate_and_wait)
    assert main(["verify", "--suite", "all", "--n", "2", "--cap", "7", "--jobs", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap=7 outside [1, 6]\n"
    assert errors == []


def test_integer_lists_parse_into_ranges(capsys):
    # a range is kept as one piece, never expanded: verify tests membership,
    # compute refuses a second value before reading any, table iterates
    import qharmonic.cli as cli

    assert cli._parse_int_list("3..7,9") == [range(3, 8), range(9, 10)]
    assert cli._parse_int_list(" -2..0 , ,5..3,4") == [range(-2, 1), range(4, 5)]
    assert cli._parse_int_list("1..10000000000000000000000") == [range(1, 10 ** 22 + 1)]
    for bad in ("1..2..3", "3..", "a", "1.5"):
        with pytest.raises(cli.UsageError, match="cannot parse integer list"):
            cli._parse_int_list(bad)
    # membership in a range piece, at any width
    code, wide = run(capsys, "verify", "--suite", "cor1_5", "--n", "3..4,10000000000000000000000")
    assert code == 0 and run(capsys, "verify", "--suite", "cor1_5", "--n", "3,4") == (0, wide)


def test_verify_forks_no_more_workers_than_tasks(monkeypatch, capsys):
    # the pool forks all of its workers at the first submit, so --jobs J
    # sizes it to min(J, tasks); a fake pool runs the tasks inline and
    # records that size, so no process starts
    import concurrent.futures

    import qharmonic.cli as cli
    from qharmonic.identities import sharing_key

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            self._processes = {}

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for argv in (["--suite", "chu_vandermonde"], ["--suite", "all", "--n", "3"]):
        instances = cli._select_instances(cli._build_parser().parse_args(["verify", *argv]))
        tasks = len({sharing_key(*item) for item in instances})
        sizes.clear()
        code, alone = run(capsys, "verify", *argv)
        assert code == 0 and sizes == []
        for jobs in (2, 64):
            code, out = run(capsys, "verify", *argv, "--jobs", str(jobs))
            assert code == 0 and out == alone
            assert sizes.pop() == min(jobs, tasks)
    assert tasks > 2


def test_cold_verify_all_makes_no_cyclo_number_arithmetic(monkeypatch, capsys):
    # every scalar the package forms at q = zeta_N^b comes from index
    # arithmetic and the numerator kernels, so a cold run of every suite
    # calls neither the CycloNumber product (under either name) nor its inverse
    from qharmonic.exact import CycloNumber

    calls = []
    for name in ("__mul__", "inverse"):
        def spy(self, *args, _name=name, _original=getattr(CycloNumber, name)):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(CycloNumber, name, spy)
    monkeypatch.setattr(CycloNumber, "__rmul__", CycloNumber.__mul__)
    _clear_every_cache()
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0 and out.endswith("\n281 passed / 0 failed / 0 skipped\n")
    assert calls == []
    # the spies see a call
    zeta = CycloNumber.zeta(5)
    zeta * zeta.inverse()
    assert calls == ["inverse", "__mul__"]
