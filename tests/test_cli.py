import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import azw
from azw import arith, cli, fit, monoid
from azw.arith import PrimePowerDomain
from azw.puiseux import format_puiseux, parse_puiseux
from azw.zeta import parse_product


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_soule(capsys):
    code, out, _ = run_cli(capsys, "zeta", "soule", "t + 2t^{1/2} + 1")
    assert code == 0
    assert out.strip() == "1 / (s (s-1/2)^2 (s-1))"
    # only fit refuses an exponent denominator past 2; the algebra keeps it
    code, out, _ = run_cli(capsys, "zeta", "soule", "t + t^{1/3}")
    assert code == 0 and out == "1 / ((s-1/3) (s-1))\n"


def test_zeta_tensor(capsys):
    code, out, _ = run_cli(capsys, "zeta", "tensor", "s / (s-1/2)", "s / (s-1/2)")
    assert code == 0
    assert out.strip() == "(s-1/2)^2 / (s (s-1))"


def test_zeta_reflect_and_funceq(capsys):
    code, out, _ = run_cli(capsys, "zeta", "reflect", "1 / (s (s-1))", "--d", "1")
    assert code == 0 and out.strip() == "sign 1: 1 / (s (s-1))"
    code, out, _ = run_cli(capsys, "zeta", "funceq", "(s-1/2)^2 / (s (s-1))", "--d", "1")
    assert code == 0 and out.strip() == "symmetric true sign 1"
    code, out, _ = run_cli(capsys, "zeta", "funceq", "1 / (s (s-2))", "--d", "1")
    assert out.strip() == "symmetric false sign none"


def test_printed_expressions_reparse(capsys):
    from azw.zeta import soule_zeta

    _, out, _ = run_cli(capsys, "zeta", "soule", "3t^2 - 6t + 3")
    assert parse_product(out.strip()) == soule_zeta(parse_puiseux("3t^2 - 6t + 3"))
    # puiseux round trip through the canonical printer
    f = parse_puiseux("t - 2t^{1/2} + 1")
    assert parse_puiseux(format_puiseux(f)) == f


def test_monoid_subcommands(tmp_path, capsys):
    path = tmp_path / "p1.json"
    monoid.save_scheme(monoid.projective_space(1), str(path))
    code, out, _ = run_cli(capsys, "monoid", "envelopes", "--in", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ceiling: t + 1"
    assert lines[1] == "floor: t + 1"
    code, out, _ = run_cli(capsys, "monoid", "counts", "--in", str(path), "--limit", "10", "--format", "csv")
    rows = out.strip().splitlines()
    assert rows[0] == "p,m,q,count"
    assert rows[1] == "2,1,2,3"
    assert rows[3] == "2,2,4,5"
    code, out, _ = run_cli(capsys, "monoid", "zeta", "--in", str(path))
    assert "zeta ceiling: 1 / (s (s-1))" in out


def azw_process(*args, stdout=subprocess.PIPE):
    """`python -m azw.cli args` in a child, importing this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(azw.__file__)))
    argv = [sys.executable, "-m", "azw.cli", *args]
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("early", [True, False], ids=["closed-after-10-bytes", "closed-before-start"])
def test_a_closed_reader_is_not_bad_input(tmp_path, early):
    """`azw ... | head -c 10`: the run ends with 141, as a shell reports a
    SIGPIPE death, with no error: line and no traceback at shutdown.  A
    reader gone before the first write (a short output, left in the buffer
    until exit) ends the same way."""
    path = tmp_path / "p1.json"
    monoid.save_scheme(monoid.projective_space(1), str(path))
    if early:  # about 200 kB of rows, far past a pipe's buffer
        proc = azw_process("monoid", "counts", "--in", str(path), "--limit", "100000")
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = azw_process("monoid", "zeta", "--in", str(path), stdout=write_end)
        os.close(write_end)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_family_counts_csv(capsys):
    code, out, _ = run_cli(capsys, "family", "An:n=3", "counts", "--limit", "10", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "p,m,q,count"
    assert rows[1] == "2,1,2,0"
    assert rows[4] == "5,1,5,2"


@pytest.mark.parametrize("action", ["counts", "envelopes"])
def test_family_an_rejects_n_below_1(capsys, action):
    code, out, err = run_cli(capsys, "family", "An:n=-5", action)
    assert code == 1 and out == ""
    assert err == "error: n must be >= 1\n"


def test_family_envelopes(capsys):
    code, out, _ = run_cli(capsys, "family", "pell:delta=5", "envelopes")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ceiling: 2t"
    assert lines[1] == "floor: t - 1"
    assert lines[2] == "qfiber ceiling: t + 1"
    code, out, _ = run_cli(capsys, "family", "Gn:n=5", "envelopes", "--exclude", "2")
    assert out.strip().splitlines()[0] == "ceiling: t - 3"


def test_curve_count_and_classify(capsys):
    code, out, _ = run_cli(capsys, "curve", "count", "--a", "1", "--b", "0", "--p", "5")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "curve", "count", "--a", "1", "--b", "0", "--p", "5", "--m", "2")
    assert out.strip() == "32"
    code, out, _ = run_cli(capsys, "curve", "classify", "--a", "1", "--b", "0", "--p", "7")
    assert out.strip() == "supersingular"


def test_curve_census_files(tmp_path, capsys):
    csv_in = tmp_path / "curves.csv"
    csv_in.write_text("label,a,b\nmx,-1,0\npx,1,0\n")
    out_csv = tmp_path / "census.csv"
    out_json = tmp_path / "summary.json"
    code, out, _ = run_cli(
        capsys, "curve", "census", "--in", str(csv_in), "--label", "mx",
        "--xmax", "2000", "--out", str(out_csv), "--summary", str(out_json),
    )
    assert code == 0
    summary = json.loads(out_json.read_text())
    assert summary["x_max"] == 2000
    assert summary["counts"]["supersingular"] > 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "p,a_p,class"
    classes = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert set(classes) <= {"champion", "trailing", "supersingular", "other"}
    assert classes.count("supersingular") == summary["counts"]["supersingular"]
    assert json.loads(out)["x_max"] == 2000


def test_census_csv_is_pinned(tmp_path, capsys):
    csv_in = tmp_path / "curves.csv"
    csv_in.write_text("mx,-1,0\n")
    out_csv = tmp_path / "census.csv"
    code, _, _ = run_cli(
        capsys, "curve", "census", "--in", str(csv_in), "--label", "mx",
        "--xmax", "3000", "--out", str(out_csv),
    )
    assert code == 0
    text = out_csv.read_bytes()
    lines = text.decode().splitlines()
    assert lines[:3] == ["p,a_p,class", "5,-2,other", "7,0,supersingular"]
    assert lines[-1] == "2999,0,supersingular" and len(lines) == 429
    assert hashlib.sha256(text).hexdigest() == (
        "64401875581cbfcdc9940366921583c85f03e66726eafe4ee7ef38e9c32c9745"
    )


def test_fit_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--mode", "ceiling", "--candidate", "t - 2",
        "--source", "An:n=3", "--limit", "2000",
    )
    assert code == 0 and "verified" in out
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--mode", "ceiling", "--candidate", "t - 5",
        "--source", "An:n=1", "--limit", "2000",
    )
    assert code == 2 and "bound_violated" in out
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--mode", "ceiling", "--candidate", "t + 1",
        "--source", "Gn:n=2", "--limit", "500",
    )
    assert code == 3 and "insufficient_witnesses" in out


def test_fit_verify_puiseux_curve_source(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--mode", "ceiling", "--puiseux",
        "--candidate", "t + 2t^{1/2} + 1", "--source", "curve:a=-1,b=0",
        "--limit", "5000", "--witnesses", "2",
    )
    assert code == 0 and "verified" in out


def test_fit_search_and_reject(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "search", "--source", "An:n=3", "--degree", "1",
        "--box=-5:5", "--limit", "2000",
    )
    assert code == 0
    assert "ceiling: t - 2" in out
    assert "floor: t - 3" in out
    code, out, _ = run_cli(
        capsys, "fit", "reject-linear", "--source", "curve:a=-1,b=0",
        "--c-from", "0", "--c-to", "2", "--limit", "2000", "--primes-only",
    )
    assert code == 0
    assert "c=0: ceiling bound_violated" in out


def test_reject_linear_output_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "reject-linear", "--source", "curve:a=-1,b=0", "--primes-only",
        "--limit", "100000", "--c-from", "-20", "--c-to", "20",
    )
    assert code == 0 and len(out.splitlines()) == 41
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "97cb920a4486cdfffffc71ce39b1cb0a21105690a94d3446056ed7e0451949df"
    )


def test_rational_candidate_puiseux_verdict_is_pinned(capsys):
    # floor((q + 1)/2) meets #A3(F_q) at two points before q = 8 exceeds 9/2
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--source", "An:n=3", "--candidate", "(1/2)t + 1/2",
        "--puiseux", "--limit", "2000", "--mode", "ceiling",
    )
    assert code == 2 and out == (
        "ceiling candidate on #A3(F_q): bound_violated (witnesses 2/3, limit 2000, excluded {});"
        " violated at n=8: count 6 vs f(n)=9/2\n"
    )


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (
            "verify --source An:n=3 --candidate t --limit 2 --exclude 2", 3,
            "ceiling candidate on #A3(F_q): insufficient_witnesses (witnesses 0/3, limit 2, excluded {2})\n",
        ),
        (
            "search --source An:n=3 --degree 1 --box=-1:1 --limit 2 --exclude 2", 0,
            "tested 9 candidates to limit 2\nceiling: none\nfloor: none\n",
        ),
        (
            "reject-linear --source An:n=3 --limit 2 --exclude 2 --c-from 0 --c-to 1", 0,
            "c=0: ceiling insufficient_witnesses; floor insufficient_witnesses\n"
            "c=1: ceiling insufficient_witnesses; floor insufficient_witnesses\n",
        ),
    ],
    ids=["verify", "search", "reject-linear"],
)
def test_fit_on_an_empty_domain(capsys, argv, code, out):
    # limit 2 without the prime 2 leaves no point: every verdict lacks witnesses
    assert run_cli(capsys, "fit", *argv.split()) == (code, out, "")


def test_fit_search_output_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "search", "--source", "An:n=3", "--degree", "1", "--box=-5:5", "--limit", "2000",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f82ef1023f328c4afad9244a2496b6f03598728490f73f56ed6edf47d034c449"
    )


def test_fit_box_help_names_the_form_that_parses(capsys):
    with pytest.raises(SystemExit):
        cli.main(["fit", "--help"])
    assert "--box=-3:3" in " ".join(capsys.readouterr().out.split())
    code, out, _ = run_cli(capsys, "fit", "search", "--source", "An:n=3", "--box=-3:3", "--limit", "500")
    assert code == 0 and "ceiling: t - 2" in out
    with pytest.raises(SystemExit) as exc:  # argparse reads a separate -3:3 as an option
        cli.main(["fit", "search", "--source", "An:n=3", "--box", "-3:3"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err


def test_monoid_source_spec(tmp_path, capsys):
    path = tmp_path / "f13.json"
    monoid.save_scheme(monoid.spec_f1n(3), str(path))
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--mode", "ceiling", "--candidate", "3",
        "--source", f"monoid:{path}", "--limit", "1000",
    )
    assert code == 0 and "verified" in out


def test_malformed_inputs_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "monoid", "counts", "--in", str(tmp_path / "missing.json"))
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "family", "Xn:n=3", "counts")
    assert code == 1
    code, _, err = run_cli(capsys, "fit", "verify", "--candidate", "t+", "--source", "An:n=3")
    assert code == 1
    code, _, err = run_cli(capsys, "curve", "count", "--a", "0", "--b", "0", "--p", "5")
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "monoid", "counts", "--in", str(bad))
    assert code == 1


def test_repro_single_cheap_criterion(capsys):
    code, out, _ = run_cli(capsys, "repro", "--criterion", "1")
    assert code == 0
    assert "criterion 01" in out and "PASS" in out


def test_curve_count_without_p_exits_1(capsys):
    code, _, err = run_cli(capsys, "curve", "count", "--a", "-1", "--b", "0")
    assert code == 1 and "error:" in err and "--p" in err
    assert "Traceback" not in err


def test_curve_source_without_b_exits_1(capsys):
    code, _, err = run_cli(capsys, "fit", "verify", "--source", "curve:a=-1", "--candidate", "t")
    assert code == 1 and "error:" in err and "b=" in err
    assert "Traceback" not in err


def test_family_source_without_n_exits_1(capsys):
    code, _, err = run_cli(capsys, "fit", "verify", "--source", "An:m=3", "--candidate", "t")
    assert code == 1 and "error:" in err and "n=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "action, message",
    [
        (("reject-linear", "--c-from", "0", "--c-to", "10000000"), "c range too large"),
        (("search", "--box=-600:600", "--degree", "1"), "coefficient box too large"),
        (("search", "--degree", "4"), "search supports degrees 0..3"),
    ],
)
def test_fit_refuses_range_box_and_degree_before_counting(capsys, monkeypatch, action, message):
    def count(src):
        raise AssertionError("the source was built")

    monkeypatch.setattr(fit.SequenceSource, "__post_init__", count)
    code, out, err = run_cli(
        capsys, "fit", action[0], "--source", "curve:a=-1,b=0", "--limit", "1000000", *action[1:]
    )
    assert code == 1 and out == ""
    assert message in err and err.count("\n") == 1


def test_fit_verify_without_candidate_exits_1(capsys):
    code, out, err = run_cli(capsys, "fit", "verify", "--source", "An:n=3", "--limit", "50")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--candidate" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "candidate, limit, q_max",
    [("t^10000", "10000", 9973), ("t^{99999999}", "50", 49), ("t + t^{99999999/2}", "50", 49)],
)
def test_fit_verify_refuses_a_huge_top_term(capsys, candidate, limit, q_max):
    code, out, err = run_cli(
        capsys, "fit", "verify", "--source", "An:n=3", "--candidate", candidate, "--limit", limit
    )
    assert code == 1 and out == ""
    assert err.startswith("error: candidate term t^{") and err.count("\n") == 1
    assert f"at q = {q_max} exceeds the limit of {fit.MAX_TERM_BITS:,} bits" in err


def test_a_violation_past_the_float_range_prints_its_interval(capsys):
    # f(2) = 2^1050.5 is past the largest float; both ends are that value
    # rounded half to even at six decimals in integers, which isqrt gives
    # to eight: floor(2^1050.5 10^8)
    code, out, err = run_cli(
        capsys, "fit", "verify", "--source", "An:n=3", "--candidate", "t^{2101/2}", "--limit", "50", "--mode", "floor"
    )
    end = (
        "170612342168136423108558555846229185465127434332401094147128532271253470073355578233943754501551129076905"
        "788246307089030207202638300803669539580579539775760893742617686803069647657597064787286346215932712842244"
        "393991979836822115541306135090955683679272830721948167738721094786170846647996978672998998452923452165842"
        "77.713988"
    )
    eight = math.isqrt(2 * 4**1050 * 10**16)
    assert eight % 100 == 85 and end == f"{eight // 10**8}.{eight // 100 % 10**6 + 1:06d}"
    assert code == 2 and err == ""
    assert out == (
        "floor candidate on #A3(F_q): bound_violated (witnesses 0/3, limit 50, excluded {});"
        f" violated at n=2: count 0 vs f(n)=[{end}, {end}]\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("zeta", "tensor", "s"), "takes 2 expression(s), got 1"),
        (("zeta", "soule", "t", "t^2"), "takes 1 expression(s), got 2"),
        (("zeta", "reflect", "s", "--d", "1/0"), "zero denominator"),
        (("fit", "verify", "--source", "An:n=3", "--candidate", "t^(1/0)"), "zero denominator"),
        (("fit", "search", "--source", "An:n=3", "--box", "5:1"), "--box"),
        (("fit", "search", "--source", "An:n=3", "--box", "5"), "--box"),
        (
            ("fit", "reject-linear", "--source", "An:n=3", "--c-from", "5", "--c-to", "1", "--limit", "50"),
            "--c-from 5 is greater than --c-to 1",
        ),
        (
            ("fit", "reject-linear", "--source", "An:n=3", "--limit", "50", "--c-from", "0", "--c-to", "10000000"),
            "c range too large (limit 1,000,000 values)",
        ),
        (("fit", "verify", "--source", "An:n=3", "--candidate", "t", "--exclude", "x"), "--exclude"),
        (("fit", "verify", "--source", "curve:a=x,b=1", "--candidate", "t"), "integer a=, not 'x'"),
        (("fit", "verify", "--source", "monoid", "--candidate", "t"), "malformed spec 'monoid'"),
        (("fit", "verify", "--source", "monoid:", "--candidate", "t"), "no value for file="),
        (("repro", "--criterion", "0"), "--criterion must be 1..11, not 0"),
        (("repro", "--criterion", "99"), "--criterion must be 1..11, not 99"),
        (("repro", "--criterion", "-1"), "--criterion must be 1..11, not -1"),
        (("fit", "verify", "--source", "pell:delta=5,extra=1", "--candidate", "t"), "unknown key 'extra'"),
        (("family", "pell:delta=5,extra=1", "envelopes"), "unknown key 'extra'"),
        (("fit", "verify", "--source", "An:n=3,n=4", "--candidate", "t"), "repeats n="),
        (("family", "An:n=3,n=4", "counts"), "repeats n="),
        (("fit", "verify", "--source", "curve:file=", "--candidate", "t"), "no value for file="),
        (("fit", "verify", "--source", "curve:a=1,b=0,file=c.csv", "--candidate", "t"), "not both"),
        (("family", "An:n=3", "envelopes", "--exclude", "4"), "excluded entry 4 is not prime"),
        (("curve", "census", "--a", "1", "--b", "0", "--exclude", "9"), "excluded entry 9 is not prime"),
        (("fit", "search", "--source", "An:n=3", "--witnesses", "0"), "--witnesses must be positive, not 0"),
        (("curve", "count", "--a", "1", "--b", "0", "--p", "5", "--m", "0"), "--m must be positive, not 0"),
        (
            ("fit", "verify", "--source", "An:n=3", "--candidate", "t^{1/3}", "--limit", "50"),
            "candidate term t^{1/3} has exponent denominator 3: fit decides exponents in (1/2)Z only",
        ),
        (
            ("fit", "verify", "--source", "An:n=3", "--candidate", "t^{1/1000000}", "--limit", "50", "--mode", "floor"),
            "candidate term t^{1/1000000} has exponent denominator 1000000",
        ),
    ],
    ids=[
        "tensor-one-product", "soule-two-polynomials", "reflect-d-1/0", "candidate-1/0",
        "box-5:1", "box-5", "c-range-5:1", "c-range-10^7", "exclude-x", "curve-a=x",
        "source-monoid-no-colon", "source-monoid-no-path", "criterion-0", "criterion-99", "criterion--1",
        "source-unknown-key", "family-unknown-key", "source-repeated-key", "family-repeated-key",
        "source-curve-empty-file", "source-curve-file-and-a", "family-exclude-4", "curve-exclude-9",
        "witnesses-0", "m-0", "candidate-t^{1/3}", "candidate-t^{1/1000000}",
    ],
)
def test_bad_input_exits_1_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("row", ["E1,1", "E1,x,1"], ids=["two-fields", "a=x"])
def test_bad_curve_csv_row_exits_1_with_one_line(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,a,b\n{row}\n")
    code, out, err = run_cli(capsys, "curve", "count", "--in", str(path), "--p", "5")
    assert code == 1 and out == ""
    assert err == f"error: {path} row 2: need label,a,b with integers a and b, not {row!r}\n"


@pytest.mark.parametrize(
    "mode, line",
    [
        (
            "ceiling",
            "ceiling candidate on #A3(F_q): bound_violated (witnesses 2/3, limit 50, excluded {});"
            " violated at n=7: count 4 vs f(n)=[2.645751, 2.645751]",
        ),
        (
            "floor",
            "floor candidate on #A3(F_q): bound_violated (witnesses 0/3, limit 50, excluded {});"
            " violated at n=2: count 0 vs f(n)=[1.414214, 1.414214]",
        ),
    ],
)
def test_puiseux_violation_text_is_pinned(capsys, mode, line):
    code, out, _ = run_cli(
        capsys, "fit", "verify", "--source", "An:n=3", "--candidate", "t^{1/2}",
        "--puiseux", "--limit", "50", "--mode", mode,
    )
    assert code == 2 and out == line + "\n"


def test_monoid_bad_exclude_prints_nothing(tmp_path, capsys):
    path = tmp_path / "p1.json"
    monoid.save_scheme(monoid.projective_space(1), str(path))
    code, out, err = run_cli(capsys, "monoid", "envelopes", "--in", str(path), "--exclude", "4")
    assert code == 1 and out == ""
    assert err == "error: excluded entry 4 is not prime\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "census", "--a", "1", "--b", "0", "--xmax", "100"),
        ("curve", "count", "--a", "1", "--b", "0", "--p", "11"),
        ("family", "An:n=3", "counts", "--limit", "50"),
        ("family", "An:n=3", "envelopes"),
        ("fit", "verify", "--source", "curve:a=1,b=0", "--candidate", "t + 2t^{1/2} + 1", "--limit", "50"),
    ],
    ids=["curve-census", "curve-count", "family-counts", "family-envelopes", "fit-verify"],
)
def test_each_excluded_entry_is_tested_for_primality_once(capsys, monkeypatch, argv):
    tested = []

    def counted(n, f=arith.is_prime):
        tested.append(n)
        return f(n)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "azw"]:
        if hasattr(module, "is_prime"):  # every module that imported it by name
            monkeypatch.setattr(module, "is_prime", counted)
    code, _, err = run_cli(capsys, *argv, "--exclude", "13,5,7")
    assert code != 1 and err == ""
    assert sorted(n for n in tested if n in (5, 7, 13)) == [5, 7, 13]
    # a census refuses a composite entry itself, as a domain does
    code, out, err = run_cli(capsys, *argv, "--exclude", "5,9")
    assert (code, out, err) == (1, "", "error: excluded entry 9 is not prime\n")


@pytest.mark.parametrize("text", ['{"r": 1.7}', '{"r": true}', '{"r": 1e400}', '{"r": 1, "torsion": [2.0]}'])
def test_monoid_json_takes_only_integers(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_text(f'{{"points": [{text}]}}')
    code, out, err = run_cli(capsys, "monoid", "envelopes", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed monoid scheme JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("monoid", "envelopes", "--in", "P1"),
        ("monoid", "zeta", "--in", "P1"),
        ("family", "pell:delta=5", "envelopes"),
        ("family", "Gn:n=5", "envelopes", "--exclude", "2,3"),
    ],
)
def test_envelope_commands_build_no_domain(tmp_path, capsys, monkeypatch, argv):
    path = tmp_path / "p1.json"
    monoid.save_scheme(monoid.projective_space(1), str(path))
    argv = [str(path) if a == "P1" else a for a in argv]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and want

    def built(dom):
        raise AssertionError("a domain was built")

    monkeypatch.setattr(PrimePowerDomain, "__post_init__", built)
    assert run_cli(capsys, *argv, "--limit", str(10**23)) == (0, want, "")
    code, out, err = run_cli(capsys, *argv, "--limit", "1")
    assert code == 1 and out == "" and err == "error: --limit must be at least 2, not 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "verify", "--source", "curve:a=1,b=1", "--candidate", "t", "--limit", str(10**23)),
        ("family", "An:n=3", "counts", "--limit", str(10**23)),
        ("curve", "census", "--a", "1", "--b", "1", "--xmax", str(10**23)),
    ],
    ids=["fit-limit", "family-counts-limit", "census-xmax"],
)
def test_a_limit_too_large_to_sieve_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: sieve limit {10**23} is too large to index\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("monoid", "counts", "--in", "p1.json", "--witnesses", "2"),
        ("family", "An:n=3", "counts", "--witnesses", "2"),
        ("curve", "count", "--a", "1", "--b", "0", "--p", "5", "--limit", "10"),
        ("curve", "count", "--a", "1", "--b", "0", "--p", "5", "--witnesses", "2"),
        ("curve", "count", "--a", "1", "--b", "0", "--p", "5", "--primes-only"),
        ("curve", "count", "--a", "1", "--b", "0", "--p", "5", "--format", "csv"),
        ("fit", "search", "--source", "An:n=3", "--format", "csv"),
    ],
    ids=["monoid-witnesses", "family-witnesses", "curve-limit", "curve-witnesses",
         "curve-primes-only", "curve-format", "fit-format"],
)
def test_options_a_subcommand_never_reads_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


# --- argv fuzz ---------------------------------------------------------------

MALFORMED = ["", "x", "1/0", "-3:3", ":", "=", "monoid", "curve:file=", "An:n=3,n=4"]
# dest -> closed range of the integers drawn for it, kept small so each call is cheap
INT_RANGES = {
    "limit": (-1, 5000), "xmax": (-1, 5000), "p": (-1, 5000), "m": (-1, 4),
    "a": (-50, 50), "b": (-50, 50), "witnesses": (-1, 4), "degree": (-1, 3),
    "c_from": (-3, 3), "c_to": (-3, 3),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scheme, curves = root / "f13.json", root / "curves.csv"
    monoid.save_scheme(monoid.spec_f1n(3), str(scheme))
    curves.write_text("label,a,b\nmx,-1,0\npx,1,0\n")
    return {"root": root, "scheme": str(scheme), "curves": str(curves)}


def _string_pool(dest, files):
    """Well-formed values of a string-valued argument, by its dest."""
    scheme, curves, root = files["scheme"], files["curves"], files["root"]
    specs = ["An:n=3", "Gn:n=5", "pell:delta=5", "pell:delta=-3", "An:n=0", "Gn:n=1", "An:n", "An:"]
    return {
        "expr": ["t + 2t^{1/2} + 1", "3t^2 - 6t + 3", "s / (s-1/2)", "1 / (s (s-1))", "t^(1/0)"],
        "d": ["1", "1/2", "0", "-1"],
        "input_path": [scheme, curves, str(root / "missing.json")],
        "label": ["mx", "px", "nope"],
        "output_path": [str(root / "census.csv"), str(root / "no-dir" / "c.csv"), str(root)],
        "summary_path": [str(root / "summary.json"), str(root)],
        "family_spec": specs,
        "source_spec": specs + [
            "curve:a=-1,b=0", "curve:a=0,b=0", f"curve:file={curves},label=px",
            f"monoid:{scheme}", f"monoid:file={scheme}", "pell:delta=5,extra=1", "monoid", "curve:a=-1",
        ],
        "candidate": ["t", "t - 2", "t + 1", "3", "t^{1/2}", "t + 2t^{1/2} + 1", "t+", "t^{1/3}", "t^{2101/2}"],
        "exclude": ["2", "2,3", "5", "4", "2,x"],
    }[dest]


@st.composite
def argvs(draw, files):
    """An argv for one subcommand, its positionals in order and a random
    subset of its options, drawn from build_parser()'s own choices."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    name = draw(st.sampled_from(sorted(sub.choices)))
    argv, options = [name], []

    def value(action):
        if action.choices:
            return draw(st.sampled_from(sorted(action.choices)))
        if action.dest == "criterion":
            return str(draw(st.sampled_from([-1, 0, 1, 11, 12])))
        if draw(st.integers(0, 7)) == 0:  # one value in eight is malformed
            bad = draw(st.sampled_from(MALFORMED))
            # files a call writes stay inside the fixture's directory
            return str(files["root"] / bad) if action.dest in ("output_path", "summary_path") else bad
        if action.dest == "box":
            return f"{draw(st.integers(-3, 3))}:{draw(st.integers(-3, 3))}"
        if action.dest in INT_RANGES:
            return str(draw(st.integers(*INT_RANGES[action.dest])))
        return draw(st.sampled_from(_string_pool(action.dest, files)))

    for action in sub.choices[name]._actions:
        if not action.option_strings:
            count = draw(st.integers(1, 2)) if action.nargs == "+" else 1
            argv += [value(action) for _ in range(count)]
        elif action.nargs == 0:  # flags; --help only one time in ten, since it ends the call
            if draw(st.integers(0, 9 if action.dest == "help" else 1)) == 0:
                options.append([action.option_strings[-1]])
        elif action.dest == "criterion" or action.required or draw(st.booleans()):
            flag, text = action.option_strings[-1], value(action)
            options.append([f"{flag}={text}"] if draw(st.booleans()) else [flag, text])
    for opt in draw(st.permutations(options)):
        argv += opt
    return argv


@given(data=st.data())
def test_argv_fuzz_exits_cleanly(fuzz_files, data):
    argv = data.draw(argvs(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
