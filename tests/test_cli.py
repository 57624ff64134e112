"""Command-line interface: subcommands, formats, exit codes."""
import argparse
import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import genjacobi
from genjacobi import operators
from genjacobi.cli import (COMMANDS, build_parser, latex_rational, main, poly_latex,
                           rational_flag)
from genjacobi.algebra import Poly
from genjacobi.report import VerifyReport
from genjacobi.verify import _thread_count
from test_algebra import render_polys
from test_mutants import TINY_ARGS, mutated


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_plain_first_line(capsys):
    code, out, _ = run(capsys, "poly", "--n", "1", "--alpha", "0", "--beta", "0",
                       "--bigm", "1", "--bign", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2x+1"
    assert "base: x" in lines
    assert "mass(-1) block: x+1" in lines
    assert "mass(+1) block: x-1" in lines
    assert "two-mass block: 0" in lines


def test_poly_n_zero(capsys):
    code, out, _ = run(capsys, "poly", "--n", "0")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--n", "2", "--bigm", "1/3",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 2
    assert rec["params"]["M"] == "1/3"
    assert "text" in rec["poly"] and "coeffs" in rec["poly"]
    # coefficients reparse to exact rationals
    coeffs = [Fraction(c) for c in rec["poly"]["coeffs"]]
    assert Poly(coeffs) == Poly([Fraction(c) for c in rec["poly"]["coeffs"]])
    assert rec["base"]["text"] == "(3/2)x^2-1/2"


def test_poly_csv(capsys):
    code, out, _ = run(capsys, "poly", "--n", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["component", "polynomial", "coeffs"]
    assert len(rows) == 6


def test_poly_latex(capsys):
    code, out, _ = run(capsys, "poly", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert r"\frac{3}{2}" in out


def test_poly_bad_alpha_exits_2(capsys):
    code, _, err = run(capsys, "poly", "--n", "1", "--alpha", "-1")
    assert code == 2
    assert "error:" in err
    assert "alpha" in err


@pytest.mark.parametrize("flag", ["--nmax", "--alpha-max", "--beta-max"])
def test_verify_negative_grid_bound_exits_2(capsys, flag):
    code, out, err = run(capsys, "verify", "--suite", "cor24", flag, "-1")
    assert code == 2
    assert out == ""
    assert flag.lstrip("-").replace("-", "_") in err


@pytest.mark.parametrize("argv", [("poly", "--n", "-1"), ("gram", "--nmax", "-1")])
def test_negative_index_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_rational_flag_parsing():
    assert rational_flag("1/3") == Fraction(1, 3)
    assert rational_flag("2") == 2
    assert rational_flag("-7/5") == Fraction(-7, 5)
    with pytest.raises(Exception):
        rational_flag("0.5")
    with pytest.raises(Exception):
        rational_flag("1/0")


@pytest.mark.parametrize("text", ["0.5", "1e3", " 1", "1/0"])
def test_rational_flag_keeps_its_messages(text):
    # the flag reads as_rational's grammar and reports its refusal as a usage error
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        rational_flag(text)
    assert str(exc.value) == (f"zero denominator in {text!r}" if text == "1/0" else
                              f"expected an exact rational like 2 or 7/3 (no decimals), "
                              f"got {text!r}")


def test_decimal_mass_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--n", "1", "--bigm", "0.5"])
    assert exc.value.code == 2


def test_operator_table_l2(capsys):
    code, out, _ = run(capsys, "operator-table", "--kind", "L2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("kind: L2")
    assert "effective order: 2" in lines
    assert "i=1: 2x" in lines
    assert "i=2: x^2-1" in lines


def test_operator_table_lfull_top_row(capsys):
    code, out, _ = run(capsys, "operator-table", "--kind", "Lfull",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["effective_order"] == 6
    top = rec["terms"][-1]
    assert top["order"] == 6
    assert top["coeff"] == str((Poly([-1, 0, 1])) ** 3)
    # the order-1 coefficient vanishes at alpha = beta = 0
    assert [t["order"] for t in rec["terms"]] == [2, 3, 4, 5, 6]


def test_operator_table_combined_reduces_to_l2(capsys):
    _, out_l2, _ = run(capsys, "operator-table", "--kind", "L2",
                       "--alpha", "1", "--beta", "2")
    _, out_comb, _ = run(capsys, "operator-table", "--kind", "Combined",
                         "--alpha", "1", "--beta", "2")
    tail = lambda s: [l for l in s.splitlines() if l.startswith(("i=", "effective"))]
    assert tail(out_l2) == tail(out_comb)


def test_operator_table_bad_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["operator-table", "--kind", "L3"])
    assert exc.value.code == 2


def test_inconsistent_operator_exits_1_with_an_error(capsys, monkeypatch):
    # an operator whose columns are not integer vectors fails its own
    # structural check: exit 1 with a message, not a traceback
    caches = (operators._column_list, operators._combined_entry)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.delenv("GENJACOBI_THREADS", raising=False)
    monkeypatch.setattr(operators, "apply_L2", lambda y, a, b: y * Fraction(1, 2))
    try:
        code, _, err = run(capsys, "verify", "--suite", "thm21", "--nmax", "2",
                           "--alpha-max", "1", "--beta-max", "1", "--bigm", "1",
                           "--bign", "1")
        assert code == 1 and err.startswith("error:")
        code, _, err = run(capsys, "operator-table", "--kind", "L2")
        assert code == 1 and err.startswith("error:")
    finally:
        for cache in caches:
            cache.cache_clear()


def test_an_operator_with_no_term_fails_its_expansion_cases(capsys, monkeypatch):
    # an elementary operator that maps every polynomial to 0 has no top term:
    # its order and top coefficient cases fail with residuals -order and
    # -(x^2-1)^(order/2), in the report, not in a traceback
    caches = (operators._column_list, operators._combined_entry)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.delenv("GENJACOBI_THREADS", raising=False)
    monkeypatch.setattr(operators, "apply_Ltilde", lambda y, a, b: Poly.zero())
    try:
        code, out, err = run(capsys, "verify", "--suite", "thm21", *TINY_ARGS,
                             "--format", "json")
    finally:
        for cache in caches:
            cache.cache_clear()
    assert (code, err) == (1, "")
    failing = {(c["label"], c["params"]["beta"]): c["residual"]
               for c in json.loads(out)["cases"]
               if not c["pass"] and c["params"]["alpha"] == "1" and c["n"] is None}
    assert failing == {("effective order of mass(-1) operator", "0"): "-4",
                       ("top coefficient of mass(-1) operator", "0"): "-x^4+2x^2-1",
                       ("effective order of mass(-1) operator", "1"): "-6",
                       ("top coefficient of mass(-1) operator", "1"): "-x^6+3x^4-3x^2+1"}


def test_exact_arithmetic_failure_exits_1(capsys, monkeypatch):
    # a wrong formula that leaves a remainder in an exact division is a
    # bug in the program, not a usage error
    monkeypatch.delenv("GENJACOBI_THREADS", raising=False)
    with mutated("apply_L2 with alpha and beta swapped"):
        code, out, err = run(capsys, "verify", "--suite", "prop23", *TINY_ARGS)
    assert (code, out) == (1, "")
    assert err.startswith("error: remainder")


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cor24", "--nmax", "4",
                       "--bigm", "1", "--bign", "1")
    assert code == 0
    assert out.strip().endswith("-> PASS")


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm21", "--nmax", "2",
                       "--alpha-max", "0", "--beta-max", "0",
                       "--bigm", "1", "--bign", "1/3", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["suite"] == "thm21"
    assert rec["all_pass"] is True
    for case in rec["cases"]:
        Fraction(case["residual"])  # reparses exactly
        for v in case["params"].values():
            Fraction(v)
    assert any(case["params"].get("N") == "1/3" for case in rec["cases"])


def test_verify_seed_changes_nothing_for_deterministic_suites(capsys):
    args = ["verify", "--suite", "prop22", "--nmax", "2",
            "--alpha-max", "0", "--beta-max", "0", "--format", "json"]
    _, out1, _ = run(capsys, *args, "--seed", "1")
    _, out2, _ = run(capsys, *args, "--seed", "2")
    rec1, rec2 = json.loads(out1), json.loads(out2)
    assert rec1["cases"] == rec2["cases"]
    assert rec1["seed"] == 1 and rec2["seed"] == 2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_report_bytes_are_pinned(capsys, monkeypatch, threads):
    # sha256 of the report before the integer scalar layer; serial and
    # parallel runs must both reproduce it byte for byte
    monkeypatch.setenv("GENJACOBI_THREADS", threads)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "2",
                       "--alpha-max", "1", "--beta-max", "1", "--bigm", "1",
                       "--bign", "1", "--format", "json", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1865cc289c27d8cae23faf5c9fdfdb62f4c61020f83472d993d457df4ea61274")


def test_default_grid_report_bytes_are_pinned(capsys, monkeypatch):
    # sha256 of the serial default-grid report, the benchmark's digest: a
    # speedup that changes a byte of it fails here, not only on the bench
    monkeypatch.setenv("GENJACOBI_THREADS", "1")
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e1ce52c019ad02ed0d9119903e70d4caa9820661b440ba37f85aee7b4e9fbc0c")


def test_verify_json_is_written_in_pieces(capsys, monkeypatch):
    # the CLI writes json_pieces one by one and never builds the whole report
    def refuse(self):
        raise AssertionError("the CLI built the whole report")
    monkeypatch.setattr(VerifyReport, "to_json", refuse)
    monkeypatch.setenv("GENJACOBI_THREADS", "1")
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "2",
                       "--alpha-max", "1", "--beta-max", "1", "--bigm", "1",
                       "--bign", "1", "--format", "json", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1865cc289c27d8cae23faf5c9fdfdb62f4c61020f83472d993d457df4ea61274")


def _verify_into(stdout):
    """Exit code and stderr of a tiny thm21 JSON run whose stdout is `stdout`."""
    env = dict(os.environ, PYTHONPATH=str(Path(genjacobi.__file__).parents[1]),
               GENJACOBI_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "genjacobi", "verify", "--suite", "thm21", *TINY_ARGS,
         "--format", "json"],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_1_with_one_error_line():
    with open("/dev/full", "w") as full:
        code, err = _verify_into(full)
    assert code == 1
    assert err.splitlines() == ["error: cannot write the report: [Errno 28] "
                                "No space left on device"]


def test_a_closed_pipe_exits_1_with_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)          # closed before the first write
    try:
        code, err = _verify_into(write_end)
    finally:
        os.close(write_end)
    assert code == 1
    assert err.splitlines() == ["error: cannot write the report: [Errno 32] Broken pipe"]


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", "2x", " 2",
                                   pytest.param("9" * 5000, id="5000-digits")])
def test_verify_bad_threads_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("GENJACOBI_THREADS", value)
    code, out, err = run(capsys, "verify", "--suite", "cor24", "--nmax", "1")
    assert code == 2
    assert out == ""
    assert "GENJACOBI_THREADS must be a positive integer" in err
    assert len(err) < 200


def test_threads_env_unset_empty_and_clamped(monkeypatch):
    monkeypatch.delenv("GENJACOBI_THREADS", raising=False)
    assert _thread_count() == 1
    monkeypatch.setenv("GENJACOBI_THREADS", "")
    assert _thread_count() == 1
    monkeypatch.setenv("GENJACOBI_THREADS", "1")
    assert _thread_count() == 1
    monkeypatch.setenv("GENJACOBI_THREADS", str(10 ** 6))
    assert _thread_count() == (os.cpu_count() or 1)


def test_gram_plain_diagonal(capsys):
    code, out, _ = run(capsys, "gram", "--nmax", "5", "--bigm", "1", "--bign", "1")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 6
    for i, row in enumerate(rows):
        assert len(row) == 6
        for j, v in enumerate(row):
            if i != j:
                assert v == "0"
            else:
                assert Fraction(v) > 0
    assert rows[0][0] == "3"


def test_gram_json(capsys):
    code, out, _ = run(capsys, "gram", "--nmax", "2", "--bigm", "1/3",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["nmax"] == 2
    assert Fraction(rec["matrix"][0][0]) == 1 + Fraction(1, 3)
    assert rec["matrix"][0][1] == rec["matrix"][1][0]


def test_gram_latex_fractions(capsys):
    code, out, _ = run(capsys, "gram", "--nmax", "1", "--format", "latex")
    assert code == 0
    assert out.splitlines()[1:3] == [r"$1$ & $0$ \\", r"$0$ & $\frac{1}{3}$ \\"]


def test_poly_latex_rendering():
    assert poly_latex(Poly([1, 2])) == "2x+1"
    assert poly_latex(Poly([Fraction(-1, 2), 0, Fraction(3, 2)])) \
        == r"\frac{3}{2}x^{2}-\frac{1}{2}"
    assert poly_latex(Poly.zero()) == "0"


def latex_oracle(p: Poly) -> str:
    """poly_latex as its own term walk, before the walk was shared with
    Poly.__str__: the reference the shared walk must reproduce."""
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if mag.denominator == 1:
            body = str(mag.numerator)
        else:
            body = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if k > 0:
            if body == "1":
                body = ""
            body += "x" if k == 1 else f"x^{{{k}}}"
        parts.append(f"{sign}{body}")
    return "".join(parts)


@settings(max_examples=400)
@given(render_polys)
def test_poly_latex_matches_its_own_term_walk(p):
    assert poly_latex(p) == latex_oracle(p)


def test_latex_rational():
    assert latex_rational(Fraction(-1, 3)) == r"\frac{-1}{3}"
    assert latex_rational(Fraction(4)) == "4"
    assert latex_rational(Fraction(-7)) == "-7"
    assert latex_rational(0) == "0"


def test_every_command_but_verify_has_one_table_entry():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(subs.choices) - {"verify"}
    for name, (cmd, help_, flag, options) in COMMANDS.items():
        assert cmd.__name__ == "cmd_" + name.replace("-", "_")
        assert help_ == next(a.help for a in subs._choices_actions if a.dest == name)
        action = next(a for a in subs.choices[name]._actions if a.dest == flag)
        assert action.option_strings == [f"--{flag}"]
        assert {key: getattr(action, key) for key in options} == options


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_importing_main_module_runs_nothing(monkeypatch, capsys):
    # argv that the CLI would reject with exit 2 if the import ran it
    monkeypatch.setattr(sys, "argv", ["importer", "frobnicate"])
    monkeypatch.delitem(sys.modules, "genjacobi.__main__", raising=False)
    module = importlib.import_module("genjacobi.__main__")
    assert callable(module.entry)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(genjacobi.__file__).parents[1]))
    env.pop("GENJACOBI_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "genjacobi", "verify", "--suite", "cor24", "--nmax", "0",
         "--bigm", "1", "--bign", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
