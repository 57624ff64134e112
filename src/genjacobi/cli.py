"""Command-line front end.

Subcommands:

- poly: print gen_jacobi(n) and its four building blocks
- operator-table: print the expanded coefficient polynomials of an operator
- verify: run an identity suite over a parameter grid
- gram: print the Gram matrix of the first nmax+1 polynomials

All formats (plain, json, csv, latex) render every number as an exact
rational "p/q" (or "p"); decimals are rejected on input and never produced
on output.  Exit codes: 0 success / all identities pass, 1 verification
failure, 2 usage or validation error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .algebra import InvalidParam, NotDivisible, Poly, format_rational
from .genjacobi import Params, gen_jacobi, poly_Q, poly_R, poly_S
from .inner import gram_matrix
from .jacobi import jacobi_poly
from .operators import OPERATOR_KINDS, expand_operator
from .report import params_str
from .verify import (DEFAULT_ALPHA_MAX, DEFAULT_BETA_MAX, DEFAULT_MASSES,
                     DEFAULT_NMAX, DEFAULT_SEED, SUITE_NAMES, run_suite)

FORMATS = ("plain", "json", "csv", "latex")

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def rational_flag(text: str) -> Fraction:
    """Parse "p" or "p/q"; decimals are rejected to preserve exactness."""
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 2 or 7/3 (no decimals), got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def poly_latex(p: Poly) -> str:
    """LaTeX body for a polynomial, exact fractions via \\frac."""
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


def _coeff_strings(p: Poly) -> list:
    return [format_rational(c) for c in p.coeffs]


# ---------------- subcommand bodies ----------------

def cmd_poly(n: int, params: Params, fmt: str) -> str:
    full = gen_jacobi(n, params)
    components = [
        ("poly", full),
        ("base", jacobi_poly(n, params.alpha, params.beta)),
        ("mass(-1) block", poly_Q(n, params.alpha, params.beta)),
        ("mass(+1) block", poly_R(n, params.alpha, params.beta)),
        ("two-mass block", poly_S(n, params.alpha, params.beta)),
    ]
    pstr = params_str(alpha=params.alpha, beta=params.beta, M=params.M, N=params.N)
    if fmt == "json":
        rec = {"n": n, "params": pstr}
        for name, p in components:
            key = name.replace(" ", "_").replace("(", "").replace(")", "")
            rec[key] = {"text": str(p), "coeffs": _coeff_strings(p)}
        return json.dumps(rec, indent=2)
    if fmt == "csv":
        lines = ["component,polynomial,coeffs"]
        for name, p in components:
            lines.append(f"\"{name}\",\"{p}\",\"{';'.join(_coeff_strings(p))}\"")
        return "\n".join(lines)
    if fmt == "latex":
        lines = [r"\begin{tabular}{ll}"]
        for name, p in components:
            lines.append(f"{name} & ${poly_latex(p)}$ \\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    lines = [str(full)]
    for name, p in components[1:]:
        lines.append(f"{name}: {p}")
    return "\n".join(lines)


def cmd_operator_table(kind: str, params: Params, fmt: str) -> str:
    op = expand_operator(kind, params)
    pstr = params_str(alpha=params.alpha, beta=params.beta, M=params.M, N=params.N)
    if fmt == "json":
        rec = {
            "kind": kind,
            "params": pstr,
            "effective_order": op.effective_order,
            "terms": [{"order": o, "coeff": str(c), "coeffs": _coeff_strings(c)}
                      for o, c in op.terms],
        }
        return json.dumps(rec, indent=2)
    if fmt == "csv":
        lines = ["order,coeff,coeffs"]
        for o, c in op.terms:
            lines.append(f"{o},\"{c}\",\"{';'.join(_coeff_strings(c))}\"")
        return "\n".join(lines)
    if fmt == "latex":
        lines = [r"\begin{tabular}{rl}", r"$i$ & coefficient of $D^i$ \\"]
        for o, c in op.terms:
            lines.append(f"{o} & ${poly_latex(c)}$ \\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    head = " ".join(f"{k}={v}" for k, v in pstr.items())
    lines = [f"kind: {kind}  {head}", f"effective order: {op.effective_order}"]
    for o, c in op.terms:
        lines.append(f"i={o}: {c}")
    return "\n".join(lines)


def cmd_gram(nmax: int, params: Params, fmt: str) -> str:
    matrix = gram_matrix(nmax, params)
    rows = [[format_rational(v) for v in row] for row in matrix]
    pstr = params_str(alpha=params.alpha, beta=params.beta, M=params.M, N=params.N)
    if fmt == "json":
        return json.dumps({"nmax": nmax, "params": pstr, "matrix": rows}, indent=2)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows)
    if fmt == "latex":
        lines = [r"\begin{tabular}{" + "r" * (nmax + 1) + "}"]
        for row in rows:
            cells = [rf"$\frac{{{v.split('/')[0]}}}{{{v.split('/')[1]}}}$"
                     if "/" in v else f"${v}$" for v in row]
            lines.append(" & ".join(cells) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    width = max(len(v) for row in rows for v in row)
    return "\n".join(" ".join(v.rjust(width) for v in row) for row in rows)


# ---------------- argument plumbing ----------------

def _add_weight_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=int, default=0,
                     help="weight exponent at x=+1 (nonnegative integer)")
    sub.add_argument("--beta", type=int, default=0,
                     help="weight exponent at x=-1 (nonnegative integer)")
    sub.add_argument("--bigm", type=rational_flag, default=Fraction(0),
                     help="point mass M at x=-1, exact rational like 1/3")
    sub.add_argument("--bign", type=rational_flag, default=Fraction(0),
                     help="point mass N at x=+1, exact rational like 1/3")


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="plain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genjacobi",
        description="Exact generalized Jacobi polynomials, their "
                    "differential operators, and identity verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("poly", help="print gen_jacobi(n) and its blocks")
    p.add_argument("--n", type=int, required=True, help="polynomial index")
    _add_weight_flags(p)
    _add_format_flag(p)

    p = subs.add_parser("operator-table", help="print expanded operator coefficients")
    p.add_argument("--kind", choices=OPERATOR_KINDS, required=True)
    _add_weight_flags(p)
    _add_format_flag(p)

    p = subs.add_parser("verify", help="run an identity suite over a grid")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--alpha-max", type=int, default=DEFAULT_ALPHA_MAX)
    p.add_argument("--beta-max", type=int, default=DEFAULT_BETA_MAX)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--bigm", type=rational_flag, default=None,
                   help="pin the M grid to one exact rational")
    p.add_argument("--bign", type=rational_flag, default=None,
                   help="pin the N grid to one exact rational")
    _add_format_flag(p)

    p = subs.add_parser("gram", help="print the Gram matrix")
    p.add_argument("--nmax", type=int, default=5)
    _add_weight_flags(p)
    _add_format_flag(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "poly":
            if args.n < 0:
                raise InvalidParam(f"--n must be >= 0, got {args.n}")
            params = Params(args.alpha, args.beta, args.bigm, args.bign)
            print(cmd_poly(args.n, params, args.format))
            return 0
        if args.command == "operator-table":
            params = Params(args.alpha, args.beta, args.bigm, args.bign)
            print(cmd_operator_table(args.kind, params, args.format))
            return 0
        if args.command == "gram":
            params = Params(args.alpha, args.beta, args.bigm, args.bign)
            print(cmd_gram(args.nmax, params, args.format))
            return 0
        # verify
        report = run_suite(
            args.suite, nmax=args.nmax, alpha_max=args.alpha_max,
            beta_max=args.beta_max, seed=args.seed,
            masses_m=DEFAULT_MASSES if args.bigm is None else (args.bigm,),
            masses_n=DEFAULT_MASSES if args.bign is None else (args.bign,))
        print(report.render(args.format))
        return 0 if report.all_pass else 1
    except (InvalidParam, NotDivisible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
