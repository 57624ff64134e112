"""Command-line front end.

Subcommands:

- poly: print gen_jacobi(n) and its four building blocks
- operator-table: print the expanded coefficient polynomials of an operator
- verify: run an identity suite over a parameter grid
- gram: print the Gram matrix of the first nmax+1 polynomials

One table, COMMANDS, maps each subcommand but verify to its body, its help
and the one flag it adds to the weight flags; build_parser builds their
subparsers from it, and main builds one Params from the weight flags for
all of them.  Every LaTeX table, these and verify's, is report.tabular.

All formats (plain, json, csv, latex) render every number as an exact
rational "p/q" (or "p"; "\\frac{p}{q}" in LaTeX) and every polynomial
through the one term walk, Poly.render; decimals are rejected on input and
never produced on output.  Exit codes: 0 success / all identities pass,
1 verification failure or an exact-arithmetic failure (an ArithmeticError
such as NotDivisible or InconsistentExpansion, which means a bug), 2 usage
or validation error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import InvalidParam, Poly, as_rational, format_rational
from .genjacobi import Params, gen_jacobi
from .inner import gram_matrix
from .operators import OPERATOR_KINDS, components, expand_operator
from .report import point_str, tabular
from .verify import (DEFAULT_ALPHA_MAX, DEFAULT_BETA_MAX, DEFAULT_MASSES,
                     DEFAULT_NMAX, DEFAULT_SEED, SUITE_NAMES, run_suite)

FORMATS = ("plain", "json", "csv", "latex")


def rational_flag(text: str) -> Fraction:
    """Parse "p" or "p/q" by as_rational's grammar; decimals are rejected to
    preserve exactness."""
    try:
        return as_rational(text)
    except InvalidParam as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def latex_rational(value: Fraction) -> str:
    """LaTeX of an exact rational: p, or \\frac{p}{q}."""
    if value.denominator == 1:
        return str(value.numerator)
    return rf"\frac{{{value.numerator}}}{{{value.denominator}}}"


def poly_latex(p: Poly) -> str:
    """LaTeX body for a polynomial, exact fractions via \\frac."""
    return p.render(lambda mag, k: latex_rational(mag), "{{{}}}".format)


def _coeff_strings(p: Poly) -> list:
    return [format_rational(c) for c in p.coeffs]


# ---------------- subcommand bodies ----------------

def cmd_poly(n: int, params: Params, fmt: str) -> str:
    full = gen_jacobi(n, params)
    a, b = params.alpha, params.beta
    base, *others = components(a, b)
    polys = [("poly", full), ("base", base.poly(n, a, b))]
    polys += [(f"{row.name} block", row.poly(n, a, b)) for row in others]
    pstr = point_str(params)
    if fmt == "json":
        rec = {"n": n, "params": pstr}
        for name, p in polys:
            key = name.replace(" ", "_").replace("(", "").replace(")", "")
            rec[key] = {"text": str(p), "coeffs": _coeff_strings(p)}
        return json.dumps(rec, indent=2)
    if fmt == "csv":
        lines = ["component,polynomial,coeffs"]
        for name, p in polys:
            lines.append(f"\"{name}\",\"{p}\",\"{';'.join(_coeff_strings(p))}\"")
        return "\n".join(lines)
    if fmt == "latex":
        return tabular("ll", [f"{name} & ${poly_latex(p)}$" for name, p in polys])
    lines = [str(full)]
    for name, p in polys[1:]:
        lines.append(f"{name}: {p}")
    return "\n".join(lines)


def cmd_operator_table(kind: str, params: Params, fmt: str) -> str:
    op = expand_operator(kind, params)
    pstr = point_str(params)
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
        return tabular("rl", [r"$i$ & coefficient of $D^i$",
                              *(f"{o} & ${poly_latex(c)}$" for o, c in op.terms)])
    head = " ".join(f"{k}={v}" for k, v in pstr.items())
    lines = [f"kind: {kind}  {head}", f"effective order: {op.effective_order}"]
    for o, c in op.terms:
        lines.append(f"i={o}: {c}")
    return "\n".join(lines)


def cmd_gram(nmax: int, params: Params, fmt: str) -> str:
    matrix = gram_matrix(nmax, params)
    rows = [[format_rational(v) for v in row] for row in matrix]
    pstr = point_str(params)
    if fmt == "json":
        return json.dumps({"nmax": nmax, "params": pstr, "matrix": rows}, indent=2)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows)
    if fmt == "latex":
        return tabular("r" * (nmax + 1),
                       [" & ".join(f"${latex_rational(v)}$" for v in row) for row in matrix])
    width = max(len(v) for row in rows for v in row)
    return "\n".join(" ".join(v.rjust(width) for v in row) for row in rows)


# every command but verify: its body, its help, the flag it reads besides the
# weight flags and --format, and that flag's argparse options
COMMANDS = {"poly": (cmd_poly, "print gen_jacobi(n) and its blocks",
                     "n", dict(type=int, required=True, help="polynomial index")),
            "operator-table": (cmd_operator_table, "print expanded operator coefficients",
                               "kind", dict(choices=OPERATOR_KINDS, required=True)),
            "gram": (cmd_gram, "print the Gram matrix", "nmax", dict(type=int, default=5))}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genjacobi",
        description="Exact generalized Jacobi polynomials, their "
                    "differential operators, and identity verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, flag, options) in COMMANDS.items():
        p = subs.add_parser(name, help=help_)
        p.add_argument(f"--{flag}", **options)
        _add_weight_flags(p)

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
    for p in subs.choices.values():
        p.add_argument("--format", choices=FORMATS, default="plain")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in COMMANDS:
            cmd, _, flag, _ = COMMANDS[args.command]
            params = Params(args.alpha, args.beta, args.bigm, args.bign)
            print(cmd(getattr(args, flag), params, args.format))
            return 0
        # verify
        report = run_suite(
            args.suite, nmax=args.nmax, alpha_max=args.alpha_max,
            beta_max=args.beta_max, seed=args.seed,
            masses_m=DEFAULT_MASSES if args.bigm is None else (args.bigm,),
            masses_n=DEFAULT_MASSES if args.bign is None else (args.bign,))
        print(report.render(args.format))
        return 0 if report.all_pass else 1
    except (InvalidParam, ArithmeticError) as exc:
        # bad input is a usage error; exact arithmetic that fails is a bug
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidParam) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
