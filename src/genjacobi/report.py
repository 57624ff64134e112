"""Structured verification results.

A suite run produces a :class:`VerifyReport`: one :class:`Case` per identity
instance, each carrying the exact residual as a string (rationals as "p/q",
polynomials in plain text).  A case whose precondition is not met is recorded
as skipped with the violated precondition; skipped cases never count as
passes, and ``all_pass`` quantifies over the non-skipped cases only.

Serialization is lossless: every number is an exact string, so JSON and CSV
round-trip without approximation.  A zero residual, the passing case, renders
as "0" without formatting any number.  Parameters render through
format_rational, which refuses a float as every exact input does.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Mapping, NamedTuple, Optional, Union

from .algebra import Poly, format_rational

ResidualLike = Union[Poly, Fraction, int]


def render_value(value: ResidualLike) -> str:
    """Exact text for a polynomial or rational result; "0" for a zero one,
    before any formatting."""
    if isinstance(value, Poly):
        return str(value) if value.nums else "0"
    return format_rational(value) if value else "0"


class Case(NamedTuple):
    """One checked identity instance.  params is held as given, not copied:
    a suite builds one mapping per grid point and never changes it."""

    label: str
    params: Mapping[str, str]
    n: Optional[int]
    residual: str
    passed: bool
    skipped: bool = False
    reason: str = ""

    @classmethod
    def check(cls, label: str, params: Mapping[str, str], n: Optional[int],
              residual: ResidualLike) -> "Case":
        """Record a computed residual; it passes iff exactly zero."""
        zero = residual.is_zero if isinstance(residual, Poly) else residual == 0
        return cls(label, params, n, render_value(residual), bool(zero))

    @classmethod
    def holds(cls, label: str, params: Mapping[str, str], n: Optional[int],
              ok: bool, witness: ResidualLike) -> "Case":
        """Record a predicate; it passes iff ok.  A passing case renders
        residual 0, a failing one the offending quantity (witness)."""
        return cls(label, params, n, "0" if ok else render_value(witness), bool(ok))

    @classmethod
    def skip(cls, label: str, params: Mapping[str, str], n: Optional[int],
             reason: str) -> "Case":
        """Record a case whose precondition is unmet."""
        return cls(label, params, n, "", False, True, reason)


def _json_strings(mapping: Mapping[str, str], depth: int) -> str:
    """A str -> str mapping as json.dumps(..., indent=2) lays it out when
    it opens `depth` spaces in."""
    if not mapping:
        return "{}"
    sep = "\n" + " " * (depth + 2)
    body = ("," + sep).join(f"{_json_str(k)}: {_json_str(v)}" for k, v in mapping.items())
    return f"{{{sep}{body}\n{' ' * depth}}}"


def _case_json(case: Case, params: str) -> str:
    """One case of a report's "cases" list, as to_json lays it out, with
    params the JSON text of its params mapping.  n is None or an int, and
    passed a bool, so their scalars are written inline."""
    n = "null" if case.n is None else int.__repr__(case.n)
    text = (f'    {{\n      "label": {_json_str(case.label)},\n'
            f'      "params": {params},\n'
            f'      "n": {n},\n'
            f'      "residual": {_json_str(case.residual)},\n')
    if case.skipped:
        return (f'{text}      "pass": null,\n      "skipped": true,\n'
                f'      "reason": {_json_str(case.reason)}\n    }}')
    return f'{text}      "pass": {"true" if case.passed else "false"}\n    }}'


def tabular(spec: str, rows: list) -> str:
    """A LaTeX tabular, one line per row; each row is LaTeX without its \\\\."""
    return "\n".join([rf"\begin{{tabular}}{{{spec}}}", *(f"{row} \\\\" for row in rows),
                      r"\end{tabular}"])


def params_str(**kwargs) -> dict:
    """Render a parameter mapping with exact rational strings; a float is
    refused (InvalidParam), as everywhere."""
    return {key: format_rational(value) for key, value in kwargs.items()}


def point_str(params) -> dict:
    """The label of one mass point, read from the Params it ran with."""
    return params_str(alpha=params.alpha, beta=params.beta, M=params.M, N=params.N)


@dataclass
class VerifyReport:
    """All cases from one suite run, plus the grid that generated them; the
    grid points return plain lists of cases, and only a run builds a report."""

    suite: str
    grid: Mapping[str, str] = field(default_factory=dict)
    seed: Optional[int] = None
    cases: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cases if not c.skipped)

    @property
    def counts(self) -> tuple:
        """(passed, failed, skipped)."""
        passed = sum(1 for c in self.cases if c.passed)
        skipped = sum(1 for c in self.cases if c.skipped)
        return passed, len(self.cases) - passed - skipped, skipped

    def to_json(self) -> str:
        """The report as json.dumps(record, indent=2) writes it, byte for
        byte, where the record holds "suite", "grid", "seed", "cases" and
        "all_pass", and each case "label", "params", "n", "residual" and
        "pass"; a skipped case has "pass" null, then "skipped" true and its
        "reason".  The tests build that record and compare.

        Written directly, one case at a time, with the C string encoder:
        json.dumps with an indent runs the pure-Python encoder, which took
        most of the rendering time of a large report.  Each params mapping
        is rendered once per call, however many cases share it; the report
        holds every case alive meanwhile, so no id is reused.
        """
        params = {id(c.params): c.params for c in self.cases}
        params = {key: _json_strings(p, 6) for key, p in params.items()}
        cases = ",\n".join([_case_json(c, params[id(c.params)]) for c in self.cases])
        cases = f"[\n{cases}\n  ]" if cases else "[]"
        seed = "null" if self.seed is None else int.__repr__(self.seed)
        return (f'{{\n  "suite": {_json_str(self.suite)},\n'
                f'  "grid": {_json_strings(self.grid, 2)},\n'
                f'  "seed": {seed},\n'
                f'  "cases": {cases},\n'
                f'  "all_pass": {"true" if self.all_pass else "false"}\n}}')

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "label", "params", "n", "residual", "pass", "reason"])
        for c in self.cases:
            pstr = ";".join(f"{k}={v}" for k, v in c.params.items())
            status = "skip" if c.skipped else ("pass" if c.passed else "fail")
            writer.writerow([self.suite, c.label, pstr,
                             "" if c.n is None else c.n, c.residual, status, c.reason])
        return buf.getvalue()

    def to_plain(self) -> str:
        lines = []
        for c in self.cases:
            pstr = ",".join(f"{k}={v}" for k, v in c.params.items())
            nstr = "" if c.n is None else f" n={c.n}"
            if c.skipped:
                lines.append(f"SKIP {c.label} [{pstr}]{nstr} ({c.reason})")
            elif c.passed:
                lines.append(f"PASS {c.label} [{pstr}]{nstr}")
            else:
                lines.append(f"FAIL {c.label} [{pstr}]{nstr} residual={c.residual}")
        passed, failed, skipped = self.counts
        verdict = "PASS" if self.all_pass else "FAIL"
        lines.append(f"suite {self.suite}: {len(self.cases)} cases, "
                     f"{passed} passed, {failed} failed, {skipped} skipped -> {verdict}")
        return "\n".join(lines)

    def to_latex(self) -> str:
        def esc(s: str) -> str:
            return s.replace("^", r"\^{}").replace("_", r"\_")
        rows = [r"label & params & $n$ & residual & result"]
        for c in self.cases:
            pstr = ", ".join(f"{k}={v}" for k, v in c.params.items())
            status = "skip" if c.skipped else ("pass" if c.passed else "fail")
            nstr = "" if c.n is None else str(c.n)
            rows.append(f"{esc(c.label)} & {esc(pstr)} & {nstr} & {esc(c.residual)} & {status}")
        return tabular("llrll", rows)

    def render(self, fmt: str) -> str:
        """The report in one format; any format not named is plain text."""
        renderers = {"json": self.to_json, "csv": self.to_csv, "latex": self.to_latex}
        return renderers.get(fmt, self.to_plain)()
