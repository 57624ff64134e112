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
from typing import Iterator, Mapping, NamedTuple, Optional, Union

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


def _case_tail(case: Case) -> str:
    """A case's JSON text from its residual to its closing brace, as to_json
    lays it out; passed is a bool, so it is written inline."""
    residual = _json_str(case.residual)
    if case.skipped:
        return (f'{residual},\n      "pass": null,\n      "skipped": true,\n'
                f'      "reason": {_json_str(case.reason)}\n    }}')
    return f'{residual},\n      "pass": {"true" if case.passed else "false"}\n    }}'


# the tail of every passing case whose residual is "0", most of a report
_PASS_TAIL = _case_tail(Case("", {}, None, "0", True))

# cases per piece of VerifyReport.json_pieces, about 0.5 MB of text on the
# default grid (233 bytes a case); a piece and its UTF-8 copy are the writer's
# whole memory, and there 4096 cases a piece peaked 2 MB higher
JSON_BATCH = 2048


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

    def json_pieces(self) -> Iterator[str]:
        """The report as json.dumps(record, indent=2) writes it, byte for
        byte, in pieces that join to that text: the first holds the report's
        head and its first JSON_BATCH cases, each next one the next JSON_BATCH
        (the last of them the rest), and one more the close.  The record
        holds "suite", "grid", "seed", "cases" and "all_pass", and each case
        "label", "params", "n", "residual" and "pass"; a skipped case has
        "pass" null, then "skipped" true and its "reason".  The tests build
        that record and compare.

        Written directly with the C string encoder (json.dumps with an
        indent runs the pure-Python encoder), each piece one join of parts
        rendered once per call: a case's head up to its params, per distinct
        label; its params block up to n, per mapping (the report holds every
        case alive meanwhile, so no id is reused); n up to the residual, per
        value; and one tail for a passing case with residual "0".  Only the
        other cases' tails are rendered one by one.
        """
        seed = "null" if self.seed is None else int.__repr__(self.seed)
        parts = [f'{{\n  "suite": {_json_str(self.suite)},\n'
                 f'  "grid": {_json_strings(self.grid, 2)},\n'
                 f'  "seed": {seed},\n'
                 f'  "cases": [']
        heads, blocks, nums = {}, {}, {}
        cases = self.cases
        for start in range(0, len(cases), JSON_BATCH):
            for case in cases[start:start + JSON_BATCH]:
                label, params, n, residual, passed, skipped, _ = case
                head = heads.get(label)
                if head is None:
                    head = heads[label] = (f',\n    {{\n      "label": {_json_str(label)},\n'
                                           f'      "params": ')
                block = blocks.get(id(params))
                if block is None:
                    block = blocks[id(params)] = f'{_json_strings(params, 6)},\n      "n": '
                num = nums.get(n)
                if num is None:
                    num = nums[n] = (f'{"null" if n is None else int.__repr__(n)},\n'
                                     f'      "residual": ')
                passing = passed and not skipped and residual == "0"
                parts += (head, block, num, _PASS_TAIL if passing else _case_tail(case))
            if not start:
                # each head opens with the separator; the first case drops its comma
                parts[1] = parts[1][1:]
            yield "".join(parts)
            parts = []
        if cases:
            parts.append("\n  ")
        parts.append(f'],\n  "all_pass": {"true" if self.all_pass else "false"}\n}}')
        yield "".join(parts)

    def to_json(self) -> str:
        """The report as one string, the join of json_pieces."""
        return "".join(self.json_pieces())

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
