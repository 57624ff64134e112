"""Cases hold their params; the direct JSON writer is byte-identical to
json.dumps(indent=2)."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genjacobi.algebra import InvalidParam, Poly
from genjacobi.report import Case, VerifyReport, params_str
from genjacobi.verify import run_suite


def case_record(case):
    """One case as the JSON report lays it out, as a fresh dict."""
    rec = {
        "label": case.label,
        "params": dict(case.params),
        "n": case.n,
        "residual": case.residual,
        "pass": None if case.skipped else case.passed,
    }
    if case.skipped:
        rec["skipped"] = True
        rec["reason"] = case.reason
    return rec


def report_record(report):
    """The whole report as the JSON report lays it out, as fresh dicts."""
    return {
        "suite": report.suite,
        "grid": dict(report.grid),
        "seed": report.seed,
        "cases": [case_record(c) for c in report.cases],
        "all_pass": report.all_pass,
    }


def dumped(report):
    """to_json's oracle: the record through the stdlib encoder."""
    return json.dumps(report_record(report), indent=2)


# to_json renders each params mapping once per call, keyed by identity
_SHARED, _EQUAL = {"alpha": "1", "M": "1/3"}, {"alpha": "1", "M": "1/3"}


@pytest.mark.parametrize("report", [
    VerifyReport("empty"),
    VerifyReport("no cases", grid={"nmax": "3"}, seed=5),
    VerifyReport("mixed", grid={"a": "1", "b": "2/3"}, seed=0, cases=[
        Case.check("exact zero", {"alpha": "1", "M": "1/3"}, 2, Fraction(0)),
        Case.check("nonzero polynomial", {"alpha": "0"}, 0, Poly([1, Fraction(-2, 3)])),
        Case.skip("precondition unmet", {"beta": "0"}, 1, "needs n >= 2"),
        Case.holds("predicate", {}, None, False, Fraction(-1, 7)),
        Case.check("no params, no n", {}, None, 0),
    ]),
    VerifyReport("non-ascii \u00e9", grid={"\u03b1": "\u00bd"}, cases=[
        Case.check("\u03b1-\u03b2 \u2013 \"quoted\"\\path\n", {"\u03bc": "1"}, 3, 1),
        Case.skip("\u2264 skipped", {}, None, "\u00e9\t"),
    ]),
    VerifyReport("shared and equal mappings", grid=_SHARED, seed=1, cases=[
        Case.check("shared", _SHARED, 0, 0), Case.check("equal", _EQUAL, 1, 1),
        Case.skip("shared, skipped", _SHARED, 2, "needs n >= 3"),
        Case.holds("empty", {}, None, False, Fraction(-1, 7)),
        Case.check("other", {"beta": "2", "N": "\u00bd"}, 3, Poly([1, 2])),
        Case.check("shared again", _SHARED, 4, 0), Case.skip("empty, skipped", {}, 5, "x"),
    ]),
])
def test_to_json_matches_json_dumps(report):
    assert report.to_json() == dumped(report)


_text = st.text(max_size=6)          # any code point: non-ASCII, quotes, controls
_mapping = st.dictionaries(_text, _text, max_size=3)
# each kind of case the writer tells apart, from (label, params, n, text)
_CASE_KINDS = (
    lambda label, params, n, text: Case.check(label, params, n, 0),
    lambda label, params, n, text: Case.check(label, params, n, Fraction(len(text) + 1, 3)),
    # passing with a nonzero residual, built directly
    lambda label, params, n, text: Case(label, params, n, text or "1", True),
    # failing with residual "0"
    lambda label, params, n, text: Case.holds(label, params, n, False, 0),
    lambda label, params, n, text: Case.skip(label, params, n, text),
    # skipped, though built passing with residual "0"
    lambda label, params, n, text: Case(label, params, n, "0", True, True, text),
)


@st.composite
def _reports(draw):
    shared = draw(_mapping)
    # one mapping shared by many cases, an equal but distinct one, and another
    pool = [shared, dict(shared), draw(_mapping)]
    labels = draw(st.lists(_text, min_size=1, max_size=3))
    ns = st.one_of(st.none(), st.just(0), st.integers(0, 2 ** 80))
    cases = [draw(st.sampled_from(_CASE_KINDS))(draw(st.sampled_from(labels)),
                                                draw(st.sampled_from(pool)), draw(ns),
                                                draw(_text))
             for _ in range(draw(st.integers(0, 12)))]
    return VerifyReport(draw(_text), grid=draw(_mapping),
                        seed=draw(st.none() | st.integers()), cases=cases)


@settings(max_examples=300)
@given(_reports())
def test_to_json_matches_json_dumps_on_any_mix_of_cases(report):
    assert report.to_json() == dumped(report)


def test_to_json_matches_json_dumps_on_a_merged_suite_run():
    report = run_suite("all", nmax=2, alpha_max=1, beta_max=1,
                       masses_m=(0, 1), masses_n=(Fraction(1, 3),), threads=1)
    assert any(c.skipped for c in report.cases)
    assert report.to_json() == dumped(report)


def test_cases_hold_the_given_params_and_records_are_fresh():
    pstr = {"alpha": "1", "M": "1/3"}
    cases = [Case.check("checked", pstr, 0, 0), Case.holds("held", pstr, 1, True, 1),
             Case.skip("skipped", pstr, 2, "needs n >= 3")]
    assert all(c.params is pstr for c in cases)
    report = VerifyReport("contract", grid={"nmax": "2"}, cases=cases)
    before = report.to_json()
    record = case_record(cases[0])
    record["params"]["alpha"] = "9"
    full = report_record(report)
    full["grid"]["nmax"] = "9"
    for rec in full["cases"]:
        rec["params"]["M"] = "9"
    assert pstr == {"alpha": "1", "M": "1/3"}
    assert report.grid == {"nmax": "2"}
    assert report.to_json() == before


def test_params_str_renders_exact_rationals_and_refuses_floats():
    assert params_str(alpha=1, M=Fraction(1, 3), N=0) == {"alpha": "1", "M": "1/3", "N": "0"}
    with pytest.raises(InvalidParam):
        params_str(M=0.5)
