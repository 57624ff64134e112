"""Verification suites: pass on correct builds, fail on corrupted ones."""
import csv
import io
import json
from fractions import Fraction

import pytest

import genjacobi.verify as verify
from genjacobi.algebra import InvalidParam, Poly
from genjacobi.genjacobi import Params
from genjacobi.operators import EigenValue
from genjacobi.verify import (SplitMix64, SUITE_NAMES, random_poly, run_suite,
                              verify_cor24, verify_cor25, verify_duran,
                              verify_orthogonality, verify_prop22,
                              verify_prop23, verify_symmetry,
                              verify_theorem21)

F = Fraction


def test_splitmix64_reference_values():
    # first output for seed 0 is a published reference vector
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix64_randint_bounds():
    rng = SplitMix64(42)
    vals = [rng.randint(-3, 3) for _ in range(200)]
    assert min(vals) == -3 and max(vals) == 3


def test_random_poly_shape():
    rng = SplitMix64(7)
    for _ in range(50):
        p = random_poly(rng, 5)
        assert p.degree <= 5
        for c in p.coeffs:
            assert abs(c.numerator) <= 20 * 10


def test_theorem21_passes():
    rep = verify_theorem21(6, Params(1, 2, F(1, 3), 2))
    assert rep.all_pass
    assert rep.counts[0] == len(rep.cases)
    labels = {c.label for c in rep.cases}
    assert "combined eigen-equation" in labels
    assert "effective order of two-mass operator" in labels


def test_prop22_passes_and_records_skips():
    rep = verify_prop22(5, 1, 1)
    assert rep.all_pass
    skipped = [c for c in rep.cases if c.skipped]
    assert skipped, "low-degree chain rows must be skipped, not dropped"
    for c in skipped:
        assert c.n in (0, 1)
        assert "n >= 2" in c.reason


def test_prop23_passes():
    assert verify_prop23(4, 0, 0).all_pass
    assert verify_prop23(4, 2, 1).all_pass


def test_cor24_passes():
    rep = verify_cor24(6, 1, 1)
    assert rep.all_pass
    rep = verify_cor24(6, F(1, 2), F(7, 3))
    assert rep.all_pass
    labels = [c.label for c in rep.cases]
    assert "normalization constant b at (0,0)" in labels
    assert "normalization constant c at (0,0)" in labels


def test_cor25_passes():
    rep = verify_cor25(6, 1, 2)
    assert rep.all_pass
    labels = {c.label for c in rep.cases}
    assert "four-term cross identity" in labels


def test_duran_passes():
    rep = verify_duran(8, 2, 1)
    assert rep.all_pass
    labels = {c.label for c in rep.cases}
    assert "product form matches elementary on x^k" in labels


def test_symmetry_passes_and_is_deterministic():
    pr = Params(1, 1, F(1, 3), 2)
    rep1 = verify_symmetry(3, 6, pr, seed=99)
    rep2 = verify_symmetry(3, 6, pr, seed=99)
    assert rep1.all_pass
    assert rep1.to_json() == rep2.to_json()
    rep3 = verify_symmetry(3, 6, pr, seed=100)
    assert rep3.all_pass  # identities hold for any drawn polynomials


def test_orthogonality_passes():
    rep = verify_orthogonality(6, Params(0, 0, 1, 1))
    assert rep.all_pass
    labels = {c.label for c in rep.cases}
    assert any(l.startswith("gram entry") for l in labels)


def test_failing_orthogonality_predicates_carry_the_offending_value(monkeypatch):
    real_gram, real_eigen = verify.gram_matrix, verify.eigen_combined

    def bad_gram(nmax, params):
        gram = [list(row) for row in real_gram(nmax, params)]
        gram[2][2] = F(-3, 5)
        return gram

    def bad_eigen(n, params):
        ev = real_eigen(n, params)
        return EigenValue(value=real_eigen(3, params).value - 7) if n == 4 else ev

    monkeypatch.setattr(verify, "gram_matrix", bad_gram)
    monkeypatch.setattr(verify, "eigen_combined", bad_eigen)
    pr = Params(0, 0, 1, 1)
    rep = verify_orthogonality(5, pr)
    failing = {(c.label, c.n): c for c in rep.cases if not c.passed}
    diag = failing.pop(("gram diagonal entry positive", 2))
    assert diag.residual == "-3/5"
    rise = failing.pop(("combined eigenvalue strictly increasing", 3))
    assert rise.residual == "-7"
    assert not failing
    for c in rep.cases:
        if c.passed and c.label in ("gram diagonal entry positive",
                                    "combined eigenvalue strictly increasing"):
            assert c.residual == "0"


def test_run_suite_each_name_reduced_grid():
    for name in SUITE_NAMES:
        rep = run_suite(name, nmax=3, alpha_max=1, beta_max=1,
                        masses_m=(F(0), F(1)), masses_n=(F(0), F(1)),
                        seed=0, trials=1)
        assert rep.suite == name
        assert rep.all_pass, f"{name}: {rep.to_plain()}"


def test_run_suite_all_merges():
    rep = run_suite("all", nmax=2, alpha_max=0, beta_max=0,
                    masses_m=(F(1),), masses_n=(F(1),), seed=0, trials=1)
    assert rep.suite == "all"
    assert rep.all_pass
    prefixes = {c.label.split(":")[0] for c in rep.cases}
    assert set(SUITE_NAMES) <= prefixes


def test_run_suite_rejects_unknown_name():
    with pytest.raises(InvalidParam):
        run_suite("everything")


@pytest.mark.parametrize("name, grid", [
    ("thm21", dict(nmax=-1)),
    ("thm21", dict(alpha_max=-1)),
    ("thm21", dict(beta_max=-1)),
    ("symmetry", dict(trials=0)),
    ("symmetry", dict(trials=-3)),
    ("thm21", dict(masses_m=())),
    ("thm21", dict(masses_n=())),
    ("all", dict(nmax=-1)),
])
def test_run_suite_rejects_grids_that_check_nothing(name, grid):
    with pytest.raises(InvalidParam):
        run_suite(name, threads=1, **grid)


def test_run_suite_mass_axis_pinning():
    rep = run_suite("thm21", nmax=2, alpha_max=0, beta_max=0,
                    masses_m=(F(1),), masses_n=(F(2),), seed=0, trials=1)
    assert rep.grid["masses_m"] == "1"
    assert rep.grid["masses_n"] == "2"
    for c in rep.cases:
        if c.label == "combined eigen-equation":
            assert c.params["M"] == "1" and c.params["N"] == "2"


def test_corrupted_eigenvalue_is_caught(monkeypatch):
    # sabotage one eigenvalue; the suite must localize the failure
    real = verify.eigen_combined

    def bad(n, params):
        ev = real(n, params)
        if n == 3:
            return EigenValue(value=ev.value + 1)
        return ev

    monkeypatch.setattr(verify, "eigen_combined", bad)
    rep = verify_theorem21(5, Params(0, 0, 1, 1))
    assert not rep.all_pass
    failing = [c for c in rep.cases if not c.passed and not c.skipped]
    assert failing and all(c.n == 3 for c in failing)


def test_corrupted_block_is_caught(monkeypatch):
    real = verify.poly_Q

    def bad(n, a, b):
        p = real(n, a, b)
        return p + Poly([0, F(1, 7)]) if n == 2 else p

    monkeypatch.setattr(verify, "poly_Q", bad)
    rep = verify_prop22(4, 0, 0)
    assert not rep.all_pass


def test_report_json_shape():
    rep = run_suite("cor24", nmax=2, alpha_max=0, beta_max=0,
                    masses_m=(F(1),), masses_n=(F(1),), seed=5, trials=1)
    data = json.loads(rep.to_json())
    assert data["suite"] == "cor24"
    assert data["seed"] == 5
    assert data["all_pass"] is True
    assert isinstance(data["grid"], dict)
    for case in data["cases"]:
        assert set(case) >= {"label", "params", "n", "residual", "pass"}
        assert case["residual"] == "0"
        assert case["pass"] is True


def test_report_csv_round_trip():
    rep = verify_prop22(3, 0, 0)
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["suite", "label", "params", "n", "residual", "pass", "reason"]
    body = rows[1:]
    assert len(body) == len(rep.cases)
    statuses = {r[5] for r in body}
    assert statuses <= {"pass", "fail", "skip"}
    assert "skip" in statuses  # the n<2 chain rows
    assert "fail" not in statuses


def test_report_plain_summary_line():
    rep = verify_cor24(3, 1, 0)
    text = rep.to_plain()
    assert text.strip().endswith("-> PASS")
    assert "PASS " in text or "PASS\t" in text or "PASS" in text


def test_run_suite_parallel_matches_serial():
    # two masses, so every suite, cor24 included, has more than one point
    kwargs = dict(nmax=3, alpha_max=1, beta_max=0, masses_m=(F(0), F(1)),
                  masses_n=(F(0), F(1)), seed=3, trials=2)
    for name in SUITE_NAMES + ("all",):
        serial = run_suite(name, threads=1, **kwargs)
        parallel = run_suite(name, threads=4, **kwargs)
        assert serial.to_json() == parallel.to_json(), name


def test_symmetry_child_seeds_distinct_on_wide_mass_grid(monkeypatch):
    seen = []

    def record_seed(point):
        seen.append(point[3])
        return []

    monkeypatch.setattr(verify, "_symmetry_point", record_seed)
    masses = tuple(F(k) for k in range(11))
    run_suite("symmetry", alpha_max=1, beta_max=0, masses_m=masses, masses_n=masses,
              threads=1)
    assert len(seen) == 2 * 11 * 11
    assert len(set(seen)) == len(seen)


def test_thm21_subsumes_cor24_point():
    # the (0,0) grid point of the general suite covers the classical
    # special case checked independently by cor24
    pr = Params(0, 0, 1, 1)
    general = verify_theorem21(5, pr)
    special = verify_cor24(5, 1, 1)
    assert general.all_pass and special.all_pass
    gen_ns = {c.n for c in general.cases if c.label == "combined eigen-equation"}
    spec_ns = {c.n for c in special.cases if c.n is not None}
    assert spec_ns <= gen_ns
