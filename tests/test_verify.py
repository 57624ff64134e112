"""Verification suites: pass on correct builds, fail on corrupted ones."""
import csv
import hashlib
import importlib.util
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import genjacobi as gj
import genjacobi.operators as operators
import genjacobi.verify as verify
from genjacobi.algebra import InvalidParam, Poly, endpoint_weight
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


def test_splitmix64_randint_rejects_an_empty_range():
    rng = SplitMix64(0)
    for lo, hi in ((3, 1), (3, 2), (0, -1)):
        with pytest.raises(InvalidParam):
            rng.randint(lo, hi)
    assert rng.state == SplitMix64(0).state     # refused before drawing
    assert rng.randint(3, 3) == 3


def test_random_poly_checks_degmax():
    for degmax in (-1, 2.0, True):
        with pytest.raises(InvalidParam):
            random_poly(SplitMix64(0), degmax)
    assert random_poly(SplitMix64(0), 0).degree == 0


def test_splitmix64_refuses_a_seed_that_is_not_an_int():
    for seed in (1.5, True, False, "3", None, F(2)):
        with pytest.raises(InvalidParam):
            SplitMix64(seed)
        with pytest.raises(InvalidParam):
            verify_symmetry(1, 2, Params(), seed)
    assert SplitMix64(-1).state == SplitMix64((1 << 64) - 1).state


def _random_poly_by_fractions(rng: SplitMix64, degmax: int) -> Poly:
    # the draw through Fraction coefficients, kept as the oracle
    deg = rng.randint(0, degmax)
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 10))
              for _ in range(deg + 1)]
    return Poly(coeffs)


def test_random_poly_matches_the_fraction_route():
    for seed in (0, 1, 99, -5):
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        for degmax in (0, 0, 1, 2, 5, 14, 30) * 8:
            got = random_poly(rng, degmax)
            want = _random_poly_by_fractions(oracle, degmax)
            assert (got.nums, got.den) == (want.nums, want.den)
            assert rng.state == oracle.state


def test_default_grid_draws_are_pinned():
    # a passing case renders "0" whatever f and g were, so the report digest
    # does not see the draws; this pins them at seed 0, one line per pair
    grid = verify._Grid(verify.DEFAULT_NMAX, 0, verify.DEFAULT_TRIALS,
                        ab=[(a, b) for a in range(4) for b in range(4)],
                        masses=[(M, N) for M in verify.DEFAULT_MASSES
                                for N in verify.DEFAULT_MASSES])
    lines = []
    for index, (_, _, (trials, degmax, _, seed)) in enumerate(verify._SUITES["symmetry"](grid)):
        rng = SplitMix64(seed)
        for t in range(trials):
            f, g = random_poly(rng, degmax), random_poly(rng, degmax)
            lines.append(f"{index} {t} {f} {g}")
    assert len(lines) == 1280
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fb9c232b877e977c1028201f976095b45b1fafc8e64cd0e689b557ad3ab3f9c4"


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
    expected = []
    for sub in SUITE_NAMES:
        own = run_suite(sub, nmax=2, alpha_max=0, beta_max=0,
                        masses_m=(F(1),), masses_n=(F(1),), seed=0, trials=1)
        expected += [c._replace(label=f"{sub}: {c.label}") for c in own.cases]
    assert rep.cases == expected


def test_run_suite_all_opens_one_pool(monkeypatch):
    opened = []

    class CountingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # two (alpha, beta) pairs and two masses: every suite has several points
    rep = run_suite("all", nmax=1, alpha_max=1, beta_max=0,
                    masses_m=(F(0), F(1)), masses_n=(F(1),), seed=0, trials=1, threads=2)
    assert rep.all_pass
    assert opened == [2]


@pytest.mark.parametrize("threads", [0, -1, 1.5, True, "2x", "2"])
def test_run_suite_rejects_a_bad_thread_count(threads):
    with pytest.raises(InvalidParam, match="threads must be a positive integer"):
        run_suite("cor24", nmax=1, alpha_max=0, beta_max=0, threads=threads)


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
    # bounds that are not ints: True used to run as nmax 1, the rest raised TypeError
    ("thm21", dict(nmax=True)),
    ("thm21", dict(nmax=2.5)),
    ("thm21", dict(alpha_max=1.0)),
    ("thm21", dict(beta_max=F(1))),
    ("thm21", dict(nmax="3")),
    ("symmetry", dict(trials=True)),
    ("symmetry", dict(trials=1.5)),
    # seeds that are not ints: True ran and echoed "seed": true, the rest
    # raised TypeError
    ("symmetry", dict(seed=True)),
    ("symmetry", dict(seed=2.5)),
    ("symmetry", dict(seed="3")),
])
def test_run_suite_rejects_grids_that_check_nothing(name, grid):
    with pytest.raises(InvalidParam):
        run_suite(name, threads=1, **grid)


_P = Params(1, 0, F(1), F(1))


def _on_warm_cache(p, q):
    """endpoint_weight(p, q) once the entries that True and 2.0 equal, an
    exponent of 1 or 2 in either slot, are cached."""
    for k in (1, 2):
        endpoint_weight(k, 1), endpoint_weight(1, k)
    return endpoint_weight(p, q)


# every polynomial index, length, grid bound and count: argument -> (a call
# with that argument set to v, the least value it takes)
_INDEX_ARGS = {
    "pochhammer k": (lambda v: gj.pochhammer(1, v), 0),
    "endpoint_weight p": (lambda v: _on_warm_cache(v, 1), 0),
    "endpoint_weight q": (lambda v: _on_warm_cache(1, v), 0),
    "jacobi_poly n": (lambda v: gj.jacobi_poly(v, 0, 0), 0),
    "jacobi_recurrence n": (lambda v: gj.jacobi_recurrence(v, 0, 0), 0),
    "coeff_q n": (lambda v: gj.coeff_q(v, 1, 0), 1),
    "coeff_r n": (lambda v: gj.coeff_r(v, 1, 0), 1),
    "coeff_s n": (lambda v: gj.coeff_s(v, 1, 0), 2),
    "poly_Q n": (lambda v: gj.poly_Q(v, 1, 0), 0),
    "poly_R n": (lambda v: gj.poly_R(v, 1, 0), 0),
    "poly_S n": (lambda v: gj.poly_S(v, 1, 0), 0),
    "gen_jacobi n": (lambda v: gj.gen_jacobi(v, _P), 0),
    "gram_matrix nmax": (lambda v: gj.gram_matrix(v, _P), 0),
    "eigen_lambda2 n": (lambda v: gj.eigen_lambda2(v, 1, 0), 0),
    "eigen_high side n": (lambda v: gj.eigen_high("side", v, 1, 0), 0),
    "eigen_high full n": (lambda v: gj.eigen_high("full", v, 1, 0), 0),
    "eigen_combined n": (lambda v: gj.eigen_combined(v, _P), 0),
    "verify_theorem21 nmax": (lambda v: verify_theorem21(v, _P), 0),
    "verify_prop22 nmax": (lambda v: verify_prop22(v, 1, 0), 0),
    "verify_prop23 nmax": (lambda v: verify_prop23(v, 1, 0), 0),
    "verify_cor24 nmax": (lambda v: verify_cor24(v, 1, 1), 0),
    "verify_cor25 nmax": (lambda v: verify_cor25(v, 1, 0), 0),
    "verify_duran dmax": (lambda v: verify_duran(v, 1, 0), 0),
    "verify_symmetry trials": (lambda v: verify_symmetry(v, 2, _P, 1), 1),
    "verify_symmetry degmax": (lambda v: verify_symmetry(1, v, _P, 1), 0),
    "run_suite trials": (lambda v: run_suite("cor24", nmax=0, alpha_max=0, beta_max=0,
                                             trials=v, threads=1), 1),
}


@pytest.mark.parametrize("bad", [-1, 2.0, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("arg", _INDEX_ARGS)
def test_every_index_and_count_is_a_checked_int(arg, bad):
    # one check (algebra.nonneg_int) for all of them: a bad value raises
    # InvalidParam, never TypeError, a silent empty result or a bool's answer
    call, least = _INDEX_ARGS[arg]
    call(least)
    for value in (bad, least - 1):
        with pytest.raises(InvalidParam):
            call(value)


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
    real = operators.poly_Q

    def bad(n, a, b):
        p = real(n, a, b)
        return p + Poly([0, F(1, 7)]) if n == 2 else p

    monkeypatch.setattr(operators, "poly_Q", bad)
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


def test_run_suite_parallel_matches_serial(monkeypatch):
    # a 2-process pool runs even on a 1-CPU host
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    opened = []

    def pool(max_workers):
        opened.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", pool)
    masses = (F(0), F(1))
    # (alpha_max, beta_max) and the keys of its tasks, largest alpha + beta
    # first: 4 groups, 2 groups (one per worker), and 1 group, which runs
    # serially
    for alpha_max, beta_max, keys in ((1, 1, [(1, 1), (0, 1), (1, 0), (0, 0)]),
                                      (1, 0, [(1, 0), (0, 0)]),
                                      (0, 0, [(0, 0)])):
        ab = [(a, b) for a in range(alpha_max + 1) for b in range(beta_max + 1)]
        grid = verify._Grid(3, 3, 2, ab=ab,
                            masses=[(M, N) for M in masses for N in masses])
        points = [(key, ("", worker, args)) for name in SUITE_NAMES
                  for key, worker, args in verify._SUITES[name](grid)]
        tasks = verify._tasks(points)
        assert sorted(i for task in tasks for i, _ in task) == list(range(len(points)))
        assert [points[task[0][0]][0] for task in tasks] == keys
        assert all(points[i][0] == points[task[0][0]][0] for task in tasks for i, _ in task)
        # two masses, so every suite, cor24 included, has more than one point
        kwargs = dict(nmax=3, alpha_max=alpha_max, beta_max=beta_max,
                      masses_m=masses, masses_n=masses, seed=3, trials=2)
        for name in SUITE_NAMES + ("all",):
            opened.clear()
            serial = run_suite(name, threads=1, **kwargs)
            parallel = run_suite(name, threads=2, **kwargs)
            assert serial.to_json() == parallel.to_json(), (name, alpha_max)
            # cor24 points all share the key (0, 0)
            assert opened == ([2] if len(keys) > 1 and name != "cor24" else []), \
                (name, alpha_max)


def test_thm21_probes_each_operator_once_per_pair():
    # 16 (alpha, beta) pairs hold more column lists than the cache keeps; each
    # pair's expansion points run next to its eigen points, so each of the
    # four kinds is probed once per pair, not again after an eviction
    operators._column_list.cache_clear()
    operators._combined_entry.cache_clear()
    rep = run_suite("thm21", nmax=2, alpha_max=3, beta_max=3,
                    masses_m=(F(1),), masses_n=(F(1),), threads=1)
    assert rep.all_pass
    assert operators._column_list.cache_info().misses == 4 * 16


def test_run_suite_accepts_a_negative_seed():
    rep = run_suite("symmetry", nmax=1, alpha_max=0, beta_max=0,
                    masses_m=(F(1),), masses_n=(F(1),), trials=1, seed=-5, threads=1)
    assert rep.all_pass
    assert json.loads(rep.to_json())["seed"] == -5


def test_symmetry_child_seeds_distinct_on_wide_mass_grid(monkeypatch):
    seen = []

    def record_seed(trials, degmax, params, seed):
        seen.append(seed)
        return []

    monkeypatch.setattr(verify, "_symmetry_point", record_seed)
    masses = tuple(F(k) for k in range(11))
    run_suite("symmetry", alpha_max=1, beta_max=0, masses_m=masses, masses_n=masses,
              threads=1)
    assert len(seen) == 2 * 11 * 11
    assert len(set(seen)) == len(seen)


def test_tracer_point_workers_are_the_suite_workers():
    # perfbench/tracer.py counts the points of each suite by rebinding the
    # worker it names; a point routed around that worker would count zero
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = {suite: (module, attr) for module, attr, suite in tracer.POINT_WORKERS}
    assert set(named) == set(SUITE_NAMES)
    grid = verify._Grid(2, 0, 1, ab=[(a, b) for a in range(2) for b in range(2)],
                        masses=[(F(1), F(1))])
    for name in SUITE_NAMES:
        module, attr = named[name]
        assert module == "verify", name
        workers = [worker for _, worker, _ in verify._SUITES[name](grid)]
        assert getattr(verify, attr) in workers, name


def test_every_point_is_keyed_by_its_alpha_beta():
    # the runner groups points by key; a point under another pair's key would
    # run apart from the operator columns it shares with that pair
    grid = verify._Grid(2, 0, 1, ab=[(a, b) for a in range(3) for b in range(2)],
                        masses=[(F(1), F(2))])
    for name in SUITE_NAMES:
        for key, _, args in verify._SUITES[name](grid):
            params = [arg for arg in args if isinstance(arg, Params)]
            if name == "cor24":
                want = (0, 0)
            elif params:
                want = (params[0].alpha, params[0].beta)
            else:
                want = args[-2:]        # (..., alpha, beta)
            assert key == want, (name, args)


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
