"""Identity-verification suites.

A suite's grid point returns a list of :class:`Case`, each passing iff its
residual is exactly zero; only run_suite() builds a :class:`VerifyReport`.
Suite ids (thm21, prop22, prop23, cor24, cor25, duran, symmetry,
orthogonality) are stable CLI-facing names:

- thm21: the combined operator has gen_jacobi(n) as eigenfunctions, plus
  leading-coefficient and effective-order checks of the expanded operators.
- prop22: the four elementary eigen-equations for the P/Q/R/S blocks and
  the two repeated-derivative chain identities behind them.
- prop23: factorized-form eigen-equations and factorized-vs-elementary
  agreement on divisible monomial probes.
- cor24: the literal sixth-order equation at alpha = beta = 0.
- cor25: the five mixed cross identities between blocks.
- duran: the alternative product form of the operator of the mass at x = -1.
- symmetry: the operator-vs-bilinear-form pairings, boundary closed forms,
  and the symmetry defect of the combined operator on random inputs; the
  pairings and closed forms, free of the masses, contract each random pair
  with the integer defect matrices of its (alpha, beta), built once.
- orthogonality: Gram off-diagonals, diagonal positivity, eigenvalue
  monotonicity, and the eigenvalue-gap orthogonality chain.

Randomized suites draw from a splitmix64 stream (documented in the README)
so runs are reproducible from (grid, seed) alone.  run_suite() builds each
mass point's Params once, before any suite runs, and the suites share it and
label its cases from it (report.point_str).  One table maps each suite name
to its grid points, each a (key, worker, args) triple keyed by the point's
(alpha, beta); the points of all the suites run grouped by key, largest
alpha + beta first, so the points of one (alpha, beta) share its cached
operator columns: serially, or in one process pool under GENJACOBI_THREADS
when there is more than one group (the pool is imported only then).  A group
returns its cases as plain tuples, and the runner rebuilds them in point
order whatever order the groups ran in, so the report is the same regardless
of parallelism.
"""
from __future__ import annotations

import os
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import lcm

from .algebra import (InvalidParam, Poly, X2_MINUS_1, X_MINUS_1, X_PLUS_1,
                      endpoint_weight, format_rational, nonneg_int, pochhammer)
from .genjacobi import Params, coeff_q, gen_jacobi
from .inner import gram_matrix, mass_constant_identity, pairing_defects, symmetry_defect
from .jacobi import jacobi_poly
from .operators import (apply_combined, apply_duran, apply_factorized,
                        components, const_b, const_c, eigen_combined, eigen_residual,
                        top_term)
from .report import Case, VerifyReport, params_str, point_str

DEFAULT_NMAX = 12
DEFAULT_ALPHA_MAX = 3
DEFAULT_BETA_MAX = 3
DEFAULT_MASSES = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2))
DEFAULT_TRIALS = 5
DEFAULT_SEED = 0

_MASK64 = (1 << 64) - 1


def _seed(seed) -> int:
    """seed, if it is an int (negative ints are valid, bools are not); else
    InvalidParam."""
    if type(seed) is not int:
        raise InvalidParam(f"seed must be an int, got {reprlib.repr(seed)}")
    return seed


class SplitMix64:
    """Deterministic 64-bit mixing generator (splitmix64).

    state += 0x9E3779B97F4A7C15; the output mixes the new state with
    xor-shifts by 30/27/31 and multipliers 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB.  Chosen for a tiny, well-known, exactly
    reproducible implementation; statistical quality far exceeds what
    coefficient sampling needs.
    """

    def __init__(self, seed: int):
        self.state = _seed(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi] (modulo reduction); InvalidParam
        when the range is empty."""
        if hi < lo:
            raise InvalidParam(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def random_poly(rng: SplitMix64, degmax: int) -> Poly:
    """Random rational polynomial: degree uniform in [0, degmax],
    coefficients p/q with |p| <= 20 and 1 <= q <= 10, drawn p first, from
    the constant term up."""
    deg = rng.randint(0, nonneg_int("degmax", degmax))
    # randint(-20, 20) and randint(1, 10), their arithmetic inlined: the same draws
    draw = rng.next_u64
    pairs = [(draw() % 41 - 20, draw() % 10 + 1) for _ in range(deg + 1)]
    den = lcm(*(q for _, q in pairs))
    return Poly._norm([p * (den // q) for p, q in pairs], den)


def _point_seed(seed: int, index: int) -> int:
    """Independent child seed per grid point, stable across run orders."""
    return SplitMix64((seed ^ (index * 0x9E3779B97F4A7C15)) & _MASK64).next_u64()


# ---------------- combined eigen-equation suite ----------------

def _thm21_point(nmax: int, params: Params) -> list:
    """The combined eigen-equation cases, n = 0..nmax, of one mass point."""
    pstr = point_str(params)
    cases = []
    for n in range(nmax + 1):
        y = gen_jacobi(n, params)
        res = eigen_residual(apply_combined(y, params), eigen_combined(n, params).value, y)
        cases.append(Case.check("combined eigen-equation", pstr, n, res))
    return cases


def _expansion_cases(alpha: int, beta: int) -> list:
    """Each elementary operator has its order, with top coefficient
    (x^2-1)^(order/2); both read from its top term alone.  An operator with
    no nonzero term fails both, with residuals -order and -(x^2-1)^(order/2)."""
    pstr = params_str(alpha=alpha, beta=beta)
    probe = Params(alpha, beta)
    cases = []
    for row in components(alpha, beta):
        order, top = top_term(row.kind, probe)
        half = row.order // 2
        cases.append(Case.check(f"effective order of {row.name} operator", pstr, None,
                                Fraction(order - row.order)))
        cases.append(Case.check(f"top coefficient of {row.name} operator", pstr, None,
                                top - endpoint_weight(half, half)))
    return cases


# ---------------- elementary eigen-equations suite ----------------

# the chain identities behind the two-mass eigen-equation; they relate
# repeated derivatives of weighted blocks across parameter shifts
_CHAINS = ("raised-weight derivative chain",
           "swapped-weight derivative chain, second-derivative form",
           "swapped-weight derivative chain, raised-parameter form")


def verify_prop22(nmax: int, alpha: int, beta: int) -> list:
    """Eigen-equations of the four blocks and the derivative chains."""
    a, b = alpha, beta
    nonneg_int("nmax", nmax)
    pstr = params_str(alpha=a, beta=b)
    cases = []
    table = components(a, b)
    for n in range(nmax + 1):
        for row in table:
            res = row.minus_eigen(n, a, b)(row.poly(n, a, b))
            cases.append(Case.check(f"{row.name} eigen-equation", pstr, n, res))
        if n < 2:
            cases.extend(Case.skip(label, pstr, n, "needs n >= 2") for label in _CHAINS)
            continue
        raised = (endpoint_weight(a + 2, b + 2)
                  * jacobi_poly(n - 2, a + 2, b + 2)).derive(a + b + 3)
        swapped = (endpoint_weight(b + 1, a + 1)
                   * jacobi_poly(n - 1, b + 1, a + 1)).derive(a + b + 3)
        mid = 2 * pochhammer(n, a + b + 1) * jacobi_poly(n, a, b).derive(2)
        residuals = (
            raised - 2 * pochhammer(n - 1, a + b + 3) * jacobi_poly(n - 1, b + 1, a + 1),
            swapped - mid,
            mid - Fraction(1, 2) * pochhammer(n, a + b + 3) * jacobi_poly(n - 2, a + 2, b + 2))
        for label, res in zip(_CHAINS, residuals):
            cases.append(Case.check(label, pstr, n, res))
    return cases


# ---------------- factorized forms suite ----------------

def verify_prop23(nmax: int, alpha: int, beta: int) -> list:
    """Factorized eigen-equations and factorized = elementary on probes."""
    a, b = alpha, beta
    nonneg_int("nmax", nmax)
    pstr = params_str(alpha=a, beta=b)
    cases = []
    higher = components(a, b)[1:]
    for n in range(1, nmax + 1):
        for row in higher:
            y = row.poly(n, a, b)
            res = eigen_residual(apply_factorized(row.factorized, y, a, b), row.eigen(n), y)
            cases.append(Case.check(f"factorized eigen-equation, {row.where} block",
                                    pstr, n, res))
    for row in higher:
        for k in range(row.order + 5):
            y = row.factor * Poly.monomial(k)
            res = apply_factorized(row.factorized, y, a, b) - row.apply(y, a, b)
            cases.append(Case.check(f"factorized matches elementary, kind {row.factorized}",
                                    pstr, k, res))
    # each annihilates the polynomials of degree below its factor's
    kernels = (("constants", Poly.one()), ("linear polynomials", Poly([3, -2])))
    for row in higher:
        what, y = kernels[row.factor.degree - 1]
        cases.append(Case.check(f"{row.name} operator annihilates {what}", pstr, None,
                                row.apply(y, a, b)))
    return cases


# ---------------- literal sixth-order equation suite ----------------

def verify_cor24(nmax: int, params: Params) -> list:
    """Literal sixth-order equation for the alpha = beta = 0 polynomials of
    params, a Params(0, 0, M, N)."""
    nonneg_int("nmax", nmax)
    M, N, pstr = params.M, params.N, point_str(params)
    cases = []
    for n in range(nmax + 1):
        y = gen_jacobi(n, params)
        lhs = (X2_MINUS_1 * y.derive()).derive()
        lhs = lhs + M / 2 * X_PLUS_1 * (endpoint_weight(2, 0)
                                        * (X_PLUS_1 * y).derive(2)).derive(2)
        lhs = lhs + N / 2 * X_MINUS_1 * (endpoint_weight(0, 2)
                                         * (X_MINUS_1 * y).derive(2)).derive(2)
        lhs = lhs + M * N / 3 * X2_MINUS_1 * (X2_MINUS_1
                                              * (X2_MINUS_1 * y).derive(3)).derive(3)
        scale = pochhammer(n, 2) * (1 + (M + N) / 2 * pochhammer(n, 2)
                                    + M * N / 3 * pochhammer(n - 1, 4))
        cases.append(Case.check("sixth-order equation, literal form", pstr, n,
                                lhs - scale * y))
    cases.append(Case.check("normalization constant b at (0,0)", pstr, None,
                            const_b(0, 0) - 2))
    cases.append(Case.check("normalization constant c at (0,0)", pstr, None,
                            const_c(0, 0) - 3))
    return cases


# ---------------- mixed cross identities suite ----------------

def verify_cor25(nmax: int, alpha: int, beta: int) -> list:
    """The five cross identities mixing the P/Q/R/S blocks."""
    a, b = alpha, beta
    nonneg_int("nmax", nmax)
    pstr = params_str(alpha=a, beta=b)
    cases = []
    table = components(a, b)
    _, inv_bq, inv_br, inv_c = (1 / row.norm for row in table)
    for n in range(nmax + 1):
        P, Q, R, S = (row.poly(n, a, b) for row in table)
        d2, dq, dr, ds = (row.minus_eigen(n, a, b) for row in table)
        cases.append(Case.check("cross identity P/Q", pstr, n, d2(Q) + inv_bq * dq(P)))
        cases.append(Case.check("cross identity P/R", pstr, n, d2(R) + inv_br * dr(P)))
        cases.append(Case.check("cross identity Q/S", pstr, n,
                                inv_bq * dq(S) + inv_c * ds(Q)))
        cases.append(Case.check("cross identity R/S", pstr, n,
                                inv_br * dr(S) + inv_c * ds(R)))
        cases.append(Case.check("four-term cross identity", pstr, n,
                                d2(S) + inv_bq * dq(R) + inv_br * dr(Q) + inv_c * ds(P)))
    return cases


# ---------------- alternative product form suite ----------------

def verify_duran(dmax: int, alpha: int, beta: int) -> list:
    """Product form of the operator of the mass at x = -1: monomial agreement,
    the two-term block identity, and the reduced eigen-equation at N = 0."""
    a, b = alpha, beta
    nonneg_int("dmax", dmax)
    pstr = params_str(alpha=a, beta=b)
    cases = []
    second, side = components(a, b)[:2]
    for k in range(dmax + 1):
        y = Poly.monomial(k)
        res = apply_duran(y, a, b) - side.apply(y, a, b)
        cases.append(Case.check("product form matches elementary on x^k", pstr, k, res))

    for n in range(1, 11):
        qn = coeff_q(n, a, b)
        lhs = qn * X_PLUS_1 * jacobi_poly(n - 1, a, b + 2)
        rhs = qn * (2 * (n + b + 1) * jacobi_poly(n - 1, a, b + 1)
                    + 2 * n * jacobi_poly(n, a, b + 1)) / (2 * n + a + b + 1)
        cases.append(Case.check("x+1 block as two-term Jacobi combination", pstr, n,
                                lhs - rhs))

    for params in (Params(a, b, 1), Params(a, b, Fraction(1, 3))):
        mstr = point_str(params)
        for n in range(11):
            y = gen_jacobi(n, params)
            lhs = (second.minus_eigen(n, a, b)(y) + params.M / side.norm
                   * eigen_residual(apply_duran(y, a, b), side.eigen(n), y))
            cases.append(Case.check("reduced eigen-equation via product form",
                                    mstr, n, lhs))
    return cases


# ---------------- symmetry suite ----------------

def _symmetry_point(trials: int, degmax: int, params: Params, seed: int) -> list:
    """The cases of one symmetry grid point: for each of `trials` random pairs
    (f, g) of degree <= degmax drawn from seed, the combined operator's
    symmetry defect, the four form pairings and the boundary closed forms;
    then the two routes to the mass normalization constant.  The pairings and
    closed forms are free of the masses: each pair contracts the defect
    matrices of its (alpha, beta), built once (inner.pairing_defects)."""
    nonneg_int("trials", trials, 1)
    nonneg_int("degmax", degmax)
    a, b = params.alpha, params.beta
    pstr = point_str(params)
    rng = SplitMix64(seed)
    table = components(a, b)
    defects = pairing_defects(a, b, degmax + 1)
    cases = []
    for n in range(trials):
        f = random_poly(rng, degmax)
        g = random_poly(rng, degmax)
        cases.append(Case.check("combined operator symmetry defect", pstr, n,
                                symmetry_defect(f, g, params)))
        for row, residual in zip(table, defects.pairing_residuals(f, g)):
            cases.append(Case.check(f"{row.name} form pairing", pstr, n, residual))
        cases.append(Case.check("boundary closed forms (8 values)", pstr, n,
                                defects.endpoint_defect(f)))
    direct, via_pos, via_neg = mass_constant_identity(a, b)
    cases.append(Case.check("mass normalization constant identity (+1 route)", pstr,
                            None, direct - via_pos))
    cases.append(Case.check("mass normalization constant identity (-1 route)", pstr,
                            None, direct - via_neg))
    return cases


def verify_symmetry(trials: int, degmax: int, params: Params,
                    seed: int) -> VerifyReport:
    """One symmetry grid point's cases as a report, its arguments as the grid."""
    grid = {"trials": str(trials), "degmax": str(degmax), **point_str(params)}
    return VerifyReport("symmetry", grid, seed, _symmetry_point(trials, degmax, params, seed))


# ---------------- orthogonality suite ----------------

def verify_orthogonality(nmax: int, params: Params) -> list:
    """Gram structure and eigenvalue monotonicity for one parameter point."""
    pstr = point_str(params)
    cases = []
    gram = gram_matrix(nmax, params)
    for i in range(nmax + 1):
        for j in range(i + 1, nmax + 1):
            cases.append(Case.check(f"gram entry ({i},{j})", pstr, None, gram[i][j]))
    for i in range(nmax + 1):
        cases.append(Case.holds("gram diagonal entry positive", pstr, i,
                                gram[i][i] > 0, gram[i][i]))
    lams = [eigen_combined(n, params).value for n in range(nmax + 6)]
    for n in range(nmax + 5):
        gap = lams[n + 1] - lams[n]
        cases.append(Case.holds("combined eigenvalue strictly increasing", pstr, n,
                                gap > 0, gap))
    # a zero gram entry is its own product: only a nonzero one is multiplied
    for i in range(nmax + 1):
        for j in range(i + 1, nmax + 1):
            cases.append(Case.check(f"eigen-gap times gram entry ({i},{j})", pstr, None,
                                    gram[i][j] and (lams[i] - lams[j]) * gram[i][j]))
    return cases


# ---------------- grid runners ----------------

def _thread_count(threads=None) -> int:
    """`threads` (an int), else GENJACOBI_THREADS (a decimal string), else 1,
    clamped to the CPU count; anything but a positive integer raises
    InvalidParam."""
    name, count = "threads", threads
    if threads is None:
        name, threads = "GENJACOBI_THREADS", os.environ.get("GENJACOBI_THREADS") or "1"
        try:
            count = int(threads) if threads.isdecimal() else 0
        except ValueError:      # more digits than int() will parse
            count = 0
    if type(count) is not int or count < 1:
        raise InvalidParam(f"{name} must be a positive integer, "
                           f"got {reprlib.repr(threads)}")
    return min(count, os.cpu_count() or 1)


@dataclass
class _Grid:
    """The parameter grid of one run_suite call; it builds (and so checks)
    the Params of each mass point once, for every suite to share."""

    nmax: int
    seed: int
    trials: int
    ab: list            # (alpha, beta) pairs
    masses: list        # (M, N) pairs

    def __post_init__(self):
        self.params = [Params(a, b, M, N) for a, b in self.ab for M, N in self.masses]


# Suite name -> the grid points of that suite, each a (key, worker, args)
# triple that runs as worker(*args).  The key is the point's (alpha, beta),
# (0, 0) for cor24; points that share a key share the cached operator
# columns and polynomials, so they run together.  Workers are looked up
# when the points are built, not here, so a rebound module attribute takes
# effect.
_SUITES = {
    "thm21": lambda g: (
        [((p.alpha, p.beta), _thm21_point, (g.nmax, p)) for p in g.params]
        + [((a, b), _expansion_cases, (a, b)) for a, b in g.ab]),
    "prop22": lambda g: [((a, b), verify_prop22, (g.nmax, a, b)) for a, b in g.ab],
    "prop23": lambda g: [((a, b), verify_prop23, (g.nmax, a, b)) for a, b in g.ab],
    "cor24": lambda g: [((0, 0), verify_cor24, (min(g.nmax, 10), p))
                        for p in g.params if (p.alpha, p.beta) == (0, 0)],
    "cor25": lambda g: [((a, b), verify_cor25, (min(g.nmax, 10), a, b))
                        for a, b in g.ab],
    "duran": lambda g: [((a, b), verify_duran, (2 * b + 8, a, b)) for a, b in g.ab],
    "symmetry": lambda g: [
        ((p.alpha, p.beta), _symmetry_point,
         (g.trials, 2 * p.alpha + 2 * p.beta + 8, p, _point_seed(g.seed, index)))
        for index, p in enumerate(g.params)],
    "orthogonality": lambda g: [((p.alpha, p.beta), verify_orthogonality,
                                 (min(g.nmax, 10), p)) for p in g.params],
}
SUITE_NAMES = tuple(_SUITES)


def _run_task(task) -> list:
    """(index, rows) of each (index, (label prefix, worker, args)) point of
    one task, in order; runs in a pool too.  A row is a case as a plain tuple
    in Case field order, which pickle writes without a Python call, and each
    distinct label is one object per task, which pickle writes once."""
    labels = {}
    done = []
    for index, (prefix, worker, args) in task:
        own = labels.setdefault(prefix, {})
        rows = [(own.get(c[0]) or own.setdefault(c[0], prefix + c[0]),) + c[1:]
                for c in worker(*args)]
        done.append((index, rows))
    return done


def _tasks(points) -> list:
    """The (key, point) list as tasks of (index, point) pairs: one task per
    key, largest alpha + beta first (operator order and cost grow with it)."""
    groups = {}
    for index, (key, point) in enumerate(points):
        groups.setdefault(key, []).append((index, point))
    return [groups[key] for key in sorted(groups, key=lambda key: -sum(key))]


# The pool class, imported on first use, so that a serial run never loads
# multiprocessing; the tests and the benchmark's tracer rebind it.
ProcessPoolExecutor = None


def _map_points(points, threads: int) -> list:
    """The cases of every (key, point), concatenated in point order whatever
    order the tasks ran in; a single task runs serially."""
    tasks = _tasks(points)
    if threads > 1 and len(tasks) > 1:
        pool = ProcessPoolExecutor
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor as pool
        with pool(max_workers=threads) as ex:
            return _cases(ex.map(_run_task, tasks), len(points))
    return _cases(map(_run_task, tasks), len(points))


def _cases(done, count: int) -> list:
    """The Cases of `count` points in point order, from the tasks' rows; each
    task's Cases are rebuilt as it arrives, so its rows go before the next
    task's come."""
    chunks = [None] * count
    make = partial(tuple.__new__, Case)     # Case._make without its Python frame
    for task in done:
        for index, rows in task:
            chunks[index] = list(map(make, rows))
    return list(chain.from_iterable(chunks))


def run_suite(name: str, *, nmax: int = DEFAULT_NMAX,
              alpha_max: int = DEFAULT_ALPHA_MAX,
              beta_max: int = DEFAULT_BETA_MAX,
              masses_m=DEFAULT_MASSES, masses_n=DEFAULT_MASSES,
              seed: int = DEFAULT_SEED,
              trials: int = DEFAULT_TRIALS, threads=None) -> VerifyReport:
    """Run one suite (or 'all') over the parameter grid, merged into a
    single report.  Deterministic given the grid and seed.

    The grid points of the suite (of every suite in SUITE_NAMES order for
    'all', labels prefixed "<suite>: ") run grouped by (alpha, beta),
    serially or in one process pool of `threads` workers (default
    GENJACOBI_THREADS), and their cases are emitted in point order.

    masses_m / masses_n are the grids of the masses at x = -1 and x = +1.
    A grid bound that is not a nonnegative int, a `trials` or `threads`
    that is not a positive int, a `seed` that is not an int (negative ints
    are valid), an empty or str mass axis, or a mass that is not an exact
    rational >= 0 (whatever the suite) raises InvalidParam.
    """
    if isinstance(masses_m, str) or isinstance(masses_n, str):
        raise InvalidParam("a mass axis is a sequence of masses, not a str")
    masses_m, masses_n = tuple(masses_m), tuple(masses_n)
    for key, bound in (("nmax", nmax), ("alpha_max", alpha_max), ("beta_max", beta_max)):
        nonneg_int(key, bound)
    nonneg_int("trials", trials, 1)
    if not masses_m or not masses_n:
        raise InvalidParam("each mass axis needs at least one mass")
    _seed(seed)
    grid = {"nmax": str(nmax), "alpha_max": str(alpha_max),
            "beta_max": str(beta_max),
            "masses_m": ",".join(map(format_rational, masses_m)),
            "masses_n": ",".join(map(format_rational, masses_n))}
    threads = _thread_count(threads)
    if name != "all" and name not in _SUITES:
        raise InvalidParam(f"unknown suite {name!r}; choose from "
                           f"{SUITE_NAMES + ('all',)}")

    g = _Grid(nmax, seed, trials,
              ab=[(a, b) for a in range(alpha_max + 1) for b in range(beta_max + 1)],
              masses=[(M, N) for M in masses_m for N in masses_n])
    subs = SUITE_NAMES if name == "all" else (name,)
    points = [(key, (f"{sub}: " if name == "all" else "", worker, args))
              for sub in subs for key, worker, args in _SUITES[sub](g)]
    return VerifyReport(name, grid=grid, seed=seed,
                        cases=_map_points(points, threads))
