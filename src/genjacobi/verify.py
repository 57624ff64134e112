"""Identity-verification suites.

Each suite evaluates a family of exact identities and returns a
:class:`VerifyReport` whose cases pass iff their residuals are exactly zero.
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
- duran: the alternative product form of the mass(-1) operator.
- symmetry: the operator-vs-bilinear-form pairings, boundary closed forms,
  and the symmetry defect of the combined operator on random inputs.
- orthogonality: Gram off-diagonals, diagonal positivity, eigenvalue
  monotonicity, and the eigenvalue-gap orthogonality chain.

verify_diff_identities checks the classical Jacobi derivative identities at
one point; it is a library call, not a suite of the grid runner.

Randomized suites draw from a splitmix64 stream (documented in the README)
so runs are reproducible from (grid, seed) alone.  run_suite() looks each
suite up in one table that maps its name to its grid points, each a (key,
worker, args) triple keyed by the point's (alpha, beta), and runs the points
of all its suites grouped by key, largest alpha + beta first, so the points
of one (alpha, beta) share its cached operator columns: serially, or in one
process pool under GENJACOBI_THREADS when there is more than one group.
Cases are emitted in point order
whatever order the groups ran in, so the report is the same regardless of
parallelism.
"""
from __future__ import annotations

import os
import reprlib
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .algebra import (InvalidParam, Poly, RationalLike, X2_MINUS_1, X_MINUS_1,
                      X_PLUS_1, as_rational, endpoint_weight, nonneg_int, pochhammer)
from .genjacobi import Params, coeff_q, gen_jacobi
from .inner import (bilinear_U, bilinear_V, bilinear_Vt, bilinear_W,
                    boundary_closed_forms, gram_matrix, inner_products,
                    mass_constant_identity, symmetry_defect)
from .jacobi import jacobi_poly
from .operators import (_image, apply_combined, apply_duran, apply_factorized,
                        components, const_b, const_c, eigen_combined, expand_operator)
from .report import Case, VerifyReport, params_str

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
    pairs = [(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(deg + 1)]
    den = lcm(*(q for _, q in pairs))
    return Poly._norm([p * (den // q) for p, q in pairs], den)


def _point_seed(seed: int, index: int) -> int:
    """Independent child seed per grid point, stable across run orders."""
    return SplitMix64((seed ^ (index * 0x9E3779B97F4A7C15)) & _MASK64).next_u64()


# ---------------- classical Jacobi derivative identities ----------------

def verify_diff_identities(n: int, gamma: RationalLike, delta: RationalLike) -> VerifyReport:
    """Check the four derivative/parameter-shift identities at one point.

    Each identity is checked in cofactor form: the common weight factor
    (x-1)^(gamma-1) (x+1)^(delta-1) is stripped from both sides first, so the
    check stays inside exact polynomial arithmetic even for fractional
    parameters.  Identities whose parameter constraint fails are recorded as
    skipped with the violated constraint.
    """
    g, d = as_rational(gamma), as_rational(delta)
    pstr = params_str(gamma=g, delta=d)
    report = VerifyReport("diff-identities", grid={"n": str(n), **pstr})
    P = jacobi_poly(n, g, d)
    dP = P.derive()

    # plain derivative: lowers the degree, raises both parameters
    rhs = jacobi_poly(n - 1, g + 1, d + 1) if n >= 1 else Poly.zero()
    res = dP - Fraction(n + g + d + 1, 2) * rhs
    report.add(Case.check("derivative raises both parameters", pstr, n, res))

    # (label, precondition, reason it fails, residual): the derivative of the
    # fully weighted polynomial (raises the degree, lowers both parameters),
    # then through the (x-1)^gamma and the (x+1)^delta factor alone
    weighted = (
        ("weighted derivative, both endpoint factors", g > 0 and d > 0,
         "needs gamma > 0 and delta > 0",
         lambda: (g * X_PLUS_1 * P + d * X_MINUS_1 * P + X2_MINUS_1 * dP
                  - 2 * (n + 1) * jacobi_poly(n + 1, g - 1, d - 1))),
        ("weighted derivative, x=1 factor", g > 0, "needs gamma > 0",
         lambda: g * P + X_MINUS_1 * dP - (n + g) * jacobi_poly(n, g - 1, d + 1)),
        ("weighted derivative, x=-1 factor", d > 0, "needs delta > 0",
         lambda: d * P + X_PLUS_1 * dP - (n + d) * jacobi_poly(n, g + 1, d - 1)),
    )
    for label, holds, reason, residual in weighted:
        report.add(Case.check(label, pstr, n, residual()) if holds
                   else Case.skip(label, pstr, n, reason))
    return report


# ---------------- combined eigen-equation suite ----------------

def _thm21_point(nmax: int, params: Params) -> list:
    """Combined eigen-equation cases of one grid point (the tracer counts this name)."""
    pstr = params_str(alpha=params.alpha, beta=params.beta, M=params.M, N=params.N)
    cases = []
    for n in range(nmax + 1):
        y = gen_jacobi(n, params)
        res = apply_combined(y, params) - eigen_combined(n, params).value * y
        cases.append(Case.check("combined eigen-equation", pstr, n, res))
    return cases


def _expansion_cases(alpha: int, beta: int) -> list:
    """Each elementary operator has its order, with top coefficient
    (x^2-1)^(order/2)."""
    pstr = params_str(alpha=alpha, beta=beta)
    probe = Params(alpha, beta)
    cases = []
    for row in components(alpha, beta):
        op = expand_operator(row.kind, probe)
        half = row.order // 2
        cases.append(Case.check(f"effective order of {row.name} operator", pstr, None,
                                Fraction(op.effective_order - row.order)))
        cases.append(Case.check(f"top coefficient of {row.name} operator", pstr, None,
                                op.terms[-1][1] - endpoint_weight(half, half)))
    return cases


def verify_theorem21(nmax: int, params: Params) -> VerifyReport:
    """Combined eigen-equation for n <= nmax, plus expansion checks."""
    nonneg_int("nmax", nmax)
    report = VerifyReport("thm21", grid={"nmax": str(nmax)})
    report.extend(_thm21_point(nmax, params))
    report.extend(_expansion_cases(params.alpha, params.beta))
    return report


# ---------------- elementary eigen-equations suite ----------------

# the chain identities behind the two-mass eigen-equation; they relate
# repeated derivatives of weighted blocks across parameter shifts
_CHAINS = ("raised-weight derivative chain",
           "swapped-weight derivative chain, second-derivative form",
           "swapped-weight derivative chain, raised-parameter form")


def verify_prop22(nmax: int, alpha: int, beta: int) -> VerifyReport:
    """Eigen-equations of the four blocks and the derivative chains."""
    a, b = alpha, beta
    nonneg_int("nmax", nmax)
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("prop22", grid={"nmax": str(nmax), **pstr})
    table = components(a, b)
    for n in range(nmax + 1):
        for row in table:
            res = row.minus_eigen(n, a, b)(row.poly(n, a, b))
            report.add(Case.check(f"{row.name} eigen-equation", pstr, n, res))
        if n < 2:
            report.extend(Case.skip(label, pstr, n, "needs n >= 2") for label in _CHAINS)
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
            report.add(Case.check(label, pstr, n, res))
    return report


# ---------------- factorized forms suite ----------------

def verify_prop23(nmax: int, alpha: int, beta: int) -> VerifyReport:
    """Factorized eigen-equations and factorized = elementary on probes."""
    a, b = alpha, beta
    nonneg_int("nmax", nmax)
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("prop23", grid={"nmax": str(nmax), **pstr})
    higher = components(a, b)[1:]
    for n in range(1, nmax + 1):
        for row in higher:
            y = row.poly(n, a, b)
            res = apply_factorized(row.factorized, y, a, b) - row.eigen(n) * y
            report.add(Case.check(f"factorized eigen-equation, {row.where} block",
                                  pstr, n, res))
    for row in higher:
        for k in range(row.order + 5):
            y = row.factor * Poly.monomial(k)
            res = apply_factorized(row.factorized, y, a, b) - row.apply(y, a, b)
            report.add(Case.check(f"factorized matches elementary, kind {row.factorized}",
                                  pstr, k, res))
    # each annihilates the polynomials of degree below its factor's
    kernels = (("constants", Poly.one()), ("linear polynomials", Poly([3, -2])))
    for row in higher:
        what, y = kernels[row.factor.degree - 1]
        report.add(Case.check(f"{row.name} operator annihilates {what}", pstr, None,
                              row.apply(y, a, b)))
    return report


# ---------------- literal sixth-order equation suite ----------------

def verify_cor24(nmax: int, M: RationalLike, N: RationalLike) -> VerifyReport:
    """Literal sixth-order equation for the alpha = beta = 0 polynomials."""
    nonneg_int("nmax", nmax)
    M, N = as_rational(M), as_rational(N)
    params = Params(0, 0, M, N)
    pstr = params_str(alpha=0, beta=0, M=M, N=N)
    report = VerifyReport("cor24", grid={"nmax": str(nmax), **pstr})
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
        report.add(Case.check("sixth-order equation, literal form", pstr, n,
                              lhs - scale * y))
    report.add(Case.check("normalization constant b at (0,0)", pstr, None,
                          const_b(0, 0) - 2))
    report.add(Case.check("normalization constant c at (0,0)", pstr, None,
                          const_c(0, 0) - 3))
    return report


# ---------------- mixed cross identities suite ----------------

def verify_cor25(nmax: int, alpha: int, beta: int) -> VerifyReport:
    """The five cross identities mixing the P/Q/R/S blocks."""
    a, b = alpha, beta
    nonneg_int("nmax", nmax)
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("cor25", grid={"nmax": str(nmax), **pstr})
    table = components(a, b)
    _, inv_bq, inv_br, inv_c = (1 / row.norm for row in table)
    for n in range(nmax + 1):
        P, Q, R, S = (row.poly(n, a, b) for row in table)
        d2, dq, dr, ds = (row.minus_eigen(n, a, b) for row in table)
        report.add(Case.check("cross identity P/Q", pstr, n, d2(Q) + inv_bq * dq(P)))
        report.add(Case.check("cross identity P/R", pstr, n, d2(R) + inv_br * dr(P)))
        report.add(Case.check("cross identity Q/S", pstr, n,
                              inv_bq * dq(S) + inv_c * ds(Q)))
        report.add(Case.check("cross identity R/S", pstr, n,
                              inv_br * dr(S) + inv_c * ds(R)))
        report.add(Case.check("four-term cross identity", pstr, n,
                              d2(S) + inv_bq * dq(R) + inv_br * dr(Q) + inv_c * ds(P)))
    return report


# ---------------- alternative product form suite ----------------

def verify_duran(dmax: int, alpha: int, beta: int) -> VerifyReport:
    """Product form of the mass(-1) operator: monomial agreement, the
    two-term block identity, and the reduced eigen-equation at N = 0."""
    a, b = alpha, beta
    nonneg_int("dmax", dmax)
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("duran", grid={"dmax": str(dmax), **pstr})
    second, side = components(a, b)[:2]
    for k in range(dmax + 1):
        y = Poly.monomial(k)
        res = apply_duran(y, a, b) - side.apply(y, a, b)
        report.add(Case.check("product form matches elementary on x^k", pstr, k, res))

    for n in range(1, 11):
        qn = coeff_q(n, a, b)
        lhs = qn * X_PLUS_1 * jacobi_poly(n - 1, a, b + 2)
        rhs = qn * (2 * (n + b + 1) * jacobi_poly(n - 1, a, b + 1)
                    + 2 * n * jacobi_poly(n, a, b + 1)) / (2 * n + a + b + 1)
        report.add(Case.check("x+1 block as two-term Jacobi combination", pstr, n,
                              lhs - rhs))

    for mass in (Fraction(1), Fraction(1, 3)):
        params = Params(a, b, mass, Fraction(0))
        mstr = params_str(alpha=a, beta=b, M=mass, N=0)
        for n in range(11):
            y = gen_jacobi(n, params)
            lhs = (second.minus_eigen(n, a, b)(y) + mass / side.norm
                   * (apply_duran(y, a, b) - side.eigen(n) * y))
            report.add(Case.check("reduced eigen-equation via product form",
                                  mstr, n, lhs))
    return report


# ---------------- symmetry suite ----------------

def _symmetry_pair_cases(f: Poly, g: Poly, params: Params, pstr: dict,
                         n: int) -> list:
    a, b = params.alpha, params.beta
    table = components(a, b)
    l2, lt, lh, lf = (_image(row.kind, f, a, b) for row in table)
    _, b_ba, b_ab, c_ab = (row.norm for row in table)
    want = boundary_closed_forms(f, a, b)
    g_neg, g_pos = g.eval(-1), g.eval(1)
    cases = [Case.check("combined operator symmetry defect", pstr, n,
                        symmetry_defect(f, g, params))]
    # (label, its symmetric form, boundary term) of the images of f in order;
    # the boundary terms are endpoint values of the lower-order operators,
    # in closed form.  The images are scored against g through one Hankel
    # product of the plain moment vector.
    pairings = (
        ("second-order form pairing", bilinear_U, 0),
        ("mass(-1) form pairing", bilinear_Vt, -b_ba * want.l2_neg1 * g_neg),
        ("mass(+1) form pairing", bilinear_V, -b_ab * want.l2_pos1 * g_pos),
        ("two-mass form pairing", bilinear_W,
         -c_ab * (want.lhat_neg1 * g_neg / b_ab + want.ltilde_pos1 * g_pos / b_ba)),
    )
    products = inner_products((l2, lt, lh, lf), g, Params(a, b))
    for (label, form, boundary), product in zip(pairings, products):
        cases.append(Case.check(label, pstr, n, product - form(f, g, a, b) - boundary))

    # the eight endpoint values in BoundaryValues field order
    got = [image.eval(x) for image in (l2, lt, lh, lf) for x in (-1, 1)]
    defect = sum((gv - wv) ** 2 for gv, wv in zip(got, vars(want).values()))
    cases.append(Case.check("boundary closed forms (8 values)", pstr, n, defect))
    return cases


def verify_symmetry(trials: int, degmax: int, params: Params,
                    seed: int) -> VerifyReport:
    """Randomized symmetry checks at one parameter point."""
    nonneg_int("trials", trials, 1)
    nonneg_int("degmax", degmax)
    pstr = params_str(alpha=params.alpha, beta=params.beta,
                      M=params.M, N=params.N)
    report = VerifyReport("symmetry", seed=seed,
                          grid={"trials": str(trials), "degmax": str(degmax), **pstr})
    rng = SplitMix64(seed)
    for t in range(trials):
        f = random_poly(rng, degmax)
        g = random_poly(rng, degmax)
        report.extend(_symmetry_pair_cases(f, g, params, pstr, t))
    direct, via_pos, via_neg = mass_constant_identity(params.alpha, params.beta)
    report.add(Case.check("mass normalization constant identity (+1 route)", pstr,
                          None, direct - via_pos))
    report.add(Case.check("mass normalization constant identity (-1 route)", pstr,
                          None, direct - via_neg))
    return report


# ---------------- orthogonality suite ----------------

def verify_orthogonality(nmax: int, params: Params) -> VerifyReport:
    """Gram structure and eigenvalue monotonicity for one parameter point."""
    pstr = params_str(alpha=params.alpha, beta=params.beta,
                      M=params.M, N=params.N)
    report = VerifyReport("orthogonality", grid={"nmax": str(nmax), **pstr})
    gram = gram_matrix(nmax, params)
    for i in range(nmax + 1):
        for j in range(i + 1, nmax + 1):
            report.add(Case.check(f"gram entry ({i},{j})", pstr, None, gram[i][j]))
    for i in range(nmax + 1):
        report.add(Case.holds("gram diagonal entry positive", pstr, i,
                              gram[i][i] > 0, gram[i][i]))
    lams = [eigen_combined(n, params).value for n in range(nmax + 6)]
    for n in range(nmax + 5):
        gap = lams[n + 1] - lams[n]
        report.add(Case.holds("combined eigenvalue strictly increasing", pstr, n,
                              gap > 0, gap))
    for i in range(nmax + 1):
        for j in range(i + 1, nmax + 1):
            report.add(Case.check(f"eigen-gap times gram entry ({i},{j})", pstr, None,
                                  (lams[i] - lams[j]) * gram[i][j]))
    return report


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


def _symmetry_point(trials: int, degmax: int, params: Params, seed: int) -> list:
    """The cases of one symmetry grid point, under the name the tracer counts."""
    return verify_symmetry(trials, degmax, params, seed).cases


class _Grid(NamedTuple):
    """The parameter grid of one run_suite call."""

    nmax: int
    seed: int
    trials: int
    ab: list            # (alpha, beta) pairs
    masses: list        # (M, N) pairs

    @property
    def params(self) -> list:
        return [Params(a, b, M, N) for a, b in self.ab for M, N in self.masses]


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
    "cor24": lambda g: [((0, 0), verify_cor24, (min(g.nmax, 10), M, N))
                        for M, N in g.masses],
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


def _run_point(point) -> list:
    """The cases of one (label prefix, worker, args) point; runs in a pool too."""
    prefix, worker, args = point
    out = worker(*args)
    cases = out.cases if isinstance(out, VerifyReport) else out
    if prefix:
        cases = [c._replace(label=prefix + c.label) for c in cases]
    return cases


def _run_task(task) -> list:
    """(index, cases) of each (index, point) of one task, in order; runs in a
    pool too."""
    return [(index, _run_point(point)) for index, point in task]


def _tasks(points) -> list:
    """The (key, point) list as tasks of (index, point) pairs: one task per
    key, largest alpha + beta first (operator order and cost grow with it)."""
    groups = {}
    for index, (key, point) in enumerate(points):
        groups.setdefault(key, []).append((index, point))
    return [groups[key] for key in sorted(groups, key=lambda key: -sum(key))]


def _map_points(points, threads: int) -> list:
    """The cases of every (key, point), concatenated in point order whatever
    order the tasks ran in; a single task runs serially."""
    tasks = _tasks(points)
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            done = list(ex.map(_run_task, tasks))
    else:
        done = map(_run_task, tasks)
    chunks = [None] * len(points)
    for task in done:
        for index, cases in task:
            chunks[index] = cases
    return [case for chunk in chunks for case in chunk]


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
    are valid), or an empty mass axis raises InvalidParam.
    """
    masses_m = tuple(as_rational(m) for m in masses_m)
    masses_n = tuple(as_rational(m) for m in masses_n)
    for key, bound in (("nmax", nmax), ("alpha_max", alpha_max), ("beta_max", beta_max)):
        nonneg_int(key, bound)
    nonneg_int("trials", trials, 1)
    if not masses_m or not masses_n:
        raise InvalidParam("each mass axis needs at least one mass")
    _seed(seed)
    grid = {"nmax": str(nmax), "alpha_max": str(alpha_max),
            "beta_max": str(beta_max),
            "masses_m": ",".join(str(m) for m in masses_m),
            "masses_n": ",".join(str(m) for m in masses_n)}
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
