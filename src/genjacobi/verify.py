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
so runs are reproducible from (grid, seed) alone.  run_suite() looks a suite
up in one table that maps its name to its grid points, each a (worker,
args) pair, and runs every suite's points the same way: serially, or fanned
out to a process pool under GENJACOBI_THREADS.  Case order follows point
order, so it is deterministic regardless of parallelism.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple
from fractions import Fraction
from typing import NamedTuple

from .algebra import (InvalidParam, Poly, RationalLike, X2_MINUS_1, X_MINUS_1,
                      X_PLUS_1, as_rational, pochhammer)
from .genjacobi import (Params, coeff_q, gen_jacobi, poly_Q, poly_R, poly_S)
from .inner import (bilinear_U, bilinear_V, bilinear_Vt, bilinear_W,
                    boundary_closed_forms, BoundaryValues, gram_matrix,
                    mass_constant_identity, symmetry_defect,
                    weighted_integral)
from .jacobi import jacobi_poly
from .operators import (apply_combined, apply_duran, apply_factorized,
                        apply_L2, apply_Lfull, apply_Lhat, apply_Ltilde,
                        const_b, const_c, eigen_combined, eigen_high,
                        eigen_lambda2, expand_operator)
from .report import Case, VerifyReport, params_str

DEFAULT_NMAX = 12
DEFAULT_ALPHA_MAX = 3
DEFAULT_BETA_MAX = 3
DEFAULT_MASSES = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2))
DEFAULT_TRIALS = 5
DEFAULT_SEED = 0

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit mixing generator (splitmix64).

    state += 0x9E3779B97F4A7C15; the output mixes the new state with
    xor-shifts by 30/27/31 and multipliers 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB.  Chosen for a tiny, well-known, exactly
    reproducible implementation; statistical quality far exceeds what
    coefficient sampling needs.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi] (modulo reduction)."""
        return lo + self.next_u64() % (hi - lo + 1)


def random_poly(rng: SplitMix64, degmax: int) -> Poly:
    """Random rational polynomial: degree uniform in [0, degmax],
    coefficients p/q with |p| <= 20 and 1 <= q <= 10."""
    deg = rng.randint(0, degmax)
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 10))
              for _ in range(deg + 1)]
    return Poly(coeffs)


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

    # derivative of the fully weighted polynomial: raises degree, lowers both
    if g > 0 and d > 0:
        lhs = g * X_PLUS_1 * P + d * X_MINUS_1 * P + X2_MINUS_1 * dP
        res = lhs - 2 * (n + 1) * jacobi_poly(n + 1, g - 1, d - 1)
        report.add(Case.check("weighted derivative, both endpoint factors", pstr, n, res))
    else:
        report.add(Case.skip("weighted derivative, both endpoint factors", pstr, n,
                             "needs gamma > 0 and delta > 0"))

    # derivative through the (x-1)^gamma factor alone
    if g > 0:
        lhs = g * P + X_MINUS_1 * dP
        res = lhs - (n + g) * jacobi_poly(n, g - 1, d + 1)
        report.add(Case.check("weighted derivative, x=1 factor", pstr, n, res))
    else:
        report.add(Case.skip("weighted derivative, x=1 factor", pstr, n, "needs gamma > 0"))

    # derivative through the (x+1)^delta factor alone
    if d > 0:
        lhs = d * P + X_PLUS_1 * dP
        res = lhs - (n + d) * jacobi_poly(n, g + 1, d - 1)
        report.add(Case.check("weighted derivative, x=-1 factor", pstr, n, res))
    else:
        report.add(Case.skip("weighted derivative, x=-1 factor", pstr, n, "needs delta > 0"))

    return report


# ---------------- combined eigen-equation suite ----------------

def _eigen_cases(nmax: int, params: Params) -> list:
    pstr = params_str(alpha=params.alpha, beta=params.beta, M=params.M, N=params.N)
    cases = []
    for n in range(nmax + 1):
        y = gen_jacobi(n, params)
        res = apply_combined(y, params) - eigen_combined(n, params).value * y
        cases.append(Case.check("combined eigen-equation", pstr, n, res))
    return cases


def _expansion_cases(alpha: int, beta: int) -> list:
    pstr = params_str(alpha=alpha, beta=beta)
    probe = Params(alpha, beta)
    cases = []
    targets = (
        ("L2", "second-order operator", 2, X2_MINUS_1),
        ("Ltilde", "mass(-1) operator", 2 * beta + 4, X2_MINUS_1 ** (beta + 2)),
        ("Lhat", "mass(+1) operator", 2 * alpha + 4, X2_MINUS_1 ** (alpha + 2)),
        ("Lfull", "two-mass operator", 2 * alpha + 2 * beta + 6,
         X2_MINUS_1 ** (alpha + beta + 3)),
    )
    for kind, name, order, top in targets:
        op = expand_operator(kind, probe)
        cases.append(Case.check(f"effective order of {name}", pstr, None,
                                Fraction(op.effective_order - order)))
        cases.append(Case.check(f"top coefficient of {name}", pstr, None,
                                op.terms[-1][1] - top))
    return cases


def verify_theorem21(nmax: int, params: Params) -> VerifyReport:
    """Combined eigen-equation for n <= nmax, plus expansion checks."""
    report = VerifyReport("thm21", grid={"nmax": str(nmax)})
    report.extend(_eigen_cases(nmax, params))
    report.extend(_expansion_cases(params.alpha, params.beta))
    return report


# ---------------- elementary eigen-equations suite ----------------

def verify_prop22(nmax: int, alpha: int, beta: int) -> VerifyReport:
    """Eigen-equations of the four blocks and the derivative chains."""
    a, b = alpha, beta
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("prop22", grid={"nmax": str(nmax), **pstr})
    for n in range(nmax + 1):
        P = jacobi_poly(n, a, b)
        res = apply_L2(P, a, b) - eigen_lambda2(n, a, b).value * P
        report.add(Case.check("second-order eigen-equation", pstr, n, res))

        Q = poly_Q(n, a, b)
        res = apply_Ltilde(Q, a, b) - eigen_high("side", n, b, a).value * Q
        report.add(Case.check("mass(-1) eigen-equation", pstr, n, res))

        R = poly_R(n, a, b)
        res = apply_Lhat(R, a, b) - eigen_high("side", n, a, b).value * R
        report.add(Case.check("mass(+1) eigen-equation", pstr, n, res))

        S = poly_S(n, a, b)
        res = apply_Lfull(S, a, b) - eigen_high("full", n, a, b).value * S
        report.add(Case.check("two-mass eigen-equation", pstr, n, res))

        # chain identities behind the two-mass eigen-equation; they relate
        # repeated derivatives of weighted blocks across parameter shifts
        if n >= 2:
            lhs = (X_MINUS_1 ** (a + 2) * X_PLUS_1 ** (b + 2)
                   * jacobi_poly(n - 2, a + 2, b + 2)).derive(a + b + 3)
            rhs = 2 * pochhammer(n - 1, a + b + 3) * jacobi_poly(n - 1, b + 1, a + 1)
            report.add(Case.check("raised-weight derivative chain", pstr, n, lhs - rhs))

            lhs = (X_MINUS_1 ** (b + 1) * X_PLUS_1 ** (a + 1)
                   * jacobi_poly(n - 1, b + 1, a + 1)).derive(a + b + 3)
            mid = 2 * pochhammer(n, a + b + 1) * jacobi_poly(n, a, b).derive(2)
            rhs = Fraction(1, 2) * pochhammer(n, a + b + 3) * jacobi_poly(n - 2, a + 2, b + 2)
            report.add(Case.check("swapped-weight derivative chain, second-derivative form",
                                  pstr, n, lhs - mid))
            report.add(Case.check("swapped-weight derivative chain, raised-parameter form",
                                  pstr, n, mid - rhs))
        else:
            for label in ("raised-weight derivative chain",
                          "swapped-weight derivative chain, second-derivative form",
                          "swapped-weight derivative chain, raised-parameter form"):
                report.add(Case.skip(label, pstr, n, "needs n >= 2"))
    return report


# ---------------- factorized forms suite ----------------

def verify_prop23(nmax: int, alpha: int, beta: int) -> VerifyReport:
    """Factorized eigen-equations and factorized = elementary on probes."""
    a, b = alpha, beta
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("prop23", grid={"nmax": str(nmax), **pstr})
    for n in range(1, nmax + 1):
        Q = poly_Q(n, a, b)
        res = apply_factorized("A", Q, a, b) - eigen_high("side", n, b, a).value * Q
        report.add(Case.check("factorized eigen-equation, x+1 block", pstr, n, res))

        R = poly_R(n, a, b)
        res = apply_factorized("B", R, a, b) - eigen_high("side", n, a, b).value * R
        report.add(Case.check("factorized eigen-equation, x-1 block", pstr, n, res))

        S = poly_S(n, a, b)
        res = apply_factorized("C", S, a, b) - eigen_high("full", n, a, b).value * S
        report.add(Case.check("factorized eigen-equation, both-endpoint block", pstr, n, res))

    probes = (
        ("A", X_PLUS_1, lambda y: apply_Ltilde(y, a, b), 2 * b + 4),
        ("B", X_MINUS_1, lambda y: apply_Lhat(y, a, b), 2 * a + 4),
        ("C", X2_MINUS_1, lambda y: apply_Lfull(y, a, b), 2 * a + 2 * b + 6),
    )
    for kind, factor, elementary, order in probes:
        for k in range(order + 5):
            y = factor * Poly.monomial(k)
            res = apply_factorized(kind, y, a, b) - elementary(y)
            report.add(Case.check(f"factorized matches elementary, kind {kind}",
                                  pstr, k, res))
    report.add(Case.check("mass(-1) operator annihilates constants", pstr, None,
                          apply_Ltilde(Poly.one(), a, b)))
    report.add(Case.check("mass(+1) operator annihilates constants", pstr, None,
                          apply_Lhat(Poly.one(), a, b)))
    report.add(Case.check("two-mass operator annihilates linear polynomials", pstr, None,
                          apply_Lfull(Poly([3, -2]), a, b)))
    return report


# ---------------- literal sixth-order equation suite ----------------

def verify_cor24(nmax: int, M: RationalLike, N: RationalLike) -> VerifyReport:
    """Literal sixth-order equation for the alpha = beta = 0 polynomials."""
    M, N = as_rational(M), as_rational(N)
    params = Params(0, 0, M, N)
    pstr = params_str(alpha=0, beta=0, M=M, N=N)
    report = VerifyReport("cor24", grid={"nmax": str(nmax), **pstr})
    for n in range(nmax + 1):
        y = gen_jacobi(n, params)
        lhs = (X2_MINUS_1 * y.derive()).derive()
        lhs = lhs + M / 2 * X_PLUS_1 * (X_MINUS_1 ** 2
                                        * (X_PLUS_1 * y).derive(2)).derive(2)
        lhs = lhs + N / 2 * X_MINUS_1 * (X_PLUS_1 ** 2
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
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("cor25", grid={"nmax": str(nmax), **pstr})
    inv_bq = 1 / const_b(b, a)
    inv_br = 1 / const_b(a, b)
    inv_c = 1 / const_c(a, b)
    for n in range(nmax + 1):
        P = jacobi_poly(n, a, b)
        Q, R, S = poly_Q(n, a, b), poly_R(n, a, b), poly_S(n, a, b)
        lam2 = eigen_lambda2(n, a, b).value
        lam_q = eigen_high("side", n, b, a).value
        lam_r = eigen_high("side", n, a, b).value
        lam_s = eigen_high("full", n, a, b).value

        def d2(y: Poly) -> Poly:
            return apply_L2(y, a, b) - lam2 * y

        def dq(y: Poly) -> Poly:
            return apply_Ltilde(y, a, b) - lam_q * y

        def dr(y: Poly) -> Poly:
            return apply_Lhat(y, a, b) - lam_r * y

        def ds(y: Poly) -> Poly:
            return apply_Lfull(y, a, b) - lam_s * y

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
    pstr = params_str(alpha=a, beta=b)
    report = VerifyReport("duran", grid={"dmax": str(dmax), **pstr})
    for k in range(dmax + 1):
        y = Poly.monomial(k)
        res = apply_duran(y, a, b) - apply_Ltilde(y, a, b)
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
            lhs = (apply_L2(y, a, b) - eigen_lambda2(n, a, b).value * y
                   + mass / const_b(b, a)
                   * (apply_duran(y, a, b) - eigen_high("side", n, b, a).value * y))
            report.add(Case.check("reduced eigen-equation via product form",
                                  mstr, n, lhs))
    return report


# ---------------- symmetry suite ----------------

def _symmetry_pair_cases(f: Poly, g: Poly, params: Params, pstr: dict,
                         n: int) -> list:
    a, b = params.alpha, params.beta
    l2, lt = apply_L2(f, a, b), apply_Ltilde(f, a, b)
    lh, lf = apply_Lhat(f, a, b), apply_Lfull(f, a, b)
    cases = [Case.check("combined operator symmetry defect", pstr, n,
                        symmetry_defect(f, g, params))]

    res = weighted_integral(l2 * g, a, b) - bilinear_U(f, g, a, b)
    cases.append(Case.check("second-order form pairing", pstr, n, res))

    res = (weighted_integral(lt * g, a, b)
           - bilinear_Vt(f, g, a, b)
           - 2 * (b + 1) * const_b(b, a) * f.derive().eval(-1) * g.eval(-1))
    cases.append(Case.check("mass(-1) form pairing", pstr, n, res))

    res = (weighted_integral(lh * g, a, b)
           - bilinear_V(f, g, a, b)
           + 2 * (a + 1) * const_b(a, b) * f.derive().eval(1) * g.eval(1))
    cases.append(Case.check("mass(+1) form pairing", pstr, n, res))

    corr_neg = (const_c(a, b) / const_b(a, b) * 2 * pochhammer(b + 1, a + 2)
                * (X_MINUS_1 ** (a + 1) * f).derive(a + 2).eval(-1) * g.eval(-1))
    corr_pos = (const_c(a, b) / const_b(b, a) * 2 * pochhammer(a + 1, b + 2)
                * (X_PLUS_1 ** (b + 1) * f).derive(b + 2).eval(1) * g.eval(1))
    res = (weighted_integral(lf * g, a, b)
           - bilinear_W(f, g, a, b) - corr_neg + corr_pos)
    cases.append(Case.check("two-mass form pairing", pstr, n, res))

    got = BoundaryValues(l2.eval(-1), l2.eval(1), lt.eval(-1), lt.eval(1),
                         lh.eval(-1), lh.eval(1), lf.eval(-1), lf.eval(1))
    want = boundary_closed_forms(f, a, b)
    defect = sum((gv - wv) ** 2 for gv, wv in zip(astuple(got), astuple(want)))
    cases.append(Case.check("boundary closed forms (8 values)", pstr, n, defect))
    return cases


def verify_symmetry(trials: int, degmax: int, params: Params,
                    seed: int) -> VerifyReport:
    """Randomized symmetry checks at one parameter point."""
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
    if threads is None:
        env = os.environ.get("GENJACOBI_THREADS", "")
        if not env:
            threads = 1
        elif env.isdecimal() and int(env) > 0:
            threads = int(env)
        else:
            raise InvalidParam(
                f"GENJACOBI_THREADS must be a positive integer, got {env!r}")
    return max(1, min(int(threads), os.cpu_count() or 1))


def _thm21_point(args) -> list:
    nmax, params = args
    return _eigen_cases(nmax, params)


def _symmetry_point(args) -> list:
    trials, degmax, params, seed = args
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


# Suite name -> the grid points of that suite, each a (worker, args) pair
# that runs as worker(*args).  Workers are looked up when the points are
# built, not here, so a rebound module attribute takes effect.
# _thm21_point and _symmetry_point take their point as one tuple.
_SUITES = {
    "thm21": lambda g: (
        [(_thm21_point, ((g.nmax, p),)) for p in g.params]
        + [(_expansion_cases, (a, b)) for a, b in g.ab]),
    "prop22": lambda g: [(verify_prop22, (g.nmax, a, b)) for a, b in g.ab],
    "prop23": lambda g: [(verify_prop23, (g.nmax, a, b)) for a, b in g.ab],
    "cor24": lambda g: [(verify_cor24, (min(g.nmax, 10), M, N)) for M, N in g.masses],
    "cor25": lambda g: [(verify_cor25, (min(g.nmax, 10), a, b)) for a, b in g.ab],
    "duran": lambda g: [(verify_duran, (2 * b + 8, a, b)) for a, b in g.ab],
    "symmetry": lambda g: [
        (_symmetry_point, ((g.trials, 2 * p.alpha + 2 * p.beta + 8, p,
                            _point_seed(g.seed, index)),))
        for index, p in enumerate(g.params)],
    "orthogonality": lambda g: [(verify_orthogonality, (min(g.nmax, 10), p))
                                for p in g.params],
}
SUITE_NAMES = tuple(_SUITES)


def _run_point(point) -> list:
    """The cases of one (worker, args) point; runs in a pool worker too."""
    worker, args = point
    out = worker(*args)
    return out.cases if isinstance(out, VerifyReport) else out


def _map_points(points, threads: int) -> list:
    if threads > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(_run_point, points))
    else:
        chunks = map(_run_point, points)
    return [case for chunk in chunks for case in chunk]


def run_suite(name: str, *, nmax: int = DEFAULT_NMAX,
              alpha_max: int = DEFAULT_ALPHA_MAX,
              beta_max: int = DEFAULT_BETA_MAX,
              masses_m=DEFAULT_MASSES, masses_n=DEFAULT_MASSES,
              seed: int = DEFAULT_SEED,
              trials: int = DEFAULT_TRIALS, threads=None) -> VerifyReport:
    """Run one suite (or 'all') over the parameter grid, merged into a
    single report.  Deterministic given the grid and seed.

    Every suite is one entry of the suite table: its grid points run
    through the same path, serially or fanned out to a process pool of
    `threads` workers (default GENJACOBI_THREADS), one pool per suite.
    'all' runs each suite in turn through this function.

    masses_m / masses_n are the grids of the masses at x = -1 and x = +1.
    A grid that would check nothing (a negative bound, no trials, an empty
    mass axis) raises InvalidParam.
    """
    masses_m = tuple(as_rational(m) for m in masses_m)
    masses_n = tuple(as_rational(m) for m in masses_n)
    for key, bound in (("nmax", nmax), ("alpha_max", alpha_max), ("beta_max", beta_max)):
        if bound < 0:
            raise InvalidParam(f"{key} must be >= 0, got {bound}")
    if trials < 1:
        raise InvalidParam(f"trials must be >= 1, got {trials}")
    if not masses_m or not masses_n:
        raise InvalidParam("each mass axis needs at least one mass")
    grid = {"nmax": str(nmax), "alpha_max": str(alpha_max),
            "beta_max": str(beta_max),
            "masses_m": ",".join(str(m) for m in masses_m),
            "masses_n": ",".join(str(m) for m in masses_n)}
    threads = _thread_count(threads)

    if name == "all":
        merged = VerifyReport("all", grid=grid, seed=seed)
        for sub in SUITE_NAMES:
            merged.merge(run_suite(sub, nmax=nmax, alpha_max=alpha_max,
                                   beta_max=beta_max, masses_m=masses_m,
                                   masses_n=masses_n, seed=seed,
                                   trials=trials, threads=threads))
        return merged
    if name not in _SUITES:
        raise InvalidParam(f"unknown suite {name!r}; choose from "
                           f"{SUITE_NAMES + ('all',)}")

    g = _Grid(nmax, seed, trials,
              ab=[(a, b) for a in range(alpha_max + 1) for b in range(beta_max + 1)],
              masses=[(M, N) for M in masses_m for N in masses_n])
    report = VerifyReport(name, grid=grid, seed=seed)
    report.extend(_map_points(_SUITES[name](g), threads))
    return report
