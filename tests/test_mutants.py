"""Mutation guard: every deliberately wrong formula must be caught.

A grid of zero residuals is evidence only if a wrong formula would have
left a nonzero one.  Each mutant below rebinds one function or table by
name in every genjacobi module that holds it, with all memo caches
cleared, and runs every suite serially on a tiny grid.  A mutant is killed
when at least one suite fails or raises.  The tiny grid has alpha != beta
points, because several mutants are invisible at alpha = beta, and nmax 3,
because S_2 multiplies the constant P_0 and 0! = 1!, so a wrong parameter
shift or factorial in the S block is invisible at nmax 2.
"""
import contextlib
import dataclasses
import hashlib
import sys

from test_caches import _lru_caches

from genjacobi import algebra, cli, genjacobi, inner, jacobi, kernel, operators
from genjacobi.algebra import X2_MINUS_1, X_MINUS_1, X_PLUS_1, Poly, pochhammer
from genjacobi.operators import EigenValue
from genjacobi.verify import SUITE_NAMES, run_suite

TINY = dict(nmax=3, alpha_max=1, beta_max=1, masses_m=(1,), masses_n=(1,), threads=1)
TINY_ARGS = ["--nmax", "3", "--alpha-max", "1", "--beta-max", "1",
             "--bigm", "1", "--bign", "1"]


def _lfull_matched(orig):
    def mutant(y, alpha, beta):
        a, b = alpha, beta
        inner_ = (X_MINUS_1 ** (a + 1) * X_PLUS_1 ** (b + 1) * y).derive(a + b + 3)
        middle = X_MINUS_1 ** (a + 1) * X_PLUS_1 ** (b + 1) * inner_
        return X2_MINUS_1 * middle.derive(a + b + 3)
    return mutant


def _eigen_without_mn(orig):
    def mutant(n, params):
        a, b = params.alpha, params.beta
        mn = (params.M * params.N / operators.const_c(a, b)
              * operators.eigen_high("full", n, a, b).value)
        return EigenValue(orig(n, params).value - mn)
    return mutant


def _side_eigen_shifted(orig):
    def mutant(kind, n, alpha, beta):
        if kind == "side":
            return EigenValue(pochhammer(n, alpha + 1) * pochhammer(n + beta, alpha + 1))
        return orig(kind, n, alpha, beta)
    return mutant


def _combined_swapped(orig):
    def mutant(y, params):
        a, b = params.alpha, params.beta
        return (operators.apply_L2(y, a, b)
                + params.M / operators.const_b(a, b) * operators.apply_Ltilde(y, a, b)
                + params.N / operators.const_b(b, a) * operators.apply_Lhat(y, a, b)
                + params.M * params.N / operators.const_c(a, b)
                * operators.apply_Lfull(y, a, b))
    return mutant


def _moments_without_n(orig):
    def mutant(p, size):
        return orig(genjacobi.Params(p.alpha, p.beta, p.M, 0), size)
    return mutant


def _ltilde_pos1_doubled(orig):
    def mutant(f, alpha, beta):
        r = orig(f, alpha, beta)
        return dataclasses.replace(r, ltilde_pos1=2 * r.ltilde_pos1)
    return mutant


def _moments_shifted(orig):
    def mutant(alpha, beta, size):
        moments, den = orig(alpha, beta, size + 1)
        return moments[1:], den
    return mutant


def _hyp_doubled_at_one(orig):
    def mutant(n, gamma, delta):
        nums, den = orig(n, gamma, delta)
        return (tuple(2 * c for c in nums) if n == 1 else nums), den
    return mutant


def _shift_by_plus_one(orig):
    # sum a_k (x + 1)^k is q(-x) for q(x) = sum (-1)^k a_k (x - 1)^k
    def mutant(a):
        shifted = orig([-c if k & 1 else c for k, c in enumerate(a)])
        return [-c if k & 1 else c for k, c in enumerate(shifted)]
    return mutant


def _recipe_without_strip(orig):
    def mutant(y, v, k, w, strip, factor):
        return orig(y, v, k, w, Poly.one(), factor)
    return mutant


def _recipe_outer_short(orig):
    def mutant(y, v, k, w, strip, factor):
        outer = (w * (v * y).derive(k)).derive(k - 1)
        return factor * (outer / strip if strip.degree > 0 else outer)
    return mutant


def _block_replaced(index, **fields):
    """A factory of genjacobi.BLOCKS with row `index` given new fields."""
    def factory(orig):
        return tuple(row._replace(**fields) if i == index else row
                     for i, row in enumerate(orig))
    return factory


def _component_replaced(kind, change):
    """A factory of operators.components with the row of `kind` replaced by
    change(row, alpha, beta)."""
    def factory(orig):
        def mutant(alpha, beta):
            return tuple(change(row, alpha, beta) if row.kind == kind else row
                         for row in orig(alpha, beta))
        return mutant
    return factory


# name -> (module that defines the function or table, attribute, factory(original))
MUTANTS = {
    "apply_Lfull with matched exponents": (operators, "apply_Lfull", _lfull_matched),
    "apply_L2 with alpha and beta swapped":
        (operators, "apply_L2", lambda f: lambda y, a, b: f(y, b, a)),
    "const_b off by one": (operators, "const_b", lambda f: lambda a, b: f(a, b) + 1),
    "const_c off by one": (operators, "const_c", lambda f: lambda a, b: f(a, b) + 1),
    "coeff_q doubled": (genjacobi, "coeff_q", lambda f: lambda n, a, b: 2 * f(n, a, b)),
    "coeff_r doubled": (genjacobi, "coeff_r", lambda f: lambda n, a, b: 2 * f(n, a, b)),
    "coeff_s doubled": (genjacobi, "coeff_s", lambda f: lambda n, a, b: 2 * f(n, a, b)),
    # factorial(n - 2) for factorial(n - 1) in the denominator: equal at n = 2
    "coeff_s with factorial(n-2)":
        (genjacobi, "coeff_s", lambda f: lambda n, a, b: (n - 1) * f(n, a, b)),
    "poly_S with beta+3 for beta+2": (genjacobi, "BLOCKS", _block_replaced(3, shift=(2, 3))),
    "eigen_combined without the M*N term": (operators, "eigen_combined", _eigen_without_mn),
    "eigen_high side with alpha+1 for alpha+2":
        (operators, "eigen_high", _side_eigen_shifted),
    "apply_combined with M and N normalizations swapped":
        (operators, "apply_combined", _combined_swapped),
    "moment vector without the N mass": (inner, "_moment_vector", _moments_without_n),
    "boundary_closed_forms with ltilde_pos1 doubled":
        (inner, "boundary_closed_forms", _ltilde_pos1_doubled),
    "h_norm doubled": (inner, "h_norm", lambda f: lambda a, b: 2 * f(a, b)),
    "jacobi_poly doubled at degree 1": (jacobi, "_jacobi_hyp", _hyp_doubled_at_one),
    "moment vector shifted by one": (inner, "_normalized_moments", _moments_shifted),
    "Ltilde's norm as const_b(a, b)": (operators, "components", _component_replaced(
        "Ltilde", lambda row, a, b: row._replace(norm=operators.const_b(a, b)))),
    "Ltilde's order minus 1": (operators, "components", _component_replaced(
        "Ltilde", lambda row, a, b: row._replace(order=row.order - 1))),
    "Lfull's order plus 2": (operators, "components", _component_replaced(
        "Lfull", lambda row, a, b: row._replace(order=row.order + 2))),
    "recipe without the strip division": (operators, "_conjugated", _recipe_without_strip),
    "recipe with the outer derivative one short":
        (operators, "_conjugated", _recipe_outer_short),
    "endpoint_weight with q+1":
        (algebra, "endpoint_weight", lambda f: lambda p, q: f(p, q + 1)),
    "endpoint_weight with p and q swapped":
        (algebra, "endpoint_weight", lambda f: lambda p, q: f(q, p)),
    "Taylor shift by +1 for -1": (kernel, "taylor_shift", _shift_by_plus_one),
    "Q row's endpoint factor t+1 for t+2":
        (genjacobi, "BLOCKS", _block_replaced(1, factor=(1, 1))),
}


def _clear_caches():
    for cache in _lru_caches().values():
        cache.cache_clear()


@contextlib.contextmanager
def mutated(name):
    """Rebind one function in every module that holds it; caches cleared
    on entry and on exit, so no mutated value outlives the block."""
    module, attr, factory = MUTANTS[name]
    original = getattr(module, attr)
    mutant = factory(original)
    holders = [m for key, m in sorted(sys.modules.items())
               if m is not None and key.split(".")[0] == "genjacobi"
               and vars(m).get(attr) is original]
    _clear_caches()
    for m in holders:
        setattr(m, attr, mutant)
    try:
        yield
    finally:
        for m in holders:
            setattr(m, attr, original)
        _clear_caches()


def _outcome(suite):
    """'F' if the suite fails, 'E' if it raises, '.' if it passes."""
    try:
        return "." if run_suite(suite, **TINY).all_pass else "F"
    except Exception:    # a raise is a kill as much as a failure
        return "E"


# mutant -> its outcome per suite, in SUITE_NAMES order (thm21 prop22 prop23
# cor24 cor25 duran symmetry orthogonality); every kill pinned here must stay a
# kill ('F' and 'E' count alike), and new kills are welcome
PINNED_KILLS = {
    "apply_Lfull with matched exponents": "FFF.F.F.",
    "apply_L2 with alpha and beta swapped": "FFE.FFF.",
    "const_b off by one": "F..FFFF.",
    "const_c off by one": "F..FF.F.",
    "coeff_q doubled": "F..FFF.F",
    "coeff_r doubled": "F..FF..F",
    "coeff_s doubled": "F..FF..F",
    "coeff_s with factorial(n-2)": "F..FF..F",
    "poly_S with beta+3 for beta+2": "FFFFF..F",
    "eigen_combined without the M*N term": "F.......",
    "eigen_high side with alpha+1 for alpha+2": "FFF.FF..",
    "apply_combined with M and N normalizations swapped": "F.....F.",
    "moment vector without the N mass": "......FF",
    "boundary_closed_forms with ltilde_pos1 doubled": "......F.",
    "h_norm doubled": "......FF",
    "jacobi_poly doubled at degree 1": "FF.FFF.F",
    "moment vector shifted by one": "......FF",
    "Ltilde's norm as const_b(a, b)": "F...FFF.",
    "Ltilde's order minus 1": "F.......",
    "Lfull's order plus 2": "F.......",
    "recipe without the strip division": "EFF.FFE.",
    "recipe with the outer derivative one short": "EFF.FFE.",
    "endpoint_weight with q+1": "EEEFEEEF",
    "endpoint_weight with p and q swapped": "FFFFFFFF",
    "Taylor shift by +1 for -1": "FFEFFF.F",
    "Q row's endpoint factor t+1 for t+2": "FFEFFF.F",
}


def test_every_mutant_is_killed():
    matrix = {}
    for name in MUTANTS:
        with mutated(name):
            matrix[name] = "".join(_outcome(s) for s in SUITE_NAMES)
    survivors = [name for name, row in matrix.items() if set(row) == {"."}]
    lost = [f"{name}: {suite}" for name, row in matrix.items()
            for suite, pinned, now in zip(SUITE_NAMES, PINNED_KILLS[name], row)
            if pinned != "." and now == "."]
    width = max(map(len, matrix))
    table = "\n".join([f"{'':{width}}  " + " ".join(s[:5].ljust(5) for s in SUITE_NAMES)]
                      + [f"{name:{width}}  " + " ".join(c.ljust(5) for c in row)
                         for name, row in matrix.items()])
    assert not survivors, f"surviving mutants {survivors}; kill matrix:\n{table}"
    assert not lost, f"pinned kills lost {lost}; kill matrix:\n{table}"


# mutant -> sha256 of the symmetry suite's JSON report on the tiny grid,
# for every mutant under which that suite fails (the three that make it
# raise are left out).  A passing case renders "0" whatever its route, so
# these pin the failing residuals themselves: every pairing, form and
# boundary value must keep its exact value under each mutant.
SYMMETRY_FAILING_DIGESTS = {
    "apply_Lfull with matched exponents":
        "99611df60c7ec2da75840c3db5d3c8d937f5683ca1882553254d2264656ed153",
    "apply_L2 with alpha and beta swapped":
        "85b606a08bd15565eabfa96563d37fbb2b842810b3337b289599356667cf5776",
    "const_b off by one": "fe544234f941e829a48d8b367eb8db4c5f617ea7ed9a4df2bb77f544f25928f9",
    "const_c off by one": "8cda666874803253914554c3b5c7a49352d6c5533abaddd0a5da436e171ccf33",
    "apply_combined with M and N normalizations swapped":
        "5eb5738792bc77c0c33eb964366bafda794d37d880c64e1316a46517f09a338e",
    "moment vector without the N mass":
        "278d0f6ee9c8d3f45ff063707cee86641fb8e4cc001e5c5f57425c5f00c86f34",
    "boundary_closed_forms with ltilde_pos1 doubled":
        "c330f8551bcbb54880869418b8ad38d0d139115db17ba0e42b6e128d87203c4d",
    "h_norm doubled": "9da7f8e9439cffb7f79d51e833ad07acde3d3860909cabea5412e7f10fd4f21a",
    "moment vector shifted by one":
        "d2f2474ac703c0d6d656d36c0906bb4251d5bab8f17a47204cb16d64a01cd0a8",
    "Ltilde's norm as const_b(a, b)":
        "3f6251addf6c0475bbf47bb5c83a776a4d4f71ff7fceb42d3ed24e26a6f74420",
    "endpoint_weight with p and q swapped":
        "1e87754330774079d24a07e287379d002906da1889d0312d4a97c31cef1139f7",
}


def test_symmetry_failing_reports_are_pinned():
    assert set(SYMMETRY_FAILING_DIGESTS) == {
        name for name, row in PINNED_KILLS.items() if row[SUITE_NAMES.index("symmetry")] == "F"}
    got = {}
    for name in SYMMETRY_FAILING_DIGESTS:
        with mutated(name):
            text = run_suite("symmetry", **TINY).to_json()
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SYMMETRY_FAILING_DIGESTS


def test_unmutated_tiny_grid_passes():
    # the kills above mean something only if the same grid passes unmutated
    assert all(_outcome(s) == "." for s in SUITE_NAMES)


def test_cli_exits_1_under_a_mutant(capsys):
    with mutated("h_norm doubled"):
        code = cli.main(["verify", "--suite", "symmetry", *TINY_ARGS])
    capsys.readouterr()
    assert code == 1
