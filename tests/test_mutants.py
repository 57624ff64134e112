"""Mutation guard: every deliberately wrong formula must be caught.

A grid of zero residuals is evidence only if a wrong formula would have
left a nonzero one.  Each mutant below rebinds one function or table by
name in every genjacobi module that holds it, with all memo caches
cleared, and runs every suite serially on a tiny grid.  A mutant is killed
when at least one suite fails or raises.  The tiny grid has alpha != beta
points, because several mutants are invisible at alpha = beta, and nmax 3,
because S_2 multiplies the constant P_0 and 0! = 1!, so a wrong parameter
shift or factorial in the S block is invisible at nmax 2.  The JSON report
of every suite a mutant fails is pinned by its sha256, from the same runs as
the kill matrix, so a residual computed by a new route must render exactly as
before.
"""
import contextlib
import dataclasses
import hashlib
import sys

import pytest
from test_caches import _lru_caches

from genjacobi import algebra, cli, genjacobi, inner, jacobi, kernel, operators
from genjacobi.algebra import X2_MINUS_1, X_MINUS_1, X_PLUS_1, Poly
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


def _side_spectra_short(orig):
    # (n)_(alpha+1) (n+beta)_(alpha+1) for the side eigenvalues, in both rows
    def mutant(alpha, beta):
        return tuple(row._replace(spectrum=(*row.spectrum[:2], row.spectrum[2] - 1))
                     if row.kind in ("Ltilde", "Lhat") else row
                     for row in orig(alpha, beta))
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


def _two_mass_form_short(orig):
    # the two-mass form with derivative order a+b+2 for a+b+3
    def mutant(alpha, beta):
        *rows, (v, k, weight) = orig(alpha, beta)
        return (*rows, (v, k - 1, weight))
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


def _newton_unsigned(orig):
    # column i given the sign (-1)^(k-i), which cancels the sum's own sign
    def mutant(columns, den, k):
        return orig([tuple(-c for c in column) if (k - i) & 1 else column
                     for i, column in enumerate(columns[:k + 1])], den, k)
    return mutant


def _block_replaced(index, change):
    """A factory of genjacobi.blocks with row `index` (P, Q, R, S) replaced by
    change(row, alpha, beta)."""
    def factory(orig):
        def mutant(alpha, beta):
            return tuple(change(row, alpha, beta) if i == index else row
                         for i, row in enumerate(orig(alpha, beta)))
        return mutant
    return factory


def _scale_doubled(index):
    """The mutant that doubles the scale of row `index` by halving its c."""
    return (genjacobi, "blocks",
            _block_replaced(index, lambda row, a, b: row._replace(c=row.c // 2)))


def _component_replaced(kind, change):
    """A factory of operators.components with the row of `kind` replaced by
    change(row, alpha, beta)."""
    def factory(orig):
        def mutant(alpha, beta):
            return tuple(change(row, alpha, beta) if row.kind == kind else row
                         for row in orig(alpha, beta))
        return mutant
    return factory


def _divergence_form_replaced(index, change):
    """A factory of operators.divergence_forms with row `index` (L2, Ltilde,
    Lhat, Lfull) replaced by change(row)."""
    def factory(orig):
        def mutant(alpha, beta):
            return tuple(change(row) if i == index else row
                         for i, row in enumerate(orig(alpha, beta)))
        return mutant
    return factory


# name -> (module that defines the function or table, attribute, factory(original))
MUTANTS = {
    "apply_Lfull with matched exponents": (operators, "apply_Lfull", _lfull_matched),
    "apply_L2 with alpha and beta swapped":
        (operators, "apply_L2", lambda f: lambda y, a, b: f(y, b, a)),
    "const_b off by one": (operators, "const_b", lambda f: lambda a, b: f(a, b) + 1),
    "const_c off by one": (operators, "const_c", lambda f: lambda a, b: f(a, b) + 1),
    "coeff_q doubled": _scale_doubled(1),
    "coeff_r doubled": _scale_doubled(2),
    "coeff_s doubled": _scale_doubled(3),
    # factorial(n - 2) for factorial(n - 1) in the denominator: equal at n = 2
    "coeff_s with factorial(n-2)": (genjacobi, "blocks", _block_replaced(
        3, lambda row, a, b: row._replace(lower=((1, -2), (1, 0))))),
    "poly_S with beta+3 for beta+2": (genjacobi, "blocks", _block_replaced(
        3, lambda row, a, b: row._replace(shift=(2, 3)))),
    "eigen_combined without the M*N term": (operators, "eigen_combined", _eigen_without_mn),
    "eigen_high side with alpha+1 for alpha+2":
        (operators, "components", _side_spectra_short),
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
    "Q row's endpoint factor t+1 for t+2": (genjacobi, "blocks", _block_replaced(
        1, lambda row, a, b: row._replace(factor=(1, 1)))),
    "Q row's upper (beta+1)_(n-1) for (beta+2)_(n-1)": (genjacobi, "blocks", _block_replaced(
        1, lambda row, a, b: row._replace(upper=((a + b + 2, 0), (b + 1, -1))))),
    "Newton sum without the alternating sign": (operators, "_coefficient", _newton_unsigned),
    "two-mass form with order a+b+2": (inner, "forms", _two_mass_form_short),
    "divergence_forms with Ltilde's k one short": (operators, "divergence_forms",
        _divergence_form_replaced(1, lambda row: row._replace(k=row.k - 1))),
    "divergence_forms with Lhat's -1 endpoint constant doubled": (
        operators, "divergence_forms", _divergence_form_replaced(
            2, lambda row: row._replace(ends=(2 * row.ends[0], row.ends[1])))),
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
    """(outcome, digest): 'F' and the sha256 of its JSON report if the suite
    fails, 'E' if it raises, '.' if it passes; the digest is None but for 'F'."""
    try:
        report = run_suite(suite, **TINY)
    except Exception:    # a raise is a kill as much as a failure
        return "E", None
    if report.all_pass:
        return ".", None
    return "F", hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def kill_runs():
    """mutant -> (its row of the kill matrix, {suite: digest} of the suites
    it fails): one run of every suite under every mutant, which the kill
    matrix and the failing-report pins share."""
    runs = {}
    for name in MUTANTS:
        with mutated(name):
            outcomes = [_outcome(s) for s in SUITE_NAMES]
        runs[name] = ("".join(o for o, _ in outcomes),
                      {s: d for s, (_, d) in zip(SUITE_NAMES, outcomes) if d})
    return runs


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
    "Q row's upper (beta+1)_(n-1) for (beta+2)_(n-1)": "F..FFF.F",
    "Newton sum without the alternating sign": "F.......",
    "two-mass form with order a+b+2": "......F.",
    "divergence_forms with Ltilde's k one short": "EFF.FFE.",
    "divergence_forms with Lhat's -1 endpoint constant doubled": "......F.",
}


def test_every_mutant_is_killed(kill_runs):
    matrix = {name: row for name, (row, _) in kill_runs.items()}
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
    "two-mass form with order a+b+2":
        "eebb2ea43161b5fa0954e5a39fdd5c2a1c44dfb5d8bc7749f43ef1544cd948d6",
    "divergence_forms with Lhat's -1 endpoint constant doubled":
        "6ed939410202064c240a42d949c0f3afd94191b2b6cd7cd93a9bb3af9b83b786",
}


def test_symmetry_failing_reports_are_pinned(kill_runs):
    assert set(SYMMETRY_FAILING_DIGESTS) == {
        name for name, row in PINNED_KILLS.items() if row[SUITE_NAMES.index("symmetry")] == "F"}
    got = {name: kill_runs[name][1].get("symmetry") for name in SYMMETRY_FAILING_DIGESTS}
    assert got == SYMMETRY_FAILING_DIGESTS


# mutant -> suite -> sha256 of that suite's JSON report on the tiny grid, for
# every other suite the mutant fails with 'F' in PINNED_KILLS (the symmetry
# column is SYMMETRY_FAILING_DIGESTS above).  Like those, they pin every
# failing residual of every suite, whatever route computes it.
FAILING_DIGESTS = {
    "apply_Lfull with matched exponents": {
        "thm21": "4586feec82a39d486f04c274bac042a58fbeba5e42c6516b2e85fc3962e20180",
        "prop22": "11d3bdda6594af1f765cfb6de60a6669e12a6dcbdd7f7dc74dbceffaaa67f745",
        "prop23": "13ab018a72256be93dde2fe0444bc5c1f08e1562ea2c14764cd17ee6f5bf40b9",
        "cor25": "25d2431e4fb7aeb5d73c071286b6b47db65a4ac7e087ef99744ca0d1e8c1c5b7",
    },
    "apply_L2 with alpha and beta swapped": {
        "thm21": "7b35714a0459f04ac6342a637456c35ddf908083e58fbcc6c1bdfed1c1dbdacd",
        "prop22": "d2a3089249c7d3330b01dc031c9d4b3f84a5c1f194d6625253f14a996119272c",
        "cor25": "3b5930ae01c97501aaa04d89da34ed828556f520dbc34cc41d9384cfcdf90d6c",
        "duran": "59df285e806c1714c849e911189481cacd743f9e7d24d577eb320937ce7cff61",
    },
    "const_b off by one": {
        "thm21": "2bb2ce40f2d24be3230df0ecaa6c89d544c1270a38cf9409fbe666283787c11f",
        "cor24": "3b4e0df126add2c560d5cebd693459933f5cddcca9f6e69bed805ee1b1c11ff3",
        "cor25": "57f02e243815e350db30b7d3ffd52b2d00c12c568c6fd74680ff3332f9d77731",
        "duran": "f110bd1cca9a0134409a3bb58dcda908aeab8e6024808310300706ebb0152045",
    },
    "const_c off by one": {
        "thm21": "0df93ca6b8534bd635665e37d8e7772c3cad2a63973e2cbc43de3528922de69d",
        "cor24": "dca42b95897b25e34be11e88b7295680c824ff42a74566e45a8742920b34a70d",
        "cor25": "e32e513110788146f3bb98562a3dde671d6fb843b73fab5354b5de79f51fa3b5",
    },
    "coeff_q doubled": {
        "thm21": "7c7e9d68438d4595a50f93f6e0d191903a99460c2da3f4052e282c1a11737e1c",
        "cor24": "407d9c3280d779c96afc4154bd8b2e76aa29776e384ce405e30ab3824a81eb9e",
        "cor25": "97cea48953381a1efe762bdfb74a2c262f93bd9666955fcb39fe623cad4511c7",
        "duran": "781546bedbd484554f414881044ce22bb5f8d855e64bbc4a956cae92edd60904",
        "orthogonality": "b5a6f30ab4d99a94b117b320b15b8f7076e34ec47829660c3c790f8ff6b5bdf0",
    },
    "coeff_r doubled": {
        "thm21": "955f481a3a86edc8cb28a00821231be0506406d75231d7f315b72defa30deac6",
        "cor24": "f8b06e3873bcb910783641b77b8fd766060599dbc1577cbc170c97f4a915eced",
        "cor25": "4942c973c9552ee90e201c05e097a0c16ab13a5b507e386a34c74d8a9fc27760",
        "orthogonality": "f781b760f7ca8824cd6a0321e83f42d94d21b631979c980f5c5967dc49c9f03c",
    },
    "coeff_s doubled": {
        "thm21": "01e1db34e0ef026994198b47a3facda7894bfab2b3e2ec936791b308d811f103",
        "cor24": "78df1cedbebc21e143c4f0e1fb549dfd81391f138bb964cdd571ce803f970a05",
        "cor25": "3f60e4383feff51fc9587bd86632305ca37d23712722b92f8dc729c0433730a3",
        "orthogonality": "140ea7aaf7fbfa8475ec6215e8d79f16a79f42fc707645b47ca700f31b2a5d9f",
    },
    "coeff_s with factorial(n-2)": {
        "thm21": "742fcd19730a148dc6d20d1c01935568507ad85c6e71bf516b178fe847959d86",
        "cor24": "43a8dea5e2f462e57e5b951f838a00aac1fb8eff50e40c15c2b5fc8e3f08468c",
        "cor25": "662de1f4d05cd6aa7a5018f7c06a61fa43acc5aaa1d67aeea12e41d8ec13702d",
        "orthogonality": "83ea3d325be4b737d1c22cf52093b3b66f730c0d64018135002936f5e74a847a",
    },
    "poly_S with beta+3 for beta+2": {
        "thm21": "27030668965675bcff7965eb6194d162976c10be5163e1fa34a24c1cda5ec63f",
        "prop22": "11dc59d6a3c512e710211c5cfd3a6f1915d87de41abe136d888207fd35014906",
        "prop23": "ca75eda50d37f7d8fe36a036b866da45d8409eb5fdb722f025195775345da429",
        "cor24": "805e67a9303feb12321f3571d2b676b9a42ecabf5b7b8d95247ca84e24bde56e",
        "cor25": "3fff7f9ec16f4ab2339d0157e305bb6a4c2e6fc4fd0bb187a1077b1cc6eb5427",
        "orthogonality": "8300292ea03c4c1093349e062543934c439f81fa50b5f156e41b73f0339f26e8",
    },
    "eigen_combined without the M*N term": {
        "thm21": "c4201ec123c0f4d852e4f35f4a4a0f31802427df612858e08fafacd83737cab6",
    },
    "eigen_high side with alpha+1 for alpha+2": {
        "thm21": "8b688df2a4be4ecaf95a56eef42d11f90db589b614860a9b4597ec31308c1992",
        "prop22": "41d3d5228ffabb9c39ddf5590f26445e12da4b2d9d45307a10e6ada8c2e20522",
        "prop23": "7956cc6067ac89984558622fafc47099a91799f311fd00ef9a35536d898bab63",
        "cor25": "6d7c7090d0ed8310907189a005b595c8535a3ff025a4f1ee6c0fb52b17404639",
        "duran": "f591db24298a3ac769a5ca652a16c6e9444f98e69b1382ab81bc8b6c434fa9dd",
    },
    "apply_combined with M and N normalizations swapped": {
        "thm21": "7b0c05c3a7823b0e3fd85224c0f871ec4f1c8f9f0d271c57e8da20d9122cb9b9",
    },
    "moment vector without the N mass": {
        "orthogonality": "60e3e457f483f698e0582b2502762a57fef2683526283c96143bd672a56571a6",
    },
    "h_norm doubled": {
        "orthogonality": "8a2f6daf160b9904e2ff13b970663a8a91f6753174a73635a5766c662af7d97e",
    },
    "jacobi_poly doubled at degree 1": {
        "thm21": "5d22916d4cbcde938526f97adc99fbecd6c1f992c4d6b0005cbc6829a76f30ae",
        "prop22": "0fb160817adb955db02ce77289737a170d2572b63ba567d700e88eac4694ed57",
        "cor24": "25d05c2aa2e609dffb55b8713aa6f1f52fdf4524ef6152d43f59e381e4ab9df2",
        "cor25": "438bc2d2284fec92a91a5c3d9b07c1274831dc47f1becb2dfe3fc7e7edf2a985",
        "duran": "f9900b7997f573c5c5f8035f688555e33290b674bf558821d8da30b40b521d62",
        "orthogonality": "a6129de28f21dc68176719965ca3e15e44a5aaee117e084a4f6c46e8c3ffe12c",
    },
    "moment vector shifted by one": {
        "orthogonality": "d5b675c1810c82e1348671bcc652973fa13395cdc76938522185c75f998c4bfa",
    },
    "Ltilde's norm as const_b(a, b)": {
        "thm21": "8081a3f73bb559178603fa59b536977b04e119924c4ba98d24b3ff6d8f634e12",
        "cor25": "5275314a516df998a25f82dacf921225d7a0e87c7a5a1817dfa2061b84d9f2c6",
        "duran": "326b4dbc08c3b49578c563206a24fdaece6662892c29b7d236cd77504b8011c1",
    },
    "Ltilde's order minus 1": {
        "thm21": "671de79675ef7e8dcf89b906cc4c16279dbe2c41295bb9851dc2def437da6e20",
    },
    "Lfull's order plus 2": {
        "thm21": "a72103e7bd4a792e13cc227616417ade162a129d32debff764d6eb5bf4f153b8",
    },
    "recipe without the strip division": {
        "prop22": "2bb38f21211e57f5a1e4e8e306b3183b55fd6f19b999b0aac2ec35fc02648487",
        "prop23": "543d11809b3579d85a05726333f0ed562da2ee4d320bf7b43947d5f5edd41fea",
        "cor25": "be445e0f57d325a938bd9512d1b1c6690a0c1db6cc8b518b3678d8a9a0e7f106",
        "duran": "7ddf9a16fc59da52cb9e4551aa3ab50018b3d95c2d7b6ae233d2ddd43e19b723",
    },
    "recipe with the outer derivative one short": {
        "prop22": "3184a87234ddc5273438d9cf5a67054417b78adf056efa71b8588f508cdaffd1",
        "prop23": "1ff20edc5a1c9127af23e1812daae48bbe2964f27fd77594e5f72b3567a55adc",
        "cor25": "b5eb8f7133afcca137670a3b26b3bd04bce59f994d606b61bdc4fefa3d25672c",
        "duran": "88efc132e2c77c41dcf01f6d1612b3708f02c368a83433f1fa8c128695f1f12d",
    },
    "endpoint_weight with q+1": {
        "cor24": "f70179b2eb4b3d56d5afd6274bab9fc9d2e4bcc257664dd059c751aaaffc501b",
        "orthogonality": "5aa526844074128dfdbbb87b20544736d936d6f09b084d5244028a94db363cc3",
    },
    "endpoint_weight with p and q swapped": {
        "thm21": "9ac4d2aab7a900e98659deee367a7ec120e44d48b5add0e566f01a5323ace21d",
        "prop22": "95475629b9dd17774e3192b76738ae5b70ad428bcd3d3c26ff76b6a040a8379d",
        "prop23": "2f0d1350e1d60d97776423dbd3f14a34235824d053776b2368c6d42fcc0f2b10",
        "cor24": "0158d813ec03f270c7c6b63cb45481ba0a8d060c1a7aae7417c27516a270dd52",
        "cor25": "4e6cd170e2ec9742487700953ff59bf9e46e678e4edeaf724b45ef0f3311fc67",
        "duran": "951bfe4d656731f0634c72d8a540249c4910ba0544eb75c6abe84b514405e312",
        "orthogonality": "274f5a236ce253acf0184dbc34d9654e331f12577b20427a0fe8a78231e0a02e",
    },
    "Taylor shift by +1 for -1": {
        "thm21": "277fb34e32fca4206c83681b3848f43cd469b552232d6d693d26c20987d35ac0",
        "prop22": "1bdfee36b6f6c4e4b7f2430a890d0c54dd9b85fc93a3dd3e0f86ff64658d316f",
        "cor24": "3b688fb7c8e127ea1e96a2e77d1c98d2748abd9f3486f87442aadee017c9ec93",
        "cor25": "e946cf5498d66110c63d6bfaa5cfa35260c18aa2d20022f8fb56a85dbad2547d",
        "duran": "68f2aaf9b379dc4d4d69113d7b0686f03e92e9c046362277b2d8814b5dbd853f",
        "orthogonality": "7651051d1d85b223e57b55bfad712692f61645753d5a308125dd1a27d9e2a91a",
    },
    "Q row's endpoint factor t+1 for t+2": {
        "thm21": "84d0f51b669ea2931f9e50383f62d5fab9f8ea3f74c77b44777f9b1c6f388bde",
        "prop22": "aefb12df073b98c7bbf447ea227a807476f1be174015869a72e9bee4570e1e09",
        "cor24": "eaf665c17bd521bf4d1b619bc1e2718466926a1dd4e3812454fc94e6df786179",
        "cor25": "6891b9c1192c3ba99db13a4f93f022e4e196d8e7935ad3c2d12178a554917846",
        "duran": "7635167c5de8b5deef10e065b3a33b1aa328bccf940525e513693f391c429d17",
        "orthogonality": "259a69ebf457cfe3b7132ad627aac1bb818ceb6e2110b5f69bb7852c4de8f655",
    },
    "Q row's upper (beta+1)_(n-1) for (beta+2)_(n-1)": {
        "thm21": "e1c14ee9808823625d8185aa8efc375c2a4ad043c183e43e487f626e36af2404",
        "cor24": "7cc7a108575e7b9c8c5542b5b0af3c9bac177124c696df645191f00836b89364",
        "cor25": "869223e68f9b67ac0b5a57e525d37368e8503ae34f1dd426c2d8f227fe7e1a0b",
        "duran": "70f8f0a334a1071b49459e77493458079ba9de4b7c53301ba715e5940852b3dd",
        "orthogonality": "6b2ea2caafba95821acf135a91b846c2ab296babbab3266fd2dab222ba7402b7",
    },
    "Newton sum without the alternating sign": {
        "thm21": "f1274e2fa44c94fdd86f5e4f205ad83f16165080cad8246ea18ee48aac5c0a9d",
    },
    "divergence_forms with Ltilde's k one short": {
        "prop22": "20ad967d26d9d8e30c17259f66b9d39e4e380bc94ca8006b73daeab90c41935d",
        "prop23": "6c92d3f34b90ec0dac308dad91377be64b16d21260d1f1fdcf1519b0fded7163",
        "cor25": "16c5dda0b9efaefa8f60598cb36f935d1053f97c204634c16e6f22620e41b979",
        "duran": "54db80a881d81ff2af840429d6777eef5367b9df54a8d8c862d02a90ad42f21b",
    },
}


def test_failing_reports_are_pinned(kill_runs):
    pinned = {(name, suite) for name, row in PINNED_KILLS.items()
              for suite, outcome in zip(SUITE_NAMES, row)
              if outcome == "F" and suite != "symmetry"}
    assert pinned == {(name, suite) for name, suites in FAILING_DIGESTS.items()
                      for suite in suites}
    got = {name: {suite: kill_runs[name][1].get(suite) for suite in suites}
           for name, suites in FAILING_DIGESTS.items()}
    assert got == FAILING_DIGESTS


def test_unmutated_tiny_grid_passes():
    # the kills above mean something only if the same grid passes unmutated
    assert all(_outcome(s) == (".", None) for s in SUITE_NAMES)


def test_cli_exits_1_under_a_mutant(capsys):
    with mutated("h_norm doubled"):
        code = cli.main(["verify", "--suite", "symmetry", *TINY_ARGS])
    capsys.readouterr()
    assert code == 1
