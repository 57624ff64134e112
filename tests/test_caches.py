"""Every memo cache in the package is bounded."""
import importlib
import pkgutil

import genjacobi
from genjacobi import genjacobi as gj, inner, jacobi
from genjacobi.verify import run_suite


def _lru_caches():
    found = {}
    for info in pkgutil.iter_modules(genjacobi.__path__):
        module = importlib.import_module(f"genjacobi.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_parameters"):
                found[f"{info.name}.{name}"] = value
    return found


def test_every_lru_cache_has_a_finite_maxsize():
    caches = _lru_caches()
    assert {"jacobi._jacobi_hyp", "genjacobi._gen_jacobi_cached", "genjacobi._blocks",
            "algebra.pochhammer", "inner.h_norm", "inner._moment_block",
            "inner._weight_moments", "inner.pairing_defects",
            "operators._column_list", "operators._combined_entry",
            "operators.divergence_forms", "algebra.endpoint_weight"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


def test_the_moment_vector_has_one_cached_route():
    # the moment vector is the cached weight moments scaled by 1 / h_norm;
    # the steps under a miss of those caches keep no cache of their own
    for func in (inner._normalized_moments, inner.weight_poly, inner._monomial_integrals):
        assert not hasattr(func, "cache_info"), func.__name__


def test_one_symmetry_run_builds_each_pairing_entry_once():
    # the 16 mass points of one (alpha, beta) run together and share its
    # defect matrices, so the default grid builds each of its 16 pairs once
    inner.pairing_defects.cache_clear()
    assert run_suite("symmetry", threads=1).all_pass
    assert inner.pairing_defects.cache_info().misses == 16


def test_the_cache_bounds_keep_every_reuse_of_a_default_run():
    # counts of a serial default-grid run from cold caches, the same with
    # gen_jacobi's cache unbounded: a bound that drops an entry one (alpha,
    # beta) group still reads adds misses here
    for cache in _lru_caches().values():
        cache.cache_clear()
    assert run_suite("all", threads=1).all_pass
    gen_jacobi = gj._gen_jacobi_cached.cache_info()
    jacobi_hyp = jacobi._jacobi_hyp.cache_info()
    assert (gen_jacobi.hits, gen_jacobi.misses) == (3344, 3328)
    assert (jacobi_hyp.hits, jacobi_hyp.misses) == (2067, 445)
