"""Every memo cache in the package is bounded."""
import importlib
import pkgutil

import genjacobi


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
            "algebra.pochhammer", "inner._normalized_moments", "inner._moment_block",
            "operators._column_list", "operators._combined_entry",
            "algebra.endpoint_weight"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
