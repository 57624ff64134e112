"""Every memo cache in the package is bounded."""
import importlib
import pkgutil

import genjacobi


def _lru_caches():
    found = {}
    for info in pkgutil.iter_modules(genjacobi.__path__):
        if info.name == "__main__":   # importing it runs the CLI
            continue
        try:
            module = importlib.import_module(f"genjacobi.{info.name}")
        except ImportError:   # the optional compiled kernel
            continue
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_parameters"):
                found[f"{info.name}.{name}"] = value
    return found


def test_every_lru_cache_has_a_finite_maxsize():
    caches = _lru_caches()
    assert {"jacobi._jacobi_hyp", "genjacobi._gen_jacobi_cached",
            "algebra._pochhammer_int", "inner._normalized_moments"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
