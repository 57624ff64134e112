"""In-process tracing of one `genjacobi verify` run, from outside the package.

The tracer rebinds the public functions of each genjacobi module to timing
wrappers: every module that imported a name gets the wrapper, and the
`Poly`, `Case` and `VerifyReport` methods are wrapped on their classes.
Each wrapper keeps a call count and a self time (its inclusive time minus
the time spent in wrapped callees).  Layer-boundary calls of the runner
(cli.main, run_suite, the per-point workers, rendering) also record spans
(name, detail, start, end, parent).  Everything stays in memory until the
run ends, and `uninstall` puts every original object back.

Run as a script it executes one verify command in this process and prints
a JSON summary on its last stdout line:

    PYTHONPATH=src python3 perfbench/tracer.py --mode full --threads 1 \\
        --report report.json --spans spans.json -- --suite thm21 --nmax 4 --format json

--mode verify wraps only the runner layer (a few thousand calls, so the
run is effectively untraced); --mode full wraps every layer.  The report
text that the CLI would print goes to --report, the spans to --spans.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from importlib import import_module

SMALL_CONV = 7  # both conv operands at most this many entries count as small

# (module, attribute or "Class.method", metric name).  Several functions may
# share one metric name; their counts and self times add up.
HOT = (
    ("kernel", "conv", "kernel.conv"),
    ("kernel", "add_scaled", "kernel.add_scaled"),
    ("kernel", "vec_gcd", "kernel.vec_gcd"),
    ("algebra", "Poly.__mul__", "algebra.mul"),
    ("algebra", "Poly.__add__", "algebra.add"),
    ("algebra", "Poly.derive", "algebra.derive"),
    ("algebra", "Poly.exact_div", "algebra.exact_div"),
    ("algebra", "Poly.eval", "algebra.eval"),
    ("algebra", "pochhammer", "algebra.pochhammer"),
    ("jacobi", "jacobi_poly", "jacobi.jacobi_poly"),
    ("genjacobi", "gen_jacobi", "genjacobi.gen_jacobi"),
    ("genjacobi", "coeff_q", "genjacobi.blocks"),
    ("genjacobi", "coeff_r", "genjacobi.blocks"),
    ("genjacobi", "coeff_s", "genjacobi.blocks"),
    ("genjacobi", "poly_Q", "genjacobi.blocks"),
    ("genjacobi", "poly_R", "genjacobi.blocks"),
    ("genjacobi", "poly_S", "genjacobi.blocks"),
    ("operators", "apply_L2", "operators.apply_L2"),
    ("operators", "apply_Ltilde", "operators.apply_Ltilde"),
    ("operators", "apply_Lhat", "operators.apply_Lhat"),
    ("operators", "apply_Lfull", "operators.apply_Lfull"),
    ("operators", "apply_combined", "operators.apply_combined"),
    ("operators", "apply_factorized", "operators.apply_factorized"),
    ("operators", "apply_duran", "operators.apply_duran"),
    ("operators", "expand_operator", "operators.expand_operator"),
    ("operators", "eigen_lambda2", "operators.scalars"),
    ("operators", "eigen_high", "operators.scalars"),
    ("operators", "eigen_combined", "operators.scalars"),
    ("operators", "const_b", "operators.scalars"),
    ("operators", "const_c", "operators.scalars"),
    ("inner", "integrate", "inner.integrate"),
    ("inner", "weighted_integral", "inner.weighted_integral"),
    ("inner", "inner_product", "inner.inner_product"),
    ("inner", "gram_matrix", "inner.gram_matrix"),
    ("inner", "symmetry_defect", "inner.symmetry_defect"),
    ("inner", "bilinear_U", "inner.bilinear"),
    ("inner", "bilinear_V", "inner.bilinear"),
    ("inner", "bilinear_Vt", "inner.bilinear"),
    ("inner", "bilinear_W", "inner.bilinear"),
    ("report", "Case.check", "report.case_check"),
)

# Runner-layer boundaries, recorded as spans as well as counters.
RUNNER = (
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
    ("report", "VerifyReport.render", "report.render"),
)

# The unit of work each suite iterates over, one call per grid point.
# _thm21_point and _symmetry_point are the workers the process pool runs;
# they are wrapped in serial runs only, since a pool must pickle them.
POINT_WORKERS = (
    ("verify", "_thm21_point", "thm21"),
    ("verify", "verify_prop22", "prop22"),
    ("verify", "verify_prop23", "prop23"),
    ("verify", "verify_cor24", "cor24"),
    ("verify", "verify_cor25", "cor25"),
    ("verify", "verify_duran", "duran"),
    ("verify", "_symmetry_point", "symmetry"),
    ("verify", "verify_orthogonality", "orthogonality"),
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "genjacobi" or name.startswith("genjacobi."))]


class Tracer:
    """Counters and spans for wrapped genjacobi functions."""

    def __init__(self):
        self.stats = {}          # metric name -> [calls, self seconds]
        self.spans = []          # [name, detail, start, end, parent index]
        self.conv_small = 0
        self.coeff_bits_max = 0
        self.pool_launch_s = 0.0
        self._child = []         # wrapped-callee seconds, one slot per open call
        self._open_spans = []
        self._saved = []         # (owner, attribute, original object)

    # ---------------- wrappers ----------------

    def _counter(self, name: str, fn, probe=None, span_detail=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        child = self._child
        spans, open_spans = self.spans, self._open_spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if span_detail is not None:
                spans.append([name, span_detail(args), clock(), None,
                              open_spans[-1] if open_spans else None])
                open_spans.append(len(spans) - 1)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat[0] += 1
                stat[1] += t1 - t0 - child.pop()
                if span_detail is not None:
                    spans[open_spans.pop()][3] = t1
            if probe is not None:
                probe(args, result)
            if child:
                # the parent excludes this call and its bookkeeping
                child[-1] += clock() - t0
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def _probe_conv(self, args, result):
        a, b = args
        if len(a) <= SMALL_CONV and len(b) <= SMALL_CONV:
            self.conv_small += 1
        self._probe_bits(args, result)

    def _probe_bits(self, args, result):
        if result:
            bits = max(max(result), -min(result)).bit_length()
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    # ---------------- install / uninstall ----------------

    def _rebind(self, module_name: str, attr: str, make) -> None:
        """Replace one function everywhere the package refers to it."""
        module = import_module(f"genjacobi.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            for key, value in list(cls.__dict__.items()):
                if value is original:   # also catches __rmul__ / __radd__
                    self._saved.append((cls, key, original))
                    setattr(cls, key, replacement)
            return
        original = getattr(module, attr)
        replacement = make(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self, mode: str, threads: int) -> None:
        """Wrap the runner layer, plus every hot function when mode == 'full'."""
        import genjacobi.cli  # noqa: F401  (loads every module that gets wrapped)
        from genjacobi import verify

        no_detail = lambda args: None  # noqa: E731
        for module, attr, name in RUNNER:
            detail = (lambda args: args[0]) if name == "verify.run_suite" else no_detail
            self._rebind(module, attr, partial(self._counter, name, span_detail=detail))
        if threads == 1:
            for module, attr, suite in POINT_WORKERS:
                self._rebind(module, attr, partial(self._counter, f"verify.point.{suite}",
                                                   span_detail=no_detail))
        else:
            self._saved.append((verify, "ProcessPoolExecutor", verify.ProcessPoolExecutor))
            verify.ProcessPoolExecutor = self._timed_pool_class()
        if mode == "full":
            probes = {"kernel.conv": self._probe_conv,
                      "kernel.add_scaled": self._probe_bits}
            for module, attr, name in HOT:
                self._rebind(module, attr, partial(self._counter, name, probe=probes.get(name)))

    def _timed_pool_class(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            """Adds the time spent launching worker processes to the tracer."""

            def _launch_processes(self):
                t0 = time.perf_counter()
                super()._launch_processes()
                tracer.pool_launch_s += time.perf_counter() - t0

        return TimedPool

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def restored(self) -> bool:
        """True when no wrapper is left anywhere the tracer looked."""
        import genjacobi.algebra as algebra
        import genjacobi.report as report
        owners = _package_modules() + [algebra.Poly, report.Case, report.VerifyReport]
        for owner in owners:
            for value in vars(owner).values():
                fn = value.__func__ if isinstance(value, classmethod) else value
                if getattr(fn, "perfbench_wrapper", False):
                    return False
        return True

    # ---------------- summaries ----------------

    def suite_walls(self) -> dict:
        return {detail: end - start for name, detail, start, end, _ in self.spans
                if name == "verify.run_suite" and detail != "all"}

    def point_times(self) -> dict:
        out = {}
        for name, _, start, end, _ in self.spans:
            if name.startswith("verify.point."):
                out.setdefault(name[len("verify.point."):], []).append(end - start)
        return out


def run_verify(argv: list, mode: str, threads: int) -> tuple:
    """Run `genjacobi verify argv` in this process; return (tracer, exit
    code, wall seconds of cli.main, captured stdout, restored flag)."""
    from genjacobi import cli

    saved_threads = os.environ.get("GENJACOBI_THREADS")
    os.environ["GENJACOBI_THREADS"] = str(threads)
    tracer = Tracer()
    tracer.install(mode, threads)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(["verify", *argv])
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        if saved_threads is None:
            os.environ.pop("GENJACOBI_THREADS")
        else:
            os.environ["GENJACOBI_THREADS"] = saved_threads
    return tracer, code, wall, out.getvalue(), tracer.restored()


def summarize(tracer: Tracer, mode: str) -> dict:
    """The per-layer numbers one traced run contributes."""
    from genjacobi import genjacobi as gj, jacobi, kernel

    stats = {name: {"calls": c, "self_s": s} for name, (c, s) in tracer.stats.items()}
    renders = [end - start for name, _, start, end, _ in tracer.spans
               if name == "report.render"]
    points = tracer.point_times()
    fanned = points.get("thm21", []) + points.get("symmetry", [])
    out = {
        "stats": stats,
        "suite_wall_s": tracer.suite_walls(),
        "points": {suite: len(ts) for suite, ts in points.items()},
        "point_p50_s": statistics.median(fanned) if fanned else 0.0,
        "point_max_s": max(fanned) if fanned else 0.0,
        "render_s": sum(renders),
        "pool_launch_s": tracer.pool_launch_s,
        "backend": kernel.BACKEND,
    }
    if mode == "full":
        conv_calls = stats.get("kernel.conv", {}).get("calls", 0)
        out["conv_small_share"] = tracer.conv_small / conv_calls if conv_calls else 0.0
        out["coeff_bits_max"] = tracer.coeff_bits_max
        for key, fn in (("jacobi", jacobi._jacobi_hyp), ("genjacobi", gj._gen_jacobi_cached)):
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{key}_cache"] = {"hit_ratio": info.hits / lookups if lookups else 0.0,
                                   "entries": info.currsize}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("verify", "full"), required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--report", required=True, help="file for the report text")
    parser.add_argument("--spans", required=True, help="file for the recorded spans (JSON)")
    parser.add_argument("verify_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    verify_args = args.verify_args[1:] if args.verify_args[:1] == ["--"] else args.verify_args

    tracer, code, wall, text, restored = run_verify(verify_args, args.mode, args.threads)
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    summary = summarize(tracer, args.mode)
    summary.update(exit_code=code, main_wall_s=wall, restored=restored)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
