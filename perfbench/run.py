"""Benchmark of `genjacobi verify`, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default-serial --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics.  It runs `python -m genjacobi
verify ...` in a fresh process, again and again, for about --seconds.  It
reports the median over those processes.  Each timing is scaled by the
host's speed while it was taken, as perfbench/speedometer.py measures it;
the raw timings are kept in the record.
--trace 1 runs the workload's command three times in-process under
perfbench/tracer.py and reports the per-layer metrics.  The traced run
does a fixed amount of work and ignores --seconds.

Every report passes a correctness gate (see `check_report`).  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record goes to perfbench/results/: the
environment, every sample, the report digests and the spans.
METRICS.md documents each metric and workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from speedometer import Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# setup_s is the median of SETUP_FIRST imports before the first verify
# process and SETUP_BETWEEN after each one, so a burst of load from
# elsewhere on the machine lands on few of its samples
SETUP_FIRST = 7
SETUP_BETWEEN = 3
RUN_LIMIT_S = 170      # a run never lasts longer than this
SUITES = ("thm21", "prop22", "prop23", "cor24", "cor25", "duran",
          "symmetry", "orthogonality")

DEFAULT_ARGS = ("--suite", "all", "--format", "json")


@dataclass(frozen=True)
class Workload:
    args: tuple     # verify arguments, without --seed
    threads: int    # GENJACOBI_THREADS
    cases: int      # cases in the report
    digest: str     # sha256 of the report with its seed echoed as 0


WORKLOADS = {
    "default-serial": Workload(
        DEFAULT_ARGS, 1, 50992,
        "e1ce52c019ad02ed0d9119903e70d4caa9820661b440ba37f85aee7b4e9fbc0c"),
    # the only workload on which the process pool runs
    "default-2proc": Workload(
        DEFAULT_ARGS, 2, 50992,
        "e1ce52c019ad02ed0d9119903e70d4caa9820661b440ba37f85aee7b4e9fbc0c"),
    "thm21-high-order": Workload(
        ("--suite", "thm21", "--alpha-max", "8", "--beta-max", "8", "--nmax", "30",
         "--bigm", "1", "--bign", "1", "--format", "json"), 1, 3159,
        "94f2eea741ec81ccbbf350a371ba6ecb4e4c7217196a1db82e069f3aa87d5704"),
    # A grid small enough for the benchmark's own tests; not in BENCHMARK.json.
    "tiny": Workload(
        ("--suite", "all", "--nmax", "2", "--alpha-max", "1", "--beta-max", "1",
         "--bigm", "1", "--bign", "1", "--format", "json"), 1, 721,
        "1865cc289c27d8cae23faf5c9fdfdb62f4c61020f83472d993d457df4ea61274"),
}

END_TO_END = {
    "verify_s": "s",
    "cases_per_s": "cases/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    units = {}

    def calls_self(*names):
        for name in names:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"

    calls_self("kernel.conv")
    units["kernel.conv.small_share"] = "share"
    calls_self("kernel.add_scaled", "kernel.vec_gcd")
    units["kernel.coeff_bits_max"] = "bits"
    calls_self(*(f"algebra.{op}" for op in ("mul", "add", "derive", "exact_div",
                                            "eval", "pochhammer")))
    calls_self("jacobi.jacobi_poly", "genjacobi.gen_jacobi")
    units["genjacobi.blocks.self_s"] = "s"
    for cache in ("jacobi.cache", "genjacobi.cache"):
        units[f"{cache}.hit_ratio"] = "share"
        units[f"{cache}.entries"] = "count"
    calls_self(*(f"operators.apply_{k}" for k in ("L2", "Ltilde", "Lhat", "Lfull",
                                                  "combined", "factorized", "duran")))
    calls_self("operators.expand_operator", "operators.scalars")
    calls_self(*(f"inner.{f}" for f in ("integrate", "weighted_integral",
                                        "inner_product", "gram_matrix",
                                        "symmetry_defect")))
    units["inner.bilinear.self_s"] = "s"
    for suite in SUITES:
        units[f"verify.suite.{suite}.wall_s"] = "s"
        units[f"verify.suite.{suite}.wall_2proc_s"] = "s"
        units[f"verify.suite.{suite}.speedup_2proc"] = "x"
    for suite in SUITES:
        units[f"verify.points.{suite}"] = "count"
    units["verify.point.p50_s"] = "s"
    units["verify.point.max_s"] = "s"
    units["verify.pool.setup_s"] = "s"
    calls_self("report.case_check")
    units["report.render_json_s"] = "s"
    units["report.bytes"] = "B"
    units["cli.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "share"
    return units


# ---------------- the program under test ----------------

def program_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["GENJACOBI_THREADS"] = str(threads)
    return env


def run_limited(cmd: list, env: dict, stdout, timeout: float) -> tuple:
    """Run cmd to completion; return (exit code, start, end, rusage of its tree).

    Start and end are perf_counter readings.  os.wait4 reports the CPU time
    and peak RSS of the process together with every descendant it waited
    for, such as pool workers.  A process still running at the timeout is
    killed and reported as exit code -9.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage


SETUP_CMD = [sys.executable, "-c",
             "import genjacobi.cli, genjacobi.kernel as k; print(k.BACKEND)"]


def kernel_backend(deadline: float) -> str:
    """Import genjacobi.cli once, unmeasured, and return kernel.BACKEND.

    This also writes the bytecode cache before any timing starts."""
    probe = subprocess.run(SETUP_CMD, env=program_env(1), cwd=ROOT, capture_output=True,
                           text=True, check=True,
                           timeout=max(deadline - time.perf_counter(), 1.0))
    return probe.stdout.strip()


def measure_setup(reps: int, deadline: float) -> list:
    """(start, end) of fresh interpreters importing genjacobi.cli, spawn to exit."""
    spans = []
    for _ in range(reps):
        exit_code, t0, t1, _ = run_limited(SETUP_CMD, program_env(1), subprocess.DEVNULL,
                                           deadline - time.perf_counter())
        if exit_code != 0:
            raise RuntimeError("importing genjacobi.cli failed")
        spans.append((t0, t1))
    return spans


# ---------------- correctness gate ----------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalized_digest(data: bytes, seed: int) -> str:
    """Digest of a JSON report with its echoed seed replaced by 0.

    The top-level "seed" field is the only place the seed can reach the
    bytes of a passing report: passing cases carry the residual "0"
    whatever the random draws were.  So at every seed the normalized
    digest must equal the workload's seed-0 digest.
    """
    echo = b'\n  "seed": %d,\n' % seed
    return sha256(data.replace(echo, b'\n  "seed": 0,\n', 1))


def check_report(wl: Workload, seed: int, exit_code: int, data: bytes,
                 parsed: dict) -> list:
    """Problems with one verify report; an empty list means it passed.

    Checks: exit code 0, all_pass, the expected case count, no failed
    case, and the digest against the workload's seed-0 digest.  `parsed`
    caches the JSON checks per raw digest, since every report of one run
    should be the same bytes.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    digest = sha256(data)
    if digest not in parsed:
        found = []
        try:
            rec = json.loads(data)
        except ValueError:
            found.append("stdout is not JSON")
        else:
            cases = rec.get("cases", [])
            if rec.get("all_pass") is not True:
                found.append("all_pass is not true")
            if len(cases) != wl.cases:
                found.append(f"{len(cases)} cases, expected {wl.cases}")
            failed = sum(1 for c in cases if c.get("pass") is False)
            if failed:
                found.append(f"{failed} failed cases")
        if normalized_digest(data, seed) != wl.digest:
            found.append("report digest differs from the pinned seed-0 digest")
        parsed[digest] = found
    return problems + parsed[digest]


# ---------------- environment and results ----------------

def environment(backend: str) -> dict:
    """Where a record was taken.  The git sha is read only when the
    checkout itself is a repository; git never searches above it."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30,
                                 env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "kernel_backend": backend}


def summarize(values: list) -> dict:
    """Median, maximum and count.  With fewer than eleven samples no
    percentile above the median has ten samples beyond it, so the maximum
    stands in for the high percentile."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


# ---------------- --trace 0: end-to-end ----------------

def timed_run(name: str, wl: Workload, seed: int, seconds: float, deadline: float,
              record: dict) -> tuple:
    cpus = os.sched_getaffinity(0)
    if wl.threads == 1:
        # the program and the speedometer share one vCPU; see speedometer.py
        cpus = {max(cpus)}
        os.sched_setaffinity(0, cpus)
    record["env"] = environment(kernel_backend(deadline))
    env = program_env(wl.threads)
    cmd = [sys.executable, "-m", "genjacobi", "verify", *wl.args, "--seed", str(seed)]
    report = RESULTS / f"report-{name}.json"
    parsed, runs = {}, []
    with Speedometer(cpus) as meter:
        setup = measure_setup(SETUP_FIRST, deadline)
        start = time.perf_counter()
        try:
            while True:
                with open(report, "wb") as fh:
                    exit_code, t0, t1, usage = run_limited(cmd, env, fh,
                                                           deadline - time.perf_counter())
                data = report.read_bytes()
                runs.append((t0, t1, usage, sha256(data),
                             check_report(wl, seed, exit_code, data, parsed)))
                setup += measure_setup(SETUP_BETWEEN, deadline)
                # start another process only if it would end nearer to --seconds
                # than stopping now does; runs then last --seconds on average
                elapsed = time.perf_counter() - start
                typical = statistics.median(t1 - t0 for t0, t1, *_ in runs)
                if elapsed + typical / 2 > seconds or time.perf_counter() + typical > deadline:
                    break
        finally:
            report.unlink(missing_ok=True)
    samples = []
    for t0, t1, usage, digest, problems in runs:
        scale = meter.scale(t0, t1)
        cpu = usage.ru_utime + usage.ru_stime
        samples.append({"wall_raw_s": t1 - t0, "cpu_raw_s": cpu, "speed_scale": scale,
                        "verify_s": (t1 - t0) * scale, "cpu_s": cpu * scale,
                        "cases_per_s": wl.cases / ((t1 - t0) * scale),
                        "peak_rss_mb": usage.ru_maxrss / 1024,
                        "sha256": digest, "problems": problems})
    setup_raw = [t1 - t0 for t0, t1 in setup]
    record["samples"] = samples
    record["setup_raw_s"] = setup_raw
    record["setup_s"] = [(t1 - t0) * meter.scale(t0, t1) for t0, t1 in setup]
    record["burst_costs_s"] = [c for _, c in meter.samples]
    record["summary"] = {k: summarize([s[k] for s in samples])
                         for k in ("verify_s", "cases_per_s", "cpu_s", "peak_rss_mb",
                                   "wall_raw_s", "cpu_raw_s", "speed_scale")}
    record["summary"]["setup_s"] = summarize(record["setup_s"])
    record["summary"]["setup_raw_s"] = summarize(setup_raw)
    metrics = {k: record["summary"][k]["median"] for k in END_TO_END}
    failed = sum(1 for s in samples if s["problems"])
    return metrics, len(samples), failed


# ---------------- --trace 1: per layer ----------------

def tracer_run(name: str, wl: Workload, seed: int, mode: str, threads: int,
               deadline: float) -> tuple:
    """One in-process run under tracer.py; returns (summary, problems)."""
    tag = f"{name}-{mode}-{threads}"
    report = RESULTS / f"report-{tag}.json"
    cmd = [sys.executable, str(BENCH / "tracer.py"), "--mode", mode,
           "--threads", str(threads), "--report", str(report),
           "--spans", str(RESULTS / f"spans-{tag}-seed{seed}.json"),
           "--", *wl.args, "--seed", str(seed)]
    try:
        out = subprocess.run(cmd, env=program_env(1), cwd=ROOT, capture_output=True,
                             text=True, timeout=max(deadline - time.perf_counter(), 1.0))
        if out.returncode != 0:
            return None, [f"tracer exited with {out.returncode}: {out.stderr[-500:]}"]
        summary = json.loads(out.stdout.splitlines()[-1])
        data = report.read_bytes()
    except subprocess.TimeoutExpired:
        return None, ["tracer run timed out"]
    finally:
        report.unlink(missing_ok=True)
    summary["report_bytes"] = len(data)
    problems = check_report(wl, seed, summary["exit_code"], data, {})
    if not summary["restored"]:
        problems.append("a wrapped function was not restored")
    return summary, problems


def traced_run(name: str, wl: Workload, seed: int, deadline: float, record: dict) -> tuple:
    runs, problems = {}, {}
    for key, mode, threads in (("serial", "verify", 1), ("2proc", "verify", 2),
                               ("full", "full", 1)):
        runs[key], problems[key] = tracer_run(name, wl, seed, mode, threads, deadline)
    record["problems"] = problems
    failed = sum(1 for p in problems.values() if p)
    if failed:
        return {}, len(runs), failed
    serial, pool, full = runs["serial"], runs["2proc"], runs["full"]
    record["env"] = environment(full["backend"])
    record["runs"] = runs

    metrics = {}
    stats = full["stats"]
    for metric in per_layer_units():
        base, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and base in stats:
            metrics[metric] = stats[base][field]
    metrics["kernel.conv.small_share"] = full["conv_small_share"]
    metrics["kernel.coeff_bits_max"] = full["coeff_bits_max"]
    for cache in ("jacobi", "genjacobi"):
        metrics[f"{cache}.cache.hit_ratio"] = full[f"{cache}_cache"]["hit_ratio"]
        metrics[f"{cache}.cache.entries"] = full[f"{cache}_cache"]["entries"]
    for suite in SUITES:
        one = serial["suite_wall_s"].get(suite, 0.0)
        two = pool["suite_wall_s"].get(suite, 0.0)
        metrics[f"verify.suite.{suite}.wall_s"] = one
        metrics[f"verify.suite.{suite}.wall_2proc_s"] = two
        metrics[f"verify.suite.{suite}.speedup_2proc"] = one / two if two else 0.0
        metrics[f"verify.points.{suite}"] = serial["points"].get(suite, 0)
    metrics["verify.point.p50_s"] = serial["point_p50_s"]
    metrics["verify.point.max_s"] = serial["point_max_s"]
    metrics["verify.pool.setup_s"] = pool["pool_launch_s"]
    metrics["report.render_json_s"] = serial["render_s"]
    metrics["report.bytes"] = serial["report_bytes"]
    metrics["cli.self_s"] = serial["stats"]["cli.main"]["self_s"]
    overhead = full["main_wall_s"] - serial["main_wall_s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / serial["main_wall_s"]
    # a wrapped function the workload never calls has no stats entry
    for metric in per_layer_units():
        metrics.setdefault(metric, 0)
    return metrics, len(runs), 0


# ---------------- entry point ----------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "genjacobi" / "cli.py").is_file():
        print(f"error: no genjacobi sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "command": ["genjacobi", "verify", *wl.args,
                                                   "--seed", str(args.seed)],
              "threads": wl.threads}
    if args.trace:
        values, attempted, failed = traced_run(args.workload, wl, args.seed, deadline, record)
        units = per_layer_units()
    else:
        values, attempted, failed = timed_run(args.workload, wl, args.seed, args.seconds,
                                              deadline, record)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    record["metrics"] = metrics
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"record: {out.relative_to(ROOT)}")
    for key, summ in record.get("summary", {}).items():
        print(f"{key}: median {summ['median']:.4f}, max {summ['max']:.4f}, n {summ['n']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
