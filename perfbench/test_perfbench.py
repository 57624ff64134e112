"""Fast tests of the benchmark itself, on a tiny grid.

    python3 -m pytest -q perfbench
"""
import hashlib
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speedometer  # noqa: E402
import tracer  # noqa: E402

TINY = run.WORKLOADS["tiny"]


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def result(out):
    return json.loads(out.stdout.splitlines()[-1])


def verify_stdout(seed):
    out = subprocess.run([sys.executable, "-m", "genjacobi", "verify", *TINY.args,
                          "--seed", str(seed)], env=run.program_env(1), cwd=ROOT,
                         capture_output=True, check=True, timeout=120)
    return out.stdout


def test_declared_metrics_match_the_benchmark():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END), (1, run.per_layer_units())])
def test_run_emits_every_metric_with_its_unit(trace, units):
    out = bench("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    res = result(out)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def originals():
    """Every object the tracer may replace, keyed by where it lives."""
    found = {}
    for module, attr, _ in tracer.HOT + tracer.RUNNER + tracer.POINT_WORKERS:
        mod = importlib.import_module(f"genjacobi.{module}")
        if "." in attr:
            cls, meth = attr.split(".")
            found[(module, attr)] = vars(getattr(mod, cls))[meth]
        else:
            found[(module, attr)] = getattr(mod, attr)
    for mod in tracer._package_modules():
        for key, value in vars(mod).items():
            if callable(value):
                found[(mod.__name__, key)] = value
    return found


@pytest.mark.parametrize("mode, threads", [("full", 1), ("verify", 2)])
def test_tracer_restores_originals_and_keeps_the_report(mode, threads):
    before = originals()
    _, code, _, text, restored = tracer.run_verify([*TINY.args, "--seed", "0"], mode, threads)
    after = originals()
    assert code == 0 and restored
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    traced = hashlib.sha256(text.encode()).hexdigest()
    assert traced == hashlib.sha256(verify_stdout(0)).hexdigest() == TINY.digest


def test_seed_reaches_the_program_and_only_the_echo_changes_bytes():
    zero, one = verify_stdout(0), verify_stdout(1)
    assert len(json.loads(zero)["cases"]) == len(json.loads(one)["cases"]) == TINY.cases
    assert hashlib.sha256(zero).hexdigest() != hashlib.sha256(one).hexdigest()
    assert run.normalized_digest(one, 1) == run.normalized_digest(zero, 0) == TINY.digest


def test_speed_scale_is_nominal_over_the_mean_burst_nearby():
    meter = speedometer.Speedometer(set())
    slow = 2 * speedometer.NOMINAL_BURST_S
    meter.samples = [(i * speedometer.PERIOD_S, slow) for i in range(200)]
    assert meter.scale(1.0, 3.0) == pytest.approx(0.5)
    # an interval too short to hold MIN_BURSTS bursts is judged by those around it
    meter.samples = [(i * speedometer.PERIOD_S, slow if i < 100 else slow / 2)
                     for i in range(200)]
    assert 0.5 < meter.scale(2.0, 2.0) < 1
    assert meter.scale(3.5, 3.5) == pytest.approx(1.0)


def test_gate_rejects_a_changed_report():
    data = verify_stdout(0)
    assert run.check_report(TINY, 0, 0, data, {}) == []
    bad = data.replace(b'"all_pass": true', b'"all_pass": false')
    assert "all_pass is not true" in run.check_report(TINY, 0, 0, bad, {})
    assert "exit code 1" in run.check_report(TINY, 0, 1, data, {})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for backend in ("python", "cython"):
        rec = {"workload": "tiny", "trace": 0, "env": {"kernel_backend": backend},
               "metrics": {"verify_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    out = subprocess.run([sys.executable, str(BENCH / "compare.py"),
                          "--base", paths[0], "--new", paths[1]],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "backends" in out.stderr
