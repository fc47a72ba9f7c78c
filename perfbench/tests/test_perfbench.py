"""Tests of the benchmark itself, not of ellharm.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Several tests start real benchmark processes with short timed phases, so
the file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import ellharm  # noqa: E402
import run as runner  # noqa: E402
from layers import UNITS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, seed=3, seconds=0.1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = WORKLOADS[name]
    count = 2 * cls.cycle
    first = cls(5).inputs(count)
    assert first == cls(5).inputs(count)
    assert first != cls(6).inputs(count)


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(runner.WORKLOADS)
    assert set(runner.WORKLOADS) == set(WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    lat = [float(i) for i in range(30)]
    assert runner.tail(lat) == (19.0, 100.0 * 20 / 30)
    assert runner.tail(lat[:19]) == (18.0, 100.0)


def test_calibrated_times_do_not_move_with_host_speed():
    def metrics(slowdown, calibration):
        run = {"latencies_s": [0.1 * slowdown * (1 + i % 5) for i in range(40)],
               "cal_each_s": [3e-3 * slowdown] * 41, "calibration": calibration,
               "setup_s": 2.0 * slowdown, "setup_cal_s": 3e-3 * slowdown,
               "attempted": 40, "failed": 0,
               "probe": {"outputs": [[1.0]], "physics_errs": [1e-9]},
               "peak_rss_mb": 60.0, "max_check_err": None, "errors": []}
        return runner.end_to_end([run] * 3, run, [[1.0]])[0]

    fast, slow = metrics(1.0, "memory"), metrics(1.4, "memory")
    for name, value in fast.items():
        assert slow[name] == pytest.approx(value, rel=1e-12), name
    fast, slow = metrics(1.0, None), metrics(1.4, None)
    assert slow["setup_s"] == pytest.approx(fast["setup_s"], rel=1e-12)
    for name in ("op_p50_s", "op_tail_s"):
        assert slow[name] == pytest.approx(1.4 * fast[name], rel=1e-12), name


def test_tracer_wraps_every_binding_and_restores_them():
    import ellharm.harmonics
    import ellharm.lame1
    import ellharm.lame2

    original = ellharm.lame1.eval_lame
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (ellharm, ellharm.lame1, ellharm.lame2, ellharm.harmonics):
            assert mod.eval_lame is not original
            assert mod.eval_lame.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in (ellharm, ellharm.lame1, ellharm.lame2, ellharm.harmonics):
        assert mod.eval_lame is original


def test_one_command_prints_every_end_to_end_metric():
    proc = _run("charge-scan", trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == runner.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in runner.END_TO_END.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1])


def test_traced_outputs_are_bit_identical_to_untraced():
    deadline = time.monotonic() + 170
    plain = runner.spawn(ROOT, deadline, "run", "charge-scan", 4, 0.1)
    traced = runner.spawn(ROOT, deadline, "traced", "charge-scan", 4, 0.1,
                          max_ops=plain["attempted"])
    assert traced["attempted"] == plain["attempted"]
    assert traced["digest"] == plain["digest"]


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("exterior-field", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == UNITS
    assert metrics["lame2.eval_I.calls"]["value"] > 0
    assert metrics["setup.harmonics.gamma.calls"]["value"] > 0
    assert metrics["bem.solve_bem.self_s"]["value"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run("charge-scan", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
