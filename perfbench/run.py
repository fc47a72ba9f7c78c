"""Benchmark for ellharm: seeded workloads through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload charge-scan --seed 1 --seconds 35 --trace 0

Workloads: charge-scan, geometry-sweep, exterior-field, bem-oracle (see
``workloads.py`` for what each one stresses and why; BENCHMARK.json lists
the two whose run-to-run spread fits its bounds, see README.md).  One
client drives a closed loop: each op starts when the previous one returns,
as a library caller waits for its result.  Every worker is a fresh process, so the
library's module-level memos start empty.

``--trace 0`` starts SETUP_REPEATS fresh processes; each sets up the
workload, and the last one also runs the timed phase and then the probes.
It prints the end-to-end metrics:

  setup_s          median over the processes of the wall time from process
                   start to the first timed op (interpreter start, imports,
                   the workload's tables and its untimed warm-up op)
  ops_per_s        ops completed per second spent in ops
  op_p50_s         median op latency
  op_tail_s        latency at the highest percentile with at least ten
                   samples beyond it; the maximum below 20 ops, where that
                   percentile would fall under the median (see below)
  ok_frac          1 - failed_frac: the share of attempted ops that neither
                   raised ValidationError/NumericalError nor failed their
                   output check (the complement is reported because a
                   metric here may never be 0; the raw counts are the
                   result's ``attempted`` and ``failed``)
  ref_rel_dev      max relative deviation of the probe outputs from
                   reference.json, floored at REL_FLOOR
  physics_rel_err  max relative error of the probe outputs against an
                   independent reference, floored at REL_FLOOR
  peak_rss_mb      peak resident memory of the timed process

Times are given at the host speed on which the calibration kernels of
``worker.py`` take CAL_REF_S.  Each set-up time is multiplied by the
interpreter kernel's CAL_REF_S over that kernel's median time in the runs
just before and after that set-up.  On workloads with a ``calibration``
kernel (``workloads.py``: the interpreter kernel for charge-scan and
exterior-field, the memory kernel for bem-oracle) each op's latency is
multiplied by the kernel's CAL_REF_S over the mean of its median times in
the runs just before and just after that op.  The shared host's speed drifts by up to 45% over minutes,
and set-ups and ops drift with the kernel that does their kind of work, so
the ratio compares commits where the raw wall time would compare moments.
Geometry-sweep's ops, on which no kernel was tried, are reported as
measured.  The raw times and the kernels' times are in the report's
details.

Tail latency: every workload mixes op sizes of very different cost in
fixed cycles.  When the percentile above falls on the boundary between two
op sizes, it jumps from one to the other as the op count changes with
machine speed; at the run length in BENCHMARK.json it lies inside the
slowest op size for charge-scan and exterior-field, and bem-oracle (one op
size, under 20 ops) reports its maximum.  The report gives the percentile
and the sample count.

Probes are the leading ops of the default seed's stream, rerun in the warm
process after the timed phase.  They are the same inputs in every run, so
the two accuracy metrics compare commits, not seeds; every timed op is
still checked, and its failures count against ok_frac.

``--trace 1`` runs the timed phase once untraced and once with the tracer
installed, for the same seed and the same number of ops, checks that both
produce bit-identical outputs, and prints the per-layer metrics of
``layers.py`` together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment block, goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from layers import UNITS as LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("charge-scan", "geometry-sweep", "exterior-field", "bem-oracle")
SETUP_REPEATS = 5
# round-off resolution of the accuracy metrics: deviations below it are
# last-bit noise (BLAS blocking, summation order) and read as this constant
REL_FLOOR = 1e-12
# probe outputs further than this from reference.json make the run incorrect
REF_TOL = 1e-6
BLAS_THREADS_MAX = 2
# typical times of worker.py's calibration kernels on the baseline machine
# (README.md); they only set the scale of the reported times
CAL_REF_S = {"interpreter": 3.5e-3, "memory": 10e-3}
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "ratio",
    "ref_rel_dev": "ratio",
    "physics_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def blas_threads():
    return max(1, min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))


def worker_env():
    env = dict(os.environ)
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root, deadline, mode, workload, seed, seconds, max_ops=None):
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise WorkerError(f"no time left for the {mode} worker")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
            str(seed), repr(float(seconds)), repr(time.monotonic())]
    if max_ops is not None:
        argv.append(str(max_ops))
    try:
        proc = subprocess.run(argv, cwd=root, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(latency, percentile) at the highest percentile that has at least ten
    samples beyond it, or the maximum when there are fewer than 20 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def rel_dev(outputs, reference):
    if len(outputs) != len(reference):
        return math.inf
    dev = 0.0
    for out, ref in zip(outputs, reference):
        if len(out) != len(ref):
            return math.inf
        for x, r in zip(out, ref):
            d = abs(x - r) / abs(r) if r else abs(x)
            dev = max(dev, d if math.isfinite(d) else math.inf)
    return dev


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[workload]["outputs"]


def git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(root, worker_env_block):
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        **worker_env_block,
    }


def end_to_end(setups, run, reference):
    """The end-to-end metrics of one run.  ``setups`` holds every process's
    set-up result (the timed one last) and ``run`` the timed process's."""
    raw = run["latencies_s"]
    lat = raw
    if run["calibration"] is not None:
        ref, cal = CAL_REF_S[run["calibration"]], run["cal_each_s"]
        lat = [t * ref * 2.0 / (cal[i] + cal[i + 1]) for i, t in enumerate(raw)]
    tail_s, tail_pct = tail(lat)
    probe = run["probe"]
    ref_dev = rel_dev(probe["outputs"], reference)
    setup_s = [w["setup_s"] * CAL_REF_S["interpreter"] / w["setup_cal_s"] for w in setups]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ok_frac": (run["attempted"] - run["failed"]) / run["attempted"],
        "ref_rel_dev": max(REL_FLOOR, ref_dev),
        "physics_rel_err": max(REL_FLOOR, max(probe["physics_errs"])),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {
        "setup_s_each": setup_s,
        "raw_setup_s_each": [w["setup_s"] for w in setups],
        "setup_cal_s_each": [w["setup_cal_s"] for w in setups],
        "calibration": run["calibration"],
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": tail(raw)[0],
        "op_tail_percentile": tail_pct,
        "op_samples": len(lat),
        "latencies_s": raw,
        "cal_each_s": run["cal_each_s"],
        "failed_frac": run["failed"] / run["attempted"],
        "ref_rel_dev_raw": ref_dev,
        "physics_rel_err_raw": max(probe["physics_errs"]),
        "timed_ops_max_check_err": run["max_check_err"],
        "errors": run["errors"],
    }
    return metrics, details, ref_dev <= REF_TOL


def measure(root, args, deadline):
    if args.trace:
        plain = spawn(root, deadline, "run", args.workload, args.seed, args.seconds)
        traced = spawn(root, deadline, "traced", args.workload, args.seed, args.seconds,
                       max_ops=plain["attempted"])
        untraced_s = sum(plain["latencies_s"]) / plain["attempted"]
        traced_s = sum(traced["latencies_s"]) / traced["attempted"]
        metrics = dict(traced["layers"])
        metrics.update({
            "trace.ops": traced["attempted"],
            "trace.untraced_s_per_op": untraced_s,
            "trace.traced_s_per_op": traced_s,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        })
        correct = (traced["digest"] == plain["digest"]
                   and rel_dev(plain["probe"]["outputs"], load_reference(args.workload)) <= REF_TOL)
        details = {"bit_identical": traced["digest"] == plain["digest"],
                   "errors": plain["errors"], "stats": traced["stats"]}
        spans = traced.pop("spans")
        return plain, metrics, details, correct, spans, traced["env"]
    setups = [spawn(root, deadline, "setup", args.workload, args.seed, args.seconds)
              for _ in range(SETUP_REPEATS - 1)]
    run = spawn(root, deadline, "run", args.workload, args.seed, args.seconds)
    setups.append(run)
    metrics, details, ref_ok = end_to_end(setups, run, load_reference(args.workload))
    return run, metrics, details, ref_ok, None, run["env"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ellharm", "__init__.py")):
        print("error: run from the root of an ellharm checkout (no src/ellharm here)",
              file=sys.stderr)
        return 2
    try:
        run, metrics, details, correct, spans, env_block = measure(root, args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else END_TO_END
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root, env_block),
        "details": details,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "start", "end"), s))))
                fh.write("\n")
    report(result)
    print(json.dumps({"correct": bool(correct), "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": result["metrics"]}))
    return 0


def report(result):
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']}")
    print("# environment: " + json.dumps(result["environment"]))
    for key, val in result["details"].items():
        if key not in ("latencies_s", "cal_each_s", "stats"):   # long; in the result file
            print(f"# {key}: {val}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
