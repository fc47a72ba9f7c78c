"""One fresh benchmark process: set-up, timed phase, probes.

Started by ``run.py``; not meant to be run by hand.  Usage:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT [MAX_OPS]

MODE is ``setup`` (set up, report the set-up time, exit), ``run`` (set up,
time whole cycles for SECONDS, then run the probes), ``traced`` (as ``run``
with the tracer installed from before set-up, stopping after MAX_OPS ops and
skipping the probes) or ``probe`` (set up and run only the probes).
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so the set-up time includes interpreter start and imports.

The worker also times fixed calibration kernels, outside the timed
intervals: the interpreter kernel before and after set-up, and the
workload's own kernel (if it has one) before every timed op and after the
last.  ``run.py``
divides the host's drifting speed out of the timings with them.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import struct
import sys
import time

import numpy as np


def _import_library(root):
    """Import ``ellharm`` from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ellharm

    where = os.path.realpath(ellharm.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"ellharm imported from {where}, not from {src}")


def _environment():
    """Versions of what the benchmarked process actually loaded."""
    import platform

    import numpy
    import scipy
    from ellharm import _kernels

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "numba_available": _kernels.NUMBA_AVAILABLE,
    }


# sizes of the calibration kernels (about 3.5 ms and 10 ms), and how many
# times a kernel runs between two timed ops and on each side of the set-up
CAL_ITERATIONS = 10000
CAL_LEGVALS = 75
CAL_STREAM_DOUBLES = 1 << 21
CAL_PER_OP = 3
CAL_PER_SETUP_SIDE = 5
_CAL_X = np.linspace(0.1, 0.9, 12)
_CAL_C = np.arange(1.0, 9.0)
_cal_stream = []


def _interpreter_kernel():
    """A pure-Python loop, then numpy's Legendre series on small arrays:
    the kinds of work (Python arithmetic, numpy's Python-level code) that
    interpreter-bound ops and every set-up do."""
    s = 0.0
    for i in range(1, CAL_ITERATIONS):
        s += math.sqrt(i) / i
    for _ in range(CAL_LEGVALS):
        np.polynomial.legendre.legval(_CAL_X, _CAL_C)


def _memory_kernel():
    """Elementwise numpy passes over 16 MB, well beyond the CPU caches: the
    memory traffic that dominates BEM assembly and dense solves."""
    if not _cal_stream:   # allocated only by workloads that use it
        _cal_stream.append(np.random.default_rng(0).random(CAL_STREAM_DOUBLES))
    np.sqrt(_cal_stream[0] * 1.5 + 0.5)


KERNELS = {"interpreter": _interpreter_kernel, "memory": _memory_kernel}


def _calibration_s(kernel):
    """Wall time of one run of a calibration kernel.  The kernels call no
    library code; the work they stand for slows down with them when the
    shared host does (README.md, Noise), so the ratio of the two does not
    drift with the host's speed."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(struct.pack(f"<{len(out)}d", *out))
    return h.hexdigest()


def _timed(workload, seconds, max_ops, tracer):
    """Closed loop, one client: each op starts when the previous returns.
    Runs whole cycles until ``seconds`` have passed (or ``max_ops`` ops)."""
    from ellharm.errors import NumericalError, ValidationError

    latencies, outputs, errors, calibration = [], [], [], []
    kernel = KERNELS.get(workload.calibration)

    def calibrate():
        if kernel is not None:
            calibration.append(statistics.median(_calibration_s(kernel)
                                                 for _ in range(CAL_PER_OP)))

    if kernel is not None:
        kernel()   # the first run allocates and faults in its buffers
    failed = 0
    max_err = None
    stream = workload.stream()
    t_start = time.monotonic()
    while True:
        for _ in range(workload.cycle):
            inp = next(stream)
            calibrate()
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                out = workload.run(inp)
            except (ValidationError, NumericalError) as exc:
                t1 = time.perf_counter()
                out, ok, err = (), False, None
                errors.append(f"op {len(latencies)}: {type(exc).__name__}: {exc}")
            else:
                t1 = time.perf_counter()
                ok, err = workload.check(inp, out)
                if not ok:
                    errors.append(f"op {len(latencies)}: output check failed: {out}")
            latencies.append(t1 - t0)
            outputs.append(out)
            failed += not ok
            if err is not None:
                max_err = err if max_err is None else max(max_err, err)
        elapsed = time.monotonic() - t_start
        done = len(latencies) >= max_ops if max_ops is not None else elapsed >= seconds
        if done:
            break
    calibrate()   # every op now has calibration runs on both sides
    if tracer is not None:
        tracer.op = None
    return {
        "cal_each_s": calibration,
        "latencies_s": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors[:20],
        "max_check_err": max_err,
        "digest": _digest(outputs),
    }


def _probes(workload):
    """Run the leading ops of the default seed's stream on a set-up
    workload: their outputs go against reference.json, their errors
    against the independent references."""
    from workloads import DEFAULT_SEED

    outputs, errs = [], []
    for inp in type(workload)(DEFAULT_SEED).inputs(workload.probe_ops):
        out, err = workload.probe(inp)
        outputs.append(list(out))
        if err is not None:
            errs.append(err)
    return {"outputs": outputs, "physics_errs": errs}


def main(argv):
    mode, name, seed, seconds, spawned_at = argv[:5]
    max_ops = int(argv[5]) if len(argv) > 5 else None
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    root = os.getcwd()
    # the set-up time excludes these first calibration runs
    t_cal = time.monotonic()
    calibration = [_calibration_s(_interpreter_kernel) for _ in range(CAL_PER_SETUP_SIDE)]
    t_cal = time.monotonic() - t_cal
    _import_library(root)
    from workloads import WORKLOADS

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name](seed)
    result = {"mode": mode, "calibration": workload.calibration}
    workload.setup()
    result["setup_s"] = time.monotonic() - spawned_at - t_cal
    calibration += [_calibration_s(_interpreter_kernel) for _ in range(CAL_PER_SETUP_SIDE)]
    result["setup_cal_s"] = statistics.median(calibration)
    if mode in ("setup", "probe"):
        if mode == "probe":
            result["probe"] = _probes(workload)
        print(json.dumps(result))
        return 0
    if tracer is not None:
        tracer.phase = "timed"
    result.update(_timed(workload, seconds, max_ops, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _environment()
    if tracer is not None:
        tracer.uninstall()
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, result["attempted"])
        result["stats"] = {f"{phase}:{name}": {"calls": st.calls, "total_s": st.total_s,
                                               "self_s": st.self_s}
                           for (phase, name), st in tracer.stats.items()}
        result["spans"] = [s for s in tracer.spans if s is not None]
    else:
        result["probe"] = _probes(workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
