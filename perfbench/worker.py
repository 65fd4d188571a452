"""One benchmark process: run a workload table repeatedly through
``validate_config`` -> ``run_experiment`` and report each repetition.

Reads a JSON job from stdin and prints one JSON object on stdout.  The job
names the raw config, the output directory, how many seconds to measure,
the minimum number of repetitions, and whether to calibrate or trace.
Repetitions are sequential (a closed loop with one caller); the next one
starts only when the previous has finished and only if it still fits in
the time given.
"""
from __future__ import annotations

import contextlib
import ctypes
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


def blas_threads():
    """Thread count of each OpenBLAS library loaded into this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = getattr(lib, sym)()
                break
    return out


class Calibrator:
    """Times a fixed numpy kernel every PERIOD_S seconds, from a SIGALRM
    handler, while a repetition runs.

    On a shared machine the speed of the same work can change by up to
    half within seconds.  Dividing a repetition's time, net of the handler's, by the
    kernel's mean time over the same interval cancels most of that.  The
    kernel repeats the small-array operations the Monte Carlo loops are
    made of.  It calls no BLAS, whose threads slow down erratically when
    the other core is busy.
    """

    PERIOD_S = 0.5

    def __init__(self, np):
        self.np = np
        self.samples = []
        self.spent = 0.0

    def kernel(self) -> float:
        np = self.np
        rng = np.random.Generator(np.random.PCG64(7))
        t0 = time.perf_counter()
        b = np.ones(512)
        for _ in range(500):
            u = rng.random(512)
            r = np.log2(1.0 + rng.exponential(1.0, 512) * b)
            b = np.minimum(np.where(r >= 2.0, u, b + u), 1e4)
        return time.perf_counter() - t0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._tick()


def main():
    job = json.loads(sys.stdin.read())
    import numpy as np
    import scipy
    import savetx
    from savetx import experiments

    src = Path(job["src"]).resolve()
    if src not in Path(savetx.__file__).resolve().parents:
        raise SystemExit(f"savetx imported from {savetx.__file__}, "
                         f"not from {src}")
    tracer = None
    if job["trace"]:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    calibrator = Calibrator(np) if job["calibrate"] else None
    out_root = Path(job["out"])
    reps = []
    start = time.perf_counter()
    while True:
        run_id = f"{job['run']}:{len(reps)}"
        if tracer is not None:
            tracer.run_id = run_id
        out = out_root / f"rep{len(reps)}"
        rep = {"run_id": run_id}
        try:
            cfg = experiments.validate_config(job["config"])
            t0 = time.perf_counter()
            with calibrator or contextlib.nullcontext():
                result = experiments.run_experiment(cfg, out)
            rep["wall_s"] = time.perf_counter() - t0
            if calibrator is not None:
                rep["wall_s"] -= calibrator.spent
                rep["cal_s"] = statistics.mean(calibrator.samples)
                rep["cal_n"] = len(calibrator.samples)
            rep["csv"] = Path(result["csv"]).read_text()
            rep["stats"] = json.loads(Path(result["meta"]).read_text())[
                "stats"]
        except Exception as exc:   # reported as failed operations
            rep["error"] = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            rep["layers"] = layer_metrics(tracer.spans, run_id)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        mean = elapsed / len(reps)
        if len(reps) >= job["min_reps"] and elapsed + mean > job["seconds"]:
            break

    if tracer is not None:
        names = sorted({s[0] for s in tracer.spans})
        code = {n: i for i, n in enumerate(names)}
        Path(job["spans_file"]).write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "run_id",
                       "count"],
            "names": names,
            "spans": [[code[s[0]], *s[1:]] for s in tracer.spans],
        }) + "\n")
    print(json.dumps({
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {"nproc": os.cpu_count(),
                "python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas_threads": blas_threads()},
    }))


if __name__ == "__main__":
    main()
