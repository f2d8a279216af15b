"""corrlab benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload acceptance --seed 42 --seconds 20 --trace 0

Run from the root of a corrlab checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The line before it, starting ``info``,
records the machine, the pinned thread count, the share of failed operations,
the tail percentile used, per-step seconds and a description of the inputs.
Exit code 2 means the benchmark could not run; nothing is printed then.

``--seconds`` sets the amount of work, not a deadline: a workload runs
``max(1, round(seconds / nominal_pass_s))`` passes, each over fresh inputs,
so both sides of a comparison measure the same work.  A traced run makes one
untraced and one traced pass over the same inputs; the per-layer numbers
are those of the traced pass and ``trace.overhead_s`` is the difference of
the two passes' wall times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_REPEATS = 5
SETUP_REPEATS = 3

# pin BLAS/OpenMP threads before numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = THREADS
sys.path.insert(0, HERE)
import speed  # noqa: E402


def fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def tail(latencies: list):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with fewer than eleven
    samples there is no such percentile and the maximum is reported.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    idx = n - 11  # xs[idx] has exactly ten samples above it
    return xs[idx], 100.0 * (idx + 1) / n, n


def machine() -> dict:
    import numpy

    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "ram_gb": round(ram / 2**30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(THREADS)}


def fresh_import() -> None:
    """Import corrlab in a fresh interpreter, as a user's first call does."""
    subprocess.run([sys.executable, "-c", "import corrlab, corrlab.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)


def run_pass(workload, state, p: int, tracer=None) -> dict:
    """Run pass p; time each step's work and judge it outside the timing.

    Times are scaled by the machine-speed meter of speed.py, whose probe
    time a tracer takes out of its spans; the raw sums are returned too.
    """
    meter = speed.Meter(on_probe=tracer.pause if tracer is not None else None)
    out = {"lat": [], "failed": 0, "wall": 0.0, "cpu": 0.0, "raw_wall": 0.0,
           "raw_cpu": 0.0, "steps": {}}
    for i, (label, work, judge) in enumerate(workload.steps(state, p)):
        with meter:
            if tracer is not None:
                tracer.op_id = i
                tracer.enabled = True
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                result, err = work(), None
            except Exception as e:  # a wrong or missing result is a failed operation
                result, err = None, e
            t1, c1 = time.perf_counter(), cpu_seconds()
            if tracer is not None:
                tracer.enabled = False
        if err is not None:
            print(f"benchmark: {label}: {type(err).__name__}: {err}", file=sys.stderr)
            ops = [(t1 - t0, False)]
        else:
            ops = judge(result, t1 - t0)
        del result
        wall = meter.scaled(t0, t1)
        out["wall"] += wall
        out["cpu"] += (c1 - c0) * wall / (t1 - t0)
        out["raw_wall"] += t1 - t0
        out["raw_cpu"] += c1 - c0
        out["steps"][label] = out["steps"].get(label, 0.0) + wall
        # operations of one step ran back to back from its start
        at = t0
        for seconds, ok in ops:
            out["lat"].append(wall if len(ops) == 1 else meter.scaled(at, at + seconds))
            at += seconds
            if not ok:
                out["failed"] += 1
                print(f"benchmark: {label}: wrong result", file=sys.stderr)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "corrlab", "__init__.py")):
        fail(f"no corrlab sources under {SRC}; run from a corrlab checkout")
    # the metric names and units to report are those of BENCHMARK.json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    import corrlab

    if not os.path.abspath(corrlab.__file__).startswith(SRC + os.sep):
        fail(f"imported corrlab from {corrlab.__file__}, not from {SRC}")
    import corrlab.acceptance  # noqa: F401
    import corrlab.cli  # noqa: F401

    passes = 1 if args.trace else max(1, round(args.seconds / workload.nominal_pass_s))
    workdir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        meter, imports, gens = speed.Meter(), [], []
        with meter:
            for _ in range(IMPORT_REPEATS):
                t = time.perf_counter()
                fresh_import()
                imports.append((t, time.perf_counter()))
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                state = workload.setup(args.seed, passes, workdir)
                gens.append((t, time.perf_counter()))
        raw_setup = sum(statistics.median(b - a for a, b in x) for x in (imports, gens))
        setup_s = sum(statistics.median(meter.scaled(a, b) for a, b in x)
                      for x in (imports, gens))

        if args.trace:
            import spans

            plain = run_pass(workload, state, 0)
            tracer = spans.install()
            traced = run_pass(workload, state, 0, tracer)
            runs = [plain, traced]
        else:
            runs = [run_pass(workload, state, p) for p in range(passes)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [x for r in runs for x in r["lat"]]
    failed = sum(r["failed"] for r in runs)
    tail_s, tail_pct, n_ops = tail(lat)
    plain_runs = runs[:1] if args.trace else runs
    info = {"workload": workload.name, "seed": args.seed, "passes": len(runs),
            "machine": machine(), "fail_ratio": failed / len(lat),
            "tail_percentile": round(tail_pct, 2), "tail_samples": n_ops,
            "raw_wall_s": sum(r["raw_wall"] for r in plain_runs),
            "raw_cpu_s": sum(r["raw_cpu"] for r in plain_runs), "raw_setup_s": raw_setup,
            "steps_s": {k: sum(r["steps"][k] for r in plain_runs) for k in runs[0]["steps"]},
            "inputs": workload.describe(state)}
    if args.trace:
        per = tracer.layer_metrics()
        if workload.name == "acceptance":
            for suite, seconds in traced["steps"].items():
                per[f"acceptance.{suite}.s"] = seconds
        per["trace.overhead_s"] = traced["wall"] - plain["wall"]
        info["untraced_wall_s"] = plain["wall"]
        info["spans"] = len(tracer.t1)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.npz")
        tracer.save(spans_path)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        per = {
            "wall_s": sum(r["wall"] for r in runs),
            "cpu_s": sum(r["cpu"] for r in runs),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    metrics = {m["name"]: {"value": per.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(lat), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
