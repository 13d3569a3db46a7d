#!/usr/bin/env python3
"""tsakit benchmark: one workload per process.

    python3 bench/run.py --workload simulate --seed 0 --seconds 60 --trace 0

Run from a source checkout; the benchmark imports tsakit from `src/` next
to this directory and exits with status 2 when it is missing.  It has four
stages, each timing one kind of work a tsakit user runs:

  kb-gen          generate_kb over the default load range and fault buses,
                  one dispatch per level (80 cells, master seed = --seed)
  simulate-one    closed loop, one client: one scenario per request
  train-sweep     the table4 scheme ladder at N = 200 on the committed KB
  predict-stream  closed loop, one client: one feature row per request,
                  each pass ending in one batch evaluate_model

and two workloads (see BENCHMARK.json for why each was chosen):
`simulate` runs kb-gen and simulate-one on inputs drawn from --seed,
`train-predict` runs train-sweep and predict-stream on them.  The other
two stages of a workload run as reference stages on fixed inputs, so that
every run reports every end-to-end metric.

Each run first sets up: it reads and verifies the committed KB, and on
train-predict trains the model it serves.  It then measures for about
--seconds of wall time, interleaving the units of all four stages, and
repeats of the set-up, so that every stage's samples spread over the
whole run.  setup_s is the median set-up time.

Latencies are gated as their mean and a tail percentile (simulate p90,
predict p99); their medians are printed and recorded but not gated.  On
a shared host whose CPU speed shifts between states that last from
seconds to minutes, a run's median jumps to whichever state held most of
the run, while the mean moves in proportion and the tail stays with the
slower state.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics
of BENCHMARK.json under --trace 0, its per-layer metrics under --trace 1.
Every run also writes a record with the environment, sample counts and
output digests to bench/out/.  A traced run writes its spans there too,
with the tracing overhead against the untraced record of the same
workload and seed when one exists.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Stages each workload runs on inputs drawn from --seed, with their shares
# of the measured time; reference stages on fixed inputs share the rest.
# One cycle of kb-gen (80 cells) takes about 20 s, one of train-sweep
# (8 fits) about 15 s.
WORKLOADS = {
    "simulate": {"kb-gen": 0.4, "simulate-one": 0.3},
    "train-predict": {"train-sweep": 0.35, "predict-stream": 0.3},
}
IMPORT_REPEATS = 3

# One process generates all load; BLAS runs single-threaded so the
# process uses one core of the machine and its timings stay comparable.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def source_digest() -> str:
    """SHA-256 over the files under src/, so records name the code they ran."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_record(np) -> dict:
    """BLAS library, version and thread count as numpy reports them."""
    record = {"env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["name"] = blas.get("name")
        record["version"] = blas.get("version")
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                break
    return record


def environment(np, scipy) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(np),
    }


def import_seconds() -> float:
    """Median wall time of `import tsakit.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import tsakit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def store_digests(env: dict, args, digests: dict) -> list:
    """Compare output digests with earlier runs of this code and seed.

    Two runs of one seed must give one digest; the first run records it.
    """
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        known = {}
    problems = []
    for name, digest in sorted(digests.items()):
        key = f"{env['source_sha256']}/{args.workload}/{args.seed}/{name}"
        first = known.setdefault(key, digest)
        if first != digest:
            problems.append(f"{name} digest {digest[:12]} differs from an earlier run's {first[:12]}")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def record_path(args, trace: int) -> str:
    return os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{trace}.json")


def tracing_overhead(args, env: dict, traced: dict):
    """Traced minus untraced value of each end-to-end metric, taken from
    the untraced record of the same code, workload and seed if one exists."""
    try:
        with open(record_path(args, 0), encoding="utf-8") as fh:
            untraced = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if untraced["environment"]["source_sha256"] != env["source_sha256"]:
        return None
    return {k: v - untraced["end_to_end"][k] for k, v in traced.items() if k in untraced["end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tsakit", "__init__.py")):
        print(f"error: no tsakit sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)

    import numpy as np
    import scipy

    import stages
    import tsakit

    if os.path.dirname(os.path.abspath(tsakit.__file__)) != os.path.join(SRC, "tsakit"):
        print(f"error: tsakit was imported from {tsakit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(np, scipy)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    with_model = "predict-stream" in WORKLOADS[args.workload]
    started = time.perf_counter()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        inputs = stages.setup(BENCH_DIR, args.seed, with_model)
    setup_s = time.perf_counter() - started

    # What set-up built lives through the run: frozen, it is not scanned
    # again by every garbage collection while the run measures.
    gc.collect()
    gc.freeze()

    run = stages.Run(inputs=inputs, out_dir=OUT_DIR, tracer=tracer)
    setup_stage = stages.Setup(run, BENCH_DIR, args.seed, with_model, setup_s)
    slots = stages.workload_slots(run, WORKLOADS[args.workload], args.seed, setup_stage)
    measured_s = stages.measure(slots, args.seconds)
    metrics = {}
    for slot in slots:
        metrics.update(slot.stage.metrics())

    for problem in store_digests(env, args, run.digests):
        run.tally.add("digest", [problem])
    tally = run.tally
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted if tally.attempted else 0.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_times_s": setup_stage.times,
        "busy_s": {slot.stage.name: slot.busy for slot in slots},
        "measured_s": measured_s,
        "samples": run.samples,
        "digests": run.digests,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "end_to_end": metrics,
    }

    if tracer is not None:
        tracer.close()
        record["per_layer"] = tracer.layer_metrics(import_seconds())
        record["tracing_overhead"] = tracing_overhead(args, env, metrics)
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_file, {k: record[k] for k in ("workload", "seed", "per_layer",
                                                         "tracing_overhead")})
        record["trace_file"] = os.path.relpath(trace_file, ROOT)

    with open(record_path(args, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else metrics
    out = {}
    for m in wanted:
        v = float(values.get(m["name"], float("nan")))
        if not math.isfinite(v):
            print(f"warning: {m['name']} was not measured; reporting 0", file=sys.stderr)
            v = 0.0
        out[m["name"]] = {"value": v, "unit": m["unit"]}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(run.samples, sort_keys=True))
    print("digests " + json.dumps(run.digests, sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if args.trace:
        print("tracing_overhead " + json.dumps(record["tracing_overhead"], sort_keys=True))
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name in sorted(set(metrics) - set(out)):
            print(f"{name} = {metrics[name]:.6g} (recorded, not in BENCHMARK.json)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
