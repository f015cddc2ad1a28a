"""linset benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; linset is imported from ``src/``.
Workloads are listed in ``BENCHMARK.json``; ``perfbench/record.json`` maps
each per-layer metric to the end-to-end metric and workload it should move.

Every measurement runs in a fresh interpreter (``worker.py``), one item at a
time, with ``LINSET_WINDOW_CAP`` removed from its environment, a fixed hash
seed, and the numpy/BLAS thread pools limited to the number of CPUs.  Times
are scaled by a calibration kernel (see ``worker.py``) against the drift of
a shared machine's speed.

--trace 0 reports setup_s (the median over SETUP_RUNS fresh interpreters),
and items_per_s, item_p50_ms, item_p90_ms and peak_rss_mb pooled over
MEASURE_WORKERS untraced workers.  --trace 1 runs an untraced and a traced
worker for half the time each, reports every per-layer metric from the
traced one, prints the tracing overhead, writes the spans under .perfbench/,
and checks that traced and untraced outputs are identical.  Both print
fail_ratio (failed items over items attempted) before the final JSON line;
it is not among the metrics because it is 0 when the program is correct.

    python3 perfbench/run.py --record-reference

rewrites perfbench/reference.json, the output digests of every item for the
default seed, which later runs compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 5
MEASURE_WORKERS = 2     # per-process effects (memory layout) average out over workers
DEFAULT_SEED = 0
TIME_LIMIT_S = 170      # a whole run, set-up probes included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("LINSET_WINDOW_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def run_worker(root, workload, seed, mode, deadline, seconds=0.0, spans=None) -> dict:
    """Run one worker interpreter and return the JSON object it prints last.
    ``deadline`` is a time.monotonic() value the worker is killed at."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds),
           "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s timed out" % (mode, workload))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker for %s exited with %d"
                         % (mode, workload, proc.returncode))
    return json.loads(lines[-1])


def workload_names(root) -> list:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def fail_line(rep) -> str:
    return "fail_ratio %.6f (%d of %d items failed, %d compared with reference digests)" % (
        rep["failed"] / rep["attempted"], rep["failed"], rep["attempted"], rep["checked"])


def measure(root, workload, seed, mode, seconds, deadline, workers, spans=None) -> dict:
    """Run ``workers`` workers for ``seconds`` in all and pool their passes.

    Each item's time is its median over every pass; items_per_s is the
    median over passes; peak_rss_mb is the highest worker's peak."""
    reps = [run_worker(root, workload, seed, mode, deadline, seconds / workers, spans)
            for _ in range(workers)]
    passes = [ts for rep in reps for ts in rep["times"]]
    per_item = [statistics.median(ts) for ts in zip(*passes)]
    deciles = statistics.quantiles(per_item, n=10, method="inclusive")
    out = {
        "items": len(per_item),
        "passes": len(passes),
        "items_per_s": statistics.median(len(ts) / sum(ts) for ts in passes),
        "raw_items_per_s": statistics.median(r for rep in reps for r in rep["raw_items_per_s"]),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_p90_ms": deciles[8] * 1e3,
        "beyond_p90": sum(1 for t in per_item if t > deciles[8]),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        "workers": reps,
        "digest": reps[0]["digest"],
        "layers": reps[-1].get("layers"),
        "spans": reps[-1].get("spans"),
    }
    for key in ("attempted", "failed", "checked"):
        out[key] = sum(rep[key] for rep in reps)
    for rep in reps:
        for err in rep["errors"]:
            print("failed item: %s" % err)
        if rep["digest"] != out["digest"]:
            print("outputs differ between worker processes")
            out["failed"] += 1
    return out


def end_to_end(root, workload, seed, seconds, deadline) -> dict:
    rep = measure(root, workload, seed, "measure", seconds, deadline, MEASURE_WORKERS)
    setups = rep["workers"] + [run_worker(root, workload, seed, "setup", deadline)
                              for _ in range(SETUP_RUNS - MEASURE_WORKERS)]
    rep["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    print("%s seed %d: %d items per pass, %d passes in %d processes, %d items beyond p90"
          % (workload, seed, rep["items"], rep["passes"], MEASURE_WORKERS, rep["beyond_p90"]))
    print("as measured: items_per_s %.3f, setup_s %.4f"
          % (rep["raw_items_per_s"], statistics.median(s["raw_setup_s"] for s in setups)))
    metrics = {}
    for name, unit in END_TO_END.items():
        metrics[name] = {"value": rep[name], "unit": unit}
        print("%-12s %14.6f %s" % (name, rep[name], unit))
    print(fail_line(rep))
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def per_layer(root, workload, seed, seconds, deadline) -> dict:
    plain = measure(root, workload, seed, "measure", seconds / 2, deadline, 1)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-seed%d.tsv.gz" % (workload, seed))
    traced = measure(root, workload, seed, "trace", seconds / 2, deadline, 1, spans)
    overhead = plain["items_per_s"] - traced["items_per_s"]
    print("%s seed %d: %d spans in the first traced pass, written to %s"
          % (workload, seed, traced["spans"], os.path.relpath(spans, root)))
    print("tracing overhead: items_per_s %.3f untraced, %.3f traced, difference %.3f (%.1f%%)"
          % (plain["items_per_s"], traced["items_per_s"], overhead,
             100 * overhead / plain["items_per_s"]))
    failed = plain["failed"] + traced["failed"]
    if traced["digest"] != plain["digest"]:
        print("traced outputs differ from untraced outputs")
        failed += 1
    attempted = plain["attempted"] + traced["attempted"]
    print(fail_line({"failed": failed, "attempted": attempted,
                     "checked": traced["checked"]}))
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_reference(root):
    lines = []
    for workload in workload_names(root):
        ref = run_worker(root, workload, DEFAULT_SEED, "record",
                         time.monotonic() + TIME_LIMIT_S)
        lines.append("%s: %s" % (json.dumps(workload),
                                 json.dumps(ref, sort_keys=True, separators=(",", ":"))))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(lines))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "linset", "__init__.py")):
        print("error: run from the root of a linset checkout (src/linset is missing)",
              file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference(root)
            return 0
        if args.workload not in workload_names(root):
            print("error: unknown workload %r" % args.workload, file=sys.stderr)
            return 2
        report = per_layer if args.trace else end_to_end
        result = report(root, args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
