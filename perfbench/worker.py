"""One benchmark worker: a fresh interpreter that runs one workload.

Modes:
  setup    import linset, generate the seeded inputs, run one untimed
           warm-up item, report the set-up time and exit;
  measure  set up, then run whole passes over the items until --seconds
           have passed, and report timings, exactness and peak memory;
  trace    like measure, with the tracer's wrappers installed after set-up;
  record   run one pass and print the output digest of every item.

Set-up time runs from --t0, a CLOCK_MONOTONIC reading the parent took just
before starting this interpreter, to the end of the warm-up item.  Times are
reported both as measured (raw_*) and scaled by the calibration kernel below;
the scaled ones are the benchmark's metrics.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def digest(text: str) -> str:
    """48-bit content digest; collisions are negligible at this item count."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# A shared machine's speed drifts by tens of percent within seconds.  A fixed
# calibration kernel that never calls linset runs after every CAL_EVERY_S of
# item time; each item's time is scaled by CAL_REF_S over the median kernel
# time of the CAL_WINDOW nearest kernel runs, which reports times as on a
# machine where the kernel takes CAL_REF_S.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1
CAL_WINDOW = 9
_CAL_ARRAY = np.arange(1 << 17, dtype=np.uint64)


def calibration_kernel() -> int:
    """Interpreter loop, dict lookups, frozenset sumsets mod a small
    modulus, big-int shifts and a 2 MiB numpy pass: the kinds of work
    linset does."""
    s = 0
    d = {}
    for i in range(1500):
        s += (i * 7919) % 13
        d[i % 97] = s
    u = frozenset(range(0, 40, 3))
    for c in range(30):
        s += len(frozenset((3 * x + 2 * y + c) % 41 for x in u for y in u))
    m = 0
    for i in range(0, 6000, 3):
        m |= 1 << i
    for _ in range(100):
        m = (m << 1) | (m >> 2)
    a = (_CAL_ARRAY << np.uint64(1)) ^ (_CAL_ARRAY >> np.uint64(3))
    return s + int(a[-1]) + (m & 1)


def calibrate(runs: int = 1) -> float:
    """Median seconds of ``runs`` calibration-kernel runs."""
    ts = []
    for _ in range(runs):
        t = time.perf_counter()
        calibration_kernel()
        ts.append(time.perf_counter() - t)
    return statistics.median(ts)


def run_item(item):
    """Run one item; returns (seconds, output, error or None)."""
    t = time.perf_counter()
    try:
        out, code = item.run()
    except Exception as e:  # an unexpected raise is an item failure
        return time.perf_counter() - t, "", "raised %s: %s" % (type(e).__name__, e)
    dt = time.perf_counter() - t
    if code != item.expect_code:
        return dt, out, "exit code %s, expected %d" % (code, item.expect_code)
    return dt, out, None


class Runner:
    """Runs passes over a workload and keeps what the report needs."""

    def __init__(self, items, reference, tracer=None):
        self.items = items          # expanded with follow-up items by the first pass
        self.reference = reference
        self.tracer = tracer
        self.digests = []           # output digest per item, from the first pass
        self.times = []             # per pass: calibrated seconds per item
        self.raw = []               # per pass: measured seconds per item
        self.layers = []            # per pass: tracer snapshot
        self.attempted = 0
        self.failed = 0
        self.checked = 0            # items compared with a reference digest
        self.errors = []

    def _fail(self, key, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (key[:120], why))

    def _pass(self, items, on_output):
        """Time each item in turn; ``on_output(i, item, out, err)`` may
        append follow-up items to ``items``."""
        times, blocks, cals = [], [], []
        block_start, block_time = 0, 0.0
        i = 0
        while i < len(items):
            if self.tracer:
                self.tracer.item = i
            dt, out, err = run_item(items[i])
            self.attempted += 1
            times.append(dt)
            on_output(i, items[i], out, err)
            i += 1
            block_time += dt
            if block_time >= CAL_EVERY_S or i == len(items):
                cals.append(calibrate())
                blocks.append((block_start, i))
                block_start, block_time = i, 0.0
        scaled = []
        half = CAL_WINDOW // 2
        for b, (lo, hi) in enumerate(blocks):
            near = cals[max(0, b - half):b + half + 1]
            scaled += [t * CAL_REF_S / statistics.median(near) for t in times[lo:hi]]
        self.raw.append(times)
        self.times.append(scaled)
        if self.tracer:
            self.layers.append(self.tracer.snapshot())
            self.tracer.reset()
            self.tracer.keep_spans = False

    def first_pass(self):
        items = list(self.items)

        def on_output(i, item, out, err):
            d = digest(out)
            self.digests.append(d)
            if err is None and item.check is not None:
                try:
                    err = item.check(out)
                except (ValueError, KeyError, IndexError, TypeError) as e:
                    err = "unreadable output: %s" % e
            ref = self.reference.get(digest(item.key))
            if ref is not None:
                self.checked += 1
                if err is None and ref != d:
                    err = "output digest %s differs from the reference %s" % (d, ref)
            if err is not None:
                self._fail(item.key, err)
            elif item.follow is not None:
                items[i + 1:i + 1] = item.follow(out)

        self._pass(items, on_output)
        self.items = items

    def next_pass(self):
        def on_output(i, item, out, err):
            if err is None and digest(out) != self.digests[i]:
                err = "output differs from the first pass"
            if err is not None:
                self._fail(item.key, err)

        self._pass(self.items, on_output)

    def run(self, seconds):
        """Whole passes until another would end after ``seconds``; at least one."""
        start = time.perf_counter()
        self.first_pass()
        while time.perf_counter() - start + statistics.median(map(sum, self.raw)) <= seconds:
            self.next_pass()

    def report(self) -> dict:
        return {
            "items": len(self.items),
            "times": self.times,
            "raw_items_per_s": [len(ts) / sum(ts) for ts in self.raw],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": self.attempted,
            "failed": self.failed,
            "checked": self.checked,
            "errors": self.errors,
            "digest": digest(" ".join(self.digests)),
        }

    def layer_report(self) -> dict:
        out = {}
        for key in self.layers[0]:
            values = [snap[key] for snap in self.layers]
            # counts repeat exactly pass to pass; times take the median
            out[key] = statistics.median(values) if key.endswith(".self_s") else values[0]
        return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "record"),
                    required=True)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--spans", default=None, help="where trace mode writes its spans")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.clock_gettime(time.CLOCK_MONOTONIC)

    import workloads
    items = workloads.BUILDERS[args.workload](args.seed)
    run_item(items[0])  # warm-up, untimed
    raw_setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    calibrate(5)
    setup = {"setup_s": raw_setup_s * CAL_REF_S / calibrate(15), "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    reference = {}
    if args.mode != "record" and os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(args.workload, {})
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(items, reference, tracer)
    if args.mode == "record":
        runner.first_pass()
        print(json.dumps({digest(it.key): d for it, d in zip(runner.items, runner.digests)},
                         sort_keys=True))
        return 0 if runner.failed == 0 else 1
    runner.run(args.seconds)
    rep = runner.report()
    rep.update(setup)
    if tracer is not None:
        rep["layers"] = runner.layer_report()
        rep["spans"] = tracer.span_count()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
