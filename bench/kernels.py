"""Kernel and command timings of linset, for the ``BENCH_<pr>.json`` record.

    python bench/kernels.py [--src PATH] [--quick] > BENCH_<pr>.json

Times, on fixed inputs, the wide-window kernels ``_bits._reverse`` (a 6,000-bit
window), ``_bits._spread`` (that window dilated by 3), ``convolve_or`` on its
FFT path (two dense 6,000-bit operands on a lattice of stride 3) and
``EPSet.to_expr`` (a 6,000-wide window with a periodic tail), README's
dense-window ``iterate --ops "(3,1)"`` and ``dplus`` commands, and the
long-orbit ``verify-thm61 --set "AP(1,32771)" --ops "cyc[(3,1)]" --L 3``, in
process through ``linset.cli.run``.

Every entry runs in a fresh interpreter of its own, with linset imported from
the ``src/`` of the tree it times (the child refuses to run if another copy
of linset shadows it), so each records its own ``ru_maxrss``.  With ``--src
PATH`` the checkout at PATH is timed as well, and each of ROUNDS rounds
alternates which tree runs an entry first, since a fixed order biases the
comparison.  For each tree and entry the record holds the median and IQR
of the per-call seconds over SAMPLES samples a round, the number of samples
n, the sha256 of the entry's output, whether it equals the digest recorded
below, and the largest ``ru_maxrss``.  The record also holds each tree's git
HEAD and the path, below the tree, of the linset package it imported,
``nproc`` and the Python and numpy versions.  ``--quick`` takes one sample
per entry in one round, for a smoke test.  The record goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIDTH = 6000
SAMPLES = 15    # samples per entry, tree and round
ROUNDS = 2      # rounds, each alternating which tree runs first

# name -> (calls per sample, sha256 of the entry's output).  Each sample times
# that many calls and records the mean, so that microsecond kernels stay above
# the clock's resolution; every tree that computes the same answers reproduces
# the digest
ENTRIES = {
    "reverse":
        (200, "b429c0039da720f4fc2bd9442edf0e237263eddbd3e56200e0b24ec2db2e5721"),
    "spread":
        (200, "3aa762c7741df8493be3f8a7840dc93ac577ebc20fa49dfa5c2575a223c0f5c2"),
    "convolve_or_fft":
        (10, "c7d9460cd3416ab67a89ba589cb70b7f739f4f4c8c491ba24a1fb5ba12b20d24"),
    "to_expr":
        (10, "22b015c7dc3583da20ac7b46f01153a1d4ec2348f5e10502bcc61f6fdbfa9342"),
    "cli_iterate":
        (1, "16527a2801961a5139ab85dafadedcac9692fb31e5ec50a48f26eae5bdfc5bf3"),
    "cli_dplus":
        (1, "2f00044f9bfdfaf324bcb8fad558822a3b5b1b2b30ed45030aa7e88b9690262b"),
    # a verifier orbit that stays open for its 20,000 steps, each on a
    # 32,771-bit residue mask; the command exits 2 (INCONCLUSIVE)
    "cli_verify_long":
        (1, "eef03749a0c690fc571689edcb50502d845073b83692348b68ef95c9600287ac"),
}

README_SET = "U({%s},AP+(1,5,200001))" % ",".join(map(str, range(0, 200000, 7)))


def _window(seed: int, stride: int = 1) -> int:
    # a fixed WIDTH-bit window on a progression of ``stride``, about 70% full,
    # with its top bit set
    rng = random.Random(seed)
    bits = [i for i in range(0, WIDTH, stride) if rng.random() < 0.7]
    return sum(1 << i for i in bits) | 1 << (WIDTH - 1) | 1


def _entry(name: str):
    """The call an entry times, with its inputs built outside it; the call
    returns the entry's output as text."""
    from linset import _bits
    from linset.epset import EPSet

    if name == "reverse":
        mask = _window(1)
        return lambda: "%x" % _bits._reverse(mask, WIDTH)
    if name == "spread":
        mask = _window(2)
        return lambda: "%x" % _bits._spread(mask, 3, 3 * WIDTH)
    if name == "convolve_or_fft":
        a, b = _window(3, 3), _window(4, 3)
        return lambda: "%x" % _bits.convolve_or(a, b)
    if name == "to_expr":
        s = EPSet(5, -WIDTH // 2, WIDTH // 2 - 1, _window(5), 0, 0b00101)
        return s.to_expr
    from linset.cli import run
    argv = {"cli_iterate": ["iterate", "--set", README_SET, "--ops", "(3,1)"],
            "cli_dplus": ["dplus", "--set", README_SET],
            "cli_verify_long": ["verify-thm61", "--set", "AP(1,32771)",
                                "--ops", "cyc[(3,1)]", "--L", "3"]}[name]

    def command():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(argv)
        return "%d\n%s" % (code, out.getvalue())
    return command


def child(name: str, samples: int) -> dict:
    """Time one entry in this interpreter: one untimed call, then
    ``samples`` samples of ENTRIES[name] calls each.  Refuses to run when
    the linset it imports is not the one under this tree's ``src/``."""
    import linset
    root = os.path.realpath(os.getcwd())
    package = os.path.dirname(os.path.realpath(linset.__file__))
    if os.path.dirname(package) != os.path.join(root, "src"):
        raise SystemExit("linset imported from %s, not from %s/src" % (package, root))
    call = _entry(name)
    number = ENTRIES[name][0]
    digest = hashlib.sha256(call().encode()).hexdigest()
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - t) / number)
    import numpy
    return {"times": times, "sha256": digest,
            "linset": os.path.relpath(package, root),
            "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_child(root: str, name: str, samples: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name,
                           str(samples)],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit("entry %s failed in %s:\n%s" % (name, root, proc.stderr))
    return json.loads(proc.stdout)


def git_head(root: str):
    # the tree's HEAD commit, or None outside a git checkout or without git
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() or None


def summary(name: str, runs: list) -> dict:
    times = [t for r in runs for t in r["times"]]
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    digests = {r["sha256"] for r in runs}
    digest = digests.pop() if len(digests) == 1 else "differs between rounds"
    return {"median_s": statistics.median(times), "iqr_s": q[2] - q[0], "n": len(times),
            "sha256": digest, "digest_matches": digest == ENTRIES[name][1],
            "ru_maxrss_kb": max(r["ru_maxrss_kb"] for r in runs)}


def measure(roots: dict, samples: int, rounds: int) -> dict:
    runs = {tree: {name: [] for name in ENTRIES} for tree in roots}
    order = list(roots)
    versions = {}
    for k in range(rounds):
        for name in ENTRIES:
            for tree in (order if k % 2 == 0 else order[::-1]):
                r = run_child(roots[tree], name, samples)
                runs[tree][name].append(r)
                versions = {"python": r["python"], "numpy": r["numpy"]}
    return {
        **versions,
        "nproc": os.cpu_count(),
        "samples_per_round": samples,
        "rounds": rounds,
        "trees": {tree: {"head": git_head(roots[tree]),
                         "linset": runs[tree][next(iter(ENTRIES))][0]["linset"],
                         "entries": {name: summary(name, rs) for name, rs in runs[tree].items()}}
                  for tree in roots},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", help="another checkout to time beside this one")
    ap.add_argument("--quick", action="store_true", help="one sample per entry, one round")
    ap.add_argument("--child", nargs=2, metavar=("NAME", "SAMPLES"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        name, samples = args.child
        print(json.dumps(child(name, int(samples))))
        return 0
    roots = {"this": REPO}
    if args.src:
        roots["other"] = os.path.abspath(args.src)
    samples, rounds = (1, 1) if args.quick else (SAMPLES, ROUNDS)
    sys.stdout.write(json.dumps(measure(roots, samples, rounds), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
