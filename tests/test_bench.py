"""Smoke test of bench/kernels.py: its quick mode runs every entry once on
this tree, writes the record's keys, and reproduces every recorded digest;
a child that would time a linset from outside its tree refuses to run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "bench" / "kernels.py"
ENTRY_KEYS = {"median_s", "iqr_s", "n", "sha256", "digest_matches", "ru_maxrss_kb"}


def test_quick_record_has_keys_and_digests():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--quick"], capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert {"python", "numpy", "nproc", "samples_per_round", "rounds", "trees"} <= set(record)
    assert list(record["trees"]) == ["this"]
    tree = record["trees"]["this"]
    assert set(tree) == {"head", "linset", "entries"}
    assert tree["linset"] == os.path.join("src", "linset")
    assert set(tree["entries"]) == {"reverse", "spread", "convolve_or_fft", "to_expr",
                                    "cli_iterate", "cli_dplus", "cli_verify_long"}
    for name, entry in tree["entries"].items():
        assert set(entry) == ENTRY_KEYS, name
        assert entry["n"] == 1 and entry["median_s"] > 0 and entry["ru_maxrss_kb"] > 0
        assert entry["digest_matches"], (name, entry["sha256"])


def test_child_refuses_a_shadowing_linset(tmp_path):
    # linset comes from this tree's src/, but the child times the tree at tmp_path
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--child", "reverse", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60, check=False)
    assert proc.returncode != 0
    assert "linset imported from" in proc.stderr


def test_git_head_without_git(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    assert kernels.git_head(str(tmp_path)) is None     # not a checkout

    def missing(*args, **kwargs):
        raise FileNotFoundError("git")
    monkeypatch.setattr(kernels.subprocess, "run", missing)
    assert kernels.git_head(str(REPO)) is None
