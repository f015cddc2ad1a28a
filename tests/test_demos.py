"""Each demo prints what it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMO_SHA256 = {
    "01_set_algebra.py": "510228431e549fbc67e02d3663b7f8e13b51c8e981b2f9ac134d68deb7e8d033",
    "02_orbit_collapse.py": "8135830e502435a35ac1f971a6da684044046fea03f5ea0a3e894c571d0e9f79",
    "03_residue_structure.py": "4d07b9aa172c3e36411def3f4ed6b9b55c018a296e3b6edc5d2fa7bfe4c6d462",
    "04_difference_stability.py": "43916c20c01e752b1a845dbfed7958308435431aed7bd3948958d46989c51241",
    "05_main_theorem.py": "c037185f9777e8f2c66fbe05916bcf4c177b560802aef61e8546b68db54a9d16",
    "06_boundary_examples.py": "0c59726a06914054127e8b571f1f0f12888bcc33d43793571d7761552d3f73b9",
}


def test_every_demo_has_a_digest():
    assert sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                  if f.endswith(".py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("LINSET_WINDOW_CAP", None)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
