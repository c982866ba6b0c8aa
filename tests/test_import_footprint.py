"""aglucas needs only numpy at run time: verdicts, certificates, the
extremal search and the CLI load no scipy module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import aglucas

# Runs in a fresh interpreter; prints, after each step, the scipy modules
# loaded so far.
SCRIPT = r"""
import json
import runpy
import sys

import aglucas
from aglucas import Disk, agl_report, certify, critical_points, from_points


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


loaded = {"import aglucas": scipy_modules()}
f = from_points([0.3, -0.5, 0.2j, 0.6], [])
agl_report(f, Disk(0, 1), 0.5, 4)
loaded["agl_report"] = scipy_modules()
certify(f, Disk(0, 1), 0.5, 4)
loaded["certify"] = scipy_modules()
critical_points(f)
loaded["critical_points"] = scipy_modules()
codes = {}
for argv in (["check", "--instance", "instance.json", "--k", "4",
              "--eps", "0.5", "--out", "check.json"],
             ["certify", "--instance", "instance.json", "--k", "4",
              "--eps", "0.5", "--out", "certify.json"],
             ["bounds", "--n", "10", "--gap", "1", "--s", "1",
              "--out", "bounds.csv"],
             ["search", "--n", "3", "--k", "2", "--restarts", "1",
              "--iters", "5", "--out", "search.json"]):
    sys.argv = ["aglucas", *argv]
    try:
        runpy.run_module("aglucas", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes[argv[0]] = exc.code
    loaded["python -m aglucas " + argv[0]] = scipy_modules()
aglucas.search_psi(3, 2, Disk(0, 1), restarts=1, iters=5, seed=1)
loaded["search_psi"] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_no_step_loads_scipy(tmp_path):
    (tmp_path / "instance.json").write_text(json.dumps(
        {"zeros": [[0.3, 0], [-0.5, 0], [0, 0.2], [0.6, 0]], "poles": [],
         "scale": [1, 0],
         "region": {"disk": {"center": [0, 0], "radius": 1}}}))
    src = str(Path(aglucas.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["codes"] == {"check": 0, "certify": 0, "bounds": 0,
                               "search": 0}
    assert {step: modules for step, modules in result["loaded"].items()
            if modules} == {}
