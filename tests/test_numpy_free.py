"""The flow runs without numpy: no flow process imports it.

The package declares no third-party dependency.  A fresh interpreter
runs a small cold matrix at ``jobs`` 1 and 2 and a traced ``repro run``,
then reports which numpy modules it loaded; there must be none.  The
check runs in a subprocess because the test session itself may have
imported numpy through some other test module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import json, os, sys
from repro.cli import main
from repro.flow.options import FlowOptions
from repro.flow.parallel import run_cells

root = sys.argv[1]
options = FlowOptions(
    place_effort=0.05, place_iterations=1, pack_iterations=1, seed=11
)
for jobs in (1, 2):
    os.environ["REPRO_CACHE_DIR"] = os.path.join(root, f"cache-{jobs}")
    run_cells([("alu", "granular"), ("alu", "lut")], 0.15, options, jobs=jobs)
os.environ["REPRO_CACHE_DIR"] = os.path.join(root, "cache-run")
code = main(["-q", "run", "alu", "--scale", "0.15", "--effort", "0.05",
             "--trace", "--json"])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "numpy")
print(json.dumps({"code": code, "numpy": loaded}))
"""


def test_flow_processes_never_import_numpy(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env["REPRO_JOURNAL_DIR"] = str(tmp_path / "journals")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"code": 0, "numpy": []}
    assert list((tmp_path / "journals").glob("*.jsonl")), "run was not traced"
