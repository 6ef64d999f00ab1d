"""The experiment script runs end to end on coarse inputs.

It builds a cell, solves its correctors and reads tensors from them, so a
change of the corrector or tensor shapes shows here.  The run takes about
a second.  The eps and eta studies have no script: bh converge writes them.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, marker", [
    ("tensor_table.py", ["--h", "0.1", "--n-tube", "4", "--t-end", "0.1",
                         "--dt", "0.05"], "worst dual-route gap"),
], ids=["tensor_table"])
def test_script_runs(tmp_path, script, args, marker):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() and marker in proc.stdout
    assert "Traceback" not in proc.stderr
