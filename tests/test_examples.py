"""The documented example workloads run end to end.

``examples/producer_consumer.py`` and ``examples/migratory_updates.py`` are
how the README shows a workload being written (thread programs yielding
references built with ``Access``, barriers and atomic bursts); each runs in
its own interpreter here, as a reader would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["producer_consumer.py", "migratory_updates.py"])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "sens=" in completed.stdout
