"""The benchmark's self-test passes against this checkout.

It checks the gated class digests and the traced-run contract: every
function the tracer wraps still exists, and ChainEngine.strata_at_wall
returns ((plus, minus), count).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
