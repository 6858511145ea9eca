import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_harness_smoke():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke ok" in done.stdout


@pytest.mark.parametrize("workload", ["sums", "structure", "asymptotics"])
def test_seed_zero_round_matches_recorded_digests(workload):
    # One round at the default seed: every stdout and exit code must match the
    # digest recorded in perfbench/digests.json, byte for byte.
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "0.001"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
