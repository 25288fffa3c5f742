"""The demos run and print what they printed when their output was saved.

Demos 01-04 take under a second each; their stdout must match the files
in ``tests/demo_output`` byte for byte.  Demo 05 (the frame fixtures)
takes about 37 s, so it is left out here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import agenda_algebra

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(agenda_algebra.__file__).resolve().parents[1])
DEMOS = ["01_partition_playground", "02_hiring_committee",
         "03_choosing_a_car", "04_conditions_and_axioms"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    want = (ROOT / "tests" / "demo_output" / f"{demo}.txt").read_text()
    assert result.stdout == want
