"""Each demo prints exactly what demos/expected/<name>.txt records.

Regenerate a file only for an intended change of output:
    PYTHONPATH=src python demos/<name>.py > demos/expected/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert DEMOS and expected == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                         cwd=ROOT, timeout=300, check=True).stdout
    assert out == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
