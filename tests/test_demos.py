"""The demos print exactly what they printed when their output was recorded
in demos/expected/."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_process_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_is_pinned(demo):
    # a fresh process, so the demo runs from start-up exactly as a user runs
    # it
    out = subprocess.run([sys.executable, str(demo)],
                         env=fresh_process_env(), cwd=ROOT,
                         capture_output=True, check=True).stdout
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert out == want
