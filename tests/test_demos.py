"""The demos print the stdout pinned under tests/data/demos, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "data" / "demos"


def test_every_demo_is_pinned():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in PINNED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_pinned_stdout(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, check=True)
    assert run.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
