"""The demos run to completion and print their own consistency checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# A line each demo prints only when its own check holds.
EXPECTED = {
    "01_memory_bank.py": "equal to original: True",
    "02_index_and_retrieval.py": "exhaustive probe + rescore == flat search: True",
    "03_priors_and_anchors.py": "anchors:",
    "04_full_pipeline.py": "The same run via the CLI:",
}


def test_every_demo_has_an_expected_line():
    assert sorted(EXPECTED) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert EXPECTED[demo.name] in done.stdout
