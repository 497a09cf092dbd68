"""Every walkthrough script in demos/ runs to completion."""

import subprocess
import sys

import pytest

from conftest import ROOT, source_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120, env=source_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
