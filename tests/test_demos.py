"""Every script under demos/ runs to completion and prints what it printed
when ``golden_cli.json`` was recorded (see test_cli_golden.py)."""

import json
import pathlib
import subprocess
import sys

import pytest

from .test_cli_golden import MANIFEST, demo_env, digest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=demo_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert digest(proc.stdout) == json.loads(MANIFEST.read_text())["demos"][demo.name]
