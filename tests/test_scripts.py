import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_script_imports_and_prints_help(script):
    # --help exits before any work, after every name the script imports resolved
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_reproduce_conditions_claims_pass():
    # the script's own check_g_conditions configurations, run at their full sizes
    spec = importlib.util.spec_from_file_location("reproduce", ROOT / "scripts" / "reproduce.py")
    reproduce = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reproduce)
    claims = list(reproduce.conditions())
    assert len(claims) == 3 and all(ok for ok, _ in claims), claims
