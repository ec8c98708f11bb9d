"""``repro.resilience`` loads its heavy halves on first use.

A checkpoint needs pickle and the integrity helpers only; chaos
campaigns and supervision pull in the lab, the core flow and
multiprocessing.  Each check runs a fresh interpreter, so a module an
earlier test loaded cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_checkpoint_import_leaves_lab_core_and_multiprocessing_out(tmp_path):
    done = _run(
        "import sys\n"
        "import repro.resilience.checkpoint\n"
        "loaded = [m for m in ('repro.lab', 'repro.core', 'multiprocessing')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr


def test_every_public_name_resolves(tmp_path):
    done = _run(
        "import repro.resilience as r\n"
        "from repro.resilience import run_supervised, ChaosConfig\n"
        "missing = [n for n in r.__all__ if not hasattr(r, n)]\n"
        "assert not missing, missing\n"
        "assert run_supervised is r.supervise.run_supervised\n"
        "assert ChaosConfig is r.chaos.ChaosConfig\n"
        "try:\n"
        "    r.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
