"""The runtime imports no third-party package.

networkx stays a test oracle (the ``dev`` extra); nothing the program
runs may load it, or numpy.  Each check runs a fresh interpreter with
only ``src`` on the path, so a module loaded by an earlier test cannot
hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = ("networkx", "numpy")

_CHECK = """
import sys
loaded = sorted(m for m in {forbidden!r} if m in sys.modules)
assert not loaded, f"runtime imported {{loaded}}"
"""


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = code + _CHECK.format(forbidden=FORBIDDEN)
    return subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_entry_points_import_no_third_party_package(tmp_path):
    done = _run(
        "import repro.cli, repro.core.flow, repro.sim.simulator, "
        "repro.resilience.checkpoint, repro.serve.server, repro.lab\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["synthesize", "--workload", "pip", "--switches", "2",
     "--frequencies", "600", "--verify-cycles", "200"],
    ["simulate", "--topology", "mesh", "--size", "3", "--rate", "0.1",
     "--cycles", "400", "--warmup", "100"],
], ids=["synthesize", "simulate"])
def test_cli_runs_without_third_party_package(tmp_path, argv):
    done = _run(
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
