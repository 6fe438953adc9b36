"""Smoke tests: every shipped example must run end to end.

Examples are executed in-process via runpy (same interpreter, no
subprocess overhead) with their ``main()`` entry points.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv=()):
    path = EXAMPLES_DIR / name
    old_argv = sys.argv
    sys.argv = [str(path), *argv]
    try:
        return runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "TopoShot quickstart" in out
        assert "precision=1.000" in out
        assert "serial probe" in out

    def test_client_profiling(self, capsys):
        run_example("client_profiling.py")
        out = capsys.readouterr().out
        assert "5120" in out  # Geth L recovered at full scale
        assert "NO (R=0 flaw)" in out

    def test_baseline_comparison(self, capsys):
        run_example("baseline_comparison.py")
        out = capsys.readouterr().out
        assert "TopoShot" in out
        assert "FIND_NODE" in out

    def test_testnet_topology_small(self, capsys):
        run_example("testnet_topology.py", argv=["--small"])
        out = capsys.readouterr().out
        assert "modularity below every random baseline" in out
        assert "Communities" in out

    def test_security_audit(self, capsys):
        run_example("security_audit.py")
        out = capsys.readouterr().out
        assert "Use case 1" in out
        assert "fingerprintable" in out

    def test_topology_monitoring(self, capsys):
        run_example("topology_monitoring.py")
        out = capsys.readouterr().out
        assert "[adaptive]" in out
        assert "stable core" in out
        assert "churn" in out

    def test_mainnet_critical(self, capsys):
        run_example("mainnet_critical.py")
        out = capsys.readouterr().out
        assert "non-interference VERIFIED" in out
        assert "SrvM1  -- SrvM1  : -" in out  # the paper's exception
        assert "SrvR1  -- SrvM1  : X" in out
