"""The benchmark's workload definitions (perfbench/workloads.py), loaded by
path for the tests that run on its model and scheme configs."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)
