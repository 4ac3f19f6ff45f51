"""The benchmark's traced mode (perfbench/layers.py) loads: a package name
it imports cannot go without this failing, where `--trace 1` would only
break when run."""

import importlib.util
import json
import sys
from pathlib import Path

from benchmark_workloads import workloads

ROOT = Path(__file__).resolve().parents[1]


def test_traced_bench_loads_and_reports_the_declared_metrics(monkeypatch):
    # layers.py imports its sibling `workloads` by name: the copy already
    # loaded stands in for it, and perfbench/ is on the path for any other
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers.METRICS) == {metric["name"] for metric in benchmark["per_layer"]}
