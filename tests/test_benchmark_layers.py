"""The benchmark's traced mode (perfbench/layers.py) loads: a package name
it imports cannot go without this failing, where `--trace 1` would only
break when run."""

import ast
import importlib.util
import json
import os
import subprocess
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


TRACED_ON_CLI = """\
import sys
import coarselik.cli as cli
print(*(name for name in sys.argv[1:] if not hasattr(cli, name)))
"""


def test_the_cli_has_every_traced_name_it_calls():
    # a traced command wraps each name of layers.TRACED that `coarselik.cli`
    # has (hasattr, then setattr): one the CLI calls but does not have, as
    # in a fresh interpreter before first use, would lose its span unseen
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    cli_tree = ast.parse((ROOT / "src" / "coarselik" / "cli.py").read_text(encoding="utf-8"))
    read = ({node.id for node in ast.walk(cli_tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(cli_tree) if isinstance(node, ast.Attribute)})
    called = [name for name in traced if name in read]
    assert {"load_model_config", "load_scheme_config", "read_dataset", "simulate_cohort",
            "coarsen_cohort", "per_subject_loglik", "fit_mle"} <= set(called)
    proc = subprocess.run([sys.executable, "-c", TRACED_ON_CLI, *called],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
