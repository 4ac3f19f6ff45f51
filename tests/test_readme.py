"""The README's examples run as written: its Python quickstart, its model
and scheme configs, and its simulate, loglik and fit commands."""

import re
import shlex
from pathlib import Path

from coarselik.cli import main
from coarselik.io import load_model_config, load_scheme_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(after: str, lang: str = "") -> str:
    """The fenced block that directly follows the line `after`."""
    found = re.search(rf"^{re.escape(after)}\n\n```{lang}\n(.*?)^```", README, re.S | re.M)
    assert found, f"no {lang or 'plain'} block after {after!r}"
    return found.group(1)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(block("## Library quickstart", "python"), "README.md", "exec"), {})

    for name in ("model.json", "scheme.json"):
        Path(name).write_text(block(f"`{name}`", "json"))
    cfg = load_model_config("model.json")
    load_scheme_config("scheme.json", cfg.component_names)

    # validate is covered by test_cli's smoke test, at a small path count
    commands = [shlex.split(line) for line in
                block("Commands:").replace("\\\n", " ").splitlines() if line.strip()]
    assert [c[:2] for c in commands] == [["coarselik", cmd] for cmd in
                                         ("simulate", "loglik", "fit", "validate")]
    for argv in commands[:3]:
        assert main(argv[1:]) == 0, argv
