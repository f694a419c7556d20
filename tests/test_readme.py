"""README.md examples, run as written.

Every ``$ sampdisc ...`` command in a fenced block runs through
``cli.main`` in one temporary directory, in README order, and must print
exactly the lines shown under it.  The ``python`` blocks run in one
namespace in that directory.
"""

import re
import shlex
from pathlib import Path

from sampdisc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.S | re.M)


def _cli_examples():
    """(argv, shown output lines) of every ``$ sampdisc`` command."""
    examples = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ sampdisc "):
                shown = [line for line in lines[1:] if line]
                examples.append((shlex.split(lines[0])[2:], shown))
    return examples


def test_readme_shows_every_subcommand_with_its_output():
    examples = _cli_examples()
    assert {argv[0] for argv, _ in examples} == {
        "gen", "nikolskii", "select", "select-weighted", "verify", "sweep"
    }
    assert all(shown for _, shown in examples)
    assert sum(lang == "python" for lang, _ in BLOCKS) == 2


def test_cli_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, shown in _cli_examples():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert out.splitlines() == shown, argv


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for lang, body in BLOCKS:
        if lang == "python":
            exec(compile(body, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("128 FrameBounds(")
    assert (tmp_path / "dft.cert.json").exists()
    assert namespace["ccert"].kind == "equal_weight"
    assert namespace["wcert"].kind == "weighted"

