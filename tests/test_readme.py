"""The README's examples run as written: the library quick start, and each
command-line example through wlasso.cli.main, its --out in a temporary
directory.  `experiment` is left to test_golden, which runs the presets."""
import re
import shlex
from pathlib import Path

import pytest

from wlasso.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(title: str, lang: str = "") -> list[str]:
    """The code blocks fenced with ```lang in the README section `title`."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return re.findall(rf"```{lang}\n(.*?)```", README[start:end], re.S)


COMMANDS = [shlex.split(block.replace("\\\n", " ")) for block in _blocks("Command line")]


def test_library_quick_start_runs():
    (code,) = _blocks("Library quick start", "python")
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["result"].converged


def test_every_subcommand_has_an_example():
    assert [argv[:2] for argv in COMMANDS] == [
        ["wlasso", command]
        for command in ("solve", "weights", "diagnose", "concentration-test", "experiment")
    ]


@pytest.mark.parametrize(
    "argv", [argv[1:] for argv in COMMANDS if argv[1] != "experiment"], ids=lambda argv: argv[0]
)
def test_command_line_example_exits_zero(argv, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv += ["--out", str(tmp_path / "out.txt")]
    code = main(argv)
    assert code == 0, capsys.readouterr().err
