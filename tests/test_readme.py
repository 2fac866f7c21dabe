"""The README's library tour, public API list and command-line block match
the package."""

import re
import shlex
import types
from importlib import resources
from pathlib import Path

import pytest

import pgsos
from pgsos.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PA = str(resources.files("pgsos").joinpath("data", "pa.pgsos"))


def section(title: str) -> str:
    """The README text under ``## title``, up to the next heading."""
    text = README.read_text()
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced_block(title: str, lang: str) -> str:
    block = re.search(rf"```{lang}\n(.*?)```", section(title), re.DOTALL)
    assert block is not None, f"no {lang} block under {title!r}"
    return block.group(1)


def test_library_tour_runs():
    exec(compile(fenced_block("Library tour", "python"),
                 "README.md (Library tour)", "exec"), {})


def test_public_api_list_is_the_package_root():
    bullets = re.findall(r"^- .*(?:\n  .*)*", section("Public API"), re.M)
    listed = [name for b in bullets for name in re.findall(r"`(\w+)`", b)]
    assert listed == sorted(set(listed), key=listed.index), "listed twice"
    assert sorted(listed) == sorted(pgsos.__all__)
    public = {name for name, value in vars(pgsos).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(pgsos.__all__)


def test_library_tour_uses_only_the_public_api():
    used = set(re.findall(r"\bpgsos\.(\w+)",
                          fenced_block("Library tour", "python")))
    assert used and used <= set(pgsos.__all__)


def command_lines() -> list[tuple[list[str], str]]:
    """``(argv, comment)`` for each ``pgsos ...`` line of the command-line
    block, run against the shipped ``pa.pgsos``."""
    out = []
    for line in fenced_block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "pgsos"
        out.append(([PA if a == "spec.pgsos" else a for a in argv[1:]],
                    comment.strip()))
    return out


# the comments of these commands quote the first line of their output
QUOTED = {"transitions", "explore", "distance", "denote", "bound"}


@pytest.mark.parametrize("argv, comment", [
    pytest.param(argv, comment, id=argv[0]) for argv, comment in command_lines()])
def test_command_line_block_runs(capsys, argv, comment):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] in QUOTED:
        expected = comment.removesuffix("...").rstrip()
        assert out.splitlines()[0].startswith(expected)
