"""README.md held to the code: every `loadsense` command in its code blocks
parses, it names every command and option of the parser, its CLI table
lists exactly each command's options and the files it writes, and its
layout has one line for each module and script.  The cli module
docstring's command list is held to the parser too."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from loadsense import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# each command's arguments on the 5-participant tree (make_split_plan's floor)
# that synth writes; README's TASK and SCHEME stand for --task and --scheme
RUNS = {
    "synth": ["--participants", "5"],
    "validate": [],
    "features": [],
    "stats": [],
    "train": ["--task", "nback", "--subset", "heart"],
    "evaluate": ["--task", "visual_search", "--scheme", "binary", "--subset", "heart"],
}


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _code_block_commands() -> list[list[str]]:
    """The arguments of each `loadsense` line in README's code blocks, with
    backslash continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"^```\w*\n(.*?)^```", README, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["loadsense"]:
                commands.append(words[1:])
    return commands


def _table() -> dict[str, tuple[set[str], set[str]]]:
    """Command -> the options and the file names of its row in README's CLI table."""
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \| ([^|]*) \|$", README, re.M)
    return {command: (set(re.findall(r"--[\w-]+", options)), set(re.findall(r"`([^`]+)`", files)))
            for command, options, files in rows}


def test_code_block_commands_parse():
    commands = _code_block_commands()
    assert {argv[0] for argv in commands} >= {"synth", "evaluate"}
    parser = cli.build_parser()
    # argparse takes an unambiguous prefix such as --participant; README must not
    for p in (parser, *_commands(parser).values()):
        p.allow_abbrev = False
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(shlex.join(argv))
    assert rejected == []


def test_every_command_and_option_is_named():
    parser = cli.build_parser()
    commands = _commands(parser)
    options = {option for p in (parser, *commands.values()) for action in p._actions
               for option in action.option_strings}
    assert {command for command in commands if f"`{command}`" not in README} == set()
    assert {option for option in options if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README)} == set()


def test_cli_docstring_lists_the_parser_commands():
    listed = re.search(r"^Subcommands: (.*)\.$", cli.__doc__, re.M).group(1).split(" | ")
    assert listed == list(_commands(cli.build_parser()))


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, set[str]]:
    """Command -> the names it wrote under its --out (for validate, which
    has no --out, under its working directory); directories end in '/'."""
    root = tmp_path_factory.mktemp("readme")
    names = {}
    for command, options in RUNS.items():
        out = root / command
        out.mkdir()
        argv = [command, *options]
        if command != "synth":
            argv += ["--dataset", str(root / "synth" / "dataset")]
        if command != "validate":
            argv += ["--out", str(out), "--seed", "7"]
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(out)
            assert cli.run_cli(argv) == 0, argv
        names[command] = {p.name + "/" * p.is_dir() for p in out.iterdir()}
    return names


def test_table_rows_are_the_parser_commands():
    assert sorted(_table()) == sorted(_commands(cli.build_parser())) == sorted(RUNS)


def test_table_lists_each_command_options():
    """Each row names its command's own options; --out and --seed, which
    every writing command takes, and -h are in the prose below the table."""
    common = {"-h", "--help", "--out", "--seed"}
    parsed = {command: {option for action in p._actions for option in action.option_strings} - common
              for command, p in _commands(cli.build_parser()).items()}
    assert {command: options for command, (options, _) in _table().items()} == parsed


@pytest.mark.parametrize("command", sorted(RUNS))
def test_table_lists_the_files_a_command_writes(command, written):
    given = dict(zip(RUNS[command][::2], RUNS[command][1::2]))
    listed = {name.replace("TASK", given.get("--task", "TASK")).replace("SCHEME", given.get("--scheme", "SCHEME"))
              for name in _table()[command][1]}
    assert listed == written[command]


def test_layout_has_one_line_per_module_and_script():
    layout = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0].strip().splitlines()
    named = [re.match(r"- `([^`]+)` — \S", line) for line in layout]
    assert None not in named, "a layout line is not '- `path` — what it holds'"
    files = [p.relative_to(ROOT).as_posix() for pattern in ("src/loadsense/*.py", "scripts/*.py")
             for p in ROOT.glob(pattern)]
    assert sorted(m.group(1) for m in named) == sorted(files)
