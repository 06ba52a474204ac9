"""The README's examples run: its problem file through `verify`,
`cohomology` and `lift`, and every subcommand and flag of its CLI block
exists in the parser."""
import json
import re
from pathlib import Path

import pytest

from nlie import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str = "") -> str:
    """The first fenced block of a language after a heading."""
    match = re.search(rf"^#+ {re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.S | re.M)
    assert match, heading
    return match.group(1)


@pytest.mark.parametrize("argv", [["verify"], ["cohomology"],
                                  ["cohomology", "--target", "operator"], ["lift"]])
def test_readme_problem_file_passes(tmp_path, capsys, argv):
    path = tmp_path / "readme.json"
    path.write_text(_block("Problem files", "json"), encoding="utf-8")
    assert cli.main([argv[0], str(path), *argv[1:], "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True


def test_readme_cli_block_matches_the_parser():
    lines = _block("CLI").strip().splitlines()
    commands = cli._parser()._subparsers._group_actions[0].choices
    assert [line.split()[1] for line in lines] == list(commands)
    for line in lines:
        options = commands[line.split()[1]]._option_string_actions
        for flag, choices in re.findall(r"(--[a-z-]+)(?: ([a-z]+(?:\|[a-z]+)+))?", line):
            assert flag in options, line
            if choices:
                assert choices.split("|") == list(options[flag].choices), line
