"""The README's examples run as written and its CSV columns match the CLI."""

import re
from pathlib import Path

from dhj.cli import main
from test_cli import taken_flags

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})


def test_readme_csv_columns_match_the_written_files(tmp_path):
    documented = dict(re.findall(r"^- `([a-z-]+)`: `([a-z_,A-Z]+)`", README.read_text(
        encoding="utf-8"), re.M))
    assert set(documented) == {"simulate", "hj-flow", "hj-vf"}
    for command, columns in documented.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, "--steps", "2", "--csv", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if not line.startswith("#")][0] == columns


def test_readme_flag_lists_match_the_parser():
    # "- `simulate` reads `--model`, ... and `--log-abs`." over one or more lines
    documented = {command: set(re.findall(r"`(--[a-z0-9-]+)`", flags)) | {"--config"}
                  for command, flags in re.findall(r"^- `([a-z-]+)` reads (.*?\.)$",
                                                   README.read_text(encoding="utf-8"),
                                                   re.M | re.S)}
    assert documented == taken_flags()


def test_readme_failure_line_is_what_the_cli_prints(capsys):
    command, line = re.search(r"`dhj (simulate [^`]*)`[^`]*```\n(.*)\n```",
                              README.read_text(encoding="utf-8")).groups()
    assert command == "simulate --q1 0.01 --steps 40"
    assert line == ("trajectory failure at j = 32: ConvergenceError: no convergence after 50 "
                    "iterations, last residual norm 1.254223e-06")
    assert main(command.split()) == 1
    assert capsys.readouterr().err.splitlines() == [line]
