"""CLI output compared byte for byte with the files in `tests/golden/`.

Each case runs `partgraph.cli.main` in-process and compares its stdout with
one stored file.  `verify` reports are compared without `timings_ms`, the
only key that changes from run to run.  The `--help` texts of the top-level
parser and of every subcommand are compared too, with `COLUMNS=80`, since
argparse wraps help to the terminal width.

To write the files again from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from partgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
PARTITIONS = ["4,4,2,2", "3,2,1", "5", "1", "453,453,303,153,152,2"]

CASES = [
    [command, p, *fmt]
    for command in ("local", "neighborhood", "cliques")
    for p in PARTITIONS
    for fmt in ([], ["--format", "json"])
] + [
    ["partitions", "5"],
    ["partitions", "5", "--format", "json"],
    ["graph", "7"],
    ["graph", "7", "--format", "json"],
    ["graph", "7", "--format", "dot"],
    ["verify", "--nmax", "10"],
    ["verify", "--nmax", "10", "--degrees-only"],
]

HELP = [["--help"]] + [
    [command, "--help"]
    for command in ("partitions", "local", "graph", "neighborhood", "cliques", "verify")
]


def golden_path(argv):
    name = "_".join(arg.lstrip("-").replace(",", "-") for arg in argv)
    return GOLDEN / f"{name}.txt"


def render(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    text = out.getvalue()
    if argv[0] == "verify" and "--help" not in argv:
        payload = json.loads(text)
        del payload["timings_ms"]
        text = json.dumps(payload, indent=2) + "\n"
    return code, text


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_path(argv).stem)
def test_output_matches_golden(argv):
    code, text = render(argv)
    assert code == 0
    assert text == golden_path(argv).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", HELP, ids=lambda argv: golden_path(argv).stem)
def test_help_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, text = render(argv)
    assert code == 0
    assert text == golden_path(argv).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    for argv in CASES + HELP:
        code, text = render(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
        golden_path(argv).write_text(text, encoding="utf-8")
