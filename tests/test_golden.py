"""CLI output compared byte for byte with the files in `tests/golden/`.

Each case runs `partgraph.cli.main` in-process and compares its stdout with
one stored file.  `verify` reports are compared without `timings_ms`, the
only key that changes from run to run.

To write the files again from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
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
    ["graph", "7", "--format", "json"],
    ["graph", "7", "--format", "dot"],
    ["verify", "--nmax", "10"],
    ["verify", "--nmax", "10", "--degrees-only"],
]


def golden_path(argv):
    name = "_".join(arg.lstrip("-").replace(",", "-") for arg in argv)
    return GOLDEN / f"{name}.txt"


def render(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "verify":
        payload = json.loads(text)
        del payload["timings_ms"]
        text = json.dumps(payload, indent=2) + "\n"
    return code, text


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: golden_path(argv).stem)
def test_output_matches_golden(argv):
    code, text = render(argv)
    assert code == 0
    assert text == golden_path(argv).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in CASES:
        code, text = render(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
        golden_path(argv).write_text(text, encoding="utf-8")
