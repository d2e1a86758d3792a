"""The README's examples, checked against the program.

The README shows CLI output, a verify report and a Library snippet with
its results written as comments.  Each test here reads the README text, so
a change to either the program or the README that makes them disagree fails.
"""

import ast
import json
from pathlib import Path

from partgraph import make_partition, neighbors, run_all
from partgraph.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block_after(marker: str, fence: str = "```") -> str:
    """The body of the first fenced block that follows `marker` in the README."""
    assert marker in README, f"README no longer contains {marker!r}"
    rest = README.split(marker, 1)[1]
    return rest.split(fence + "\n", 1)[1].split("```", 1)[0]


def stated_results(snippet: str) -> list[tuple[str, object]]:
    """(expression, value) for each snippet line whose value a comment states.

    The value is a Python literal either after the expression on its line or
    alone on the comment line right below it.
    """
    found = []
    pending = None
    for line in snippet.splitlines():
        code, _, comment = (piece.strip() for piece in line.partition("#"))
        if code:
            pending = code
        if pending is None or not comment:
            continue
        try:
            found.append((pending, ast.literal_eval(comment)))
        except (ValueError, SyntaxError):
            continue
        pending = None
    return found


def test_local_example_matches_the_cli(capsys):
    shown = block_after("`partgraph local 4,4,2,2` prints:")
    assert main(["local", "4,4,2,2"]) == 0
    assert capsys.readouterr().out == shown


def test_verify_example_matches_run_all():
    shown = json.loads(block_after("The report lists, per check", fence="```json"))
    report = run_all(12).to_json()
    assert shown["n_range"] == report["n_range"] == [1, 12]
    assert shown["checks"] == report["checks"]
    assert [check["examined"] for check in shown["checks"]] == [271] * 4
    assert shown["timings_ms"].keys() == report["timings_ms"].keys()
    assert shown["pass"] is report["pass"] is True


def test_library_snippet_states_what_the_program_returns():
    snippet = block_after("## Library", fence="```python")
    namespace: dict = {}
    exec(snippet, namespace)
    stated = stated_results(snippet)
    assert [expression for expression, _ in stated] == [
        "admissibility_graph(local_type(p)).sorted_edges() == list(neighbors(p))",
        "degree_formula(local_type(p))",
        "local_clique_number(local_type(p))",
        "[classify_clique(c).kind for c in cliques_through(induced_neighborhood(neighbors(p)))]",
        "run_all(12).passed",
    ]
    for expression, value in stated:
        assert eval(expression, namespace) == value, expression
    assert [value for _, value in stated] == [
        True, 6, 4, ["star", "top", "top", "top", "star"], True,
    ]

    move, target = next(iter(neighbors(make_partition([4, 4, 2, 2])).items()))
    assert f"# {{{move!r}: {target!r}, ...}}" in snippet
    assert f"# str() of that move and that partition: {move} and {target}" in snippet
    assert (str(move), str(target)) == ("1->1", "5,3,2,2")
