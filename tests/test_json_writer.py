"""`cli._json` against the text of `json.dumps(payload, indent=2)`.

The CLI writes every `--format json` output and the verify report with its
own writer, which must give the standard library's indented text byte for
byte.  Property tests compare the two on trees of the writer's grammar:
dicts with str keys, lists, str, int, bool, None and finite floats, by exact
type.  Tuples, named tuples and subclasses fall outside it and raise
TypeError.  The round-trip tests check that every JSON command's raw stdout
is already in that form, so re-encoding what it parsed changes nothing.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partgraph.oracle
from partgraph import cli
from partgraph.partitions import enumerate_partitions


class Move(NamedTuple):
    i: object
    j: object


# Subclasses of the grammar's types, which the writer refuses by exact type.
Str, Int, Float, List, Dict = (type(base.__name__.title(), (base,), {})
                               for base in (str, int, float, list, dict))


def stdlib(payload):
    return json.dumps(payload, indent=2) + "\n"


TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f{}%é\u2028\uffff\U0001f600'
strings = st.text(st.characters() | st.sampled_from(TRICKY))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | strings
)


@st.composite
def rows(draw):
    """Sibling lists or dicts of one shape, as the CLI's edges and moves are,
    holding ints with now and then a bool."""
    width = draw(st.integers(0, 3))
    keys = draw(st.lists(strings, min_size=width, max_size=width, unique=True))
    cell = st.integers() | st.booleans() if draw(st.booleans()) else st.integers()
    cells = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=4))
    if draw(st.booleans()):
        return [dict(zip(keys, row)) for row in cells]
    return cells


trees = st.recursive(
    scalars | rows() | st.lists(st.integers() | st.booleans()),
    lambda children: st.lists(children) | st.dictionaries(strings, children),
    max_leaves=25,
)


class TestWriter:
    @settings(deadline=None, max_examples=150)
    @given(trees)
    def test_matches_json_dumps(self, payload):
        assert cli._json(payload) == stdlib(payload)

    @pytest.mark.parametrize("payload", [
        {}, [], [""], [{}], [[]], {"a": {}}, {"a": []}, [[], {}, [[]]], [[[]]],
        [True, 1, False, 0], [1, True], -0.0, [0.1, 1e16, 1e-07, 5e-324, 1.7976931348623157e308],
        [2**100, -(2**100)], {"i": 1, "j": 2}, [{"i": 1, "j": 2}, {"i": 3, "j": 4}],
        {"m": {"i": [], "j": {}}},
        [{"{i}": 1, "j}": 2}, {"{i}": 3, "j}": 4}], [{"i": 1, "j": 2}, {"j": 3, "i": 4}],
        TRICKY, {TRICKY: [TRICKY]},
        [[1, 2], [3, True]], [[1, 2], [3]], [[], []], [[1, 2], [3, 4.0]],
        {"e": [[0, 1], [1, 2]]}, [[-1, 2**70]],
    ])
    def test_edge_cases(self, payload):
        assert cli._json(payload) == stdlib(payload)

    @pytest.mark.parametrize("payload", [
        {1, 2}, [frozenset()], {"a": b"x"}, [[1, 2], [3, {4}]], object(), 1j, {1: "a"},
        (), (1, 2), Move(1, 2), [Move(1, 2)], {"k": (1,)},
        Str("a"), Int(1), Float(0.5), List([1]), Dict(a=1), [[1, 2], [3, Int(4)]],
    ])
    def test_non_json_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            cli._json(payload)


class TestWithoutCEncoder:
    def test_pure_python_string_encoder(self):
        # `_json` is private to CPython; without it the writer takes the
        # encoder `json.encoder` falls back to, and writes the same bytes.
        probe = textwrap.dedent("""
            import sys
            sys.modules["_json"] = None
            from partgraph import cli
            from json.encoder import py_encode_basestring_ascii
            assert cli.encode_basestring_ascii is py_encode_basestring_ascii
            sys.stdout.write(cli._json(eval(sys.stdin.read())))
            try:
                cli._json({1: "a"})
            except TypeError:
                pass
            else:
                raise AssertionError("a non-str key was written")
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        payload = [TRICKY, {TRICKY: [TRICKY, TRICKY[::-1]]}, {"k": [[1, 2], [3, 4]]}]
        written = subprocess.run(
            [sys.executable, "-c", probe], input=ascii(payload), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert written.stdout == stdlib(payload)


def raw_stdout(capsys, *argv):
    cli.main(list(argv))
    return capsys.readouterr().out


def assert_round_trips(out):
    assert out == stdlib(json.loads(out))


SMALL = [str(p) for n in range(1, 9) for p in enumerate_partitions(n)]


class TestCliRoundTrip:
    @pytest.mark.parametrize("command", ["local", "neighborhood", "cliques"])
    def test_local_commands(self, capsys, command):
        for text in SMALL + ["453,453,303,153,152,2"]:
            assert_round_trips(raw_stdout(capsys, command, text, "--format", "json"))

    @pytest.mark.parametrize("command", ["graph", "partitions"])
    def test_whole_weight_commands(self, capsys, command):
        for n in range(1, 10):
            assert_round_trips(raw_stdout(capsys, command, str(n), "--format", "json"))

    def test_verify_report_with_timings(self, capsys):
        out = raw_stdout(capsys, "verify", "--nmax", "6")
        assert set(json.loads(out)["timings_ms"]) == set(partgraph.oracle.CHECKS)
        assert_round_trips(out)

    def test_verify_report_with_a_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(partgraph.oracle, "degree_formula", lambda T: 'λ {"t", 1}')
        out = raw_stdout(capsys, "verify", "--nmax", "3")
        details = [f["detail"] for c in json.loads(out)["checks"] for f in c["failures"]]
        assert any('{"t", 1}' in detail for detail in details)
        assert_round_trips(out)
