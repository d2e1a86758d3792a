import io
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import partgraph.graphs
import partgraph.oracle
from partgraph import cli
from partgraph.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionsCommand:
    def test_text_listing(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "4")
        assert code == 0
        assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


class TestLocalCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "local", "4,4,2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"] == [4, 4, 2, 2]
        assert payload["type"] == {"t": 2, "alpha": [0, 0], "beta": [0, 0]}
        assert payload["degree"] == 6
        assert payload["removable_side_degrees"] == [3, 3]
        assert payload["addable_side_degrees"] == [2, 2, 2]
        assert payload["local_clique_number"] == 4
        assert payload["local_dimension"] == 3
        assert len(payload["admissibility_graph"]["edges"]) == 6

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "local", "3,2,1")
        assert code == 0
        assert "degree: 6" in out
        assert "local clique number: 3" in out
        assert "local simplex dimension: 2" in out

    def test_parse_failure_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["local", "0,3"])
        assert excinfo.value.code == 2
        assert "0" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1_0,2", "\u0663,1", "+3"])
    def test_non_ascii_digit_part_exits_2(self, capsys, text):
        with pytest.raises(SystemExit) as excinfo:
            main(["local", text])
        assert excinfo.value.code == 2
        assert f"cannot parse partition from {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["partitions", "1_0"],
    ["graph", "\u0663"],
    ["verify", "--nmax", "+3"],
])
def test_non_ascii_digit_integer_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"expected an integer, got {argv[-1]!r}" in capsys.readouterr().err


class TestGraphCommand:
    def test_json_export(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["labels"]) == 15
        assert payload["labels"][0] == [7]
        assert all(a < b for a, b in payload["edges"])

    def test_dot_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "g4.dot"
        code, out, _ = run_cli(capsys, "graph", "4", "--format", "dot", "--output", str(target))
        assert code == 0
        assert out == ""
        dot = target.read_text()
        assert dot.count("label=") == 5
        assert dot.count(" -- ") == 5

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "4")
        assert code == 0
        assert "5 vertices, 5 edges" in out

    def test_unwritable_output_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "graph", "4", "--output", "/no/such/dir/g.txt")
        assert code == 1
        assert "error" in err


class TestNeighborhoodCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "neighborhood", "4,4,2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["pairs_checked"] == 15
        assert payload["adjacent_pairs"] == 9
        assert len(payload["neighborhood"]["labels"]) == 6
        assert payload["neighborhood"]["edges"] == payload["line_graph"]["edges"]
        assert payload["bijection"][0] == {"move": {"i": 1, "j": 1}, "neighbor": [5, 3, 2, 2]}

    def test_single_neighbor(self, capsys):
        code, out, _ = run_cli(capsys, "neighborhood", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["neighborhood"]["labels"] == [{"i": 1, "j": 2}]

    def test_text_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "neighborhood", "3,2,1")
        assert code == 0
        assert "verified: yes" in out

    def test_violation_lines(self, capsys, monkeypatch):
        # No two neighbors adjacent: of the three moves out of 3,1, only
        # 1->2 and 1->3 share a corner, so that pair is the one violation.
        monkeypatch.setattr(partgraph.graphs, "are_adjacent", lambda p, q: False)
        _, out, _ = run_cli(capsys, "neighborhood", "3,1")
        assert out.splitlines()[-2:] == [
            "  VIOLATION 1->2/1->3: adjacent_in_graph=False, share_corner=True",
            "verified: NO",
        ]
        _, out, _ = run_cli(capsys, "neighborhood", "3,1", "--format", "json")
        payload = json.loads(out)
        assert payload["violations"] == [{
            "first": {"i": 1, "j": 2}, "second": {"i": 1, "j": 3},
            "adjacent_in_graph": False, "share_corner": True,
        }]
        assert payload["verified"] is False


class TestCliquesCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "cliques", "4,4,2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["clique_count"] == 5
        assert payload["local_clique_number"] == 4
        kinds = sorted(c["kind"] for c in payload["cliques"])
        assert kinds == ["star", "star", "top", "top", "top"]
        sizes = sorted(c["size"] for c in payload["cliques"])
        assert sizes == [2, 2, 2, 3, 3]

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "cliques", "2,2")
        assert code == 0
        assert "star(1)" in out


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["n_range"] == [1, 3]
        assert len(payload["checks"]) == 4

    def test_degrees_only_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "6", "--degrees-only")
        assert code == 0
        payload = json.loads(out)
        assert [c["name"] for c in payload["checks"]] == ["degrees"]

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--nmax", "2", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True


class TestSingleWritePath:
    """Handlers return `(text, status)`; `main` alone writes, to stdout or `--output`."""

    COMMANDS = [
        ("cmd_partitions", ["partitions", "5"]),
        ("cmd_local", ["local", "4,4,2,2", "--format", "json"]),
        ("cmd_graph", ["graph", "5", "--format", "dot"]),
        ("cmd_neighborhood", ["neighborhood", "3,2,1"]),
        ("cmd_cliques", ["cliques", "4,4,2,2"]),
        ("cmd_verify", ["verify", "--nmax", "3"]),
    ]

    @pytest.fixture
    def failing_verify(self, monkeypatch):
        formula = partgraph.oracle.local_clique_number
        monkeypatch.setattr(partgraph.oracle, "local_clique_number", lambda T: formula(T) + 1)

    def test_failing_verify_exits_1(self, capsys, failing_verify):
        code, out, err = run_cli(capsys, "verify", "--nmax", "4")
        assert code == 1
        assert '"pass": false' in out
        assert err == ""

    def test_failing_verify_to_file_exits_1(self, capsys, tmp_path, failing_verify):
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--nmax", "4", "--output", str(target))
        assert (code, out, err) == (1, "", "")
        report = json.loads(target.read_text(encoding="utf-8"))
        assert report["pass"] is False
        assert report["n_range"] == [1, 4]

    @pytest.mark.parametrize("name, argv", COMMANDS, ids=[name for name, _ in COMMANDS])
    def test_output_file_holds_the_stdout_bytes(self, capsys, monkeypatch, tmp_path, name, argv):
        # A fixed clock, so that verify's timings_ms are the same in both runs.
        monkeypatch.setattr(partgraph.oracle, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        target = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("argv", [["verify", "--nmax", "3"], ["local", "4,4,2,2"]])
    def test_unwritable_output_fails_cleanly(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--output", "/no/such/dir/out.txt")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("name, argv", COMMANDS, ids=[name for name, _ in COMMANDS])
    def test_handlers_return_text_and_status_without_io(self, capsys, tmp_path, name, argv):
        target = tmp_path / "out.txt"
        args = cli.build_parser().parse_args([*argv, "--output", str(target)])
        assert args.handler is getattr(cli, name)
        result = getattr(cli, name)(args)
        assert type(result) is tuple
        text, status = result
        assert type(text) is str and text
        assert status == 0
        assert capsys.readouterr() == ("", "")
        assert not target.exists()


def call(argv):
    """Run `main` on argv; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


MIXED = [
    ["local", "4,4,2,2"],
    ["local", "453,453,303,153,152,2", "--format", "json"],
    ["neighborhood", "3,2,1"],
    ["neighborhood", "5,5,1", "--format", "json"],
    ["cliques", "4,4,2,2", "--format", "json"],
    ["cliques", "7,3,3,1"],
    ["partitions", "6", "--format", "json"],
    ["graph", "5", "--format", "dot"],
    ["partitions", "5"],
]


class TestSharedParser:
    """`main` parses with one parser per process; no call may see another's."""

    def test_nothing_is_built_at_import(self):
        probe = "import partgraph.cli as cli; print(cli._parser.cache_info().currsize)"
        found = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True,
        )
        assert found.stdout == "0\n"

    def test_calls_match_a_fresh_parser(self, monkeypatch, tmp_path):
        target = str(tmp_path / "g4.txt")
        sequence = [
            ["local", "4,4,2,2", "--format", "json"],
            ["local", "4,4,2,2"],
            ["graph", "4", "--output", target],
            ["graph", "4"],
            ["local", "0,3"],
            ["cliques", "3,2,1"],
        ]

        def run_all_of(sequence):
            results = []
            for argv in sequence:
                results.append(call(argv))
                if "--output" in argv:
                    written = Path(target)
                    results.append(written.read_text())
                    written.unlink()
            return results

        cli._parser.cache_clear()
        shared = run_all_of(sequence)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = run_all_of(sequence)
        assert shared == fresh
        json_local, text_local, to_file, written, to_stdout, bad, cliques = shared
        assert json_local[1].startswith("{") and text_local[1].startswith("partition: ")
        assert to_file == (0, "", "") and to_stdout == (0, written, "")
        assert bad[0] == 2 and bad[1] == ""
        assert bad[2].startswith("usage: partgraph local")
        assert cliques[0] == 0 and cliques[1].startswith("partition: 3,2,1")

    def test_parser_is_built_once(self, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for k in range(50):
                assert call(MIXED[k % len(MIXED)])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_threads_share_the_parser(self, tmp_path):
        threads, calls = 4, 25
        expected = {}
        for k, argv in enumerate(MIXED):
            target = tmp_path / f"serial_{k}.txt"
            assert call([*argv, "--output", str(target)]) == (0, "", "")
            expected[k] = target.read_text()

        cli._parser.cache_clear()
        start = threading.Barrier(threads)
        codes = [[] for _ in range(threads)]

        def worker(w):
            start.wait()
            for c in range(calls):
                k = (w + c) % len(MIXED)
                target = tmp_path / f"thread_{w}_{c}_{k}.txt"
                codes[w].append(main([*MIXED[k], "--output", str(target)]))

        pool = [threading.Thread(target=worker, args=(w,)) for w in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside parse_args too
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert codes == [[0] * calls] * threads
        written = sorted(tmp_path.glob("thread_*.txt"))
        assert len(written) == threads * calls
        for path in written:
            k = int(path.stem.rsplit("_", 1)[1])
            assert path.read_text() == expected[k], path.name


class TestImportCost:
    def test_import_loads_no_code_generation_modules(self):
        # A shell call pays for every module the import loads.  `dataclasses`
        # alone pulls in `inspect`, `ast` and `dis`; none of them is needed.
        # With -S no site-packages module can load them first.
        probe = ("import sys, partgraph.cli; "
                 "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
        found = subprocess.run(
            [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, check=True,
        )
        assert found.stdout == "[]\n"

    def test_import_loads_no_json_package(self):
        # The writer needs one C function of `json`, which `_json` holds alone.
        probe = "import sys, partgraph.cli; sys.exit('json' in sys.modules)"
        subprocess.run([sys.executable, "-S", "-c", probe],
                       env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
