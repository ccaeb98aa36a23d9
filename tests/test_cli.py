"""Command-line interface: formats, subcommands, reports, exit codes."""

import json
import random
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, strategies as st

from decisive.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INPUT_ERROR,
    EXIT_NO_WITNESS,
    EXIT_WITNESS,
    parse_hypergraph_file,
    parse_pattern_text,
    pattern_to_locus_list,
    pattern_to_matrix_csv,
    run,
)
from decisive import emit
from decisive.core import CoveragePattern, build_hypergraph
from decisive.errors import InputFormatError

MATRIX = "taxon,L1,L2\na,1,0\nb,1,1\nc,0,1\n"
LOCUS_LIST = "L1: a b\nL2: b c\n"

TWO_TRIPLES = "L1: t0 t1 t2\nL2: t1 t2 t3\n"
FULL_LOCUS = "taxon,L\na,1\nb,1\nc,1\nd,1\n"


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("decisive") / "schema" / "report.schema.json"
    ).read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    stream = captured.out or captured.err
    return code, json.loads(stream)


class TestFormats:
    def test_matrix_and_locus_list_agree(self):
        a = parse_pattern_text(MATRIX, "matrix-csv")
        b = parse_pattern_text(LOCUS_LIST, "locus-list")
        assert a == b
        assert a.loci == (("L1", (0, 1)), ("L2", (1, 2)))

    def test_round_trip_serializers(self):
        p = parse_pattern_text(MATRIX, "matrix-csv")
        assert parse_pattern_text(pattern_to_matrix_csv(p), "matrix-csv") == p
        assert parse_pattern_text(pattern_to_locus_list(p), "locus-list") == p

    def test_all_zero_row_accepted(self):
        p = parse_pattern_text("taxon,L\na,1\nb,1\nc,0\n", "matrix-csv")
        assert p.n == 3 and p.loci == (("L", (0, 1)),)

    def test_bad_cell_rejected(self):
        with pytest.raises(InputFormatError):
            parse_pattern_text("taxon,L\na,2\n", "matrix-csv")

    def test_ragged_row_rejected(self):
        with pytest.raises(InputFormatError):
            parse_pattern_text("taxon,L1,L2\na,1\n", "matrix-csv")

    def test_missing_colon_rejected(self):
        with pytest.raises(InputFormatError):
            parse_pattern_text("L1 a b\n", "locus-list")

    def test_hypergraph_file(self, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text("# comment\nnodes 4\n0 1 2\n1 2 3\n")
        h = parse_hypergraph_file(str(f))
        assert h.node_count == 4 and h.edges == ((0, 1, 2), (1, 2, 3))

    def test_hypergraph_file_requires_header(self, tmp_path):
        f = tmp_path / "h.txt"
        f.write_text("0 1 2\n")
        with pytest.raises(InputFormatError):
            parse_hypergraph_file(str(f))

    def test_hypergraph_file_bad_node_count(self, tmp_path, capsys, schema):
        f = tmp_path / "h.txt"
        f.write_text("# comment\nnodes abc\n0 1 2\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_hypergraph_file(str(f))
        code, report = run_cli(
            capsys, "nrc", "--input", str(f), "--format", "edge-list"
        )
        assert code == EXIT_INPUT_ERROR
        assert report["error"]["type"] == "input"
        jsonschema.validate(report, schema)

    @pytest.mark.parametrize(
        "command,fmt,data,where",
        [
            ("check", "matrix-csv", b"taxon,L\na,1\n\xff,1\n", "byte 12"),
            ("nrc", "locus-list", b"L: a b\xff c d\n", "byte 6"),
            ("check", "matrix-csv", b"taxon,L\n" + b"a" * 131_073 + b",1\n",
             "line 2: field larger than field limit"),
        ],
        ids=["check-not-utf8", "nrc-not-utf8", "check-huge-field"],
    )
    def test_bad_input_bytes_exit_two(
        self, tmp_path, capsys, schema, command, fmt, data, where
    ):
        f = tmp_path / "p.txt"
        f.write_bytes(data)
        code, report = run_cli(capsys, command, "--input", str(f), "--format", fmt)
        assert code == EXIT_INPUT_ERROR
        assert report["error"]["type"] == "input"
        assert where in report["error"]["message"]
        jsonschema.validate(report, schema)

    def test_carriage_return_in_unquoted_cell(self):
        # files are read with universal newlines, so only text given to the
        # parser directly can hold a bare carriage return inside a row
        with pytest.raises(InputFormatError, match="line 1"):
            parse_pattern_text(":\r1::\r", "matrix-csv")


# text biased toward the characters both pattern formats give meaning to
PATTERN_TEXT = st.one_of(st.text(), st.text(alphabet=',:01 ab"#\t\n\r'))


class TestParserProperties:
    @given(PATTERN_TEXT, st.sampled_from(["matrix-csv", "locus-list"]))
    @example('taxon,L\n"a\rb",1\n', "matrix-csv")
    @example("L1: a b c\nL2: c d\n", "locus-list")
    def test_pattern_parse_is_total_and_round_trips(self, text, fmt):
        try:
            p = parse_pattern_text(text, fmt)
        except InputFormatError:
            return
        assert parse_pattern_text(pattern_to_matrix_csv(p), "matrix-csv") == p
        # a locus list cannot hold a taxon that is in no locus
        if fmt == "locus-list":
            assert parse_pattern_text(pattern_to_locus_list(p), "locus-list") == p

    @given(st.one_of(
        st.binary(),
        st.text(alphabet="nodes 0123-#\n\r\xff").map(str.encode),
    ))
    @example(b"nodes " + b"9" * 5000)  # more digits than int() converts
    def test_hypergraph_parse_is_total(self, tmp_path_factory, data):
        f = tmp_path_factory.mktemp("edge-list") / "h.txt"
        f.write_bytes(data)
        try:
            h = parse_hypergraph_file(str(f))
        except InputFormatError:
            return
        assert all(0 <= v < h.node_count for edge in h.edges for v in edge)


class TestCheck:
    def test_full_locus_exit_zero(self, tmp_path, capsys, schema):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        code, report = run_cli(
            capsys, "check", "--input", str(f), "--format", "matrix-csv"
        )
        assert code == EXIT_NO_WITNESS
        assert report["verdict"]["decided_by"] == "full-locus"
        jsonschema.validate(report, schema)

    def test_two_triples_exit_one_with_witness(self, tmp_path, capsys, schema):
        f = tmp_path / "p.loci"
        f.write_text(TWO_TRIPLES)
        code, report = run_cli(
            capsys, "check", "--input", str(f), "--format", "locus-list"
        )
        assert code == EXIT_WITNESS
        blocks = report["verdict"]["witness"]
        assert sorted(len(b) for b in blocks) == [1, 1, 1, 1]
        assert sorted(t for b in blocks for t in b) == ["t0", "t1", "t2", "t3"]
        jsonschema.validate(report, schema)

    def test_strategies_match(self, tmp_path, capsys):
        # the engines decide no longer reaches stay on the command line
        f = tmp_path / "p.loci"
        f.write_text(TWO_TRIPLES)
        codes = set()
        for command in (["check"], ["nrc", "--r", "4"], ["oracle", "--r", "4"]):
            code, _report = run_cli(
                capsys, *command, "--input", str(f), "--format", "locus-list"
            )
            codes.add(code)
        assert codes == {EXIT_WITNESS}

    def test_missing_file_exit_two(self, capsys, schema):
        code, report = run_cli(
            capsys, "check", "--input", "no-such-file.csv",
            "--format", "matrix-csv",
        )
        assert code == EXIT_INPUT_ERROR
        assert report["error"]["type"] == "input"
        jsonschema.validate(report, schema)

    def test_bad_flag_exit_two(self, capsys):
        assert run(["check", "--nope"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command in ("reduce", "bound", "emit-ilp", "emit-cnf")
            for flag in ("--strategy=auto", "--oracle-cap=14", "--search-cap=34",
                         "--parallel")
        ]
        + [("nrc", "--strategy=auto"), ("nrc", "--oracle-cap=14")]
        + [(command, flag)
           for command in ("check", "subset")
           for flag in ("--strategy=auto", "--oracle-cap=14")]
        + [("emit-cnf", "--surjectivity=aux")]
        + [("oracle", flag)
           for flag in ("--strategy=auto", "--search-cap=34", "--parallel")],
    )
    def test_flag_the_command_ignores_exit_two(self, tmp_path, capsys, command, flag):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        args = [command, "--input", str(f), "--format", "matrix-csv"]
        assert run(args) == EXIT_NO_WITNESS
        assert run(args + [flag]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_search_past_the_cap_exit_three(self, tmp_path, capsys, schema):
        # locus j drops the taxa i = j mod 22 and one random taxon: every
        # triple is covered and the kernel has 35 rows, far over the budget
        rng = random.Random(0)
        loci = []
        for j in range(22):
            members = {i for i in range(40) if i % 22 != j}
            members.discard(rng.choice(sorted(members)))
            loci.append((f"L{j}", members))
        p = CoveragePattern.from_sets([f"t{i}" for i in range(40)], loci)
        f = tmp_path / "p.csv"
        f.write_text(pattern_to_matrix_csv(p))
        code, report = run_cli(
            capsys, "check", "--input", str(f), "--format", "matrix-csv"
        )
        assert code == EXIT_CAP_EXCEEDED
        assert report["error"]["type"] == "size-limit"
        message = report["error"]["message"]
        assert "255980907171076 guesses, over the budget of 10000000" in message
        # the input is already the kernel: name it, and give no reduce advice
        assert "kernel of 40 taxa has 35 rows" in message
        assert "reduce" not in message
        jsonschema.validate(report, schema)

    def test_kernel_over_the_budget_refused_at_once(self, tmp_path, capsys, schema):
        # taxon i is in group i mod 10; locus j drops group j mod 10, and
        # loci 10..20 also drop taxon (j + 11) mod 30 of another group: 10
        # group rows plus 11 rows of the dropped taxa, every triple covered
        loci = []
        for j in range(21):
            members = {i for i in range(30) if i % 10 != j % 10}
            if j >= 10:
                members.discard((j + 11) % 30)
            loci.append((f"L{j}", members))
        p = CoveragePattern.from_sets([f"t{i}" for i in range(30)], loci)
        f = tmp_path / "p.csv"
        f.write_text(pattern_to_matrix_csv(p))
        start = time.perf_counter()
        code, report = run_cli(
            capsys, "check", "--input", str(f), "--format", "matrix-csv"
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAP_EXCEEDED
        assert report["error"]["message"] == (
            "4-NRC search refused: the kernel of 30 taxa has 21 rows; an "
            "exhaustive search makes 139741980 guesses, over the budget of "
            "10000000"
        )
        jsonschema.validate(report, schema)

    def test_report_to_file(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        out = tmp_path / "report.json"
        code = run(
            ["check", "--input", str(f), "--format", "matrix-csv",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_NO_WITNESS
        assert json.loads(out.read_text())["exit_code"] == 0


class TestSolverCommands:
    def test_nrc_on_edge_list(self, tmp_path, capsys, schema):
        f = tmp_path / "h.txt"
        f.write_text("nodes 4\n0 1 2 3\n")
        code, report = run_cli(
            capsys, "nrc", "--input", str(f), "--format", "edge-list", "--r", "4"
        )
        assert code == EXIT_NO_WITNESS
        assert report["witness"] is None and report["rule"] == "exhausted"
        jsonschema.validate(report, schema)

    def test_oracle_cap_exit_three(self, tmp_path, capsys, schema):
        f = tmp_path / "h.txt"
        edges = "\n".join("0 1 2 3" for _ in range(1))
        f.write_text("nodes 20\n" + edges + "\n")
        code, report = run_cli(
            capsys, "oracle", "--input", str(f), "--format", "edge-list",
            "--r", "4",
        )
        assert code == EXIT_CAP_EXCEEDED
        assert report["error"]["type"] == "size-limit"
        jsonschema.validate(report, schema)

    def test_nrc_r2(self, tmp_path, capsys):
        f = tmp_path / "h.txt"
        f.write_text("nodes 4\n0 1\n2 3\n")
        code, report = run_cli(
            capsys, "nrc", "--input", str(f), "--format", "edge-list", "--r", "2"
        )
        assert code == EXIT_WITNESS
        assert report["rule"] == "component-split"


class TestReportingCommands:
    def test_reduce_report(self, tmp_path, capsys):
        f = tmp_path / "p.loci"
        f.write_text("L1: a b c\nL2: a b d\n")
        code, report = run_cli(
            capsys, "reduce", "--input", str(f), "--format", "locus-list"
        )
        assert code == EXIT_NO_WITNESS
        assert report["n_reduced"] == 3  # a and b share a row
        assert report["copy_classes"]["a"] == ["a", "b"]

    def test_bound_report(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        code, report = run_cli(
            capsys, "bound", "--input", str(f), "--format", "matrix-csv"
        )
        assert code == EXIT_NO_WITNESS
        assert report["triple_coverage_ok"] and report["rooted"]
        assert report["quadruple_count"] == 1 and report["threshold"] == 1

    def test_emit_ilp_writes_model(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        out = tmp_path / "model.lp"
        code, report = run_cli(
            capsys, "emit-ilp", "--input", str(f), "--format", "matrix-csv",
            "--out", str(out),
        )
        assert code == EXIT_NO_WITNESS
        text = out.read_text()
        assert text.startswith("Minimize\n obj: 0\nSubject To\n")
        assert report["rows"] == 4 + 4 + 9

    def test_emit_cnf_writes_dimacs(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        out = tmp_path / "model.cnf"
        code, report = run_cli(
            capsys, "emit-cnf", "--input", str(f), "--format", "matrix-csv",
            "--out", str(out),
        )
        assert code == EXIT_NO_WITNESS
        assert "p cnf" in out.read_text()

    @pytest.mark.parametrize("command", ["emit-ilp", "emit-cnf"])
    def test_emit_without_out_keeps_model_and_report_apart(
        self, tmp_path, capsys, schema, command
    ):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        code = run([command, "--input", str(f), "--format", "matrix-csv"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_WITNESS
        pattern = parse_pattern_text(FULL_LOCUS, "matrix-csv")
        if command == "emit-ilp":
            model = emit.emit_ilp(pattern).to_lp_text()
        else:
            model = emit.emit_cnf(build_hypergraph(pattern)).to_dimacs()
        assert captured.out == model
        report = json.loads(captured.err)
        assert report["command"] == command and report["out"] is None
        jsonschema.validate(report, schema)

    def test_subset_trace(self, tmp_path, capsys):
        f = tmp_path / "p.loci"
        f.write_text(TWO_TRIPLES)
        code, report = run_cli(
            capsys, "subset", "--input", str(f), "--format", "locus-list"
        )
        assert code == EXIT_NO_WITNESS
        assert report["removals"] == [{"taxon": "t0", "coverage": 1}]
        assert report["final_taxa"] == ["t1", "t2", "t3"]


def test_pattern_serializer_column_order():
    p = CoveragePattern.from_sets(list("ab"), [("left", [0]), ("right", [1])])
    assert pattern_to_matrix_csv(p) == "taxon,left,right\na,1,0\nb,0,1\n"
