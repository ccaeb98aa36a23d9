"""Command-line interface: formats, subcommands, reports, exit codes."""

import csv
import json
import logging
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO
from itertools import combinations
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import named_loci, planted_4_sets, with_copies
from decisive.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INPUT_ERROR,
    EXIT_NO_WITNESS,
    EXIT_WITNESS,
    MAX_EDGE_LIST_NODES,
    _COMMANDS,
    _read_csv_matrix,
    _read_plain_matrix,
    parse_hypergraph_file,
    parse_pattern_text,
    pattern_to_locus_list,
    pattern_to_matrix_csv,
    run,
)
from decisive import __version__, emit
from decisive.bounds import star_hypergraph
from decisive.core import CoveragePattern, build_hypergraph, incidence_rows
from decisive.errors import InputFormatError, SizeLimitError

MATRIX = "taxon,L1,L2\na,1,0\nb,1,1\nc,0,1\n"
LOCUS_LIST = "L1: a b\nL2: b c\n"

TWO_TRIPLES = "L1: t0 t1 t2\nL2: t1 t2 t3\n"
FULL_LOCUS = "taxon,L\na,1\nb,1\nc,1\nd,1\n"
SRC = Path(__file__).resolve().parent.parent / "src"
# a node count no per-node list can be built for
HUGE_NODE_COUNT = b"nodes 100000000000000000000\n0 1 2 3\n"


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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("taxon,L1,L2\na,1,2\nb,1\n",
             "line 2: cell 3 must be 0 or 1, got '2'"),
            ("taxon,L1,L2\na,1\nb,1,2\n", "line 2: expected 3 cells, got 2"),
            # within a row, the width is checked before any cell
            ("taxon,L1,L2\na,x,1,0\n", "line 2: expected 3 cells, got 4"),
            # the first bad cell of a row, stripped of its padding
            ("taxon,L1,L2,L3\na,1, x , y\n", "line 2: cell 3 must be 0 or 1, got 'x'"),
            ("taxon,L1\n\n \nb, 1 \nc,\n", "line 5: cell 2 must be 0 or 1, got ''"),
            # every row but the last is plain
            ("taxon,L1,L2\na,1,0\nb,0,1\nc,0,2\n",
             "line 4: cell 3 must be 0 or 1, got '2'"),
            # every cell is 0 or 1, but a comma is not where it belongs
            ("taxon,L1,L2,L3\na,1,0,1\nb,0,1;1\n", "line 3: expected 4 cells, got 3"),
            ("taxon,L1,L2\na,1,0\nb,0,11\n", "line 3: cell 3 must be 0 or 1, got '11'"),
            # a NUL is refused on every Python version, by the line it is on,
            # before any cell is checked
            ("taxon,L1\na\x00,1\n", "line 2: line contains NUL"),
            ('taxon,L1\n"a\nb\x00",1\n', "line 3: line contains NUL"),
            ("taxon,L1\na,2\nb,1\x00\n", "line 3: line contains NUL"),
        ],
        ids=["cell-then-width", "width-then-cell", "width-in-row", "first-cell",
             "blank-rows-counted", "last-row-cell", "comma-to-other", "comma-to-cell",
             "nul", "nul-in-quoted-line", "nul-before-cells"],
    )
    def test_first_matrix_error_wins(self, text, message):
        with pytest.raises(InputFormatError) as info:
            parse_pattern_text(text, "matrix-csv")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text", ["taxon,L1,L2\n", "taxon,L1,L2\n\n \n\t\n", "taxon,L1,L2\r\n\r\n"]
    )
    def test_matrix_without_taxa_rejected(self, text):
        with pytest.raises(InputFormatError) as info:
            parse_pattern_text(text, "matrix-csv")
        assert str(info.value) == "locus 'L1' covers no taxa"

    def test_empty_and_locus_free_matrix_rejected(self):
        with pytest.raises(InputFormatError, match="^line 1: empty matrix file$"):
            parse_pattern_text("", "matrix-csv")
        with pytest.raises(InputFormatError, match="^line 1: header names no loci$"):
            parse_pattern_text("taxon\na\n", "matrix-csv")

    def test_large_matrix_matches_from_sets(self):
        rng = random.Random(11)
        n, k = 1_000, 50
        loci = [
            [i for i in range(n) if rng.random() < rng.uniform(0.05, 0.95)]
            or [rng.randrange(n)]
            for _ in range(k)
        ]
        p = CoveragePattern.from_sets(
            [f"taxon_{i}" for i in range(n)],
            [(f"locus_{j}", members) for j, members in enumerate(loci)],
        )
        assert parse_pattern_text(pattern_to_matrix_csv(p), "matrix-csv") == p

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

    def test_node_count_over_the_limit_exit_three(self, tmp_path, capsys, schema):
        f = tmp_path / "h.txt"
        f.write_bytes(HUGE_NODE_COUNT)
        code, report = run_cli(
            capsys, "nrc", "--input", str(f), "--format", "edge-list"
        )
        assert code == EXIT_CAP_EXCEEDED
        assert report["error"] == {
            "type": "size-limit",
            "message": "line 1: 100000000000000000000 nodes, over the edge-list "
            f"limit of {MAX_EDGE_LIST_NODES}",
        }
        jsonschema.validate(report, schema)
        f.write_text(f"nodes {MAX_EDGE_LIST_NODES}\n0 1 2 3\n")
        code, report = run_cli(
            capsys, "nrc", "--input", str(f), "--format", "edge-list"
        )
        assert code == EXIT_WITNESS and len(report["witness"]) == MAX_EDGE_LIST_NODES

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
            ("check", "matrix-csv", b"taxon,L\na,1\nb\x00,1\n",
             "line 3: line contains NUL"),
        ],
        ids=["check-not-utf8", "nrc-not-utf8", "check-huge-field", "check-nul"],
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
# bytes, and text biased toward the edge-list format
EDGE_LIST_BYTES = st.one_of(
    st.binary(),
    st.text(alphabet="nodes 0123-#\n\r\xff").map(str.encode),
)


# small well-formed patterns
PATTERNS = st.integers(1, 10).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n),
        min_size=1,
        max_size=8,
    ).map(
        lambda loci: CoveragePattern.from_sets(
            [f"t{i}" for i in range(n)],
            [(f"L{j}", members) for j, members in enumerate(loci)],
        )
    )
)
# ...in either format, so most examples parse
PATTERN_FILES = PATTERNS.flatmap(
    lambda p: st.sampled_from(
        [(pattern_to_matrix_csv(p), "matrix-csv"),
         (pattern_to_locus_list(p), "locus-list")]
    )
)
# what an edit may put into a matrix-csv text: characters that csv reads
# otherwise than the plain form does, and cells that are not 0 or 1
MATRIX_EDITS = ',01 2;"\r\n\x00\t\xe9\u2028'
# taxon names that csv reads otherwise than the plain form does, or not at all
ODD_NAMES = st.sampled_from(
    ['"t,x"', '"q"', " t\t", "\xe9t\u2028\x85", "a" * (csv.field_size_limit() + 1)]
)


@st.composite
def matrix_texts(draw):
    """The matrix-csv text of a small pattern, with CRLF line ends, an odd
    taxon name and a few characters replaced or inserted, each at will."""
    text = pattern_to_matrix_csv(draw(PATTERNS))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.booleans()):
        lines = text.split("\n")
        i = draw(st.integers(1, len(lines) - 2))
        lines[i] = draw(ODD_NAMES) + "," + lines[i].partition(",")[2]
        text = "\n".join(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))  # insert, or replace one character
        text = text[:at] + draw(st.sampled_from(MATRIX_EDITS)) + text[at + cut:]
    return text


# patterns of up to 150 loci in matrix-csv, so a row spans up to three
# 64-bit words; the last row is full, so no locus is empty
WIDE_MATRICES = st.integers(1, 150).flatmap(
    lambda k: st.lists(st.integers(0, (1 << k) - 1), max_size=5).map(
        lambda rows: (k, rows + [(1 << k) - 1])
    )
)

PATTERN_COMMANDS = [
    ("check", "--search-cap=2000"),
    ("subset", "--search-cap=2000"),
    ("nrc", "--search-cap=2000"),
    ("reduce",),
    ("bound",),
    ("emit-ilp",),
    ("emit-cnf",),
    ("oracle", "--oracle-cap=6"),
]


# how the report is written: its style, whether it goes to --out, and the
# DECISIVE_LOG value (None: unset), valid or not
OUTPUTS = st.tuples(
    st.sampled_from(["json", "text"]),
    st.booleans(),
    st.sampled_from([None, "debug", "Info", "WARNING", "error", "bogus", ""]),
)


def run_total(directory, schema, argv, output) -> None:
    """Run the CLI with the drawn output settings and check that it ends in
    one of the four exit codes, with its report where it belongs: an error
    on stderr as JSON and no --out file, else the report in the drawn style
    (an emit command's on stdout with --out, else on stderr; any other
    command's in --out, else on stdout)."""
    style, to_file, log = output
    out_file = directory / "out.txt"
    argv = argv + ["--report", style] + (["--out", str(out_file)] if to_file else [])
    env = {} if log is None else {"DECISIVE_LOG": log}
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        if log is None:
            os.environ.pop("DECISIVE_LOG", None)
        code = run(argv)
    assert code in (EXIT_NO_WITNESS, EXIT_WITNESS, EXIT_INPUT_ERROR,
                    EXIT_CAP_EXCEEDED)
    if code in (EXIT_INPUT_ERROR, EXIT_CAP_EXCEEDED):
        assert out.getvalue() == "" and not out_file.exists()
        report = json.loads(err.getvalue())
        assert set(report["error"]) == {"type", "message"}
    else:
        if argv[0].startswith("emit-"):
            text = (out if to_file else err).getvalue()
        else:
            text = out_file.read_text() if to_file else out.getvalue()
        if style == "json":
            report = json.loads(text)
        else:
            lines = text.splitlines(keepends=True)
            assert lines and all(line.endswith("\n") for line in lines)
            pairs = [line[:-1].split(": ", 1) for line in lines]
            report = {key: json.loads(value) for key, value in pairs}
            assert list(report) == sorted(report) and len(report) == len(lines)
    assert report["exit_code"] == code
    jsonschema.validate(report, schema)


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

    @given(st.one_of(PATTERN_TEXT, matrix_texts()))
    @example("taxon,L\na,1\nb,0\n")
    @example("taxon,L1,L2\na,1,0\nb,0,2\n")
    @example("taxon,L1,L2\na,1,0\nb,0;1\n")
    @example("taxon,L1,L2\na,1,0\nb\x00,0,1\n")
    def test_plain_read_matches_csv(self, text):
        # whenever the plain read takes a text, csv reads the same matrix
        plain = _read_plain_matrix(text)
        if plain is None:
            return
        taxa, locus_names, bits = _read_csv_matrix(text)
        assert (taxa, locus_names) == plain[:2]
        assert bits.dtype == plain[2].dtype and np.array_equal(bits, plain[2])

    def test_plain_read_takes_clean_text_only(self):
        clean = "taxon,L1,L2\na,1,0\n\nb,0,1\nc,1,1"
        taxa, locus_names, bits = _read_plain_matrix(clean)
        assert (taxa, locus_names) == (["a", "b", "c"], ["L1", "L2"])
        assert bits.tolist() == [[True, False], [False, True], [True, True]]
        # each of these is left to csv, which reads the same pattern from
        # the first four and refuses the others
        pattern = parse_pattern_text(clean, "matrix-csv")
        for edited in [clean.replace("a", '"a"'), clean.replace("\n", "\r\n"),
                       clean.replace("\n\n", "\n \n"), clean.replace(",1,0", ", 1,0")]:
            assert _read_plain_matrix(edited) is None, edited
            assert parse_pattern_text(edited, "matrix-csv") == pattern
        for edited in [clean.replace("a", "a\x00"), clean.replace(",1,0", ",1,2"),
                       clean.replace(",1,0", ",1;0"), clean.replace("1,1", "1,\xe9")]:
            assert _read_plain_matrix(edited) is None, edited
            with pytest.raises(InputFormatError):
                parse_pattern_text(edited, "matrix-csv")

    @given(st.one_of(PATTERN_TEXT, matrix_texts()))
    def test_parsed_rows_are_the_incidence_rows(self, text):
        try:
            p = parse_pattern_text(text, "matrix-csv")
        except InputFormatError:
            return
        assert p.rows == tuple(incidence_rows(p.n, p.locus_subsets()))

    @given(WIDE_MATRICES, st.booleans())
    def test_rows_span_several_words(self, matrix, crlf):
        k, rows = matrix
        p = CoveragePattern.from_sets(
            [f"t{i}" for i in range(len(rows))],
            [(f"L{j}", [i for i, row in enumerate(rows) if row >> j & 1])
             for j in range(k)],
        )
        text = pattern_to_matrix_csv(p)
        parsed = parse_pattern_text(
            text.replace("\n", "\r\n") if crlf else text, "matrix-csv"
        )
        assert parsed == p and parsed.rows == tuple(rows)

    @given(PATTERNS, st.sampled_from(["\n", "\r\n"]), st.data())
    def test_padded_matrix_parses_like_clean(self, p, newline, data):
        padding = st.sampled_from(["", " ", "\t", "  ", " \t "])
        clean = pattern_to_matrix_csv(p)
        padded = "".join(
            ",".join(
                data.draw(padding) + cell + data.draw(padding)
                for cell in line.split(",")
            ) + newline
            for line in clean.splitlines()
        )
        assert parse_pattern_text(padded, "matrix-csv") == p
        assert parse_pattern_text(clean, "matrix-csv") == p

    @given(EDGE_LIST_BYTES)
    @example(b"nodes " + b"9" * 5000)  # more digits than int() converts
    @example(HUGE_NODE_COUNT)
    def test_hypergraph_parse_is_total(self, tmp_path_factory, data):
        f = tmp_path_factory.mktemp("edge-list") / "h.txt"
        f.write_bytes(data)
        try:
            h = parse_hypergraph_file(str(f))
        except InputFormatError:
            return
        except SizeLimitError as exc:
            assert f"over the edge-list limit of {MAX_EDGE_LIST_NODES}" in str(exc)
            return
        assert all(0 <= v < h.node_count for edge in h.edges for v in edge)
        assert h.node_count <= MAX_EDGE_LIST_NODES

    @given(
        EDGE_LIST_BYTES,
        st.sampled_from([("nrc", "--search-cap=2000"), ("oracle", "--oracle-cap=6")]),
        st.sampled_from(["2", "3", "4"]),
        OUTPUTS,
    )
    @example(HUGE_NODE_COUNT, ("nrc", "--search-cap=2000"), "4", ("json", False, None))
    def test_run_is_total_on_edge_lists(
        self, tmp_path_factory, schema, data, command, r, output
    ):
        directory = tmp_path_factory.mktemp("edge-list")
        f = directory / "h.txt"
        f.write_bytes(data)
        if command[0] == "nrc" and r == "2":
            command = ("nrc",)  # nrc refuses a guess budget with --r 2
        run_total(directory, schema, [*command, "--r", r, "--input", str(f),
                                      "--format", "edge-list"], output)

    @given(
        st.one_of(
            st.tuples(PATTERN_TEXT, st.sampled_from(["matrix-csv", "locus-list"])),
            PATTERN_FILES,
        ),
        st.sampled_from(PATTERN_COMMANDS),
        OUTPUTS,
    )
    @example(("taxon,L\na,1\nb,1\nc,1\n", "matrix-csv"), ("bound",),
             ("json", False, None))
    def test_run_is_total_on_patterns(
        self, tmp_path_factory, schema, source, command, output
    ):
        text, fmt = source
        directory = tmp_path_factory.mktemp("pattern")
        f = directory / "p.txt"
        f.write_text(text, encoding="utf-8")
        run_total(directory, schema, [*command, "--input", str(f), "--format", fmt],
                  output)


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

    def test_bad_flag_exit_two(self, tmp_path, capsys):
        assert run(["check", "--nope"]) == EXIT_INPUT_ERROR
        # every 4-set of five taxa: decisive, found by a search of 5 nodes
        f = tmp_path / "p.loci"
        f.write_text("".join(
            f"L{j}: " + " ".join(f"t{i}" for i in q) + "\n"
            for j, q in enumerate(combinations(range(5), 4))
        ))
        for command, flag in [("check", "--search-cap"), ("nrc", "--search-cap"),
                              ("subset", "--search-cap"), ("oracle", "--oracle-cap")]:
            args = [command, "--input", str(f), "--format", "locus-list"]
            assert run(args) == EXIT_NO_WITNESS
            assert run(args + [f"{flag}=-1"]) == EXIT_INPUT_ERROR
            assert "must not be negative, got -1" in capsys.readouterr().err
        # nrc splits only the r = 4 search, and r = 2 searches under no budget
        for r, flag in [("3", "--parallel"), ("2", "--parallel"),
                        ("2", "--search-cap=0")]:
            args = ["nrc", "--r", r, "--input", str(f), "--format", "locus-list"]
            assert run(args) == EXIT_NO_WITNESS
            capsys.readouterr()
            assert run(args + [flag]) == EXIT_INPUT_ERROR
            message = json.loads(capsys.readouterr().err)["error"]["message"]
            assert flag.split("=")[0] in message and f"--r {r}" in message
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
        # every 4-set of 19 taxa that misses a color of a hidden coloring,
        # plus three copies: every triple is covered, the 19 rows and the
        # loci are antichains, so nothing folds or drops, and no row's link
        # covers every triple (the pattern has a witness), so the 19-row
        # kernel is over the budget
        planted = named_loci(19, planted_4_sets(tuple(i % 4 for i in range(19))))
        p = with_copies(planted, random.Random(0), 3)
        f = tmp_path / "p.csv"
        f.write_text(pattern_to_matrix_csv(p))
        code, report = run_cli(
            capsys, "check", "--input", str(f), "--format", "matrix-csv"
        )
        assert code == EXIT_CAP_EXCEEDED
        assert report["error"]["type"] == "size-limit"
        message = report["error"]["message"]
        assert "22737756 guesses, over the budget of 10000000" in message
        # name the kernel, and give no reduce advice
        assert "kernel of 22 taxa has 19 rows" in message
        assert "reduce" not in message
        jsonschema.validate(report, schema)

    def test_kernel_over_the_budget_refused_at_once(self, tmp_path, capsys, schema):
        # taxon i is in group i mod 21 and locus j drops group j: 21 group
        # rows, every triple covered, and no locus inside another, so the
        # 21-row kernel is what the search would see
        loci = [
            (f"L{j}", {i for i in range(30) if i % 21 != j}) for j in range(21)
        ]
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

    @pytest.mark.parametrize("r", [3, 4])
    def test_guess_count_stops_past_the_budget(self, tmp_path, capsys, schema, r):
        # one locus of 10,000 taxa covers every triple; the exact guess count
        # would take seconds and has over 4,300 digits
        f = tmp_path / "p.loci"
        f.write_text("L: " + " ".join(f"t{i}" for i in range(10_000)) + "\n")
        start = time.perf_counter()
        code, report = run_cli(
            capsys, "nrc", "--input", str(f), "--format", "locus-list",
            "--r", str(r),
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAP_EXCEEDED
        assert report["error"]["message"] == (
            f"{r}-NRC search refused: the hypergraph has 10000 nodes; an "
            "exhaustive search makes more than 1000000000000000000 guesses, "
            "over the budget of 10000000"
        )
        jsonschema.validate(report, schema)

    def test_dominated_loci_dropped_before_the_budget(self, tmp_path, capsys):
        # taxon i is in group i mod 10; locus j drops group j mod 10, and
        # loci 10..20 also drop taxon (j + 11) mod 30 of another group: a
        # 21-row kernel, but each of loci 10..20 lies inside locus j - 10,
        # and without them the kernel has the 10 group rows
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
        assert code == EXIT_NO_WITNESS
        assert report["verdict"]["decided_by"] == "fpt"

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

    def test_reduce_reports_dominated_loci(self, tmp_path, capsys, schema):
        f = tmp_path / "p.loci"
        f.write_text("L1: a b c d\nL2: a b c\nL3: b c d e\nL4: a b c\n")
        code, report = run_cli(
            capsys, "reduce", "--input", str(f), "--format", "locus-list"
        )
        assert code == EXIT_NO_WITNESS
        assert report["n_reduced"] == 4  # b and c share a row
        # L2 = L4 lies inside L1; without them b, c and d share a row
        assert report["dominated_loci"] == ["L2", "L4"]
        assert report["search_rows"] == 3
        jsonschema.validate(report, schema)

    def test_reduce_reports_folded_taxa(self, tmp_path, capsys, schema):
        # the 6-node star: every triple is covered, and the fold leaves one
        # row, {L0}, which t0-t3 hold and t4 and t5 do not
        f = tmp_path / "p.loci"
        f.write_text(pattern_to_locus_list(named_loci(6, star_hypergraph(6, 4).edges)))
        code, report = run_cli(
            capsys, "reduce", "--input", str(f), "--format", "locus-list"
        )
        assert code == EXIT_NO_WITNESS
        assert report["n_reduced"] == 6 and report["spares"] == 0
        assert report["folded_taxa"] == {"t4": "t0", "t5": "t0"}
        assert report["dominated_loci"] == [f"L{j}" for j in range(1, 10)]
        assert report["search_rows"] == 1
        jsonschema.validate(report, schema)

    def test_reduce_folds_nothing_with_an_uncovered_triple(self, tmp_path, capsys):
        # c, d and e share no locus; c's row lies inside a's, but the fold
        # would be unsound here, and decide searches nothing
        f = tmp_path / "p.loci"
        f.write_text("L1: a b c d\nL2: a b e\n")
        code, report = run_cli(
            capsys, "reduce", "--input", str(f), "--format", "locus-list"
        )
        assert code == EXIT_NO_WITNESS
        assert report["folded_taxa"] == {}
        assert report["dominated_loci"] == [] and report["search_rows"] == 3

    def test_bound_report(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        code, report = run_cli(
            capsys, "bound", "--input", str(f), "--format", "matrix-csv"
        )
        assert code == EXIT_NO_WITNESS
        assert report["triple_coverage_ok"] and report["rooted"]
        assert report["quadruple_count"] == 1 and report["threshold"] == 1

    def test_bound_on_three_taxa_names_the_report(
        self, tmp_path, capsys, schema
    ):
        f = tmp_path / "p.csv"
        f.write_text("taxon,L\na,1\nb,1\nc,1\n")
        code, report = run_cli(
            capsys, "bound", "--input", str(f), "--format", "matrix-csv"
        )
        assert code == EXIT_INPUT_ERROR
        assert report["error"] == {
            "type": "input", "message": "the bound report needs at least 4 taxa"
        }
        jsonschema.validate(report, schema)

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


class TestOutput:
    REDUCE_TEXT = (
        'command: "reduce"\n'
        'copy_classes: {"a": ["a", "b"], "c": ["c"], "d": ["d"]}\n'
        "dominated_loci: []\n"
        "exit_code: 0\n"
        "folded_taxa: {}\n"
        "k: 2\n"
        "n: 4\n"
        "n_reduced: 3\n"
        'reduced_rows: ["11", "10", "01"]\n'
        'representatives: ["a", "c", "d"]\n'
        "row_count_screen: true\n"
        "search_rows: 3\n"
        "spares: 1\n"
        'tool: "decisive"\n'
        f'version: "{__version__}"\n'
    )

    def test_text_report_bytes(self, tmp_path, capsys):
        f = tmp_path / "p.loci"
        f.write_text("L1: a b c\nL2: a b d\n")
        args = ["reduce", "--input", str(f), "--format", "locus-list",
                "--report", "text"]
        assert run(args) == EXIT_NO_WITNESS
        assert tuple(capsys.readouterr()) == (self.REDUCE_TEXT, "")
        out = tmp_path / "report.txt"
        assert run(args + ["--out", str(out)]) == EXIT_NO_WITNESS
        assert tuple(capsys.readouterr()) == ("", "")
        assert out.read_bytes() == self.REDUCE_TEXT.encode()

    def test_emit_text_report_on_stderr(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        code = run(["emit-cnf", "--input", str(f), "--format", "matrix-csv",
                    "--report", "text"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_WITNESS
        pattern = parse_pattern_text(FULL_LOCUS, "matrix-csv")
        formula = emit.emit_cnf(build_hypergraph(pattern))
        assert captured.out == formula.to_dimacs()
        assert captured.err == (
            f"clauses: {len(formula.clauses)}\n"
            'command: "emit-cnf"\n'
            "exit_code: 0\n"
            "out: null\n"
            'tool: "decisive"\n'
            f"variables: {formula.num_vars}\n"
            f'version: "{__version__}"\n'
        )

    @pytest.mark.parametrize("command", ["check", "emit-ilp", "emit-cnf"])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, schema, command):
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        out = tmp_path / "missing" / "out.txt"
        code = run([command, "--input", str(f), "--format", "matrix-csv",
                    "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR and captured.out == ""
        report = json.loads(captured.err)
        assert report["exit_code"] == EXIT_INPUT_ERROR
        assert report["command"] == command
        assert report["error"]["type"] == "input"
        assert report["error"]["message"].startswith(f"cannot write {out}: ")
        jsonschema.validate(report, schema)
        assert not out.parent.exists()

    @pytest.mark.parametrize("value", ["bogus", "", "10", "debugg"])
    def test_unknown_log_level_exit_two(
        self, tmp_path, capsys, schema, monkeypatch, value
    ):
        monkeypatch.setenv("DECISIVE_LOG", value)
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        code = run(["check", "--input", str(f), "--format", "matrix-csv"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR and captured.out == ""
        report = json.loads(captured.err)
        assert report["error"] == {
            "type": "input", "message": f"DECISIVE_LOG={value!r} names no log level"
        }
        assert report["exit_code"] == EXIT_INPUT_ERROR
        jsonschema.validate(report, schema)

    @pytest.mark.parametrize(
        "value,level",
        [(None, logging.WARNING), ("debug", logging.DEBUG), ("Info", logging.INFO),
         ("warn", logging.WARNING), ("ERROR", logging.ERROR),
         ("critical", logging.CRITICAL), ("notset", logging.NOTSET)],
    )
    def test_log_level_names_in_any_case(
        self, tmp_path, capsys, monkeypatch, value, level
    ):
        if value is None:
            monkeypatch.delenv("DECISIVE_LOG", raising=False)
        else:
            monkeypatch.setenv("DECISIVE_LOG", value)
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda level: levels.append(level))
        f = tmp_path / "p.csv"
        f.write_text(FULL_LOCUS)
        assert run(["check", "--input", str(f), "--format", "matrix-csv"]) == 0
        capsys.readouterr()
        assert levels == [level]


def test_schema_lists_every_command(schema):
    assert schema["properties"]["command"]["enum"] == list(_COMMANDS)


@pytest.mark.parametrize("module", ["decisive", "decisive.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = python_m("--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{__version__}\n", "")
    f = tmp_path / "p.loci"
    f.write_text(TWO_TRIPLES)
    done = python_m("check", "--input", str(f), "--format", "locus-list")
    assert done.returncode == EXIT_WITNESS and done.stderr == ""
    report = json.loads(done.stdout)
    assert report["command"] == "check" and not report["verdict"]["decisive"]


def test_pattern_serializer_column_order():
    p = CoveragePattern.from_sets(list("ab"), [("left", [0]), ("right", [1])])
    assert pattern_to_matrix_csv(p) == "taxon,left,right\na,1,0\nb,0,1\n"
