"""Command-line front end: file formats, subcommands, reports, exit codes.

Exit codes: 0 decisive / witness absent, 1 non-decisive / witness found,
2 usage or input error, 3 a size cap was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, bounds, emit, oracle, pipeline, reduction
from .nrc import DEFAULT_SEARCH_CAP, nrc
from .core import Coloring, CoveragePattern, Hypergraph, build_hypergraph
from .errors import DecisiveError, InputFormatError, SizeLimitError

EXIT_NO_WITNESS = 0
EXIT_WITNESS = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3

# The node count is the one size in an edge-list file that its length does
# not bound, so it is capped before any per-node list is built.
MAX_EDGE_LIST_NODES = 4_000


# --------------------------------------------------------------------------
# pattern file formats
# --------------------------------------------------------------------------


def parse_pattern_text(text: str, fmt: str) -> CoveragePattern:
    if fmt == "matrix-csv":
        return _parse_matrix_csv(text)
    if fmt == "locus-list":
        return _parse_locus_list(text)
    raise InputFormatError(f"unknown pattern format {fmt!r}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def parse_pattern_file(path: str, fmt: str) -> CoveragePattern:
    """Read a coverage pattern from ``path`` in the named format."""
    return parse_pattern_text(_read_text(path), fmt)


def _parse_matrix_csv(text: str) -> CoveragePattern:
    """A matrix-csv pattern: a header row of a first cell and the locus
    names, then one row per taxon of its name and one 0/1 cell per locus.

    Rows are read as the ``csv`` module reads them: a field may be quoted,
    rows may end in CRLF, names and cells are stripped of padding, and empty
    or blank rows are skipped.  A NUL anywhere is refused, with the line that
    holds it, on every Python version.  Errors name the first bad line and
    cell in file order.

    Most files are in a plain form that needs no ``csv``: no quote, carriage
    return or NUL, no line longer than ``csv.field_size_limit()``, and each
    row's text after its first comma exactly ``0,1,...`` with k unpadded
    cells.  Their cell block is checked at once on one numpy byte matrix.
    Any other text, and any that fails that check, is read by ``csv``, which
    finds the error or gives the same pattern.
    """
    plain = _read_plain_matrix(text)
    taxa, locus_names, bits = plain if plain is not None else _read_csv_matrix(text)
    try:
        pattern = CoveragePattern(
            tuple(taxa),
            tuple(
                (name, tuple(column.nonzero()[0].tolist()))
                for name, column in zip(locus_names, np.ascontiguousarray(bits.T))
            ),
        )
    except DecisiveError as exc:
        raise InputFormatError(str(exc)) from exc
    # the cached row accessor, filled from the bits in hand
    pattern.__dict__["rows"] = _packed_rows(bits)
    return pattern


def _read_plain_matrix(text: str):
    """The taxon names, locus names and m x k cell matrix (True where a taxon
    is in a locus) of a matrix-csv text in the plain form, or None."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    locus_names = [name.strip() for name in lines[0].split(",")[1:]]
    rows = list(map(str.partition, filter(None, lines[1:]), repeat(",")))
    k = len(locus_names)
    if not k or not rows:
        return None
    # Each row's cells and the newline after them, read two bytes at a time:
    # a cell and the comma or newline after it.  The row of words is the
    # template's plus 0 or 1 exactly when the row has k bare 0/1 cells.
    block = ("\n".join(map(itemgetter(2), rows)) + "\n").encode()
    if len(block) != 2 * k * len(rows):
        return None
    template = np.full(k, ord("0") | ord(",") << 8, dtype="<u2")
    template[-1] = ord("0") | ord("\n") << 8
    cells = np.frombuffer(block, dtype="<u2").reshape(-1, k) - template
    if cells.max() > 1:
        return None
    taxa = list(map(str.strip, map(itemgetter(0), rows)))
    return taxa, locus_names, cells.astype(bool)


def _csv_lines(text: str):
    """The lines of ``text`` for ``csv.reader``, refusing one that holds a
    NUL: ``csv`` itself refuses it before Python 3.11 and keeps it after."""
    for lineno, line in enumerate(io.StringIO(text), start=1):
        if "\0" in line:
            raise InputFormatError(f"line {lineno}: line contains NUL")
        yield line


# the two cell values; other cells are stripped of padding and checked again
_BITS = frozenset(("0", "1"))


def _read_csv_matrix(text: str):
    """``_read_plain_matrix``'s result for any matrix-csv text, read by
    ``csv``; raises InputFormatError on the first bad line."""
    reader = csv.reader(_csv_lines(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # an oversized field or a stray carriage return
        raise InputFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputFormatError("line 1: empty matrix file")
    locus_names = [cell.strip() for cell in rows[0][1:]]
    if not locus_names:
        raise InputFormatError("line 1: header names no loci")
    # Errors name a line and a cell, so the cells are checked row by row, in
    # file order, and joined into one byte matrix.
    k = len(locus_names)
    taxa: list[str] = []
    cells: list[str] = []  # each row's cells joined, k characters of 0 and 1
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != k + 1:
            raise InputFormatError(
                f"line {lineno}: expected {k + 1} cells, got {len(row)}"
            )
        bits = row[1:]
        if not _BITS.issuperset(bits):
            bits = [cell.strip() for cell in bits]
            for j, cell in enumerate(bits):
                if cell not in _BITS:
                    raise InputFormatError(
                        f"line {lineno}: cell {j + 2} must be 0 or 1, got {cell!r}"
                    )
        taxa.append(row[0].strip())
        cells.append("".join(bits))
    matrix = np.frombuffer("".join(cells).encode(), dtype=np.uint8)
    return taxa, locus_names, matrix.reshape(len(taxa), k) == ord("1")


def _packed_rows(bits) -> tuple[int, ...]:
    """The incidence rows of an m x k cell matrix: bit j of row i is set iff
    cell (i, j) is nonzero.  Each row is packed into 64-bit words, low bits
    first, and the words are joined into one integer."""
    m, k = bits.shape
    width = -(-k // 64)  # words per row
    packed = np.zeros((m, 8 * width), dtype=np.uint8)
    packed[:, : -(-k // 8)] = np.packbits(bits, axis=1, bitorder="little")
    words = packed.view("<u8")
    rows = words[:, 0].tolist()
    for w in range(1, width):
        rows = [row | high << 64 * w for row, high in zip(rows, words[:, w].tolist())]
    return tuple(rows)


def _parse_locus_list(text: str) -> CoveragePattern:
    taxa: list[str] = []
    index: dict[str, int] = {}
    loci: list[tuple[str, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise InputFormatError(f"line {lineno}: expected 'locus: taxa...'")
        name, _, rest = line.partition(":")
        name = name.strip()
        taxon_names = rest.split()
        if not name or not taxon_names:
            raise InputFormatError(f"line {lineno}: locus name or taxa missing")
        subset = []
        for t in taxon_names:
            if t not in index:
                index[t] = len(taxa)
                taxa.append(t)
            subset.append(index[t])
        loci.append((name, subset))
    if not loci:
        raise InputFormatError("no loci found")
    try:
        return CoveragePattern.from_sets(taxa, loci)
    except DecisiveError as exc:
        raise InputFormatError(str(exc)) from exc


def pattern_to_matrix_csv(pattern: CoveragePattern) -> str:
    header = ["taxon"] + [name for name, _ in pattern.loci]
    # the writer quotes only the characters of its line terminator, and the
    # reader ends a row at a bare carriage return too
    raw_cr = any("\r" in name for name in header + list(pattern.taxa))
    out = io.StringIO()
    writer = csv.writer(
        out,
        lineterminator="\n",
        quoting=csv.QUOTE_ALL if raw_cr else csv.QUOTE_MINIMAL,
    )
    writer.writerow(header)
    for taxon, row in zip(pattern.taxa, pattern.rows):
        writer.writerow([taxon] + [(row >> j) & 1 for j in range(pattern.k)])
    return out.getvalue()


def pattern_to_locus_list(pattern: CoveragePattern) -> str:
    lines = [
        f"{name}: " + " ".join(pattern.taxa[i] for i in members)
        for name, members in pattern.loci
    ]
    return "\n".join(lines) + "\n"


def parse_hypergraph_file(path: str) -> Hypergraph:
    """Raw hypergraph format: a ``nodes N`` line, then one edge per line as
    space-separated 0-based node indices."""
    node_count = None
    edges = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if node_count is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "nodes" or not parts[1].isdecimal():
                raise InputFormatError(f"line {lineno}: expected 'nodes N'")
            try:
                node_count = int(parts[1])
            except ValueError:  # more digits than int() converts
                raise InputFormatError(f"line {lineno}: node count too long") from None
            if node_count > MAX_EDGE_LIST_NODES:
                raise SizeLimitError(
                    f"line {lineno}: {node_count} nodes, over the edge-list "
                    f"limit of {MAX_EDGE_LIST_NODES}"
                )
            continue
        try:
            edges.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputFormatError(f"line {lineno}: bad node index") from None
    if node_count is None:
        raise InputFormatError("missing 'nodes N' line")
    try:
        return Hypergraph(node_count, tuple(edges))
    except DecisiveError as exc:
        raise InputFormatError(str(exc)) from exc


# --------------------------------------------------------------------------
# subcommands: each returns its exit code and its report fields
# --------------------------------------------------------------------------


def _witness_names(pattern, blocks) -> Optional[list[list[str]]]:
    if blocks is None:
        return None
    return [[pattern.taxa[i] for i in block] for block in blocks]


def _cmd_check(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    verdict = pipeline.decide(pattern, args.search_cap, args.parallel)
    return (EXIT_NO_WITNESS if verdict.decisive else EXIT_WITNESS), dict(
        verdict={
            "decisive": verdict.decisive,
            "decided_by": verdict.decided_by,
            "witness": _witness_names(pattern, verdict.witness),
        },
        timings={"elapsed_s": verdict.stats.get("elapsed_s")},
    )


def _load_hypergraph(args) -> Hypergraph:
    if args.format == "edge-list":
        return parse_hypergraph_file(args.input)
    return build_hypergraph(parse_pattern_file(args.input, args.format))


def _coloring_json(coloring: Optional[Coloring]) -> Optional[list[int]]:
    return None if coloring is None else list(coloring.assignment)


def _cmd_nrc(args) -> tuple[int, dict]:
    # only the r = 4 search runs in parallel, and r = 2 searches nothing
    # that a guess budget bounds
    if args.parallel and args.r != 4:
        raise InputFormatError(f"--parallel applies only with --r 4, not --r {args.r}")
    if args.search_cap is not None and args.r == 2:
        raise InputFormatError("--search-cap applies only with --r 3 or 4, not --r 2")
    h = _load_hypergraph(args)
    cap = DEFAULT_SEARCH_CAP if args.search_cap is None else args.search_cap
    start = time.perf_counter()
    outcome = nrc(h, args.r, guess_cap=cap, parallel=args.parallel)
    return (EXIT_WITNESS if outcome.found else EXIT_NO_WITNESS), dict(
        r=args.r,
        rule=outcome.rule,
        witness=_coloring_json(outcome.witness),
        timings={"elapsed_s": time.perf_counter() - start},
    )


def _cmd_oracle(args) -> tuple[int, dict]:
    h = _load_hypergraph(args)
    start = time.perf_counter()
    witness = oracle.brute_force_nrc(h, args.r, node_cap=args.oracle_cap)
    return (EXIT_WITNESS if witness is not None else EXIT_NO_WITNESS), dict(
        r=args.r,
        witness=_coloring_json(witness),
        timings={"elapsed_s": time.perf_counter() - start},
    )


def _cmd_reduce(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    ri = reduction.dedup(pattern.rows, pattern.k)  # duplicate rows only
    kernel = reduction.reduce_pattern(pattern)
    kept = 0  # loci left after dropping the dominated ones
    for row in kernel.rows:
        kept |= row
    return EXIT_NO_WITNESS, dict(
        n=pattern.n,
        k=pattern.k,
        n_reduced=ri.n_reduced,
        spares=ri.spares,
        representatives=[pattern.taxa[members[0]] for members in ri.classes],
        reduced_rows=[
            format(row, f"0{pattern.k}b")[::-1] if pattern.k else "" for row in ri.rows
        ],
        copy_classes={
            pattern.taxa[members[0]]: [pattern.taxa[i] for i in members]
            for members in ri.classes
        },
        row_count_screen=reduction.row_count_screen(ri),
        dominated_loci=[
            name for j, (name, _members) in enumerate(pattern.loci)
            if not kept >> j & 1
        ],
        search_rows=kernel.n_reduced,
    )


def _cmd_bound(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    fields = asdict(bounds.bound_report(pattern))
    triple, root = fields["first_uncovered_triple"], fields["common_taxon"]
    fields.update(
        below_threshold=fields["quadruple_count"] < fields["threshold"],
        first_uncovered_triple=(
            None if triple is None else [pattern.taxa[i] for i in triple]
        ),
        common_taxon=None if root is None else pattern.taxa[root],
    )
    return EXIT_NO_WITNESS, fields


def _cmd_emit_ilp(args) -> tuple[int, dict]:
    model = emit.emit_ilp(parse_pattern_file(args.input, args.format))
    _write(model.to_lp_text(), args.out)
    return EXIT_NO_WITNESS, dict(
        rows=model.num_rows,
        columns=model.num_columns,
        nonzeros=model.num_nonzeros,
        out=args.out,
    )


def _cmd_emit_cnf(args) -> tuple[int, dict]:
    formula = emit.emit_cnf(_load_hypergraph(args))
    _write(formula.to_dimacs(), args.out)
    return EXIT_NO_WITNESS, dict(
        variables=formula.num_vars, clauses=len(formula.clauses), out=args.out
    )


def _cmd_subset(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    trace = pipeline.decisive_subset(
        pattern, lambda p: pipeline.decide(p, args.search_cap, args.parallel)
    )
    return EXIT_NO_WITNESS, dict(
        removals=[{"taxon": name, "coverage": cov} for name, cov in trace.removals],
        final_taxa=list(trace.final_taxa),
        final_decided_by=trace.final_verdict.decided_by,
    )


# --------------------------------------------------------------------------
# argument parsing, output and entry point
# --------------------------------------------------------------------------

def count(text: str) -> int:
    """A count flag's value: a non-negative integer, else a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


_PATTERN_FORMATS = ("matrix-csv", "locus-list")
_GRAPH_FORMATS = ("matrix-csv", "locus-list", "edge-list")

# name: (handler, help, input formats, flags beyond the common ones)
_COMMANDS = {
    "check": (_cmd_check, "decide decisiveness", _PATTERN_FORMATS,
              ("--search-cap", "--parallel")),
    "nrc": (_cmd_nrc, "run a raw no-rainbow search", _GRAPH_FORMATS,
            ("--r", "--search-cap", "--parallel")),
    "oracle": (_cmd_oracle, "brute-force no-rainbow search", _GRAPH_FORMATS,
               ("--r", "--oracle-cap")),
    "reduce": (_cmd_reduce, "kernelize and report", _PATTERN_FORMATS, ()),
    "bound": (_cmd_bound, "coverage bound report", _PATTERN_FORMATS, ()),
    "emit-ilp": (_cmd_emit_ilp, "write the LP model", _PATTERN_FORMATS, ()),
    "emit-cnf": (_cmd_emit_cnf, "write the DIMACS model", _GRAPH_FORMATS, ()),
    "subset": (_cmd_subset, "greedy decisive subset", _PATTERN_FORMATS,
               ("--search-cap", "--parallel")),
}

# Every flag, in the order the help lists them. A subcommand takes --input,
# --format (its choices are the entry's input formats), --out and --report,
# and of the others those its table entry names.
_FLAGS = {
    "--r": {"type": int, "choices": (2, 3, 4), "default": 4},
    "--input": {"required": True, "help": "input file path"},
    "--format": {"help": "input file format"},
    "--out": {"help": "output path"},
    "--report": {"choices": ("json", "text"), "default": "json"},
    "--oracle-cap": {"type": count, "default": oracle.DEFAULT_NODE_CAP},
    "--search-cap": {
        "type": count,
        "default": DEFAULT_SEARCH_CAP,
        "help": "guess budget of the exhaustive search; a larger search is "
        "refused (exit 3) before it starts; nrc takes it with --r 3 or 4 only",
    },
    "--parallel": {
        "action": "store_true",
        "help": "hand a 4-NRC search that outlasts a short in-process slice "
        "to worker processes; nrc takes it with --r 4 only",
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decisive",
        description="Decide phylogenetic decisiveness of a taxon coverage pattern.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, formats, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag, options in _FLAGS.items():
            if flag == "--format":
                options = {**options, "choices": formats, "default": formats[0]}
            if flag in flags or flag in ("--input", "--format", "--out", "--report"):
                command.add_argument(flag, **options)
    # nrc refuses --search-cap with --r 2, so it must see whether one was given
    sub.choices["nrc"].set_defaults(search_cap=None)
    return parser


def _set_log_level() -> None:
    name = os.environ.get("DECISIVE_LOG", "WARNING")
    level = logging.getLevelName(name.upper())  # an int only for a level's name
    if not isinstance(level, int):
        raise InputFormatError(f"DECISIVE_LOG={name!r} names no log level")
    logging.basicConfig(level=level)


def _render(report: dict, style: str) -> str:
    if style == "text":
        return "".join(
            f"{key}: {json.dumps(value)}\n" for key, value in sorted(report.items())
        )
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot write {out}: {exc}") from exc


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    header = {"tool": "decisive", "version": __version__, "command": args.command}
    try:
        _set_log_level()
        code, fields = args.handler(args)
        text = _render({**header, **fields, "exit_code": code}, args.report)
        # An emit command's model goes to --out, or without it to stdout;
        # its report then goes to stdout, or to stderr.
        if args.command.startswith("emit-"):
            (sys.stdout if args.out else sys.stderr).write(text)
        else:
            _write(text, args.out)
        return code
    except DecisiveError as exc:
        capped = isinstance(exc, SizeLimitError)
        code = EXIT_CAP_EXCEEDED if capped else EXIT_INPUT_ERROR
        error = {"type": "size-limit" if capped else "input", "message": str(exc)}
        sys.stderr.write(_render({**header, "error": error, "exit_code": code}, "json"))
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
