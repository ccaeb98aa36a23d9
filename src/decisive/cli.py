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
from pathlib import Path
from typing import Optional

from . import __version__, bounds, emit, oracle, pipeline, reduction
from .nrc import DEFAULT_SEARCH_CAP, nrc
from .core import Coloring, CoveragePattern, Hypergraph, build_hypergraph
from .errors import DecisiveError, InputFormatError, SizeLimitError

EXIT_NO_WITNESS = 0
EXIT_WITNESS = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


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
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # an oversized field or a stray carriage return
        raise InputFormatError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputFormatError("line 1: empty matrix file")
    locus_names = [cell.strip() for cell in rows[0][1:]]
    if not locus_names:
        raise InputFormatError("line 1: header names no loci")
    taxa: list[str] = []
    members: list[list[int]] = [[] for _ in locus_names]
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(locus_names) + 1:
            raise InputFormatError(
                f"line {lineno}: expected {len(locus_names) + 1} cells, got {len(row)}"
            )
        taxa.append(row[0].strip())
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise InputFormatError(
                    f"line {lineno}: cell {j + 2} must be 0 or 1, got {cell!r}"
                )
            if cell == "1":
                members[j].append(len(taxa) - 1)
    try:
        return CoveragePattern.from_sets(
            taxa, [(name, subset) for name, subset in zip(locus_names, members)]
        )
    except DecisiveError as exc:
        raise InputFormatError(str(exc)) from exc


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
    rows = reduction.incidence_matrix(pattern).rows
    for i, taxon in enumerate(pattern.taxa):
        writer.writerow([taxon] + [(rows[i] >> j) & 1 for j in range(pattern.k)])
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
# reports
# --------------------------------------------------------------------------


def _witness_names(pattern, blocks) -> Optional[list[list[str]]]:
    if blocks is None:
        return None
    return [[pattern.taxa[i] for i in block] for block in blocks]


def _base_report(command: str) -> dict:
    return {"tool": "decisive", "version": __version__, "command": command}


def _emit_report(report: dict, args) -> None:
    if args.report == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{key}: {json.dumps(value)}" for key, value in sorted(report.items())]
        text = "\n".join(lines) + "\n"
    if args.command in ("emit-ilp", "emit-cnf"):
        # --out holds the model; without it the model alone goes to stdout
        (sys.stdout if args.out else sys.stderr).write(text)
    elif args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_check(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    verdict = pipeline.decide(pattern, args.search_cap, args.parallel)
    report = _base_report("check")
    report.update(
        verdict={
            "decisive": verdict.decisive,
            "decided_by": verdict.decided_by,
            "witness": _witness_names(pattern, verdict.witness),
        },
        timings={"elapsed_s": verdict.stats.get("elapsed_s")},
    )
    return (EXIT_NO_WITNESS if verdict.decisive else EXIT_WITNESS), report


def _load_hypergraph(args) -> tuple[Hypergraph, Optional[CoveragePattern]]:
    if args.format == "edge-list":
        return parse_hypergraph_file(args.input), None
    pattern = parse_pattern_file(args.input, args.format)
    return build_hypergraph(pattern), pattern


def _coloring_json(coloring: Optional[Coloring]) -> Optional[list[int]]:
    return None if coloring is None else list(coloring.assignment)


def _cmd_nrc(args) -> tuple[int, dict]:
    h, _pattern = _load_hypergraph(args)
    start = time.perf_counter()
    outcome = nrc(h, args.r, guess_cap=args.search_cap, parallel=args.parallel)
    report = _base_report("nrc")
    report.update(
        r=args.r,
        rule=outcome.rule,
        witness=_coloring_json(outcome.witness),
        timings={"elapsed_s": time.perf_counter() - start},
    )
    return (EXIT_WITNESS if outcome.found else EXIT_NO_WITNESS), report


def _cmd_oracle(args) -> tuple[int, dict]:
    h, _pattern = _load_hypergraph(args)
    start = time.perf_counter()
    witness = oracle.brute_force_nrc(h, args.r, node_cap=args.oracle_cap)
    report = _base_report("oracle")
    report.update(
        r=args.r,
        witness=_coloring_json(witness),
        timings={"elapsed_s": time.perf_counter() - start},
    )
    return (EXIT_WITNESS if witness is not None else EXIT_NO_WITNESS), report


def _cmd_reduce(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    ri = reduction.reduce_pattern(pattern)
    report = _base_report("reduce")
    report.update(
        n=pattern.n,
        k=pattern.k,
        n_reduced=ri.n_reduced,
        spares=ri.spares,
        representatives=[pattern.taxa[i] for i in ri.representatives],
        reduced_rows=[ri.matrix.row_string(i) for i in range(ri.n_reduced)],
        copy_classes={
            pattern.taxa[rep]: [pattern.taxa[i] for i in members]
            for rep, members in ri.copies.items()
        },
        row_count_screen=reduction.row_count_screen(ri),
    )
    return EXIT_NO_WITNESS, report


def _cmd_bound(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    br = bounds.bound_report(pattern)
    report = _base_report("bound")
    report.update(
        n=br.n,
        k=br.k,
        quadruple_count=br.quadruple_count,
        threshold=br.threshold,
        below_threshold=br.quadruple_count < br.threshold,
        triple_coverage_ok=br.triple_coverage_ok,
        first_uncovered_triple=(
            None
            if br.first_uncovered_triple is None
            else [pattern.taxa[i] for i in br.first_uncovered_triple]
        ),
        rooted=br.rooted,
        common_taxon=None if br.common_taxon is None else pattern.taxa[br.common_taxon],
    )
    return EXIT_NO_WITNESS, report


def _cmd_emit_ilp(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)
    model = emit.emit_ilp(pattern)
    text = model.to_lp_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    report = _base_report("emit-ilp")
    report.update(
        rows=model.num_rows,
        columns=model.num_columns,
        nonzeros=model.num_nonzeros,
        out=args.out,
    )
    return EXIT_NO_WITNESS, report


def _cmd_emit_cnf(args) -> tuple[int, dict]:
    h, _pattern = _load_hypergraph(args)
    formula = emit.emit_cnf(h)
    text = formula.to_dimacs()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    report = _base_report("emit-cnf")
    report.update(
        variables=formula.num_vars, clauses=len(formula.clauses), out=args.out
    )
    return EXIT_NO_WITNESS, report


def _cmd_subset(args) -> tuple[int, dict]:
    pattern = parse_pattern_file(args.input, args.format)

    def decider(p):
        return pipeline.decide(p, args.search_cap, args.parallel)

    trace = pipeline.decisive_subset(pattern, decider)
    report = _base_report("subset")
    report.update(
        removals=[{"taxon": name, "coverage": cov} for name, cov in trace.removals],
        final_taxa=list(trace.final_taxa),
        final_decided_by=trace.final_verdict.decided_by,
    )
    return EXIT_NO_WITNESS, report


# --------------------------------------------------------------------------
# argument parsing and entry point
# --------------------------------------------------------------------------


_SOLVER_FLAGS = {
    "--oracle-cap": {"type": int, "default": oracle.DEFAULT_NODE_CAP},
    "--search-cap": {
        "type": int,
        "default": DEFAULT_SEARCH_CAP,
        "help": "guess budget of the exhaustive search; a larger search is "
        "refused (exit 3) before it starts",
    },
    "--parallel": {"action": "store_true"},
}
_SEARCH_FLAGS = ("--search-cap", "--parallel")


def _add_common(
    parser: argparse.ArgumentParser,
    formats: tuple[str, ...],
    solver_flags: tuple[str, ...] = (),
) -> None:
    parser.add_argument("--input", required=True, help="input file path")
    parser.add_argument(
        "--format", choices=formats, default=formats[0], help="input file format"
    )
    parser.add_argument("--out", help="output path")
    parser.add_argument("--report", choices=("json", "text"), default="json")
    for flag in solver_flags:
        parser.add_argument(flag, **_SOLVER_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decisive",
        description="Decide phylogenetic decisiveness of a taxon coverage pattern.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pattern_formats = ("matrix-csv", "locus-list")
    graph_formats = ("matrix-csv", "locus-list", "edge-list")

    p_check = sub.add_parser("check", help="decide decisiveness")
    _add_common(p_check, pattern_formats, _SEARCH_FLAGS)
    p_nrc = sub.add_parser("nrc", help="run a raw no-rainbow search")
    p_nrc.add_argument("--r", type=int, choices=(2, 3, 4), default=4)
    _add_common(p_nrc, graph_formats, _SEARCH_FLAGS)
    p_oracle = sub.add_parser("oracle", help="brute-force no-rainbow search")
    p_oracle.add_argument("--r", type=int, choices=(2, 3, 4), default=4)
    _add_common(p_oracle, graph_formats, ("--oracle-cap",))
    _add_common(sub.add_parser("reduce", help="kernelize and report"), pattern_formats)
    _add_common(sub.add_parser("bound", help="coverage bound report"), pattern_formats)
    _add_common(sub.add_parser("emit-ilp", help="write the LP model"), pattern_formats)
    _add_common(sub.add_parser("emit-cnf", help="write the DIMACS model"), graph_formats)
    p_subset = sub.add_parser("subset", help="greedy decisive subset")
    _add_common(p_subset, pattern_formats, _SEARCH_FLAGS)
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "nrc": _cmd_nrc,
    "oracle": _cmd_oracle,
    "reduce": _cmd_reduce,
    "bound": _cmd_bound,
    "emit-ilp": _cmd_emit_ilp,
    "emit-cnf": _cmd_emit_cnf,
    "subset": _cmd_subset,
}


def run(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("DECISIVE_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        code, report = _HANDLERS[args.command](args)
        report["exit_code"] = code
        _emit_report(report, args)
        return code
    except SizeLimitError as exc:
        _emit_error(args, "size-limit", exc)
        return EXIT_CAP_EXCEEDED
    except DecisiveError as exc:
        _emit_error(args, "input", exc)
        return EXIT_INPUT_ERROR


def _emit_error(args, kind: str, exc: Exception) -> None:
    report = _base_report(getattr(args, "command", "unknown"))
    report["error"] = {"type": kind, "message": str(exc)}
    report["exit_code"] = (
        EXIT_CAP_EXCEEDED if kind == "size-limit" else EXIT_INPUT_ERROR
    )
    sys.stderr.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def main() -> None:
    sys.exit(run())
