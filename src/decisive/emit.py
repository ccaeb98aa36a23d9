"""Solver-model emitters: 0-1 ILP in LP format and CNF in DIMACS format.

No solver is bundled; both emitters come with self-contained evaluators so
witnesses can be checked without external tools.  The ILP is feasible iff the
pattern is non-decisive.  The CNF encodes node colors as two bits per node
(00..11 for colors 1..4) and is satisfiable iff a no-rainbow 4-coloring
exists.  It has one encoding: each edge of four or more nodes gets one
"color q is absent" indicator per color, and surjectivity one "node i has
color q" indicator per node and color.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .core import Coloring, CoveragePattern, Hypergraph
from .errors import InputFormatError, InvalidInstanceError


# --------------------------------------------------------------------------
# ILP
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IlpRow:
    """One linear constraint: sum(coeff * var) <sense> rhs."""

    name: str
    terms: tuple[tuple[str, int], ...]
    sense: str  # "=", "<=", ">="
    rhs: int
    block: int  # 1..4, matching the constraint family
    index: int  # position within the block, 0-based


@dataclass(frozen=True)
class IlpModel:
    """Feasibility program over binaries x_i_q (taxon colors) and z_j_q
    (locus j misses color q)."""

    n: int
    k: int
    variables: tuple[str, ...]
    rows: tuple[IlpRow, ...]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.variables)

    @property
    def num_nonzeros(self) -> int:
        return sum(len(row.terms) for row in self.rows)

    def to_lp_text(self) -> str:
        lines = ["Minimize", " obj: 0", "Subject To"]
        for row in self.rows:
            rendered = " + ".join(
                name if coeff == 1 else f"{coeff} {name}" for name, coeff in row.terms
            )
            lines.append(f" {row.name}: {rendered} {row.sense} {row.rhs}")
        lines.append("Binary")
        for var in self.variables:
            lines.append(f" {var}")
        lines.append("End")
        return "\n".join(lines) + "\n"


def _xvar(i: int, q: int) -> str:
    return f"x_{i + 1}_{q}"


def _zvar(j: int, q: int) -> str:
    return f"z_{j + 1}_{q}"


def emit_ilp(pattern: CoveragePattern) -> IlpModel:
    """The four constraint blocks, emitted in order.

    (1) each taxon gets exactly one color; (2) each color is used; (3) z_j_q
    is forced to "color q unused in locus j", as two inequalities; (4) each
    locus misses at least one color.
    """
    n, k = pattern.n, pattern.k
    if n < 4:
        raise InvalidInstanceError("the ILP needs at least 4 taxa")
    variables = tuple(_xvar(i, q) for i in range(n) for q in range(1, 5)) + tuple(
        _zvar(j, q) for j in range(k) for q in range(1, 5)
    )
    rows: list[IlpRow] = []

    def add(terms, sense, rhs, block, index):
        rows.append(
            IlpRow(f"c{len(rows) + 1}", tuple(terms), sense, rhs, block, index)
        )

    for i in range(n):
        add([(_xvar(i, q), 1) for q in range(1, 5)], "=", 1, 1, i)
    for q in range(1, 5):
        add([(_xvar(i, q), 1) for i in range(n)], ">=", 1, 2, q - 1)
    for j, (_name, members) in enumerate(pattern.loci):
        for q in range(1, 5):
            covered = [(_xvar(i, q), 1) for i in members]
            add(covered + [(_zvar(j, q), 1)], ">=", 1, 3, 8 * j + 2 * (q - 1))
            add(covered + [(_zvar(j, q), n)], "<=", n, 3, 8 * j + 2 * (q - 1) + 1)
    for j in range(k):
        add([(_zvar(j, q), 1) for q in range(1, 5)], ">=", 1, 4, j)
    return IlpModel(n=n, k=k, variables=variables, rows=tuple(rows))


def ilp_assignment_from_coloring(
    pattern: CoveragePattern, coloring: Coloring
) -> dict[str, int]:
    """The 0-1 assignment a 4-coloring induces on the model variables."""
    values: dict[str, int] = {}
    for i in range(pattern.n):
        for q in range(1, 5):
            values[_xvar(i, q)] = int(coloring.assignment[i] == q)
    for j, (_name, members) in enumerate(pattern.loci):
        used = {coloring.assignment[i] for i in members}
        for q in range(1, 5):
            values[_zvar(j, q)] = int(q not in used)
    return values


def evaluate_ilp(
    model: IlpModel, assignment: Mapping[str, int]
) -> Optional[IlpRow]:
    """First violated row, or None if the assignment is feasible."""
    for var in model.variables:
        if var not in assignment:
            raise InputFormatError(f"assignment is missing variable {var}")
        if assignment[var] not in (0, 1):
            raise InputFormatError(f"variable {var} is not 0/1")
    for row in model.rows:
        value = sum(coeff * assignment[name] for name, coeff in row.terms)
        ok = (
            value == row.rhs
            if row.sense == "="
            else value <= row.rhs
            if row.sense == "<="
            else value >= row.rhs
        )
        if not ok:
            return row
    return None


# --------------------------------------------------------------------------
# CNF
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """Clause list plus a legend giving every variable a semantic meaning.

    Legend entries: ("hi", i) and ("lo", i) are the color bits of node i
    (color = 1 + 2*hi + lo); ("color_absent", e, q) means color q is unused
    on edge e; ("node_color", i, q) means node i has color q.
    """

    node_count: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    legend: dict[int, tuple] = field(repr=False)
    edges: tuple[tuple[int, ...], ...] = field(repr=False)

    def to_dimacs(self) -> str:
        lines = [
            f"c var {var} = {' '.join(str(part) for part in meaning)}"
            for var, meaning in sorted(self.legend.items())
        ]
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def emit_cnf(h: Hypergraph) -> CnfFormula:
    """CNF whose satisfiability is equivalent to 4-NRC of ``h``.

    Each edge of four or more nodes gets four ``color_absent`` indicators, one
    of which must hold; edges smaller than 4 are skipped, since they can never
    be rainbow.  Each color must be some node's ``node_color``.  An indicator
    only implies its meaning, which is all satisfiability needs.
    """
    if h.node_count < 4:
        raise InvalidInstanceError("the CNF encoding needs at least 4 nodes")
    legend: dict[int, tuple] = {}
    clauses: list[tuple[int, ...]] = []

    def new_var(*meaning) -> int:
        legend[len(legend) + 1] = meaning
        return len(legend)

    bits = [(new_var("hi", i), new_var("lo", i)) for i in range(h.node_count)]

    def has_color(i: int, q: int) -> tuple[int, int]:
        """Two literals whose conjunction says node i has color q."""
        hi, lo = bits[i]
        return (hi if (q - 1) >> 1 else -hi), (lo if (q - 1) & 1 else -lo)

    edges = tuple(edge for edge in h.edges if len(edge) >= 4)
    for e_idx, edge in enumerate(edges):
        absent = []
        for q in range(1, 5):
            a = new_var("color_absent", e_idx, q)
            absent.append(a)
            for v in edge:
                l1, l2 = has_color(v, q)
                clauses.append((-a, -l1, -l2))
        clauses.append(tuple(absent))
    by_color: dict[int, list[int]] = {q: [] for q in range(1, 5)}
    for i in range(h.node_count):
        for q in range(1, 5):
            s = new_var("node_color", i, q)
            by_color[q].append(s)
            clauses.extend((-s, lit) for lit in has_color(i, q))
    clauses.extend(tuple(by_color[q]) for q in range(1, 5))
    return CnfFormula(
        node_count=h.node_count,
        num_vars=len(legend),
        clauses=tuple(clauses),
        legend=legend,
        edges=edges,
    )


def cnf_assignment_from_coloring(
    formula: CnfFormula, coloring: Coloring
) -> dict[int, bool]:
    """Functionally derived truth values for every variable of the formula."""
    c = coloring.assignment
    values: dict[int, bool] = {}
    for var, meaning in formula.legend.items():
        kind = meaning[0]
        if kind == "hi":
            values[var] = bool((c[meaning[1]] - 1) >> 1 & 1)
        elif kind == "lo":
            values[var] = bool((c[meaning[1]] - 1) & 1)
        elif kind == "color_absent":
            e_idx, q = meaning[1:]
            values[var] = all(c[v] != q for v in formula.edges[e_idx])
        elif kind == "node_color":
            i, q = meaning[1:]
            values[var] = c[i] == q
        else:  # pragma: no cover
            raise InputFormatError(f"unknown legend entry {meaning!r}")
    return values


def violated_clause(
    formula: CnfFormula, assignment: Mapping[int, bool]
) -> Optional[int]:
    """Index of the first unsatisfied clause, or None."""
    for idx, clause in enumerate(formula.clauses):
        if not any(
            assignment[abs(lit)] == (lit > 0) for lit in clause
        ):
            return idx
    return None


def cnf_holds(formula: CnfFormula, coloring: Coloring) -> bool:
    """Whether the functionally derived assignment satisfies every clause."""
    return violated_clause(formula, cnf_assignment_from_coloring(formula, coloring)) is None


def decode_cnf(formula: CnfFormula, assignment: Mapping[int, bool]) -> Coloring:
    """Read node colors out of the bit variables (00->1 .. 11->4)."""
    colors = []
    bit_vars = {
        meaning: var for var, meaning in formula.legend.items() if meaning[0] in ("hi", "lo")
    }
    for i in range(formula.node_count):
        hi = assignment[bit_vars[("hi", i)]]
        lo = assignment[bit_vars[("lo", i)]]
        colors.append(1 + 2 * int(hi) + int(lo))
    return Coloring(4, tuple(colors))
