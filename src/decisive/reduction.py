"""Incidence-matrix kernelization and the fixed-parameter decision driver.

Each taxon's row is stored as a k-bit integer (bit j set iff the taxon is in
locus j).  Two reduction rules shrink the matrix:

* striking out duplicate rows leaves at most 2^k nodes (``dedup``);
* a locus contained in another adds no constraint (if the larger one is not
  rainbow, neither is the smaller), so ``drop_dominated_loci`` deletes it
  and strikes out the rows that then agree.

Once every triple of taxa lies in some locus, the reduced hypergraph has a
no-rainbow 4-coloring iff the original has one, and copies take their
representative's color.  Dropping a dominated locus keeps every triple
covered, by the locus that contains it.  The screens see only the first
rule; the r = 4 search (``kernel_nrc4``) runs on the rows both leave, with
one guess count and no scan for an uncovered triple: each is a taxon's.  No 2-
or 3-coloring of the kernel needs searching: after the triple screen one
representative of each color lies in a common locus, so every such coloring
is rainbow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Optional

from .core import Coloring, CoveragePattern, incidence_rows, uncovered_set
from .errors import InvalidInstanceError
from .nrc import (
    DEFAULT_SEARCH_CAP,
    RULE_EXHAUSTED,
    RULE_NON_NEIGHBOR,
    NrcOutcome,
    non_neighbor_coloring,
    nrc,  # noqa: F401  # unused here, but perfbench/tracing.py binds reduction.nrc
    nrc4_rows,
)


@dataclass(frozen=True)
class IncidenceMatrix:
    """n x k binary matrix; ``rows[i]`` has bit j set iff taxon i is in locus j."""

    n: int
    k: int
    rows: tuple[int, ...]

    def row_string(self, i: int) -> str:
        """Row i as a 0/1 string, column 0 first."""
        return format(self.rows[i], f"0{self.k}b")[::-1] if self.k else ""


@dataclass(frozen=True)
class ReducedInstance:
    """The kernel: distinct rows, their representatives, and the copy classes."""

    source: IncidenceMatrix
    matrix: IncidenceMatrix  # reduced matrix, one row per distinct source row
    representatives: tuple[int, ...]  # source row index per reduced row
    copies: dict[int, tuple[int, ...]]  # representative -> all identical source rows

    @cached_property
    def searched(self) -> "ReducedInstance":
        """The instance ``kernel_nrc4`` searches: this one after
        ``drop_dominated_loci``."""
        return drop_dominated_loci(self)

    @property
    def n_reduced(self) -> int:
        return self.matrix.n

    @property
    def spares(self) -> int:
        return self.source.n - self.n_reduced


def incidence_matrix(pattern: CoveragePattern) -> IncidenceMatrix:
    """Exact bit matrix in taxon/locus input order."""
    rows = incidence_rows(pattern.n, pattern.locus_subsets())
    return IncidenceMatrix(pattern.n, pattern.k, tuple(rows))


def dedup(matrix: IncidenceMatrix) -> ReducedInstance:
    """Strike out duplicate rows, keeping first occurrences as representatives."""
    classes: dict[int, list[int]] = {}  # row -> identical source rows, in order
    for i, row in enumerate(matrix.rows):
        classes.setdefault(row, []).append(i)
    reduced_rows = tuple(classes)
    return ReducedInstance(
        source=matrix,
        matrix=IncidenceMatrix(len(reduced_rows), matrix.k, reduced_rows),
        representatives=tuple(members[0] for members in classes.values()),
        copies={members[0]: tuple(members) for members in classes.values()},
    )


def reduce_pattern(pattern: CoveragePattern) -> ReducedInstance:
    return dedup(incidence_matrix(pattern))


def drop_dominated_loci(ri: ReducedInstance) -> ReducedInstance:
    """Drop every locus whose column over the kernel rows lies inside a
    strictly larger one (of equal columns the first stays), then strike out
    the source rows that agree on the loci kept.

    Returns ``ri`` itself when no nonempty locus is dropped.  Columns are
    taken largest first, so a column is compared only with the kept columns
    of larger size, and equal columns meet in a dict.
    """
    rows = ri.matrix.rows
    columns = [0] * ri.matrix.k
    for p, row in enumerate(rows):
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << p
            row ^= low
    by_size = sorted(range(len(columns)), key=lambda j: -columns[j].bit_count())
    larger: list[int] = []  # kept columns of the sizes already passed
    keep = 0  # mask of the kept loci
    for size, group in groupby(by_size, key=lambda j: columns[j].bit_count()):
        if not size:
            break
        kept: dict[int, int] = {}  # column -> first locus with it
        for j in group:
            column = columns[j]
            if column not in kept and all(column & big != column for big in larger):
                kept[column] = j
                keep |= 1 << j
        larger += kept
    if all(row & keep == row for row in rows):
        return ri
    source = ri.source
    return dedup(
        IncidenceMatrix(source.n, source.k, tuple(row & keep for row in source.rows))
    )


def zero_and_screen(ri: ReducedInstance) -> Optional[Coloring]:
    """Witness from three source taxa whose rows AND to zero (two such rows
    plus any third taxon will do), if any exist.

    Such taxa share no locus, hence form a non-neighbor set in the original
    hypergraph; the returned coloring is over the original taxa.
    """
    if ri.source.n < 4:
        raise InvalidInstanceError("zero-AND screen needs at least 4 source taxa")
    group = uncovered_set(ri.source.rows, 3)
    return None if group is None else non_neighbor_coloring(ri.source.n, 4, group)


def row_count_screen(ri: ReducedInstance) -> bool:
    """True iff the kernel has more than 2^(k-1) rows.

    Then some two rows are complements, so the zero-AND screen must fire.
    """
    return ri.n_reduced > 2 ** (ri.matrix.k - 1)


def lift_coloring(ri: ReducedInstance, reduced_coloring: Coloring) -> Coloring:
    """Turn a no-rainbow 4-coloring of the kernel into one of the original:
    copies inherit their representative's color."""
    if reduced_coloring.r != 4:
        raise InvalidInstanceError(f"cannot lift an r={reduced_coloring.r} coloring")
    assignment = [0] * ri.source.n
    for color, rep in zip(reduced_coloring.assignment, ri.representatives):
        for u in ri.copies[rep]:
            assignment[u] = color
    return Coloring(4, tuple(assignment))


def kernel_nrc4(
    ri: ReducedInstance,
    guess_cap: int = DEFAULT_SEARCH_CAP,
    parallel: bool = False,
) -> NrcOutcome:
    """4-NRC of the source by an r = 4 search on its kernel after dropping
    dominated loci (``ri.searched``), the witness lifted to the source taxa.
    Requires every triple of taxa to lie in a locus, as ``zero_and_screen``
    finds; then it is exact: two copies colored apart would share the locus
    covering one of them and a taxon of each other color, and make it
    rainbow.  The kernel's rows are searched as they are, with one guess count
    and no non-neighbor scan: each row is a taxon's, so no triple of them is
    uncovered.  The search is refused before it starts when an exhaustive one
    would make more than ``guess_cap`` guesses."""
    kernel = ri.searched
    if kernel.n_reduced < 4:
        return NrcOutcome(None, RULE_EXHAUSTED)
    subject = f"the kernel of {kernel.source.n} taxa has {kernel.n_reduced} rows"
    outcome = nrc4_rows(kernel.matrix.rows, guess_cap, parallel, subject)
    if outcome.found:
        return NrcOutcome(lift_coloring(kernel, outcome.witness), outcome.rule)
    return outcome


def fpt_nrc4(
    pattern: CoveragePattern,
    guess_cap: int = DEFAULT_SEARCH_CAP,
    parallel: bool = False,
) -> NrcOutcome:
    """Decide 4-NRC of H(S) through the kernel.

    Runs the zero-AND screen, which finds an uncovered triple if one exists,
    then the r = 4 kernel search.
    """
    if pattern.n < 4:
        raise InvalidInstanceError("4-NRC needs at least 4 taxa")
    ri = reduce_pattern(pattern)
    witness = zero_and_screen(ri)
    if witness is not None:
        return NrcOutcome(witness, RULE_NON_NEIGHBOR)
    return kernel_nrc4(ri, guess_cap, parallel)
