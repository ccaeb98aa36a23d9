"""Incidence-matrix kernelization and the fixed-parameter decision driver.

Each taxon's row is a k-bit integer (bit j set iff the taxon is in locus j),
as ``CoveragePattern.rows`` holds it.  Two reduction rules shrink the rows:

* striking out duplicate rows leaves at most 2^k nodes (``dedup``);
* a locus contained in another adds no constraint (if the larger one is not
  rainbow, neither is the smaller), so ``drop_dominated_loci`` deletes it
  and strikes out the rows that then agree.

The kernel is what both rules leave (``reduce_pattern``), and it is what the
r = 4 search (``kernel_nrc4``) reads, with one guess count and no scan for an
uncovered triple: each row is a taxon's.  Once every triple of taxa lies in
some locus, the kernel's hypergraph has a no-rainbow 4-coloring iff the
original has one, and copies take their representative's color.  Dropping a
dominated locus keeps every triple covered, by the locus that contains it.
The screens (``zero_and_screen``, ``full_row``) read the pattern's own rows
and build no kernel; it is built only for the search.  No 2- or 3-coloring of
the kernel needs searching: after the triple screen one representative of
each color lies in a common locus, so every such coloring is rainbow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

from .core import Coloring, CoveragePattern, uncovered_set
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
class ReducedInstance:
    """The distinct rows of k loci and the copy class of each; the kernel
    when ``reduce_pattern`` builds it."""

    k: int
    source_rows: tuple[int, ...]
    rows: tuple[int, ...]  # the distinct source rows, in first-occurrence order
    # per row, the source rows equal to it, ascending; the first represents
    # the class
    classes: tuple[tuple[int, ...], ...]

    @property
    def n_reduced(self) -> int:
        return len(self.rows)

    @property
    def spares(self) -> int:
        return len(self.source_rows) - self.n_reduced


def dedup(rows: Sequence[int], k: int) -> ReducedInstance:
    """Strike out duplicate rows, keeping first occurrences as representatives."""
    classes: dict[int, list[int]] = {}  # row -> identical source rows, in order
    for i, row in enumerate(rows):
        classes.setdefault(row, []).append(i)
    return ReducedInstance(
        k, tuple(rows), tuple(classes), tuple(map(tuple, classes.values()))
    )


def reduce_pattern(pattern: CoveragePattern) -> ReducedInstance:
    """The kernel: the pattern's distinct rows after dropping dominated loci,
    each class of taxa that agree on the loci kept under one row."""
    return drop_dominated_loci(dedup(pattern.rows, pattern.k))


def drop_dominated_loci(ri: ReducedInstance) -> ReducedInstance:
    """Drop every locus whose column over the rows of ``ri`` lies inside a
    strictly larger one (of equal columns the first stays), then strike out
    the source rows that agree on the loci kept.

    Returns ``ri`` itself when no nonempty locus is dropped.  Columns are
    taken largest first, so a column is compared only with the kept columns
    of larger size, and equal columns meet in a dict.
    """
    rows = ri.rows
    columns = [0] * ri.k
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
    return dedup([row & keep for row in ri.source_rows], ri.k)


def full_row(rows: Sequence[int], k: int) -> Optional[int]:
    """The first index whose row holds all k loci (a taxon in every locus),
    or None."""
    full = (1 << k) - 1
    return rows.index(full) if full in rows else None


def zero_and_screen(pattern: CoveragePattern) -> Optional[Coloring]:
    """Witness from three taxa whose rows AND to zero (two such rows plus any
    third taxon will do), if any exist.

    Such taxa share no locus, hence form a non-neighbor set in the pattern's
    hypergraph; the returned coloring is over its taxa.
    """
    if pattern.n < 4:
        raise InvalidInstanceError("zero-AND screen needs at least 4 source taxa")
    group = uncovered_set(pattern.rows, 3)
    return None if group is None else non_neighbor_coloring(pattern.n, group)


def row_count_screen(ri: ReducedInstance) -> bool:
    """True iff ``ri`` has more than 2^(k-1) distinct rows.

    Then some two rows are complements, so the zero-AND screen must fire.
    """
    return ri.n_reduced > 2 ** (ri.k - 1)


def lift_coloring(ri: ReducedInstance, reduced_coloring: Coloring) -> Coloring:
    """Turn a no-rainbow 4-coloring of the kernel into one of the original:
    copies inherit their representative's color."""
    if reduced_coloring.r != 4:
        raise InvalidInstanceError(f"cannot lift an r={reduced_coloring.r} coloring")
    assignment = [0] * len(ri.source_rows)
    for color, members in zip(reduced_coloring.assignment, ri.classes):
        for u in members:
            assignment[u] = color
    return Coloring(4, tuple(assignment))


def kernel_nrc4(
    ri: ReducedInstance,
    guess_cap: int = DEFAULT_SEARCH_CAP,
    parallel: bool = False,
) -> NrcOutcome:
    """4-NRC of the source by an r = 4 search on the kernel ``ri`` (as
    ``reduce_pattern`` builds it), the witness lifted to the source taxa.
    Requires every triple of taxa to lie in a locus, as ``zero_and_screen``
    finds; then it is exact: two copies colored apart would share the locus
    covering one of them and a taxon of each other color, and make it
    rainbow.  The kernel's rows are searched as they are, with one guess count
    and no non-neighbor scan: each row is a taxon's, so no triple of them is
    uncovered.  The search is refused before it starts when an exhaustive one
    would make more than ``guess_cap`` guesses."""
    if ri.n_reduced < 4:
        return NrcOutcome(None, RULE_EXHAUSTED)
    subject = f"the kernel of {len(ri.source_rows)} taxa has {ri.n_reduced} rows"
    outcome = nrc4_rows(ri.rows, guess_cap, parallel, subject)
    if outcome.found:
        return NrcOutcome(lift_coloring(ri, outcome.witness), outcome.rule)
    return outcome


def fpt_nrc4(
    pattern: CoveragePattern, guess_cap: int = DEFAULT_SEARCH_CAP
) -> NrcOutcome:
    """Decide 4-NRC of H(S) through the kernel.

    Runs the zero-AND screen on the pattern's rows, which finds an uncovered
    triple if one exists, then builds the kernel (``reduce_pattern``: both
    reduction rules) and runs the r = 4 search on it.
    """
    if pattern.n < 4:
        raise InvalidInstanceError("4-NRC needs at least 4 taxa")
    witness = zero_and_screen(pattern)
    if witness is not None:
        return NrcOutcome(witness, RULE_NON_NEIGHBOR)
    return kernel_nrc4(reduce_pattern(pattern), guess_cap)
