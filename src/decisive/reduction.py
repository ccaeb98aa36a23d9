"""Incidence-matrix kernelization and the fixed-parameter decision driver.

Each taxon's row is a k-bit integer (bit j set iff the taxon is in locus j),
as ``CoveragePattern.rows`` holds it.  Three reduction rules shrink the rows:

* striking out duplicate rows leaves at most 2^k nodes (``dedup``);
* a locus contained in another adds no constraint (if the larger one is not
  rainbow, neither is the smaller), so ``drop_dominated_loci`` deletes it
  and merges the rows that then agree;
* once every triple of taxa lies in some locus, a taxon v whose row lies
  inside another taxon u's row can be deleted (``fold_kernel``): the rest
  has a no-rainbow 4-coloring iff the whole pattern has one.  A witness of
  the rest lifts by giving v the color of u, since every locus that holds v
  holds u, so its set of colors does not change.  A witness of the whole
  stays one on the rest, since no witness has {v} as a whole color class:
  were u colored c, the locus covering v and one taxon of each of the two
  colors other than v's and c would hold u too, and be rainbow.  Equal rows
  are the special case that ``dedup`` handles.

``reduce_pattern`` applies the first two and is sound on every pattern.
The third needs every triple covered, and deleting a taxon keeps that so,
as does dropping a dominated locus (its superset covers what it covered);
so on the search path, after ``zero_and_screen`` found no uncovered triple,
``fold_kernel`` alternates it with ``drop_dominated_loci`` until neither
changes anything.  Each round folds every row that lies inside another onto
the first row of all that lies inside no other, in kernel order, which then
holds it in its class.  The kernel is then an antichain both ways: no row
lies inside another, and no locus column inside another, so by Sperner's
theorem it has at most C(k, floor(k/2)) rows, against 2^k after ``dedup``.
A kernel of fewer than 4 rows has no 4-coloring at all.

The r = 4 search (``kernel_nrc4``) reads the kernel's rows as they are, with
one guess count and no scan for an uncovered triple: each row is a taxon's.
Once every triple of taxa lies in some locus, the kernel's hypergraph has a
no-rainbow 4-coloring iff the original has one, and each class takes its
row's color.  The screens (``zero_and_screen``, ``full_row``) read the
pattern's own rows and build no kernel; it is built only for the search.
No 2- or 3-coloring of the kernel needs searching: after the triple screen
one representative of each color lies in a common locus, so every such
coloring is rainbow.
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
    """Distinct rows over k loci and the class of taxa that each row stands
    for; the kernel when ``reduce_pattern`` or ``fold_kernel`` builds it."""

    k: int
    source_rows: tuple[int, ...]  # each taxon's row, on the loci kept
    # the distinct rows, in the order in which the first taxon whose source
    # row equals each occurs (a folded taxon counts for no row)
    rows: tuple[int, ...]
    # per row, ascending, the taxa that take its color: those whose source
    # rows equal it, and the taxa folded onto it.  From ``dedup``, the
    # first of each class is its representative.
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
    """The kernel of the first two rules: the pattern's distinct rows after
    dropping dominated loci, each class of taxa that agree on the loci kept
    under one row.  Sound on every pattern; ``fold_kernel`` goes further
    once every triple is covered."""
    return drop_dominated_loci(dedup(pattern.rows, pattern.k))


def _maximal(masks: Sequence[int]) -> list[int]:
    """Ascending, the indices of the masks that lie inside no strictly
    larger mask, of equal masks the first.

    Masks are taken largest first, so a mask is compared only with the kept
    masks of larger size, and equal masks meet in a dict.
    """
    sizes = [mask.bit_count() for mask in masks]
    by_size = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    larger: list[int] = []  # kept masks of the sizes already passed
    tops: list[int] = []
    for _size, group in groupby(by_size, key=sizes.__getitem__):
        kept: dict[int, int] = {}  # mask -> first index with it
        for i in group:
            mask = masks[i]
            if mask in kept:
                continue
            for big in larger:
                if mask & big == mask:
                    break
            else:
                kept[mask] = i
        larger += kept
        tops += kept.values()
    return sorted(tops)


def drop_dominated_loci(ri: ReducedInstance) -> ReducedInstance:
    """Drop every locus whose column over the rows of ``ri`` lies inside a
    strictly larger one (of equal columns the first stays), then merge the
    rows, and their classes, that agree on the loci kept.  The source rows
    keep only those loci too.

    Returns ``ri`` itself when no nonempty locus is dropped.
    """
    rows = ri.rows
    columns = [0] * ri.k
    for p, row in enumerate(rows):
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << p
            row ^= low
    keep = 0  # mask of the kept loci
    for j in _maximal(columns):
        keep |= 1 << j
    if all(row & keep == row for row in rows):
        return ri
    merged: dict[int, list[int]] = {}  # kept part of a row -> its classes
    for row, members in zip(rows, ri.classes):
        merged.setdefault(row & keep, []).extend(members)
    classes = tuple(tuple(sorted(members)) for members in merged.values())
    source_rows = tuple(row & keep for row in ri.source_rows)
    return ReducedInstance(ri.k, source_rows, tuple(merged), classes)


def _fold_rows(ri: ReducedInstance) -> ReducedInstance:
    """Fold every row of ``ri`` that lies inside another onto the first row,
    in kernel order, that lies inside none; ``ri`` itself when none does."""
    rows = ri.rows
    tops = _maximal(rows)
    if len(tops) == len(rows):
        return ri
    classes = {p: list(ri.classes[p]) for p in tops}
    for p, row in enumerate(rows):
        if p not in classes:
            onto = next(q for q in tops if row & rows[q] == row)
            classes[onto] += ri.classes[p]
    return ReducedInstance(
        ri.k,
        ri.source_rows,
        tuple(rows[p] for p in tops),
        tuple(tuple(sorted(classes[p])) for p in tops),
    )


def fold_kernel(ri: ReducedInstance) -> ReducedInstance:
    """The kernel the r = 4 search reads: ``ri`` (as ``reduce_pattern``
    builds it) with the rows that lie inside others folded and the loci then
    dominated dropped, in turn, until neither changes anything.  Requires
    every triple of taxa to lie in a locus, as ``zero_and_screen`` finds;
    the fold is unsound otherwise.  Returns ``ri`` itself when no row lies
    inside another."""
    while (folded := _fold_rows(ri)) is not ri:
        ri = drop_dominated_loci(folded)
    return ri


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
    each taxon takes the color of the row whose class holds it."""
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
    ``reduce_pattern`` or ``fold_kernel`` builds it), the witness lifted to
    the source taxa.  Requires every triple of taxa to lie in a locus, as
    ``zero_and_screen`` finds; then it is exact (see the module docstring),
    and a kernel of fewer than 4 rows has no witness.  The kernel's rows are
    searched as they are, with one guess count and no non-neighbor scan:
    each row is a taxon's, so no triple of them is uncovered.  The search is
    refused before it starts when an exhaustive one would make more than
    ``guess_cap`` guesses."""
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
    triple if one exists, then builds the kernel (``reduce_pattern``, then
    ``fold_kernel``: all three reduction rules) and runs the r = 4 search on
    it.
    """
    if pattern.n < 4:
        raise InvalidInstanceError("4-NRC needs at least 4 taxa")
    witness = zero_and_screen(pattern)
    if witness is not None:
        return NrcOutcome(witness, RULE_NON_NEIGHBOR)
    return kernel_nrc4(fold_kernel(reduce_pattern(pattern)), guess_cap)
