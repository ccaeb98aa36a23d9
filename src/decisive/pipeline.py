"""The decisiveness decision procedure and the decisive-subset heuristic.

A pattern is decisive iff its coverage hypergraph has no no-rainbow
4-coloring.  ``decide`` runs one stack: cheap certificates first (full locus;
uncovered triple and rooted case, both read off the pattern's own rows), then,
only if none fires, it builds the kernel and searches it for a no-rainbow
4-coloring, unless an exhaustive search would exceed the guess budget.  The
kernel comes from all three reduction rules: ``reduction.reduce_pattern``
strikes out duplicate rows and drops dominated loci, and then, since the
triple screen found every triple covered, ``reduction.fold_kernel`` folds
each taxon whose row lies inside another's onto that row, in turn with
dropping the loci that become dominated.  A kernel of fewer than 4 rows is
decisive with no search; the tight stars of ``bounds.star_hypergraph`` fold
to one row.  The search reads the kernel's rows, counts its guesses once and
looks for no uncovered triple again: each row is a taxon's.  The other
engines stay public: ``nrc.nrc4`` on the raw hypergraph is reached from
``decisive nrc``, ``oracle.brute_force_nrc`` from ``decisive oracle``, and
``reduction.fpt_nrc4`` (the screen and kernel search without the other
certificates) from the package's API only.  No quadruple count runs here: its
bound only confirms a witness the search finds anyway, and ``decisive bound``
reports it.  Fewer colors are never searched: once every triple is covered, a
2- or 3-coloring has one taxon of each color inside a common locus, so it is
rainbow.  Every non-decisive verdict carries a four-block partition witness
that is re-checked before being returned, on every raw locus of the pattern,
not the kernel.  ``core.coloring_failure`` reads the loci as the pattern
holds them, so no ``Hypergraph`` is built for it, and tests each locus against
the witness's color classes, which are also the verdict's blocks.  The test
is exact because the classes partition the taxa: a locus longer than all but
a largest class together holds a taxon of that class, so it is rainbow iff it
meets every smaller class, which a bisection of the locus finds
(``CoveragePattern`` checked each locus sorted with no repeats when built); a
shorter locus is tested by its set of colors.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import reduction
from .core import Coloring, CoveragePattern, color_classes, coloring_failure
from .errors import DecisiveError
from .nrc import DEFAULT_SEARCH_CAP

# unused here, but perfbench/tracing.py binds pipeline.nrc4,
# pipeline.build_hypergraph and pipeline.verify_no_rainbow
from .core import build_hypergraph, verify_no_rainbow  # noqa: F401
from .nrc import nrc4  # noqa: F401

log = logging.getLogger(__name__)

Partition = tuple[tuple[int, ...], ...]

DECIDED_TRIVIAL_SMALL = "trivial-small-n"
DECIDED_FULL_LOCUS = "full-locus"
DECIDED_TRIPLE_GAP = "triple-gap"
DECIDED_ROOTED = "rooted"
DECIDED_FPT = "fpt"
DECIDED_DIRECT = "direct-search"


@dataclass(frozen=True)
class Verdict:
    """Decision plus, for non-decisive patterns, a violating 4-way partition."""

    decisive: bool
    witness: Optional[Partition]
    decided_by: str
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubsetTrace:
    """Removal log of the greedy decisive-subset heuristic."""

    removals: tuple[tuple[str, int], ...]  # (taxon name, coverage at removal)
    final_taxa: tuple[str, ...]
    final_verdict: Verdict


def partition_from_coloring(coloring: Coloring) -> Partition:
    """Color classes as a canonical partition: blocks ordered by smallest
    member, members ascending."""
    return _partition(color_classes(coloring))


def _partition(classes: list[tuple[int, ...]]) -> Partition:
    # the classes are disjoint, so sorting orders them by smallest member
    return tuple(sorted(filter(None, classes)))


def coloring_from_partition(blocks: Partition, n: int) -> Coloring:
    assignment = [0] * n
    for color, block in enumerate(blocks, start=1):
        for v in block:
            assignment[v] = color
    return Coloring(len(blocks), tuple(assignment))


def _non_decisive(
    pattern: CoveragePattern, witness: Coloring, decided_by: str, stats: dict
) -> Verdict:
    classes = color_classes(witness)
    loci = (members for _name, members in pattern.loci)
    if coloring_failure(pattern.n, loci, witness, classes) is not None:
        raise DecisiveError(
            f"internal error: {decided_by} produced a witness that fails "
            "re-verification"
        )
    return Verdict(False, _partition(classes), decided_by, stats)


def decide(
    pattern: CoveragePattern,
    search_cap: int = DEFAULT_SEARCH_CAP,
    # unused, but perfbench/run.py passes parallel=True for the
    # search-parallel workload; it goes with that workload (ROADMAP item 8)
    parallel: bool = False,
) -> Verdict:
    """Decide decisiveness.

    Runs the screens in cost order on the pattern's rows; only when none
    fires does it build the kernel (``reduction.reduce_pattern``, then
    ``reduction.fold_kernel``) and search it: the verdict reads "fpt" when
    the kernel has fewer rows than the pattern has taxa, "direct-search"
    when it is the input itself.
    ``search_cap`` is the guess budget of the search (see
    ``nrc.nrc4_guesses``); a search over it raises SizeLimitError before it
    starts.  Each verdict is logged at debug level with its stage, the
    pattern's size, the kernel's row count ("not built" when a screen
    decided) and the elapsed time.
    """
    verdict, kernel_rows = _decide(pattern, search_cap)
    log.debug(
        "decide: %s, n=%d, k=%d, kernel rows %s, %.6f s",
        verdict.decided_by,
        pattern.n,
        pattern.k,
        "not built" if kernel_rows is None else kernel_rows,
        verdict.stats["elapsed_s"],
    )
    return verdict


def _decide(
    pattern: CoveragePattern, search_cap: int
) -> tuple[Verdict, Optional[int]]:
    """The verdict, and the row count of the kernel if one was built."""
    start = time.perf_counter()

    def stats(**extra) -> dict:
        return {"elapsed_s": time.perf_counter() - start, **extra}

    n = pattern.n
    # no partition into four nonempty blocks exists, so the four-way
    # partition property holds vacuously
    if n <= 3:
        return Verdict(True, None, DECIDED_TRIVIAL_SMALL, stats()), None

    full = tuple(range(n))
    if any(members == full for _name, members in pattern.loci):
        return Verdict(True, None, DECIDED_FULL_LOCUS, stats()), None

    witness = reduction.zero_and_screen(pattern)
    if witness is not None:
        return _non_decisive(pattern, witness, DECIDED_TRIPLE_GAP, stats()), None

    # a taxon in every locus: with every triple covered, the rooted case is
    # decisive
    if reduction.full_row(pattern.rows, pattern.k) is not None:
        return Verdict(True, None, DECIDED_ROOTED, stats()), None

    ri = reduction.fold_kernel(reduction.reduce_pattern(pattern))
    outcome = reduction.kernel_nrc4(ri, search_cap)
    engine = DECIDED_FPT if ri.spares else DECIDED_DIRECT
    if outcome.found:
        verdict = _non_decisive(
            pattern, outcome.witness, engine, stats(rule=outcome.rule)
        )
    else:
        verdict = Verdict(True, None, engine, stats(rule=outcome.rule))
    return verdict, ri.n_reduced


def _remove_taxon(pattern: CoveragePattern, taxon: int) -> CoveragePattern:
    taxa = tuple(name for i, name in enumerate(pattern.taxa) if i != taxon)
    loci = []
    for name, members in pattern.loci:
        kept = tuple(i if i < taxon else i - 1 for i in members if i != taxon)
        if kept:
            loci.append((name, kept))
    return CoveragePattern(taxa, tuple(loci))


def decisive_subset(
    pattern: CoveragePattern,
    decider: Optional[Callable[[CoveragePattern], Verdict]] = None,
) -> SubsetTrace:
    """Greedily remove minimally covered taxa until the pattern is decisive.

    Ties break in favor of the first taxon in the input; loci emptied by a
    removal are dropped.  Terminates in at most n iterations (patterns with
    three or fewer taxa are decisive by convention).
    """
    if decider is None:
        decider = decide
    removals: list[tuple[str, int]] = []
    current = pattern
    while True:
        verdict = decider(current)
        if verdict.decisive:
            return SubsetTrace(tuple(removals), current.taxa, verdict)
        # a taxon's coverage is the number of loci in its incidence row
        counts = [row.bit_count() for row in current.rows]
        victim = counts.index(min(counts))
        removals.append((current.taxa[victim], counts[victim]))
        current = _remove_taxon(current, victim)
