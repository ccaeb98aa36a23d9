"""Coverage lower bounds, necessary-condition screens, and tight instances.

The central quantity is the minimum number of edges an n-node r-uniform
hypergraph needs before it can block every no-rainbow r-coloring; it satisfies
the recurrence A(n,r) = A(n-1,r-1) + A(n-1,r) and equals C(n-1, r-1).  A
decisive pattern must therefore contain at least C(n-1,3) covered quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .core import CoveragePattern, Hypergraph, uncovered_set
from .errors import InvalidInstanceError, SizeLimitError
from .reduction import full_row

# quadruple counting: inclusion-exclusion up to this many loci, else direct
# enumeration of at most this many containment tests
IE_MAX_LOCI = 20
ENUM_WORK_CAP = 50_000_000


@dataclass(frozen=True)
class BoundReport:
    """Summary of the polynomial screens for one coverage pattern."""

    n: int
    k: int
    quadruple_count: int
    threshold: int  # C(n-1, 3)
    triple_coverage_ok: bool
    first_uncovered_triple: Optional[tuple[int, int, int]]
    rooted: bool
    common_taxon: Optional[int]  # the first taxon in every locus


def a_recurrence(n: int, r: int) -> int:
    """Minimum blocking edge count, by the recurrence; exact integers.

    Iterated row by row over m = 1..n: ``row[s]`` holds A(m, s) for
    s = 1..min(m, r), with A(m, 1) = A(m, m) = 1.
    """
    if r < 1 or n < r:
        raise InvalidInstanceError(f"need n >= r >= 1, got n={n}, r={r}")
    row = [0, 1]  # A(1, 1); index 0 unused
    for m in range(2, n + 1):
        top = min(m, r)
        row = [0, 1] + [
            1 if s == m else row[s - 1] + row[s] for s in range(2, top + 1)
        ]
    return row[r]


def a_closed(n: int, r: int) -> int:
    """Minimum blocking edge count, closed form C(n-1, r-1)."""
    if r < 1 or n < r:
        raise InvalidInstanceError(f"need n >= r >= 1, got n={n}, r={r}")
    return comb(n - 1, r - 1)


def _locus_masks(pattern: CoveragePattern) -> list[int]:
    return [
        sum(1 << i for i in members) for _name, members in pattern.loci
    ]


def count_quadruples(pattern: CoveragePattern) -> int:
    """Number of 4-element taxon subsets contained in at least one locus.

    Uses inclusion-exclusion over locus subsets when k <= IE_MAX_LOCI,
    otherwise enumerates quadruples directly (refused above ENUM_WORK_CAP).
    """
    n, k = pattern.n, pattern.k
    if n < 4:
        raise InvalidInstanceError("quadruple counting needs at least 4 taxa")
    if k <= IE_MAX_LOCI:
        masks = _locus_masks(pattern)
        total = 0
        for t in range(1, 1 << k):
            inter = (1 << n) - 1
            bits = t
            while bits:
                j = (bits & -bits).bit_length() - 1
                inter &= masks[j]
                bits &= bits - 1
            term = comb(inter.bit_count(), 4)
            total += term if t.bit_count() % 2 == 1 else -term
        return total
    work = comb(n, 4) * k
    if work > ENUM_WORK_CAP:
        raise SizeLimitError(
            f"direct quadruple enumeration needs ~{work} containment tests, "
            f"cap is {ENUM_WORK_CAP}"
        )
    rows = pattern.rows
    return sum(
        1
        for quad in combinations(range(n), 4)
        if rows[quad[0]] & rows[quad[1]] & rows[quad[2]] & rows[quad[3]]
    )


def lower_bound_screen(pattern: CoveragePattern) -> bool:
    """True iff the quadruple count already proves non-decisiveness.

    The bound is necessary, not sufficient: False says nothing.
    """
    return count_quadruples(pattern) < comb(pattern.n - 1, 3)


def triple_coverage(
    pattern: CoveragePattern,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether every 3-subset of taxa lies inside some locus.

    Returns the lexicographically first uncovered triple on failure; that
    triple is a non-neighbor set and yields a non-decisiveness witness.
    """
    if pattern.n < 3:
        raise InvalidInstanceError("triple coverage needs at least 3 taxa")
    gap = uncovered_set(pattern.rows, 3)
    return gap is None, gap


def rooted_decide(pattern: CoveragePattern) -> Optional[bool]:
    """Exact polynomial answer for rooted patterns; None when inapplicable.

    When some taxon appears in every locus, the pattern is decisive iff every
    triple of taxa is covered by some locus.
    """
    if pattern.n < 4:
        raise InvalidInstanceError("rooted test needs at least 4 taxa")
    rows = pattern.rows
    if full_row(rows, pattern.k) is None:
        return None
    return uncovered_set(rows, 3) is None


def bound_report(pattern: CoveragePattern) -> BoundReport:
    """Every screen of this module, on one incidence matrix."""
    if pattern.n < 4:
        raise InvalidInstanceError("the bound report needs at least 4 taxa")
    rows = pattern.rows
    uncovered = uncovered_set(rows, 3)
    root = full_row(rows, pattern.k)
    return BoundReport(
        n=pattern.n,
        k=pattern.k,
        quadruple_count=count_quadruples(pattern),
        threshold=comb(pattern.n - 1, 3),
        triple_coverage_ok=uncovered is None,
        first_uncovered_triple=uncovered,
        rooted=root is not None,
        common_taxon=root,
    )


def star_hypergraph(n: int, r: int) -> Hypergraph:
    """An n-node r-uniform hypergraph with exactly C(n-1,r-1) edges and no
    no-rainbow r-coloring.

    The recurrence takes the edges through node 0 of the (n-1, r-1) instance
    on nodes 1..n-1, then the (n-1, r) instance on the same nodes, down to
    r = 1 (the first node) or n = r (every node).  Unrolled, each step puts
    its first node into the edge or passes it by, and the last step, at
    r = 1, takes the node just after the last one put in.  So the edges are
    c + (c[-1] + 1,) for each (r-1)-subset c of nodes 0..n-2, and putting a
    node in before passing it by lists the c's in ``combinations`` order.
    Built that way, the construction needs no recursion depth.
    """
    if r < 2 or n <= r:
        raise InvalidInstanceError(f"need n > r >= 2, got n={n}, r={r}")
    edges = tuple(c + (c[-1] + 1,) for c in combinations(range(n - 1), r - 1))
    assert len(edges) == a_closed(n, r)
    return Hypergraph(n, edges)
