"""Coverage lower bounds, necessary-condition screens, and tight instances.

The central quantity is the minimum number of edges an n-node r-uniform
hypergraph needs before it can block every no-rainbow r-coloring; it satisfies
the recurrence A(n,r) = A(n-1,r-1) + A(n-1,r) and equals C(n-1, r-1).  A
decisive pattern must therefore contain at least C(n-1,3) covered quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

from .core import CoveragePattern, Hypergraph, uncovered_set
from .errors import InvalidInstanceError, SizeLimitError
from .reduction import incidence_matrix

DEFAULT_IE_MAX_LOCI = 20
DEFAULT_ENUM_WORK_CAP = 50_000_000


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
    common_taxon: Optional[int]


def a_recurrence(n: int, r: int) -> int:
    """Minimum blocking edge count, by the recurrence; exact integers."""
    if r < 1 or n < r:
        raise InvalidInstanceError(f"need n >= r >= 1, got n={n}, r={r}")

    @lru_cache(maxsize=None)
    def rec(m: int, s: int) -> int:
        if s == 1 or m == s:
            return 1
        return rec(m - 1, s - 1) + rec(m - 1, s)

    return rec(n, r)


def a_closed(n: int, r: int) -> int:
    """Minimum blocking edge count, closed form C(n-1, r-1)."""
    if r < 1 or n < r:
        raise InvalidInstanceError(f"need n >= r >= 1, got n={n}, r={r}")
    return comb(n - 1, r - 1)


def _locus_masks(pattern: CoveragePattern) -> list[int]:
    return [
        sum(1 << i for i in members) for _name, members in pattern.loci
    ]


def count_quadruples(
    pattern: CoveragePattern,
    ie_max_loci: int = DEFAULT_IE_MAX_LOCI,
    work_cap: int = DEFAULT_ENUM_WORK_CAP,
) -> int:
    """Number of 4-element taxon subsets contained in at least one locus.

    Uses inclusion-exclusion over locus subsets when k is small, otherwise
    enumerates quadruples directly (refused above the work cap).
    """
    rows = incidence_matrix(pattern).rows
    return _count_quadruples(pattern, rows, ie_max_loci, work_cap)


def _count_quadruples(
    pattern: CoveragePattern,
    rows: tuple[int, ...],
    ie_max_loci: int = DEFAULT_IE_MAX_LOCI,
    work_cap: int = DEFAULT_ENUM_WORK_CAP,
) -> int:
    n, k = pattern.n, pattern.k
    if n < 4:
        raise InvalidInstanceError("quadruple counting needs at least 4 taxa")
    if k <= ie_max_loci:
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
    if work > work_cap:
        raise SizeLimitError(
            f"direct quadruple enumeration needs ~{work} containment tests, "
            f"cap is {work_cap}"
        )
    return sum(
        1
        for quad in combinations(range(n), 4)
        if rows[quad[0]] & rows[quad[1]] & rows[quad[2]] & rows[quad[3]]
    )


def lower_bound_screen(
    pattern: CoveragePattern,
    ie_max_loci: int = DEFAULT_IE_MAX_LOCI,
    work_cap: int = DEFAULT_ENUM_WORK_CAP,
) -> bool:
    """True iff the quadruple count already proves non-decisiveness.

    The bound is necessary, not sufficient: False says nothing.
    """
    return count_quadruples(pattern, ie_max_loci, work_cap) < comb(pattern.n - 1, 3)


def triple_coverage(
    pattern: CoveragePattern,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether every 3-subset of taxa lies inside some locus.

    Returns the lexicographically first uncovered triple on failure; that
    triple is a non-neighbor set and yields a non-decisiveness witness.
    """
    if pattern.n < 3:
        raise InvalidInstanceError("triple coverage needs at least 3 taxa")
    gap = uncovered_set(incidence_matrix(pattern).rows, 3)
    return gap is None, gap


def common_taxon(pattern: CoveragePattern) -> Optional[int]:
    """A taxon covered by every locus, if one exists (smallest index)."""
    return _full_row(incidence_matrix(pattern).rows, pattern.k)


def _full_row(rows: tuple[int, ...], k: int) -> Optional[int]:
    return rows.index((1 << k) - 1) if (1 << k) - 1 in rows else None


def rooted_decide(pattern: CoveragePattern) -> Optional[bool]:
    """Exact polynomial answer for rooted patterns; None when inapplicable.

    When some taxon appears in every locus, the pattern is decisive iff every
    triple of taxa is covered by some locus.
    """
    if pattern.n < 4:
        raise InvalidInstanceError("rooted test needs at least 4 taxa")
    rows = incidence_matrix(pattern).rows
    if _full_row(rows, pattern.k) is None:
        return None
    return uncovered_set(rows, 3) is None


def bound_report(pattern: CoveragePattern) -> BoundReport:
    """Every screen of this module, on one incidence matrix."""
    if pattern.n < 3:
        raise InvalidInstanceError("triple coverage needs at least 3 taxa")
    rows = incidence_matrix(pattern).rows
    uncovered = uncovered_set(rows, 3)
    root = _full_row(rows, pattern.k)
    return BoundReport(
        n=pattern.n,
        k=pattern.k,
        quadruple_count=_count_quadruples(pattern, rows),
        threshold=comb(pattern.n - 1, 3),
        triple_coverage_ok=uncovered is None,
        first_uncovered_triple=uncovered,
        rooted=root is not None,
        common_taxon=root,
    )


def _tight_edges(nodes: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    if r == 1:
        return [(nodes[0],)]
    if len(nodes) == r:
        return [tuple(nodes)]
    head, rest = nodes[0], nodes[1:]
    through = [tuple(sorted((head,) + e)) for e in _tight_edges(rest, r - 1)]
    return through + _tight_edges(rest, r)


def star_hypergraph(n: int, r: int) -> Hypergraph:
    """An n-node r-uniform hypergraph with exactly C(n-1,r-1) edges and no
    no-rainbow r-coloring.

    Built by the recurrence: edges through a distinguished node from the
    (n-1, r-1) instance, plus the (n-1, r) instance on the remaining nodes.
    """
    if r < 2 or n <= r:
        raise InvalidInstanceError(f"need n > r >= 2, got n={n}, r={r}")
    edges = _tight_edges(tuple(range(n)), r)
    assert len(edges) == a_closed(n, r)
    return Hypergraph(n, tuple(edges))
