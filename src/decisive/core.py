"""Coverage patterns, hypergraphs, colorings, and the rainbow-edge checker.

Taxa are identified by their position in the input order (0-based); names are
kept only for presentation.  All types here are immutable after construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InvalidInstanceError


@dataclass(frozen=True)
class CoveragePattern:
    """A taxon set plus, for each locus, the subset of taxa it covers."""

    taxa: tuple[str, ...]
    loci: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if len(set(self.taxa)) != len(self.taxa):
            raise InvalidInstanceError("duplicate taxon names")
        names = [name for name, _ in self.loci]
        if len(set(names)) != len(names):
            raise InvalidInstanceError("duplicate locus names")
        n = len(self.taxa)
        for name, members in self.loci:
            if not members:
                raise InvalidInstanceError(f"locus {name!r} covers no taxa")
            if not all(map(operator.lt, members, members[1:])):
                raise InvalidInstanceError(
                    f"locus {name!r} must be sorted with no duplicates"
                )
            if members[0] < 0 or members[-1] >= n:
                raise InvalidInstanceError(
                    f"locus {name!r} references a taxon index outside 0..{n - 1}"
                )

    @classmethod
    def from_sets(
        cls,
        taxa: Iterable[str],
        loci: Iterable[tuple[str, Iterable[int]]],
    ) -> "CoveragePattern":
        """Build a pattern, sorting and deduplicating each locus subset."""
        return cls(
            tuple(taxa),
            tuple((str(name), tuple(sorted(set(members)))) for name, members in loci),
        )

    @property
    def n(self) -> int:
        return len(self.taxa)

    @property
    def k(self) -> int:
        return len(self.loci)

    def locus_subsets(self) -> list[tuple[int, ...]]:
        return [members for _, members in self.loci]

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The incidence rows: bit j of ``rows[i]`` is set iff taxon i is in
        locus j.

        Built from the loci on first read and kept on the instance, outside
        the dataclass fields, so construction, equality, hashing and repr do
        not see it.  The matrix-csv parser, which has the rows as bits
        already, stores them here itself.
        """
        return tuple(incidence_rows(self.n, self.locus_subsets()))


@dataclass(frozen=True)
class Hypergraph:
    """Node set ``0..node_count-1`` with a deduplicated list of subset edges."""

    node_count: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise InvalidInstanceError("node_count must be positive")
        normalized = []
        seen = set()
        for edge in self.edges:
            e = tuple(edge)
            # loci of a CoveragePattern come sorted and duplicate-free
            if not all(map(operator.lt, e, e[1:])):
                e = tuple(sorted(set(e)))
            if not e:
                raise InvalidInstanceError("empty edge")
            if e[0] < 0 or e[-1] >= self.node_count:
                raise InvalidInstanceError(f"edge {e} has a node outside the node range")
            if e not in seen:
                seen.add(e)
                normalized.append(e)
        object.__setattr__(self, "edges", tuple(normalized))


@dataclass(frozen=True)
class Coloring:
    """Total assignment of colors in ``1..r``.

    Surjectivity is an invariant of *valid* witnesses and is checked by
    :func:`verify_no_rainbow`, not by the constructor, so that the checker can
    report non-surjectivity as a distinct failure.
    """

    r: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 1 or v > self.r for v in self.assignment):
            raise InvalidInstanceError("coloring value outside 1..r")

    def is_surjective(self) -> bool:
        return set(self.assignment) == set(range(1, self.r + 1))


@dataclass(frozen=True)
class ComponentPartition:
    """Connected-component id per node; ids are 0-based and contiguous, in
    the order of each component's lowest node (node 0 is in component 0)."""

    ids: tuple[int, ...]
    count: int


def build_hypergraph(pattern: CoveragePattern) -> Hypergraph:
    """The hypergraph whose nodes are the taxa and whose edges are the loci."""
    return Hypergraph(pattern.n, tuple(pattern.locus_subsets()))


def connected_components(h: Hypergraph) -> ComponentPartition:
    """Partition of the nodes into chain-connected classes, numbered in the
    order of their lowest nodes.

    Nodes that appear in no edge form singleton components.  A search from
    each unlabelled node expands every edge it meets once, so the cost is
    O(sum of the edge sizes).
    """
    edges_at: list[list[int]] = [[] for _ in range(h.node_count)]
    for j, edge in enumerate(h.edges):
        for v in edge:
            edges_at[v].append(j)
    expanded = [False] * len(h.edges)
    ids = [-1] * h.node_count
    count = 0
    for root in range(h.node_count):
        if ids[root] >= 0:
            continue
        ids[root] = count
        stack = [root]
        while stack:
            for j in edges_at[stack.pop()]:
                if not expanded[j]:
                    expanded[j] = True
                    for v in h.edges[j]:
                        if ids[v] < 0:
                            ids[v] = count
                            stack.append(v)
        count += 1
    return ComponentPartition(tuple(ids), count)


def is_rainbow(edge: Iterable[int], coloring: Coloring) -> bool:
    """True iff every color in ``1..r`` appears on at least one node of the edge."""
    seen = {coloring.assignment[v] for v in edge}
    return len(seen) == coloring.r and all(
        q in seen for q in range(1, coloring.r + 1)
    )


def no_rainbow_failure(h: Hypergraph, coloring: Coloring) -> Optional[str]:
    """Why ``coloring`` is not a no-rainbow coloring of ``h``, or None if it is.

    Non-surjectivity and rainbow edges are reported as distinct reasons.
    """
    if len(coloring.assignment) != h.node_count:
        return "coloring does not cover every node"
    if not coloring.is_surjective():
        missing = sorted(set(range(1, coloring.r + 1)) - set(coloring.assignment))
        return f"not surjective: color {missing[0]} unused"
    for idx, edge in enumerate(h.edges):
        if is_rainbow(edge, coloring):
            return f"rainbow edge {idx}: {edge}"
    return None


def incidence_rows(n: int, edges: Iterable[Iterable[int]]) -> list[int]:
    """The incidence rows of n nodes: bit j of row v is set iff v is in edge j."""
    rows = [0] * n
    for j, edge in enumerate(edges):
        bit = 1 << j
        for v in edge:
            rows[v] |= bit
    return rows


def uncovered_set(rows: Sequence[int], size: int) -> Optional[tuple[int, ...]]:
    """The lexicographically first ``size`` indices whose rows AND to 0.

    ``rows[i]`` is node i's incidence row (bit j set iff node i is in edge
    j), so the result is the first ``size``-set that no edge contains, or
    None.  Only the first ``size`` copies of each distinct row are scanned: a
    later copy can always be swapped for an earlier one missing from the set,
    which gives the same AND and a lexicographically smaller set.  The same
    swap shows that the first set is copy-closed: with the m-th copy of a row
    it holds the earlier copies too.  So a position joins a partial set only
    when the previous copy of its row is already in it: with c copies kept of
    each of d distinct rows, the outer levels range over about
    C(d + size - 2, size - 1) partial sets instead of C(c * d, size - 1).  The
    innermost level does not check, as the test would cost what it saves: the
    scan still reaches every copy-closed set in lexicographic order, so the
    first set it finds is the first of all.  The last two levels run inline,
    with no call per partial set of size - 2.
    """
    if size < 1:
        raise InvalidInstanceError(f"set size must be positive, got {size}")
    last: dict[int, int] = {}  # row -> kept position of its latest copy
    copies: dict[int, int] = {}
    keep: list[int] = []
    needs: list[int] = []  # bit of the kept position of the previous copy, or 0
    for i, row in enumerate(rows):
        count = copies.get(row, 0)
        if count < size:
            copies[row] = count + 1
            needs.append(1 << last[row] if count else 0)
            last[row] = len(keep)
            keep.append(i)
    return _first_zero_and([rows[i] for i in keep], keep, needs, 0, size, -1, 0)


def _first_zero_and(
    kept_rows: list[int],
    keep: list[int],
    needs: list[int],
    start: int,
    size: int,
    acc: int,
    chosen: int,
) -> Optional[tuple[int, ...]]:
    # the last two levels run inline: they run O(n^size) times
    end = len(keep)
    if size == 1:
        for p in range(start, end):
            if acc & kept_rows[p] == 0:
                return (keep[p],)
        return None
    missing = ~chosen
    if size == 2:
        for p in range(start, end - 1):
            if needs[p] & missing:
                continue  # the previous copy of this row is not in the set
            pair = acc & kept_rows[p]
            for q in range(p + 1, end):
                if pair & kept_rows[q] == 0:
                    return (keep[p], keep[q])
        return None
    for p in range(start, end - size + 1):
        if needs[p] & missing:
            continue
        rest = _first_zero_and(
            kept_rows, keep, needs, p + 1, size - 1,
            acc & kept_rows[p], chosen | 1 << p,
        )
        if rest is not None:
            return (keep[p],) + rest
    return None


def verify_no_rainbow(h: Hypergraph, coloring: Coloring) -> bool:
    """Certificate check: ``coloring`` is surjective and no edge is rainbow."""
    return no_rainbow_failure(h, coloring) is None
