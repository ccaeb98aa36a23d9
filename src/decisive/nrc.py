"""Exact no-rainbow coloring solvers.

2-NRC is polynomial (disconnection test).  3- and 4-NRC use bounded subset
enumeration: guess the rarest color class A (for 4-NRC also the second
rarest, B), then complete greedily via forced propagation.  4-NRC takes A by
size, then in lexicographic order, and B disjoint from A by size from |A| up,
in lexicographic order and with min A < min B when |A| = |B|; the
"lexicographically first" witness is the first in this order.  The
danger/propagation conditions are stated for edges of arbitrary size, not
just r-uniform ones, so the solvers are exact on the non-uniform hypergraphs
that coverage patterns produce:

* after classes 1..(r-2) are fixed, an edge can still become rainbow only if
  it touches every fixed class and has at least two uncolored nodes;
* an edge that already sees colors 1..(r-1) forces all of its uncolored nodes
  to color r-1, since color r inside it would complete a rainbow.

A link screen skips rarest classes that cannot complete.  If every
(r-1)-set of the nodes outside A lies in an edge that meets A, no guess with
that A completes: one node from each other class sits in such an edge, and
it is rainbow.  An edge that meets A meets every superset of A, so both
searches take A only from the "live" nodes, whose own link leaves some
(r-1)-set uncovered.  4-NRC also screens each larger A before its B guesses;
3-NRC makes one completion per A, which costs no more than the screen.  Only
guesses that cannot succeed are skipped, so the witness stays the same.

Witness soundness is always re-checkable with core.verify_no_rainbow.

An exhaustive search makes at most ``nrc3_guesses`` / ``nrc4_guesses``
guesses, counts that depend only on the node count; the screen may skip
some.  A search whose count exceeds the guess budget is refused before it
starts, even though a witness might turn up early.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from multiprocessing.connection import wait
from typing import Iterator, Optional, Sequence

from .core import Coloring, Hypergraph, connected_components, uncovered_set
from .errors import InvalidInstanceError, SizeLimitError

log = logging.getLogger(__name__)

# guesses an exhaustive search may make: nrc4 on 18 nodes makes 6.5e6, and
# on star_hypergraph(18, 4) took 27 s on a 2-core x86 VM
DEFAULT_SEARCH_CAP = 10**7
# A refusal states the exact guess count up to this many (or up to the
# budget, when that is larger).  Counting further is pointless, takes seconds
# for thousands of nodes, and from about 9,500 nodes gives a number with more
# digits than int -> str converts.
GUESS_COUNT_LIMIT = 10**18
# A parallel search runs in-process below this many guesses.  Starting and
# joining two worker processes costs 5-7 ms on a 2-core x86 VM.  At 7,480
# guesses (11 nodes), planted witnesses took 13-15 ms in-process against
# 14-20 ms in two workers, and star_hypergraph(11, 4) 31-35 ms against
# 27-31 ms; at 21,351 (12 nodes) the star took 103-118 ms against 71-81 ms
# (medians of 15, two sessions).
POOL_MIN_GUESSES = 20_000

RULE_COMPONENT_SPLIT = "component-split"
RULE_NON_NEIGHBOR = "non-neighbor"
RULE_SEARCH_3 = "search-3"
RULE_SEARCH_4 = "search-4"
RULE_EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class NrcOutcome:
    """Result of a no-rainbow search plus which procedure produced it."""

    witness: Optional[Coloring]
    rule: str

    @property
    def found(self) -> bool:
        return self.witness is not None


def nrc2(h: Hypergraph) -> NrcOutcome:
    """No-rainbow 2-coloring: exists iff the hypergraph is disconnected."""
    if h.node_count < 2:
        raise InvalidInstanceError("2-NRC needs at least 2 nodes")
    parts = connected_components(h)
    if parts.count < 2:
        return NrcOutcome(None, RULE_EXHAUSTED)
    first = parts.ids[0]
    colors = tuple(1 if cid == first else 2 for cid in parts.ids)
    return NrcOutcome(Coloring(2, colors), RULE_COMPONENT_SPLIT)


def non_neighbor_coloring(n: int, r: int, group: tuple[int, ...]) -> Coloring:
    """Distinct colors 1..|A| on the group, remaining colors cycled elsewhere."""
    assignment = [0] * n
    for idx, v in enumerate(group):
        assignment[v] = idx + 1
    spare_colors = r - len(group)
    others = [v for v in range(n) if assignment[v] == 0]
    for idx, v in enumerate(others):
        assignment[v] = len(group) + 1 + (idx % spare_colors)
    return Coloring(r, tuple(assignment))


def non_neighbor_witness(h: Hypergraph, r: int) -> Optional[Coloring]:
    """Witness from r - 1 nodes contained in no edge, if such a set exists.

    The first such set in index order gets distinct colors; any rainbow edge
    would have to contain the whole set, which no edge does.
    """
    n = h.node_count
    if n < r:
        raise InvalidInstanceError(f"need at least r={r} nodes, got {n}")
    if r < 3:
        return None  # sets of size 2..r-1 require r >= 3
    group = uncovered_set(_incidence_rows(n, h.edges), r - 1)
    return None if group is None else non_neighbor_coloring(n, r, group)


def _incidence_rows(n: int, edges: list[tuple[int, ...]]) -> list[int]:
    """Each node's incidence row: bit j set iff the node is in ``edges[j]``."""
    rows = [0] * n
    for j, edge in enumerate(edges):
        for v in edge:
            rows[v] |= 1 << j
    return rows


def _link_gap(
    rows: list[int], amask: int, meets: int, size: int
) -> Optional[tuple[int, int]]:
    """A ``size``-set outside A that no edge meeting A contains, or None.

    ``rows`` are the incidence rows and ``meets`` marks the edges that meet
    A.  The set comes back as its node mask and the mask of the edges that
    hold all of it: it is uncovered for any A that it misses and whose edges
    miss those.
    """
    # highest nodes first: the set then stays uncovered across more of the
    # guesses, which come in lexicographic order
    rest = [v for v in reversed(range(len(rows))) if not amask >> v & 1]
    found = uncovered_set([rows[v] & meets for v in rest], size)
    if found is None:
        return None
    nodes, common = 0, -1
    for p in found:
        nodes |= 1 << rest[p]
        common &= rows[rest[p]]
    return nodes, common


def _search_input(
    h: Hypergraph, r: int
) -> tuple[list[int], list[int], list[int]]:
    """The edges of r or more nodes as masks, each node's incidence row over
    them, and the live nodes: those whose own link leaves an (r-1)-set
    uncovered."""
    n = h.node_count
    kept = [j for j, e in enumerate(h.edges) if len(e) >= r]
    rows = _incidence_rows(n, [h.edges[j] for j in kept])
    live = [a for (a,), _ in _screened_guesses(rows, range(n), r - 1, 1)]
    log.debug("%d-NRC search: %d of %d nodes pass the link screen",
              r, len(live), n)
    return [h.edge_masks[j] for j in kept], rows, live


def _screened_guesses(
    rows: list[int], live: Sequence[int], size: int, most: int,
    stride: int = 1, offset: int = 0,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Rarest-class guesses A of 1..``most`` live nodes, by size and then
    lexicographically, every stride-th from ``offset`` on, as the tuple of
    A's nodes and A's mask.  Skipped is every A whose link leaves no
    ``size``-set uncovered."""
    guesses = chain.from_iterable(
        combinations(live, i) for i in range(1, most + 1)
    )
    # the uncovered sets found so far: one usually serves the next A, which
    # saves its scan (star_hypergraph(12, 4) needs 16 scans for 298 A's; it
    # needed 134 when only the last set was kept)
    gaps: list[tuple[int, int]] = []
    for a in islice(guesses, offset, None, stride):
        amask = meets = 0
        for v in a:
            amask |= 1 << v
            meets |= rows[v]
        if not any(not (nodes & amask or common & meets)
                   for nodes, common in reversed(gaps)):
            gap = _link_gap(rows, amask, meets, size)
            if gap is None:
                continue
            gaps.append(gap)
        yield a, amask


def _complete(
    edges: list[int], last: int, uncolored: int
) -> Optional[tuple[int, int]]:
    """Split ``uncolored`` into the classes of the last two colors, or None.

    ``edges`` meet every fixed class but ``last``, the last guessed one; an
    edge that misses ``last`` can never be rainbow and is skipped.  The first
    other edge with two or more uncolored nodes must keep them in one color,
    say r-1.  Any edge that then meets color r-1 forces its uncolored nodes
    to r-1 too, since color r inside it would complete a rainbow.  The flood's
    fixpoint is the least class r-1; the guess fails if no node is left for r.
    """
    for emask in edges:
        forced = emask & uncolored
        if emask & last and forced & (forced - 1):
            break
    else:
        # nothing can become rainbow: split the rest into two nonempty classes
        first = uncolored & -uncolored
        return first, uncolored & ~first
    # the forced nodes leave ``uncolored`` when the sweep reaches their edge
    changed = True
    while changed:
        changed = False
        for emask in edges:
            if emask & forced and emask & uncolored and emask & last:
                forced |= emask & uncolored
                uncolored &= ~emask
                if not uncolored:
                    return None  # the last color would go unused
                changed = True
    return forced, uncolored


def nrc3_guesses(n: int, limit: Optional[int] = None) -> int:
    """Number of A guesses an exhaustive ``nrc3`` makes on n nodes, at most.

    With ``limit``, counting stops once the total passes it, and any count
    over ``limit`` comes back as ``limit + 1``.
    """
    total = 0
    for i in range(1, n // 3 + 1):
        total += comb(n, i)
        if limit is not None and total > limit:
            return limit + 1
    return total


def nrc4_guesses(n: int, limit: Optional[int] = None) -> int:
    """Number of (A, B) guesses an exhaustive ``nrc4`` makes on n nodes, at
    most.

    |A| = i runs over 1..n//4 and |B| = j over i..(n-i)//3.  When j = i,
    exactly one of (A, B) and (B, A) has min A < min B, so half of the
    C(n, i) * C(n-i, i) disjoint pairs are guessed.  With ``limit``, counting
    stops once the total passes it, and any count over ``limit`` comes back
    as ``limit + 1``.
    """
    total = 0
    for i in range(1, n // 4 + 1):
        rest = n - i
        b_count = comb(rest, i)
        total += comb(n, i) * b_count // 2
        larger = 0
        for j in range(i + 1, rest // 3 + 1):
            b_count = b_count * (rest - j + 1) // j  # C(rest, j), running
            larger += b_count
            if limit is not None and total + larger > limit:
                return limit + 1
        total += comb(n, i) * larger
        if limit is not None and total > limit:
            return limit + 1
    return total


_GUESS_COUNTS = {3: nrc3_guesses, 4: nrc4_guesses}


def check_budget(r: int, n: int, guess_cap: int, subject: str) -> int:
    """Guesses of an unscreened r-NRC search on n nodes; a search of more
    than ``guess_cap`` is refused.

    The count stops at ``max(guess_cap, GUESS_COUNT_LIMIT)``; a refusal past
    that names the bound instead of the count.
    """
    limit = max(guess_cap, GUESS_COUNT_LIMIT)
    guesses = _GUESS_COUNTS[r](n, limit)
    if guesses > guess_cap:
        count = f"more than {limit}" if guesses > limit else str(guesses)
        raise SizeLimitError(
            f"{r}-NRC search refused: {subject}; an exhaustive search makes "
            f"{count} guesses, over the budget of {guess_cap}"
        )
    return guesses


def _announce(r: int, n: int, guess_cap: int) -> int:
    """Refuse a search over the budget, else log its estimate; returns the
    guess count."""
    guesses = check_budget(r, n, guess_cap, f"the hypergraph has {n} nodes")
    log.debug(
        "%d-NRC search: %d nodes, at most %d guesses, budget %d",
        r, n, guesses, guess_cap,
    )
    return guesses


def _coloring_from_masks(n: int, class_masks: list[int]) -> Coloring:
    assignment = [0] * n
    for color, mask in enumerate(class_masks, start=1):
        while mask:
            v = (mask & -mask).bit_length() - 1
            assignment[v] = color
            mask &= mask - 1
    return Coloring(len(class_masks), tuple(assignment))


def nrc3(h: Hypergraph, guess_cap: int = DEFAULT_SEARCH_CAP) -> NrcOutcome:
    """Exact 3-NRC by enumerating the rarest color class."""
    n = h.node_count
    if n < 3:
        raise InvalidInstanceError("3-NRC needs at least 3 nodes")
    _announce(3, n, guess_cap)
    edge_masks, rows, live = _search_input(h, 3)
    full_mask = (1 << n) - 1
    for i in range(1, n // 3 + 1):
        for a in combinations(live, i):
            amask = sum(1 << v for v in a)
            split = _complete(edge_masks, amask, full_mask ^ amask)
            if split is not None:
                return NrcOutcome(
                    _coloring_from_masks(n, [amask, *split]), RULE_SEARCH_3
                )
    return NrcOutcome(None, RULE_EXHAUSTED)


def _nrc4_scan(
    edge_masks: list[int], rows: list[int], live: list[int],
    stride: int = 1, offset: int = 0,
) -> Optional[list[int]]:
    """Scan (A, B) guesses in enumeration order, for each A that passes the
    link screen, listing the edges that meet A once per A; with a stride,
    only every stride-th A of the live nodes from offset on."""
    n = len(rows)
    bits = [1 << v for v in range(n)]
    for a, amask in _screened_guesses(rows, live, 3, n // 4, stride, offset):
        i = len(a)
        edges_a = [e for e in edge_masks if e & amask]
        rest = [b for b in bits if not b & amask]
        above = [b for b in rest if b > amask & -amask]
        rest_mask = sum(rest)
        for j in range(i, (n - i) // 3 + 1):
            for bcombo in combinations(above if j == i else rest, j):
                bmask = sum(bcombo)
                split = _complete(edges_a, bmask, rest_mask ^ bmask)
                if split is not None:
                    return [amask, bmask, *split]
    return None


def nrc4(
    h: Hypergraph, guess_cap: int = DEFAULT_SEARCH_CAP, parallel: bool = False
) -> NrcOutcome:
    """Exact 4-NRC by enumerating the two rarest color classes.

    Sequential mode returns the lexicographically first witness in the order
    of the module docstring (|A| <= |B|, min A < min B on ties); parallel
    mode returns the first witness a worker process reports, and then
    terminates the other workers.  Both give the same existence verdict.  A
    search of fewer than POOL_MIN_GUESSES guesses runs in-process even when
    parallel.
    """
    n = h.node_count
    if n < 4:
        raise InvalidInstanceError("4-NRC needs at least 4 nodes")
    guesses = _announce(4, n, guess_cap)
    scan_input = _search_input(h, 4)
    if parallel and guesses >= POOL_MIN_GUESSES:
        classes = _nrc4_parallel(*scan_input)
    else:
        classes = _nrc4_scan(*scan_input)
    if classes is None:
        return NrcOutcome(None, RULE_EXHAUSTED)
    return NrcOutcome(_coloring_from_masks(n, classes), RULE_SEARCH_4)


def _nrc4_parallel(
    edge_masks: list[int], rows: list[int], live: list[int]
) -> Optional[list[int]]:
    """The sequential scan split by A over one process per core (at most 8).

    Worker w scans every A whose position is w modulo the worker count and
    sends its result down a pipe of its own.  The first witness received
    ends the search, and the workers still scanning are terminated.  No
    worker shares a lock, so terminating one in mid-send blocks nothing; a
    pool's shared result queue would stay locked, and its shutdown hang.
    """
    count = min(os.cpu_count() or 1, 8)
    if count <= 1:
        return _nrc4_scan(edge_masks, rows, live)
    workers, results = [], []
    try:
        for offset in range(count):
            receive, send = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(
                target=_send_scan,
                args=(send, edge_masks, rows, live, count, offset),
            )
            worker.start()
            workers.append(worker)
            send.close()  # so a worker that dies unheard reads as EOF
            results.append(receive)
        while results:
            for receive in wait(results):
                results.remove(receive)
                classes = receive.recv()
                if classes is not None:
                    return classes
        return None
    finally:
        for worker in workers:
            worker.terminate()
            worker.join()


def _send_scan(send, *scan_args):
    """One worker of the parallel scan: its result goes down ``send``."""
    send.send(_nrc4_scan(*scan_args))


def nrc(
    h: Hypergraph,
    r: int,
    guess_cap: int = DEFAULT_SEARCH_CAP,
    parallel: bool = False,
) -> NrcOutcome:
    """Dispatch to the r-specific solver, trying the non-neighbor fast path first."""
    if r not in (2, 3, 4):
        raise InvalidInstanceError(f"r must be 2, 3, or 4, got {r}")
    if h.node_count < r:
        raise InvalidInstanceError(
            f"no surjective {r}-coloring of {h.node_count} nodes exists"
        )
    if r == 2:
        return nrc2(h)
    witness = non_neighbor_witness(h, r)
    if witness is not None:
        return NrcOutcome(witness, RULE_NON_NEIGHBOR)
    if r == 3:
        return nrc3(h, guess_cap)
    return nrc4(h, guess_cap, parallel)
