"""Exact no-rainbow coloring solvers.

2-NRC is polynomial (disconnection test).  3- and 4-NRC use bounded subset
enumeration: guess the rarest color class A (for 4-NRC also the second
rarest, B), then complete with a 2-NRC test on the rest.  4-NRC takes A by
size, then in lexicographic order, and B disjoint from A by size from |A| up,
in lexicographic order and with min A < min B when |A| = |B|; the
"lexicographically first" witness is the first in this order.  The
completion is stated for edges of arbitrary size, not just r-uniform ones,
so the solvers are exact on the non-uniform hypergraphs that coverage
patterns produce:

* after classes 1..(r-2) are fixed, an edge can still become rainbow only if
  it meets every fixed class, and it then is rainbow exactly when it holds
  nodes of both remaining colors;
* so the guess completes iff the uncolored nodes are disconnected under
  those edges.  Class r-1 is the component of the lowest uncolored node, and
  class r the other uncolored nodes.  The component grows node by node, each
  node's incidence row tested against the edges the component meets, so a
  guess costs a few passes over the nodes, whatever the edge count.

A link screen skips rarest classes that cannot complete.  If every
(r-1)-set of the nodes outside A lies in an edge that meets A, no guess with
that A completes: one node from each other class sits in such an edge, and
it is rainbow.  An edge that meets A meets every superset of A, so both
searches take A only from the "live" nodes, whose own link leaves some
(r-1)-set uncovered.  3-NRC screens nothing else: it makes one completion
per A, which costs no more than a screen.  4-NRC screens each A before its
B guesses with a stronger rule: every node outside A must lie in a triple
outside A that no edge meeting A contains.  In a witness, a node outside A
and one node of each of the two other classes besides its own form such a
triple, since an edge meeting A that held it would be rainbow.  This rule
does not pass to supersets of A (a superset may hold the node that failed),
so it never decides which nodes are live.  Only guesses that cannot succeed
are skipped, so the witness stays the same.

``nrc4_rows`` searches incidence rows: ``nrc4`` passes it a hypergraph's,
``reduction.kernel_nrc4`` a kernel's as they are.  A kernel search thus
counts its guesses once and runs no non-neighbor scan, which would find
nothing: each kernel row is a taxon, and every triple of taxa is covered.

A parallel 4-NRC search runs the same scan in-process for up to
``SLICE_UNITS`` units of work, one per A examined and one per completion, so
a witness it finds there is the sequential one.  A search that outlasts the
slice hands the A's left to worker processes, which take them in turn by
position.  The screen facts that the slice found go with them.

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
from typing import Optional, Sequence

from .core import (Coloring, Hypergraph, connected_components, incidence_rows,
                   uncovered_set)
from .errors import InvalidInstanceError, SizeLimitError

log = logging.getLogger(__name__)

# guesses an exhaustive search may make: nrc4 on 18 nodes makes 6.5e6; on
# star_hypergraph(18, 4) it took 13-18 s of CPU, median 14.6, on a 2-core VM
DEFAULT_SEARCH_CAP = 10**7
# A refusal states the exact guess count up to this many (or up to the
# budget, when that is larger).  Counting further is pointless, takes seconds
# for thousands of nodes, and from about 9,500 nodes gives a number with more
# digits than int -> str converts.
GUESS_COUNT_LIMIT = 10**18
# A parallel search scans in-process, in enumeration order, for up to this
# many units of work: one per rarest class A examined and one per completion
# tested.  It stops before an A whose completions could take it past them,
# and only then starts worker processes for the rest.
# On a 2-core x86 VM a unit takes 2.0-2.5 us, so the slice lasts 31-37 ms
# (star_hypergraph(13, 4) and (14, 4), medians of 15), five to seven times
# the 4.6-6.7 ms that starting and joining two workers costs.  The search-
# direct benchmark instances all stay in-process: the exhaustive 12-node star
# spends 11,742 units, a planted 10-12-node witness 42-179.  The 13-node star
# hands off at 14,913 units, and any longer search pays about half a slice
# for it, the part two workers would have shared; the 16-node star, whose
# single-node A's make some 5,000 completions each, hands off at 14,829.
SLICE_UNITS = 15_000

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
    colors = tuple(2 if cid else 1 for cid in parts.ids)
    return NrcOutcome(Coloring(2, colors), RULE_COMPONENT_SPLIT)


def non_neighbor_coloring(n: int, group: tuple[int, ...]) -> Coloring:
    """An r-coloring with r = |group| + 1: distinct colors 1..r - 1 on the
    group, color r on every other node."""
    r = len(group) + 1
    assignment = [r] * n
    for color, v in enumerate(group, start=1):
        assignment[v] = color
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
    group = uncovered_set(incidence_rows(n, h.edges), r - 1)
    return None if group is None else non_neighbor_coloring(n, group)


def _link_gap(
    rows: Sequence[int], amask: int, meets: int, size: int
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


# The rows may hold edges of fewer than r nodes.  Those are inert in the
# search: an edge that meets A and holds an (r-1)-set outside A, or that
# meets every guessed class and holds two uncolored nodes, has r or more.
def _live(rows: Sequence[int], r: int) -> list[int]:
    """The live nodes of an r-NRC search over these incidence rows: those
    whose own link leaves an (r-1)-set uncovered."""
    n = len(rows)
    live = [a for a in range(n)
            if _link_gap(rows, 1 << a, rows[a], r - 1) is not None]
    log.debug("%d-NRC search: %d of %d nodes pass the link screen",
              r, len(live), n)
    return live


def _link_admits(
    rows: Sequence[int], amask: int, meets: int,
    triples: list[tuple[int, int]], dead: list[tuple[int, int]],
) -> bool:
    """Whether every node outside A lies in a triple outside A that no edge
    meeting A contains; ``meets`` marks the edges that meet A.

    Two lists carry what earlier calls found.  ``triples`` holds each
    triple found as its node mask and the mask of the edges that hold all
    three; it serves every A that it misses and whose edges miss its own.
    ``dead`` holds (A, node) for each node found in no such triple; the node
    is in none for a superset of A that leaves it out either, since that has
    fewer triples and more edges.  Only the nodes that no kept triple covers
    are scanned, and the scan stops at the first one in no triple.
    """
    for dmask, bit in dead:
        if not (dmask & ~amask or bit & amask):
            return False
    left = (1 << len(rows)) - 1 ^ amask
    for nodes, common in triples:
        if not (nodes & amask or common & meets):
            left &= ~nodes
    while left:
        v = left.bit_length() - 1
        bit = 1 << v
        pair = _link_gap(rows, amask | bit, meets & rows[v], 2)
        if pair is None:
            dead.append((amask, bit))
            return False
        nodes = pair[0] | bit
        triples.append((nodes, pair[1] & rows[v]))
        left &= ~nodes
    return True


def _complete(
    rest: dict[int, int], reach: int, uncolored: int
) -> Optional[tuple[int, int]]:
    """Split ``uncolored`` into the classes of the last two colors, or None.

    ``rest`` maps nodes, as bits, to their incidence rows and holds every
    node of ``uncolored``; ``reach`` marks the edges that meet every guessed
    class.  Only those edges can become rainbow, and one does exactly when it
    holds nodes of both last colors, so each component of ``uncolored`` under
    them takes a single color.  Class r-1 is the component of the lowest
    uncolored node, grown by testing each node's row against the edges the
    component meets until a pass adds nothing; the guess fails if it covers
    ``uncolored``.
    """
    low = uncolored & -uncolored
    left = uncolored ^ low
    edges = rest[low] & reach
    while left:
        before = left
        for bit, row in rest.items():
            if bit & left and row & edges:
                left ^= bit
                edges |= row & reach
        if left == before:
            return uncolored ^ left, left
    return None  # the last color would go unused


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
    than ``guess_cap`` is refused, else its estimate is logged.

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
    check_budget(3, n, guess_cap, f"the hypergraph has {n} nodes")
    rows = incidence_rows(n, h.edges)
    live = _live(rows, 3)
    nodes = {1 << v: row for v, row in enumerate(rows)}
    full_mask = (1 << n) - 1
    for i in range(1, n // 3 + 1):
        for a in combinations(live, i):
            amask = meets = 0
            for v in a:
                amask |= 1 << v
                meets |= rows[v]
            split = _complete(nodes, meets, full_mask ^ amask)
            if split is not None:
                return NrcOutcome(
                    _coloring_from_masks(n, [amask, *split]), RULE_SEARCH_3
                )
    return NrcOutcome(None, RULE_EXHAUSTED)


class _SliceSpent(Exception):
    """A budgeted scan spent its budget.  The arguments are the position of
    the first A that it left unscanned and the units it spent."""


def _nrc4_scan(
    rows: Sequence[int],
    live: list[int],
    start: int = 0,
    stride: int = 1,
    facts: Optional[tuple[list, list]] = None,
    budget: Optional[int] = None,
) -> Optional[list[int]]:
    """Scan (A, B) guesses in enumeration order, for each A that passes the
    link screen (``_link_admits``: every node outside A lies in a triple that
    A's link leaves uncovered); with a stride, only every stride-th A of the
    live nodes from position ``start`` on.  The triples and failed nodes
    found for one A are kept for the next, in the two lists of ``facts``
    when given.

    Per A, each node outside A is paired with its row masked to the edges
    that meet A; per B, the OR of B's rows marks the edges that meet A and
    B, and ``_complete`` tests whether the other nodes split under them.
    Class 3 of a witness is the component of the lowest node outside A and
    B.

    With a budget, the scan counts one unit per A it examines and one per
    completion, and raises ``_SliceSpent`` at the first A that could take it
    past the budget: one whose completions would, if the screen passed it.
    """
    n = len(rows)
    guesses = chain.from_iterable(
        combinations(live, i) for i in range(1, n // 4 + 1)
    )
    triples, dead = ([], []) if facts is None else facts
    spent = 0
    for k, a in enumerate(islice(guesses, start, None, stride)):
        i = len(a)
        b_sizes = range(i, (n - i) // 3 + 1)
        if budget is not None:
            # a B of |A| nodes lies above min A, so n - min A - |A| choices
            cost = 1 + sum(comb(n - a[0] - i if j == i else n - i, j)
                           for j in b_sizes)
            if spent + cost > budget:
                raise _SliceSpent(start + k * stride, spent)
            spent += 1
        amask = meets = 0
        for v in a:
            amask |= 1 << v
            meets |= rows[v]
        if not _link_admits(rows, amask, meets, triples, dead):
            continue
        if budget is not None:
            spent += cost - 1
        rest = {1 << v: rows[v] & meets for v in range(n) if not amask >> v & 1}
        above = [b for b in rest if b > amask & -amask]
        rest_mask = sum(rest)
        for j in b_sizes:
            for bcombo in combinations(above if j == i else rest, j):
                bmask = reach = 0
                for b in bcombo:
                    bmask |= b
                    reach |= rest[b]
                split = _complete(rest, reach, rest_mask ^ bmask)
                if split is not None:
                    return [amask, bmask, *split]
    return None


def nrc4(
    h: Hypergraph, guess_cap: int = DEFAULT_SEARCH_CAP, parallel: bool = False
) -> NrcOutcome:
    """Exact 4-NRC by enumerating the two rarest color classes.

    Sequential mode returns the lexicographically first witness in the order
    of the module docstring (|A| <= |B|, min A < min B on ties).  Parallel
    mode scans in that order in-process for up to SLICE_UNITS units of work
    and returns the same witness if it finds one there; past the slice it
    returns the first witness a worker process reports, and then terminates
    the other workers.  Both modes give the same existence verdict.
    """
    n = h.node_count
    if n < 4:
        raise InvalidInstanceError("4-NRC needs at least 4 nodes")
    subject = f"the hypergraph has {n} nodes"
    return nrc4_rows(incidence_rows(n, h.edges), guess_cap, parallel, subject)


def nrc4_rows(
    rows: Sequence[int], guess_cap: int, parallel: bool, subject: str
) -> NrcOutcome:
    """``nrc4`` on the nodes whose incidence rows these are, 4 or more; a
    refusal names ``subject``."""
    n = len(rows)
    check_budget(4, n, guess_cap, subject)
    live = _live(rows, 4)
    classes = _nrc4_parallel(rows, live) if parallel else _nrc4_scan(rows, live)
    if classes is None:
        return NrcOutcome(None, RULE_EXHAUSTED)
    return NrcOutcome(_coloring_from_masks(n, classes), RULE_SEARCH_4)


def _nrc4_parallel(rows: Sequence[int], live: list[int]) -> Optional[list[int]]:
    """The sequential scan, handed to worker processes once it would spend
    more than SLICE_UNITS in-process.

    A witness found in the slice is the sequential one.  Past it, the A's
    left are split over one process per CPU that this process may run on
    (at most 8): with ``count`` workers, worker w scans the A's at positions
    ``resume + w``, ``resume + w + count``, ..., where ``resume`` is the
    first A the slice left, starting from the screen facts the slice found.
    Each worker sends its result down a pipe of its own.  The first witness
    received ends the search, and the workers still scanning are terminated.
    No worker shares a lock, so terminating one in mid-send blocks nothing;
    a pool's shared result queue would stay locked, and its shutdown hang.
    A worker that ends without sending leaves its share unscanned, so the
    search then raises SizeLimitError with the worker's exit code.
    """
    # the CPUs this process may run on, as os.process_cpu_count counts them
    # from Python 3.13: fewer than the machine has in a narrowed container
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    count = min(cpus, 8)
    if count <= 1:
        return _nrc4_scan(rows, live)
    facts: tuple[list, list] = ([], [])
    try:
        return _nrc4_scan(rows, live, facts=facts, budget=SLICE_UNITS)
    except _SliceSpent as stop:
        resume, spent = stop.args
        log.debug(
            "4-NRC search: %d units in-process, the A's from position %d on "
            "in %d workers",
            spent, resume, count,
        )
    workers = {}  # each worker by the receiving end of its pipe
    try:
        for offset in range(count):
            receive, send = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(
                target=_send_scan,
                args=(send, rows, live, resume + offset, count, facts),
            )
            worker.start()
            workers[receive] = worker
            send.close()  # so a worker that dies unheard reads as EOF
        pending = list(workers)
        while pending:
            for receive in wait(pending):
                pending.remove(receive)
                try:
                    classes = receive.recv()
                except EOFError:
                    worker = workers[receive]
                    worker.join()
                    raise SizeLimitError(
                        "4-NRC search stopped: a worker process ended with "
                        f"exit code {worker.exitcode} before it reported its "
                        "share of the guesses"
                    ) from None
                if classes is not None:
                    return classes
        return None
    finally:
        for worker in workers.values():
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
