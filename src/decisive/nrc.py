"""Exact no-rainbow coloring solvers.

2-NRC is polynomial (disconnection test).  3- and 4-NRC use bounded subset
enumeration: guess the color classes of the two rarest colors, then complete
greedily via forced propagation.  The danger/propagation conditions are stated
for edges of arbitrary size, not just r-uniform ones, so the solvers are exact
on the non-uniform hypergraphs that coverage patterns produce:

* after classes 1..(r-2) are fixed, an edge can still become rainbow only if
  it touches every fixed class and has at least two uncolored nodes;
* an edge that already sees colors 1..(r-1) forces all of its uncolored nodes
  to color r-1, since color r inside it would complete a rainbow.

Witness soundness is always re-checkable with core.verify_no_rainbow.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import Coloring, Hypergraph, connected_components, uncovered_set
from .errors import InvalidInstanceError, SizeLimitError

DEFAULT_SEARCH_CAP = 34

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
    rows = [0] * n
    for j, edge in enumerate(h.edges):
        for v in edge:
            rows[v] |= 1 << j
    group = uncovered_set(rows, r - 1)
    return None if group is None else non_neighbor_coloring(n, r, group)


def _propagate_last_guess_color(
    edge_masks: list[int], fixed_masks: list[int], forced: int, uncolored: int
) -> tuple[int, int]:
    """Flood the forced color through edges that already see every other color.

    ``fixed_masks`` are the classes of colors 1..r-2, ``forced`` the class of
    color r-1.  Any edge meeting all of those with uncolored nodes left must
    have those nodes forced too.  Returns the fixpoint (forced, uncolored).
    """
    changed = True
    while changed:
        changed = False
        for emask in edge_masks:
            if emask & uncolored == 0 or emask & forced == 0:
                continue
            if any(emask & fixed == 0 for fixed in fixed_masks):
                continue
            grab = emask & uncolored
            forced |= grab
            uncolored &= ~grab
            changed = True
    return forced, uncolored


def _complete_from_guess(
    edge_masks: list[int], full_mask: int, fixed_masks: list[int]
) -> Optional[list[int]]:
    """Try to finish a coloring with the last two colors, given fixed classes.

    Returns the color-class masks (fixed classes followed by the last two) or
    None if this guess cannot be completed.
    """
    colored = 0
    for fixed in fixed_masks:
        colored |= fixed
    uncolored = full_mask & ~colored
    dangerous = None
    for emask in edge_masks:
        if all(emask & fixed for fixed in fixed_masks) and (
            emask & uncolored
        ).bit_count() >= 2:
            dangerous = emask
            break
    if dangerous is None:
        # nothing can become rainbow: split the rest into two nonempty classes
        first = uncolored & -uncolored
        return fixed_masks + [first, uncolored & ~first]
    forced = dangerous & uncolored
    uncolored &= ~forced
    forced, uncolored = _propagate_last_guess_color(
        edge_masks, fixed_masks, forced, uncolored
    )
    if uncolored == 0:
        return None  # the last color would go unused under this guess
    return fixed_masks + [forced, uncolored]


def _coloring_from_masks(n: int, class_masks: list[int]) -> Coloring:
    assignment = [0] * n
    for color, mask in enumerate(class_masks, start=1):
        while mask:
            v = (mask & -mask).bit_length() - 1
            assignment[v] = color
            mask &= mask - 1
    return Coloring(len(class_masks), tuple(assignment))


def _masks_of_subsets(nodes: list[int], size: int):
    for combo in combinations(nodes, size):
        yield sum(1 << v for v in combo)


def nrc3(h: Hypergraph) -> NrcOutcome:
    """Exact 3-NRC by enumerating the rarest color class."""
    n = h.node_count
    if n < 3:
        raise InvalidInstanceError("3-NRC needs at least 3 nodes")
    edge_masks = [m for m, e in zip(h.edge_masks, h.edges) if len(e) >= 3]
    full_mask = (1 << n) - 1
    nodes = list(range(n))
    for i in range(1, n // 3 + 1):
        for amask in _masks_of_subsets(nodes, i):
            classes = _complete_from_guess(edge_masks, full_mask, [amask])
            if classes is not None:
                return NrcOutcome(_coloring_from_masks(n, classes), RULE_SEARCH_3)
    return NrcOutcome(None, RULE_EXHAUSTED)


def _nrc4_scan(
    edge_masks: list[int],
    n: int,
    stride: int = 1,
    offset: int = 0,
) -> Optional[list[int]]:
    """Scan (A, B) guesses; with a stride, only every stride-th A is examined."""
    full_mask = (1 << n) - 1
    nodes = list(range(n))
    index = 0
    for i in range(1, n // 4 + 1):
        for acombo in combinations(nodes, i):
            index += 1
            if (index - 1) % stride != offset:
                continue
            amask = sum(1 << v for v in acombo)
            rest = [v for v in nodes if not (amask >> v) & 1]
            for j in range(1, (n - i) // 3 + 1):
                for bmask in _masks_of_subsets(rest, j):
                    classes = _complete_from_guess(
                        edge_masks, full_mask, [amask, bmask]
                    )
                    if classes is not None:
                        return classes
    return None


def _nrc4_worker(args: tuple[list[int], int, int, int]) -> Optional[list[int]]:
    edge_masks, n, stride, offset = args
    return _nrc4_scan(edge_masks, n, stride, offset)


def nrc4(
    h: Hypergraph,
    node_cap: int = DEFAULT_SEARCH_CAP,
    parallel: bool = False,
    workers: Optional[int] = None,
) -> NrcOutcome:
    """Exact 4-NRC by enumerating the two rarest color classes.

    Sequential mode returns the lexicographically first witness (by subset
    enumeration order); parallel mode returns any witness but always the same
    existence verdict.
    """
    n = h.node_count
    if n < 4:
        raise InvalidInstanceError("4-NRC needs at least 4 nodes")
    if n > node_cap:
        raise SizeLimitError(
            f"4-NRC search refused: {n} nodes exceeds cap {node_cap}; "
            "reduce the instance first"
        )
    edge_masks = [m for m, e in zip(h.edge_masks, h.edges) if len(e) >= 4]
    if parallel:
        classes = _nrc4_parallel(edge_masks, n, workers)
    else:
        classes = _nrc4_scan(edge_masks, n)
    if classes is None:
        return NrcOutcome(None, RULE_EXHAUSTED)
    return NrcOutcome(_coloring_from_masks(n, classes), RULE_SEARCH_4)


def _nrc4_parallel(
    edge_masks: list[int], n: int, workers: Optional[int]
) -> Optional[list[int]]:
    count = workers or min(os.cpu_count() or 1, 8)
    if count <= 1:
        return _nrc4_scan(edge_masks, n)
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = {
            pool.submit(_nrc4_worker, (edge_masks, n, count, offset))
            for offset in range(count)
        }
        result = None
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for fut in done:
                found = fut.result()
                if found is not None and result is None:
                    result = found
            if result is not None:
                for fut in futures:
                    fut.cancel()
                break
    return result


def nrc(
    h: Hypergraph,
    r: int,
    node_cap: int = DEFAULT_SEARCH_CAP,
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
        return nrc3(h)
    return nrc4(h, node_cap=node_cap, parallel=parallel)
