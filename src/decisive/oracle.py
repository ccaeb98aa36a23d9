"""Exhaustive ground-truth search for no-rainbow colorings.

This is the trust anchor the faster solvers are tested against, so it stays
deliberately naive: every one of the r^n assignments is enumerated in base-r
counting order over the assignment vector and surjectivity is a post-filter.
The enumeration is chunked through numpy so that n around 10 stays affordable,
but the order and the filtering are exactly the naive ones.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .core import Coloring, Hypergraph
from .errors import SizeLimitError

DEFAULT_NODE_CAP = 14
_CHUNK = 1 << 16


def _check_cap(h: Hypergraph, node_cap: int) -> None:
    if h.node_count > node_cap:
        raise SizeLimitError(
            f"brute force refused: {h.node_count} nodes exceeds cap {node_cap}"
        )


def _no_rainbow_chunks(
    h: Hypergraph, r: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (colors, keep_mask) over all r^n assignments in vector order."""
    n = h.node_count
    total = r**n
    # node 0 is the most significant digit, so row order == lexicographic order
    divisors = (r ** np.arange(n - 1, -1, -1)).astype(np.int64)
    relevant = [e for e in h.edges if len(e) >= r]
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        colors = ((codes[:, None] // divisors) % r + 1).astype(np.int8)
        keep = np.ones(len(codes), dtype=bool)
        for q in range(1, r + 1):
            keep &= (colors == q).any(axis=1)
        for edge in relevant:
            sub = colors[:, edge]
            rainbow = np.ones(len(codes), dtype=bool)
            for q in range(1, r + 1):
                rainbow &= (sub == q).any(axis=1)
            keep &= ~rainbow
        yield colors, keep


def brute_force_nrc(
    h: Hypergraph, r: int, node_cap: int = DEFAULT_NODE_CAP
) -> Optional[Coloring]:
    """Lexicographically first surjective no-rainbow r-coloring, if any."""
    _check_cap(h, node_cap)
    for colors, keep in _no_rainbow_chunks(h, r):
        hits = np.flatnonzero(keep)
        if hits.size:
            return Coloring(r, tuple(int(c) for c in colors[hits[0]]))
    return None


def count_nrc(h: Hypergraph, r: int, node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Number of surjective no-rainbow r-colorings of ``h``."""
    _check_cap(h, node_cap)
    return sum(int(keep.sum()) for _colors, keep in _no_rainbow_chunks(h, r))
