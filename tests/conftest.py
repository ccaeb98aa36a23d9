"""Shared generators and reference implementations for the test suite.

The reference routines here are deliberately naive pure-Python loops so they
stay independent of the vectorized production code they check.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

import numpy as np

from decisive.core import Coloring, CoveragePattern, Hypergraph


def random_hypergraph(
    rng: random.Random,
    n_range: tuple[int, int] = (4, 10),
    max_edges: int = 8,
    edge_size_range: tuple[int, int] = (2, 5),
) -> Hypergraph:
    """A random hypergraph with skew toward small, sparse instances."""
    n = rng.randint(*n_range)
    m = rng.randint(0, max_edges)
    edges = []
    for _ in range(m):
        lo, hi = edge_size_range
        size = rng.randint(lo, min(hi, n))
        edges.append(tuple(rng.sample(range(n), size)))
    return Hypergraph(n, tuple(edges))


def random_uniform_hypergraph(
    rng: random.Random, n: int, r: int, m: int
) -> Hypergraph:
    pool = list(combinations(range(n), r))
    return Hypergraph(n, tuple(rng.sample(pool, min(m, len(pool)))))


def random_pattern(
    rng: random.Random,
    n_range: tuple[int, int] = (4, 10),
    k_range: tuple[int, int] = (1, 5),
    locus_size_range: tuple[int, int] = (2, 6),
) -> CoveragePattern:
    n = rng.randint(*n_range)
    k = rng.randint(*k_range)
    loci = []
    for j in range(k):
        lo, hi = locus_size_range
        size = rng.randint(lo, min(hi, n))
        loci.append((f"L{j}", rng.sample(range(n), size)))
    return CoveragePattern.from_sets([f"t{i}" for i in range(n)], loci)


def duplicated_pattern(
    rng: random.Random, base_n: int, k: int, copies: int
) -> CoveragePattern:
    """A pattern whose incidence rows repeat, to exercise the kernel."""
    base_rows = [rng.randint(0, (1 << k) - 1) for _ in range(base_n)]
    rows = list(base_rows)
    for _ in range(copies):
        rows.append(rng.choice(base_rows))
    rng.shuffle(rows)
    loci = []
    for j in range(k):
        members = [i for i, row in enumerate(rows) if (row >> j) & 1]
        if members:
            loci.append((f"L{j}", members))
    if not loci:
        loci = [("L0", list(range(len(rows))))]
    return CoveragePattern.from_sets([f"t{i}" for i in range(len(rows))], loci)


def planted_pattern(
    rng: random.Random, n_range: tuple[int, int] = (4, 10)
) -> CoveragePattern:
    """Loci that each miss a color of a hidden 4-coloring: never decisive."""
    n = rng.randint(*n_range)
    colors = [0, 1, 2, 3] + [rng.randrange(4) for _ in range(n - 4)]
    rng.shuffle(colors)
    loci = []
    for j in range(rng.randint(1, 3 * n)):
        miss = rng.randrange(4)
        rest = [v for v in range(n) if colors[v] != miss]
        subset = rng.sample(rest, rng.randint(min(3, len(rest)), len(rest)))
        loci.append((f"L{j}", subset))
    return CoveragePattern.from_sets([f"t{i}" for i in range(n)], loci)


def named_loci(n: int, loci: list) -> CoveragePattern:
    """Taxa t0..t(n-1) and locus Lj with the members ``loci[j]``."""
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)],
        [(f"L{j}", members) for j, members in enumerate(loci)],
    )


def planted_4_sets(colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every 4-set of nodes that misses one of the four colors, so the
    coloring is a no-rainbow witness of those 4-sets."""
    return [
        q for q in combinations(range(len(colors)), 4)
        if len({colors[v] for v in q}) < 4
    ]


def with_copies(
    p: CoveragePattern, rng: random.Random, copies: int
) -> CoveragePattern:
    """p plus ``copies`` new taxa, each in exactly the loci of an old one."""
    loci = [list(members) for _name, members in p.loci]
    for c in range(copies):
        original = rng.randrange(p.n)
        for members in loci:
            if original in members:
                members.append(p.n + c)
    return named_loci(p.n + copies, loci)


def with_subset_taxa(
    n: int, loci: list, rng: random.Random, extra: int, keep: float = 0.8
) -> CoveragePattern:
    """The pattern on taxa 0..n-1 plus ``extra`` new taxa, each in a random
    share ``keep`` of the loci of an earlier taxon, so its row lies inside
    that taxon's row.  It may leave a triple uncovered."""
    loci = [set(members) for members in loci]
    for new in range(n, n + extra):
        original = rng.randrange(new)
        for members in loci:
            if original in members and rng.random() < keep:
                members.add(new)
    return named_loci(n + extra, [sorted(m) for m in loci if m])


def kernel_hypergraph(ri) -> Hypergraph:
    """The hypergraph of a ``ReducedInstance``'s rows: its rows as nodes,
    its nonempty columns as edges in locus order."""
    rows = ri.rows
    edges = [
        tuple(p for p, row in enumerate(rows) if row >> j & 1)
        for j in range(ri.k)
    ]
    return Hypergraph(len(rows), tuple(e for e in edges if e))


def reference_no_rainbow_colorings(h: Hypergraph, r: int) -> list[Coloring]:
    """All surjective no-rainbow r-colorings by a plain nested loop."""
    out = []
    for assignment in product(range(1, r + 1), repeat=h.node_count):
        if set(assignment) != set(range(1, r + 1)):
            continue
        if any(
            set(range(1, r + 1)) <= {assignment[v] for v in edge}
            for edge in h.edges
        ):
            continue
        out.append(Coloring(r, assignment))
    return out


def _link_covered(h: Hypergraph, a: tuple[int, ...], size: int) -> set:
    """The ``size``-sets of the nodes outside A that an edge meeting A
    holds, as tuples in node order."""
    return {
        t
        for edge in h.edges
        if set(edge) & set(a)
        for t in combinations([v for v in edge if v not in a], size)
    }


def reference_link_covers(h: Hypergraph, a: tuple[int, ...], size: int) -> bool:
    """Whether every ``size``-set of the nodes outside A lies in an edge that
    meets A.  Then no no-rainbow (size + 1)-coloring has A as a class: one
    node of each other class would share such an edge with A."""
    outside = [v for v in range(h.node_count) if v not in a]
    return len(_link_covered(h, a, size)) == comb(len(outside), size)


def reference_link_strands(h: Hypergraph, a: tuple[int, ...]) -> bool:
    """Whether some node outside A lies in no triple of the nodes outside A
    that every edge meeting A misses.  Then no no-rainbow 4-coloring has A as
    a class: that node and one node of each other class but its own and A
    would share an edge with A."""
    outside = [v for v in range(h.node_count) if v not in a]
    covered = _link_covered(h, a, 3)
    in_gaps = {
        v for t in combinations(outside, 3) if t not in covered for v in t
    }
    return in_gaps != set(outside)


def reference_class_completes(h: Hypergraph, a: tuple[int, ...]) -> bool:
    """Whether some no-rainbow 4-coloring has A as a class, found by giving
    the other nodes colors 0..2 in every way (vectorized over those ways, as
    node masks per color)."""
    outside = [v for v in range(h.node_count) if v not in a]
    m = len(outside)
    colors = np.arange(3**m)[:, None] // 3 ** np.arange(m) % 3
    masks = [(colors == c) @ (1 << np.arange(m)) for c in range(3)]
    edges = np.array([
        sum(1 << p for p, v in enumerate(outside) if v in edge)
        for edge in h.edges
        if set(edge) & set(a)
    ], dtype=np.int64)
    rainbow = np.logical_and.reduce(
        [(mask[:, None] & edges) != 0 for mask in masks]
    )
    onto = np.logical_and.reduce([mask != 0 for mask in masks])
    return bool((onto & ~rainbow.any(axis=1)).any())


def reference_last_split(
    h: Hypergraph, guessed: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The uncolored nodes' split after the guessed classes: the component of
    the lowest uncolored node and the other uncolored nodes, or None when
    that component holds them all.  Two uncolored nodes are joined when an
    edge that meets every guessed class holds both; the component is closed
    over such pairs until nothing changes."""
    colored = {v for c in guessed for v in c}
    uncolored = [v for v in range(h.node_count) if v not in colored]
    live = [set(e) for e in h.edges if all(set(e) & set(c) for c in guessed)]
    component = {uncolored[0]}
    changed = True
    while changed:
        changed = False
        for u, w in combinations(uncolored, 2):
            if ((u in component) != (w in component)
                    and any({u, w} <= e for e in live)):
                component |= {u, w}
                changed = True
    others = tuple(v for v in uncolored if v not in component)
    return (tuple(sorted(component)), others) if others else None


def cnf_satisfiable_exhaustive(formula, n: int) -> bool:
    """Satisfiability of an emitted formula by sweeping all 4^n colorings.

    Variable values are derived functionally from the node color bits, which
    is equivalent to full satisfiability for these encodings: auxiliaries are
    one-directionally defined, so a satisfying assignment exists iff the
    derived one for some coloring works.  Vectorized over colorings so the
    exhaustive acceptance sweep stays fast.
    """
    total = 4**n
    codes = np.arange(total, dtype=np.int64)
    divisors = 4 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    colors = (codes[:, None] // divisors) % 4 + 1  # (total, n)

    value_cols: dict[int, np.ndarray] = {}
    for var, meaning in formula.legend.items():
        kind = meaning[0]
        if kind == "hi":
            value_cols[var] = ((colors[:, meaning[1]] - 1) >> 1) & 1 == 1
        elif kind == "lo":
            value_cols[var] = (colors[:, meaning[1]] - 1) & 1 == 1
        elif kind == "color_absent":
            e_idx, q = meaning[1:]
            edge = formula.edges[e_idx]
            value_cols[var] = ~(colors[:, edge] == q).any(axis=1)
        elif kind == "node_color":
            i, q = meaning[1:]
            value_cols[var] = colors[:, i] == q
        else:
            raise AssertionError(f"unknown legend entry {meaning!r}")

    ok = np.ones(total, dtype=bool)
    for clause in formula.clauses:
        clause_val = np.zeros(total, dtype=bool)
        for lit in clause:
            col = value_cols[abs(lit)]
            clause_val |= col if lit > 0 else ~col
        ok &= clause_val
        if not ok.any():
            return False
    return bool(ok.any())
