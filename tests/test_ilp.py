"""The paper's ILP as a second trust anchor: HiGHS (``scipy.optimize.milp``)
solves ``emit_ilp`` of the kernel and must agree with ``decide``.

The kernel is written as a pattern, one taxon per row of ``reduce_pattern(p)``
and one locus per nonempty column.  Every pattern here has every triple of
taxa covered, so the kernel has a no-rainbow 4-coloring iff the pattern has
one: the model is infeasible exactly when ``decide`` calls the pattern
decisive.  A feasible solution's colors, lifted to the taxa, must pass
``verify_no_rainbow`` on the source pattern.  The kernels stay small (4-15
rows, at most 22 loci) so that each solve takes well under a second.
"""

import random
from typing import Optional

import pytest

pytest.importorskip("scipy")

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

from conftest import (  # noqa: E402
    named_loci,
    planted_4_sets,
    planted_pattern,
    with_copies,
)
from decisive.bounds import star_hypergraph  # noqa: E402
from decisive.core import (  # noqa: E402
    Coloring,
    CoveragePattern,
    build_hypergraph,
    verify_no_rainbow,
)
from decisive.emit import emit_ilp  # noqa: E402
from decisive.pipeline import decide  # noqa: E402
from decisive.reduction import (  # noqa: E402
    lift_coloring,
    reduce_pattern,
    zero_and_screen,
)


def missing_groups(n: int, groups: int, dropped: list[set[int]]):
    """Taxon i in group i mod ``groups``; locus j covers every taxon whose
    group is outside ``dropped[j]``."""
    return named_loci(
        n, [[i for i in range(n) if i % groups not in d] for d in dropped]
    )


def residue(n: int, groups: int) -> CoveragePattern:
    """Locus j drops group j: decisive."""
    return missing_groups(n, groups, [{j} for j in range(groups)])


def grouped_miss(n: int, groups: int) -> CoveragePattern:
    """Locus j drops group j, and locus j >= 5 also taxon ``groups + j - 5``
    of group j - 5: no locus lies inside another, so the kernel keeps all
    2 * groups - 5 rows.  The pure loci of groups 0..4 make it decisive."""
    loci = [list(members) for _name, members in residue(n, groups).loci]
    for j in range(5, groups):
        loci[j].remove(groups + j - 5)
    return named_loci(n, loci)


def wide(n: int, groups: int, k: int) -> CoveragePattern:
    """Locus j drops group j mod groups and, from locus ``groups`` on, one
    more group: a ``groups``-row kernel under ``k`` loci."""
    dropped = [{j % groups} for j in range(k)]
    for j in range(groups, k):
        dropped[j].add((j + 1 + j // groups) % groups)
    return missing_groups(n, groups, dropped)


def kernel_pattern(p: CoveragePattern) -> CoveragePattern:
    """The kernel of p as a pattern: one taxon per row of
    ``reduce_pattern(p)``, one locus per nonempty column."""
    rows = reduce_pattern(p).rows
    columns = [[t for t, row in enumerate(rows) if row >> j & 1] for j in range(p.k)]
    return named_loci(len(rows), [c for c in columns if c])


def highs_coloring(pattern: CoveragePattern) -> Optional[Coloring]:
    """A 4-coloring read off a feasible solution of ``emit_ilp(pattern)``, or
    None if HiGHS proves the model infeasible."""
    model = emit_ilp(pattern)
    col = {name: j for j, name in enumerate(model.variables)}
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, row in enumerate(model.rows):
        for name, coeff in row.terms:
            rows.append(r)
            cols.append(col[name])
            vals.append(coeff)
        lo.append(row.rhs if row.sense in ("=", ">=") else -np.inf)
        hi.append(row.rhs if row.sense in ("=", "<=") else np.inf)
    a = coo_matrix((vals, (rows, cols)), shape=(model.num_rows, model.num_columns))
    res = milp(
        np.zeros(model.num_columns),
        constraints=LinearConstraint(a.tocsr(), lo, hi),
        integrality=np.ones(model.num_columns),
        bounds=Bounds(0, 1),
        options={"time_limit": 60},
    )
    assert res.status in (0, 2), f"HiGHS ended with status {res.status}"
    if res.status == 2:  # infeasible
        return None
    x = np.round(res.x).astype(int)
    return Coloring(4, tuple(
        next(q for q in range(1, 5) if x[col[f"x_{i + 1}_{q}"]])
        for i in range(pattern.n)
    ))


def assert_ilp_agrees(p: CoveragePattern) -> bool:
    """HiGHS on the kernel's ILP agrees with ``decide(p)``; a feasible
    solution lifts to a verified witness.  Returns whether p is decisive."""
    assert zero_and_screen(p) is None  # every triple is covered
    coloring = highs_coloring(kernel_pattern(p))
    decisive = decide(p).decisive
    assert (coloring is None) == decisive
    if coloring is not None:
        lifted = lift_coloring(reduce_pattern(p), coloring)
        assert verify_no_rainbow(build_hypergraph(p), lifted)
    return decisive


@pytest.mark.parametrize(
    "p",
    [
        residue(12, 9),
        residue(45, 15),
        wide(112, 12, 22),
        named_loci(6, star_hypergraph(6, 4).edges),
        named_loci(7, star_hypergraph(7, 4).edges),
    ],
    ids=["residue-12", "residue-45", "wide-112", "star-6", "star-7"],
)
def test_decisive_kernels_have_an_infeasible_ilp(p):
    assert assert_ilp_agrees(p)


@pytest.mark.parametrize("n, groups", [(30, 7), (60, 9), (90, 10)])
def test_grouped_miss_kernels(n, groups):
    p = grouped_miss(n, groups)
    assert reduce_pattern(p).n_reduced == 2 * groups - 5
    assert assert_ilp_agrees(p)


def test_planted_kernels_lift_to_a_witness():
    # every 4-set that misses a color of a hidden 4-coloring, with copies
    for colors, copies in [((1, 2, 3, 4, 1, 2), 2), ((1, 1, 2, 3, 4, 4, 2), 3)]:
        p = named_loci(len(colors), planted_4_sets(colors))
        p = with_copies(p, random.Random(len(colors)), copies)
        assert reduce_pattern(p).spares == copies
        assert not assert_ilp_agrees(p)


def test_random_planted_kernels():
    rng = random.Random("ilp-planted")
    checked = 0
    while checked < 12:
        p = with_copies(planted_pattern(rng, n_range=(6, 8)), rng, rng.randint(0, 2))
        if zero_and_screen(p) is not None or reduce_pattern(p).n_reduced < 4:
            continue
        assert not assert_ilp_agrees(p)
        checked += 1
