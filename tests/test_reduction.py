"""Kernelization: dedup, screens, lifting, and the fixed-parameter driver."""

import random

import pytest
from hypothesis import assume, event, given, strategies as st

from conftest import (
    duplicated_pattern,
    kernel_hypergraph,
    named_loci,
    planted_4_sets,
    planted_pattern,
    random_pattern,
    with_subset_taxa,
)
from decisive.bounds import star_hypergraph
from decisive.core import (
    Coloring,
    CoveragePattern,
    build_hypergraph,
    color_classes,
    coloring_failure,
    uncovered_set,
    verify_no_rainbow,
)
from decisive.errors import InvalidInstanceError
from decisive.nrc import nrc4
from decisive.oracle import brute_force_nrc
from decisive.pipeline import coloring_from_partition, decide
from decisive.reduction import (
    ReducedInstance,
    dedup,
    drop_dominated_loci,
    fold_kernel,
    fpt_nrc4,
    kernel_nrc4,
    lift_coloring,
    reduce_pattern,
    row_count_screen,
    zero_and_screen,
)


class TestIncidenceMatrix:
    """The duplicate-row view's source rows are the pattern's incidence
    rows."""

    def test_small_example(self):
        p = CoveragePattern.from_sets(list("abc"), [("L1", [0, 1]), ("L2", [1, 2])])
        ri = dedup(p.rows, p.k)
        assert (ri.k, ri.source_rows) == (2, (0b01, 0b11, 0b10))

    def test_uncovered_taxon_row_is_zero(self):
        p = CoveragePattern.from_sets(list("abc"), [("L1", [0, 1])])
        assert dedup(p.rows, p.k).source_rows[2] == 0

    def test_full_locus_column(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1, 2, 3])])
        ri = dedup(p.rows, p.k)
        assert ri.source_rows == (1, 1, 1, 1) and ri.rows == (1,)


class TestDedup:
    def test_duplicate_rows_collapse(self):
        ri = dedup((0b101, 0b101, 0b110), 3)
        assert ri.n_reduced == 2
        assert ri.classes == ((0, 1), (2,))
        assert ri.spares == 1

    def test_distinct_rows_identity(self):
        ri = dedup((0b01, 0b10, 0b11), 2)
        assert ri.n_reduced == 3 and ri.spares == 0

    def test_many_copies_of_one_row(self):
        ri = dedup((1,) * 1000, 1)
        assert ri.n_reduced == 1 and ri.spares == 999

    @given(st.integers(1, 8), st.data())
    def test_classes_partition_the_rows(self, k, data):
        # a few distinct rows, the zero row among them, each repeated
        pool = data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=5))
        rows = data.draw(st.lists(st.sampled_from([0] + pool), max_size=40))
        ri = dedup(rows, k)
        assert ri.source_rows == tuple(rows)
        assert sorted(u for c in ri.classes for u in c) == list(range(len(rows)))
        assert all(list(c) == sorted(c) for c in ri.classes)
        assert all(ri.rows[i] == rows[c[0]] for i, c in enumerate(ri.classes))
        assert all(rows[u] == ri.rows[i] for i, c in enumerate(ri.classes) for u in c)
        assert len(set(ri.rows)) == ri.n_reduced
        assert list(ri.rows) == list(dict.fromkeys(rows))  # first occurrences
        colors = tuple(i % 4 + 1 for i in range(ri.n_reduced))
        lifted = lift_coloring(ri, Coloring(4, colors)).assignment
        assert all(lifted[u] == colors[i] for i, c in enumerate(ri.classes) for u in c)

    def test_reduced_hypergraph_uses_columns(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1, 2]), ("L2", [2, 3])]
        )
        ri = dedup(p.rows, p.k)
        # rows: a=01, b=01, c=11, d=10 -> reps a, c, d
        assert kernel_hypergraph(ri).edges == ((0, 1), (1, 2))


def kept_loci(ri) -> list[int]:
    """Loci with a column left in the reduced matrix."""
    used = 0
    for row in ri.rows:
        used |= row
    return [j for j in range(ri.k) if used >> j & 1]


class TestDropDominatedLoci:
    def test_equal_columns_keep_the_first(self):
        # L1 and L2 have one column over the kernel rows; L0 is not inside them
        p = named_loci(4, [[1, 2, 3], [0, 1, 2], [0, 1, 2]])
        kernel = drop_dominated_loci(dedup(p.rows, p.k))
        assert kept_loci(kernel) == [0, 1]
        # kernel rows t0, t1 (= t2), t3
        assert kernel_hypergraph(kernel).edges == ((1, 2), (0, 1))

    def test_nested_chain_keeps_the_largest(self):
        # L0 < L1 < L2, and L3 beside them; t2 and t3 differ only in L1
        p = named_loci(5, [[0, 1], [0, 1, 2], [0, 1, 2, 3], [2, 3, 4]])
        ri = dedup(p.rows, p.k)
        assert ri.n_reduced == 4
        kernel = drop_dominated_loci(ri)
        assert kept_loci(kernel) == [2, 3]
        assert kernel.classes == ((0, 1), (2, 3), (4,))
        assert kernel.spares == 2 and ri.spares == 1
        assert reduce_pattern(p) == kernel

    def test_nothing_dominated_returns_the_same_instance(self):
        p = named_loci(7, star_hypergraph(7, 4).edges)
        ri = dedup(p.rows, p.k)
        assert drop_dominated_loci(ri) is ri
        assert reduce_pattern(p) == ri

    @given(st.integers(1, 9), st.data())
    def test_the_kernel_is_a_fixed_point(self, n, data):
        # small loci on few taxa: many lie inside others, many rows agree
        loci = data.draw(
            st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=10)
        )
        kernel = reduce_pattern(named_loci(n, loci))
        assert drop_dominated_loci(kernel) is kernel

    def test_empty_columns_are_dropped(self):
        ri = dedup((0b011, 0b010, 0b001), 3)
        assert drop_dominated_loci(ri) is ri  # the empty L2 carries no bit
        # beside an empty L2, L1 lies inside L0, and the two rows merge
        kernel = drop_dominated_loci(dedup((0b011, 0b001), 3))
        assert kept_loci(kernel) == [0] and kernel.n_reduced == 1

    def test_merged_rows_become_copies_and_the_witness_lifts(self):
        # every 4-set of taxa 0..5 that misses a color of (1, 2, 3, 4, 1, 2),
        # taxon 6 in each locus of taxon 0, and one locus inside another
        # without taxon 6: only that locus tells taxa 0 and 6 apart
        loci = [set(q) for q in planted_4_sets((1, 2, 3, 4, 1, 2))]
        for members in loci:
            if 0 in members:
                members.add(6)
        loci.append(next(m for m in loci if 0 in m) - {6})
        p = named_loci(7, loci)
        ri = dedup(p.rows, p.k)
        assert zero_and_screen(p) is None  # every triple is covered
        kernel = drop_dominated_loci(ri)
        assert (ri.n_reduced, kernel.n_reduced) == (7, 6)
        assert kernel.classes[0] == (0, 6)
        assert reduce_pattern(p) == kernel
        witness = kernel_nrc4(kernel).witness
        assert witness.assignment[0] == witness.assignment[6]
        assert verify_no_rainbow(build_hypergraph(p), witness)


class TestScreens:
    def test_zero_and_pair(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1]), ("L2", [1, 2, 3])]
        )
        w = zero_and_screen(p)
        assert w is not None
        assert verify_no_rainbow(build_hypergraph(p), w)

    def test_zero_and_triple(self):
        # every pair shares a locus, but taxa 0, 2, 4 pairwise meet in
        # different loci with empty three-way intersection
        p = CoveragePattern.from_sets(
            list("abcdef"),
            [
                ("L1", [0, 1, 2, 3]),
                ("L2", [2, 3, 4, 5]),
                ("L3", [0, 1, 4, 5]),
            ],
        )
        w = zero_and_screen(p)
        assert w is not None
        assert verify_no_rainbow(build_hypergraph(p), w)

    def test_screen_clean_when_rows_intersect(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1, 2, 3])])
        assert zero_and_screen(p) is None

    def test_row_count_screen_threshold(self):
        assert not row_count_screen(dedup((0b001, 0b010, 0b100, 0b111), 3))
        assert row_count_screen(dedup((0, 1), 1))


class TestLifting:
    def test_r4_broadcast(self):
        ri = dedup((0b01, 0b01, 0b10, 0b11), 2)
        lifted = lift_coloring(ri, Coloring(4, (1, 2, 3)))
        assert lifted.assignment == (1, 1, 2, 3)

    def test_insufficient_spares_rejected(self):
        with pytest.raises(InvalidInstanceError):
            lift_coloring(dedup((0b01, 0b10, 0b11), 2), Coloring(3, (1, 2, 3)))


class TestFptDriver:
    def test_verdict_matches_direct_search(self):
        rng = random.Random(8)
        for _ in range(150):
            p = duplicated_pattern(
                rng, base_n=rng.randint(3, 6), k=rng.randint(1, 4),
                copies=rng.randint(0, 6),
            )
            if p.n < 4:
                continue
            h = build_hypergraph(p)
            fpt = fpt_nrc4(p)
            direct = nrc4(h)
            assert fpt.found == direct.found
            if fpt.found:
                assert verify_no_rainbow(h, fpt.witness)

    def test_verdict_matches_oracle_on_collapsing_instances(self):
        rng = random.Random(9)
        for _ in range(40):
            p = duplicated_pattern(rng, base_n=3, k=2, copies=7)
            h = build_hypergraph(p)
            assert fpt_nrc4(p).found == (brute_force_nrc(h, 4) is not None)

    # the star on six taxa (decisive), and every 4-set of six taxa that
    # misses a color of (1, 2, 3, 4, 1, 2) (not): in both, no locus lies
    # inside another and all rows differ
    REGIME_LOCI = [star_hypergraph(6, 4).edges, planted_4_sets((1, 2, 3, 4, 1, 2))]

    def test_spares_zero_regime(self):
        # the kernel is the pattern itself, searched directly
        for loci in self.REGIME_LOCI:
            p = named_loci(6, loci)
            kernel = reduce_pattern(p)
            assert kernel.spares == 0 and kernel.rows == p.rows
            h = build_hypergraph(p)
            fpt = fpt_nrc4(p)
            assert fpt.found == nrc4(h).found
            assert not fpt.found or verify_no_rainbow(h, fpt.witness)

    def test_spares_one_regime(self):
        # taxon 6 in exactly the loci of taxon 5: one spare in the kernel
        for loci in self.REGIME_LOCI:
            p = named_loci(7, [set(e) | ({6} if 5 in e else set()) for e in loci])
            kernel = reduce_pattern(p)
            assert kernel.spares == 1 and kernel.classes[-1] == (5, 6)
            h = build_hypergraph(p)
            fpt = fpt_nrc4(p)
            assert fpt.found == (brute_force_nrc(h, 4) is not None)
            assert not fpt.found or verify_no_rainbow(h, fpt.witness)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInstanceError):
            fpt_nrc4(CoveragePattern.from_sets(list("abc"), [("L", [0, 1, 2])]))


def with_copies(
    rng: random.Random, n: int, loci: list, copies: int
) -> CoveragePattern:
    """The pattern on taxa 0..n-1 plus ``copies`` taxa that each repeat the
    loci of an earlier taxon."""
    loci = [set(members) for members in loci]
    for new in range(n, n + copies):
        source = rng.randrange(new)
        for members in loci:
            if source in members:
                members.add(new)
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n + copies)],
        [(f"L{j}", members) for j, members in enumerate(loci)],
    )


def planted_loci(rng: random.Random, n: int) -> list:
    """Every 4-set of taxa that misses a color of a hidden surjective
    4-coloring, so that coloring is a no-rainbow witness."""
    colors = [1, 2, 3, 4] + [rng.randint(1, 4) for _ in range(n - 4)]
    rng.shuffle(colors)
    return planted_4_sets(tuple(colors))


class TestKernelSearchAgainstOracle:
    """Duplicated taxa on the families whose kernels reach the search."""

    @pytest.mark.parametrize("family", ["planted", "star"])
    def test_decide_and_fpt_match_oracle(self, family):
        rng = random.Random(f"kernel-{family}")
        labels = set()
        for _ in range(12):
            base = rng.randint(5, 6)
            loci = (
                planted_loci(rng, base)
                if family == "planted"
                else star_hypergraph(base, 4).edges
            )
            p = with_copies(rng, base, loci, rng.randint(2, 9 - base))
            h = build_hypergraph(p)
            decisive = brute_force_nrc(h, 4) is None
            v = decide(p)
            labels.add(v.decided_by)
            assert v.decisive == decisive
            if not decisive:
                assert verify_no_rainbow(h, coloring_from_partition(v.witness, p.n))
            fpt = fpt_nrc4(p)
            assert fpt.found != decisive
            if fpt.found:
                assert verify_no_rainbow(h, fpt.witness)
        assert "fpt" in labels  # the kernel search itself decided some


def search_kernel(p: CoveragePattern):
    """The kernel ``decide`` searches once every triple is covered."""
    return fold_kernel(reduce_pattern(p))


def passes_on_the_loci(p: CoveragePattern, witness: Coloring) -> bool:
    loci = (members for _name, members in p.loci)
    return coloring_failure(p.n, loci, witness, color_classes(witness)) is None


def covered_pattern(n: int, loci: list, extras: list) -> CoveragePattern:
    """The loci plus, for each triple of taxa that they leave uncovered, a
    locus of that triple and the taxa of the next entry of ``extras``."""
    loci = [set(members) for members in loci]
    extras = iter(extras)
    p = named_loci(n, loci)
    while (triple := uncovered_set(p.rows, 3)) is not None:
        loci.append(set(triple) | next(extras, set()))
        p = named_loci(n, loci)
    return p


class TestFoldKernel:
    """The third rule: once every triple is covered, a row inside another
    folds onto it, in turn with dropping the loci then dominated."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_stars_fold_to_one_row(self, n):
        # one row and one locus a round: the n-node star needs n - 4 rounds
        p = named_loci(n, star_hypergraph(n, 4).edges)
        assert reduce_pattern(p).n_reduced == n
        kernel = search_kernel(p)
        assert kernel.n_reduced == 1 and kernel.spares == n - 1
        assert kernel.classes == (tuple(range(n)),)
        assert kernel_nrc4(kernel) == kernel_nrc4(reduce_pattern(p))

    def test_a_row_folds_onto_the_first_maximal_row_holding_it(self):
        # row 1 = {L0, L1} lies inside rows 2 and 3, not inside row 0
        ri = dedup((0b1100, 0b0011, 0b0111, 0b1011), 4)
        kernel = fold_kernel(ri)
        # then L1's column equals L0's, and the rows {L0, L2}, {L0, L3} and
        # {L2, L3} are left
        assert kernel.rows == (0b1100, 0b0101, 0b1001)
        assert kernel.classes == ((0,), (1, 2), (3,))
        assert kernel.source_rows == (0b1100, 0b0001, 0b0101, 0b1001)

    def test_antichain_returns_the_same_instance(self):
        p = named_loci(6, planted_4_sets((1, 2, 3, 4, 1, 2)))
        ri = reduce_pattern(p)
        assert fold_kernel(ri) is ri

    def test_the_drop_merges_the_classes_it_is_given(self):
        # taxon 2 ({L2}) folded onto taxon 0 ({L1, L2}); over the two rows
        # L0 and L2 lie inside L1, and the rows then agree, so the classes
        # merge, taxon 2 with them, although its row no longer equals theirs
        ri = ReducedInstance(3, (0b110, 0b011, 0b100), (0b110, 0b011), ((0, 2), (1,)))
        kernel = drop_dominated_loci(ri)
        assert kernel.rows == (0b010,) and kernel.classes == ((0, 1, 2),)
        assert kernel.source_rows == (0b010, 0b010, 0)

    def test_a_folded_taxon_keeps_its_row_through_the_drops(self):
        # taxon 5 folds onto taxon 2's row; a locus dropped later makes its
        # row lie inside taxon 1's too, but only taxon 2's color is sound:
        # rebuilding the classes from the source rows, and folding again,
        # gives a witness with a rainbow locus
        loci = [
            [1, 2, 3, 4, 5], [3, 4, 5], [0, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 4],
            [0, 3, 4, 5], [2, 3, 5], [0, 3, 4, 5], [2, 3, 4],
        ]
        p = named_loci(6, loci)
        kernel = search_kernel(p)
        assert kernel.classes == ((0,), (1,), (2, 3, 5), (4,))
        assert passes_on_the_loci(p, kernel_nrc4(kernel).witness)
        assert not decide(p).decisive

    @given(st.sampled_from(["star", "planted", "random"]), st.data())
    def test_fixpoint_is_an_antichain_and_witnesses_lift(self, family, data):
        n = data.draw(st.integers(5, 7))
        if family == "star":
            loci = star_hypergraph(n, 4).edges
        elif family == "planted":
            colors = (1, 2, 3, 4) + tuple(
                data.draw(st.lists(st.integers(1, 4), min_size=n - 4, max_size=n - 4))
            )
            loci = planted_4_sets(colors)
        else:  # loci that each miss a few taxa, with every triple covered
            taxa = st.sets(st.integers(0, n - 1), max_size=3)
            missed = data.draw(st.lists(taxa, min_size=1, max_size=8))
            extras = data.draw(st.lists(taxa, max_size=4))
            loci = [set(range(n)) - m for m in missed]
            loci = [m for _name, m in covered_pattern(n, loci, extras).loci]
        p = named_loci(n, loci)
        assume(uncovered_set(p.rows, 3) is None)  # the fold needs it
        # taxa in a share of the loci of an earlier taxon, where that keeps
        # every triple covered
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        for _ in range(data.draw(st.integers(0, 2))):
            loci = [members for _name, members in p.loci]
            wider = with_subset_taxa(p.n, loci, rng, 1, rng.uniform(0.6, 1))
            if uncovered_set(wider.rows, 3) is None:
                p = wider
        kernel = search_kernel(p)
        event("folded" if kernel.spares > reduce_pattern(p).spares else "no fold")
        rows = kernel.rows
        assert all(a & b != a for a in rows for b in rows if a != b)
        assert len(set(rows)) == len(rows)
        columns = [
            sum(1 << q for q, row in enumerate(rows) if row >> j & 1)
            for j in range(kernel.k)
        ]
        columns = [c for c in columns if c]
        assert all(
            a & b != a
            for i, a in enumerate(columns)
            for j, b in enumerate(columns)
            if i != j
        )
        assert sorted(u for c in kernel.classes for u in c) == list(range(p.n))
        # each taxon's row, on the loci kept, lies inside its class's row
        assert all(
            kernel.source_rows[u] & row == kernel.source_rows[u]
            for row, members in zip(rows, kernel.classes)
            for u in members
        )
        outcome = kernel_nrc4(kernel)
        assert outcome.found == (brute_force_nrc(build_hypergraph(p), 4) is not None)
        event("witness" if outcome.found else "decisive")
        if outcome.found:
            assert passes_on_the_loci(p, outcome.witness)


class TestFoldAgainstOracle:
    """``decide`` and ``fpt_nrc4`` on the conftest families and on planted
    patterns and stars with taxa whose rows lie inside other rows."""

    FAMILIES = {
        "random": lambda rng: random_pattern(rng, (4, 9), (3, 8), (3, 8)),
        "duplicated": lambda rng: duplicated_pattern(
            rng, rng.randint(4, 6), rng.randint(3, 6), rng.randint(0, 3)
        ),
        "planted": lambda rng: planted_pattern(rng, (4, 9)),
        "planted-subsets": lambda rng: with_subset_taxa(
            (n := rng.randint(5, 7)),
            planted_loci(rng, n),
            rng,
            rng.randint(1, 3),
            rng.uniform(0.6, 0.95),
        ),
        "star-subsets": lambda rng: with_subset_taxa(
            (n := rng.randint(5, 7)),
            star_hypergraph(n, 4).edges,
            rng,
            rng.randint(1, 3),
            rng.uniform(0.6, 0.95),
        ),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_engines_agree(self, family):
        rng = random.Random(f"fold-{family}")
        folds = 0
        for _ in range(60):
            p = self.FAMILIES[family](rng)
            if p.n < 4:
                continue
            h = build_hypergraph(p)
            expected = nrc4(h).witness is None
            assert p.n > 8 or (brute_force_nrc(h, 4) is None) == expected
            v = decide(p)  # re-verifies its witness on the loci
            assert v.decisive == expected
            fpt = fpt_nrc4(p)
            assert fpt.found != expected
            assert not fpt.found or passes_on_the_loci(p, fpt.witness)
            if uncovered_set(p.rows, 3) is None:
                kernel = reduce_pattern(p)
                folds += search_kernel(p).n_reduced < kernel.n_reduced
        if family.endswith("subsets"):
            assert folds >= 15
