"""Kernelization: dedup, screens, lifting, and the fixed-parameter driver."""

import random
from itertools import combinations

import pytest

from conftest import duplicated_pattern, kernel_hypergraph, random_pattern
from decisive.bounds import star_hypergraph
from decisive.core import (
    Coloring,
    CoveragePattern,
    build_hypergraph,
    verify_no_rainbow,
)
from decisive.errors import InvalidInstanceError
from decisive.nrc import nrc4
from decisive.oracle import brute_force_nrc
from decisive.pipeline import coloring_from_partition, decide
from decisive.reduction import (
    IncidenceMatrix,
    dedup,
    drop_dominated_loci,
    fpt_nrc4,
    incidence_matrix,
    kernel_nrc4,
    lift_coloring,
    reduce_pattern,
    row_count_screen,
    zero_and_screen,
)


class TestIncidenceMatrix:
    def test_small_example(self):
        p = CoveragePattern.from_sets(list("abc"), [("L1", [0, 1]), ("L2", [1, 2])])
        m = incidence_matrix(p)
        assert [m.row_string(i) for i in range(3)] == ["10", "11", "01"]

    def test_uncovered_taxon_row_is_zero(self):
        p = CoveragePattern.from_sets(list("abc"), [("L1", [0, 1])])
        assert incidence_matrix(p).rows[2] == 0

    def test_full_locus_column(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1, 2, 3])])
        assert incidence_matrix(p).rows == (1, 1, 1, 1)


class TestDedup:
    def test_duplicate_rows_collapse(self):
        m = IncidenceMatrix(3, 3, (0b101, 0b101, 0b110))
        ri = dedup(m)
        assert ri.n_reduced == 2
        assert ri.representatives == (0, 2)
        assert ri.copies == {0: (0, 1), 2: (2,)}
        assert ri.spares == 1

    def test_distinct_rows_identity(self):
        m = IncidenceMatrix(3, 2, (0b01, 0b10, 0b11))
        ri = dedup(m)
        assert ri.n_reduced == 3 and ri.spares == 0

    def test_many_copies_of_one_row(self):
        m = IncidenceMatrix(1000, 1, (1,) * 1000)
        ri = dedup(m)
        assert ri.n_reduced == 1 and ri.spares == 999

    def test_reduced_hypergraph_uses_columns(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1, 2]), ("L2", [2, 3])]
        )
        ri = reduce_pattern(p)
        # rows: a=01, b=01, c=11, d=10 -> reps a, c, d
        assert kernel_hypergraph(ri).edges == ((0, 1), (1, 2))


def named_loci(n: int, loci: list) -> CoveragePattern:
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)],
        [(f"L{j}", members) for j, members in enumerate(loci)],
    )


def kept_loci(ri) -> list[int]:
    """Loci with a column left in the reduced matrix."""
    used = 0
    for row in ri.matrix.rows:
        used |= row
    return [j for j in range(ri.matrix.k) if used >> j & 1]


class TestDropDominatedLoci:
    def test_equal_columns_keep_the_first(self):
        # L1 and L2 have one column over the kernel rows; L0 is not inside them
        p = named_loci(4, [[1, 2, 3], [0, 1, 2], [0, 1, 2]])
        kernel = drop_dominated_loci(reduce_pattern(p))
        assert kept_loci(kernel) == [0, 1]
        # kernel rows t0, t1 (= t2), t3
        assert kernel_hypergraph(kernel).edges == ((1, 2), (0, 1))

    def test_nested_chain_keeps_the_largest(self):
        # L0 < L1 < L2, and L3 beside them; t2 and t3 differ only in L1
        p = named_loci(5, [[0, 1], [0, 1, 2], [0, 1, 2, 3], [2, 3, 4]])
        ri = reduce_pattern(p)
        assert ri.n_reduced == 4
        kernel = drop_dominated_loci(ri)
        assert kept_loci(kernel) == [2, 3]
        assert kernel.representatives == (0, 2, 4)
        assert kernel.copies == {0: (0, 1), 2: (2, 3), 4: (4,)}
        assert kernel.spares == 2 and ri.spares == 1

    def test_nothing_dominated_returns_the_same_instance(self):
        p = named_loci(7, star_hypergraph(7, 4).edges)
        ri = reduce_pattern(p)
        assert drop_dominated_loci(ri) is ri
        assert ri.searched is ri

    def test_empty_columns_are_dropped(self):
        ri = dedup(IncidenceMatrix(3, 3, (0b011, 0b010, 0b001)))
        assert drop_dominated_loci(ri) is ri  # the empty L2 carries no bit
        # beside an empty L2, L1 lies inside L0, and the two rows merge
        kernel = drop_dominated_loci(dedup(IncidenceMatrix(2, 3, (0b011, 0b001))))
        assert kept_loci(kernel) == [0] and kernel.n_reduced == 1

    def test_merged_rows_become_copies_and_the_witness_lifts(self):
        # every 4-set of taxa 0..5 that misses a color of (1, 2, 3, 4, 1, 2),
        # taxon 6 in each locus of taxon 0, and one locus inside another
        # without taxon 6: only that locus tells taxa 0 and 6 apart
        colors = (1, 2, 3, 4, 1, 2)
        loci = [
            set(q) for q in combinations(range(6), 4)
            if len({colors[v] for v in q}) < 4
        ]
        for members in loci:
            if 0 in members:
                members.add(6)
        loci.append(next(m for m in loci if 0 in m) - {6})
        p = named_loci(7, loci)
        ri = reduce_pattern(p)
        assert zero_and_screen(ri) is None  # every triple is covered
        kernel = drop_dominated_loci(ri)
        assert (ri.n_reduced, kernel.n_reduced) == (7, 6)
        assert kernel.copies[0] == (0, 6)
        witness = kernel_nrc4(ri).witness
        assert witness.assignment[0] == witness.assignment[6]
        assert verify_no_rainbow(build_hypergraph(p), witness)


class TestScreens:
    def test_zero_and_pair(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1]), ("L2", [1, 2, 3])]
        )
        w = zero_and_screen(reduce_pattern(p))
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
        w = zero_and_screen(reduce_pattern(p))
        assert w is not None
        assert verify_no_rainbow(build_hypergraph(p), w)

    def test_screen_clean_when_rows_intersect(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1, 2, 3])])
        assert zero_and_screen(reduce_pattern(p)) is None

    def test_row_count_screen_threshold(self):
        assert not row_count_screen(
            dedup(IncidenceMatrix(4, 3, (0b001, 0b010, 0b100, 0b111)))
        )
        assert row_count_screen(dedup(IncidenceMatrix(2, 1, (0, 1))))


class TestLifting:
    def test_r4_broadcast(self):
        m = IncidenceMatrix(4, 2, (0b01, 0b01, 0b10, 0b11))
        ri = dedup(m)
        lifted = lift_coloring(ri, Coloring(4, (1, 2, 3)))
        assert lifted.assignment == (1, 1, 2, 3)

    def test_insufficient_spares_rejected(self):
        m = IncidenceMatrix(3, 2, (0b01, 0b10, 0b11))
        with pytest.raises(InvalidInstanceError):
            lift_coloring(dedup(m), Coloring(3, (1, 2, 3)))


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

    def test_spares_zero_regime(self):
        # all rows distinct: kernel == original, only r=4 searched
        p = CoveragePattern.from_sets(
            list("abcd"),
            [("L1", [0, 1, 2, 3]), ("L2", [1, 2, 3]), ("L3", [2, 3]), ("L4", [3])],
        )
        assert reduce_pattern(p).spares == 0
        assert fpt_nrc4(p).found == nrc4(build_hypergraph(p)).found

    def test_spares_one_regime(self):
        p = CoveragePattern.from_sets(
            list("abcde"),
            [("L1", [0, 1, 2, 3, 4]), ("L2", [1, 2, 3, 4]), ("L3", [2, 3, 4]),
             ("L4", [3, 4])],
        )
        ri = reduce_pattern(p)
        assert ri.spares == 1
        h = build_hypergraph(p)
        assert fpt_nrc4(p).found == (brute_force_nrc(h, 4) is not None)

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
    return [q for q in combinations(range(n), 4) if len({colors[v] for v in q}) < 4]


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
