"""The decision pipeline and the greedy decisive-subset heuristic."""

import random
from itertools import combinations

import pytest

from conftest import duplicated_pattern, random_pattern
from decisive.bounds import lower_bound_screen
from decisive.core import Coloring, CoveragePattern, build_hypergraph, verify_no_rainbow
from decisive.errors import InvalidInstanceError, SizeLimitError
from decisive.oracle import brute_force_nrc
from decisive.pipeline import (
    DECIDED_FPT,
    DECIDED_FULL_LOCUS,
    DECIDED_ROOTED,
    DECIDED_TRIPLE_GAP,
    DECIDED_TRIVIAL_SMALL,
    coloring_from_partition,
    decide,
    decisive_subset,
    partition_from_coloring,
)


def make_pattern(loci: list[list[int]], n: int) -> CoveragePattern:
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)],
        [(f"L{j}", members) for j, members in enumerate(loci)],
    )


class TestPartitions:
    def test_canonical_ordering(self):
        blocks = partition_from_coloring(Coloring(4, (4, 3, 2, 1, 1)))
        assert blocks == ((0,), (1,), (2,), (3, 4))

    def test_round_trip(self):
        c = Coloring(4, (2, 1, 4, 3, 2))
        blocks = partition_from_coloring(c)
        back = coloring_from_partition(blocks, 5)
        assert partition_from_coloring(back) == blocks


class TestDecideScreens:
    def test_tiny_patterns_trivially_decisive(self):
        v = decide(make_pattern([[0, 1, 2]], 3))
        assert v.decisive and v.decided_by == DECIDED_TRIVIAL_SMALL

    def test_full_locus(self):
        v = decide(make_pattern([[0, 1, 2, 3, 4]], 5))
        assert v.decisive and v.decided_by == DECIDED_FULL_LOCUS

    def test_triple_gap(self):
        p = make_pattern([[0, 1, 2], [1, 2, 3]], 4)
        v = decide(p)
        assert not v.decisive and v.decided_by == DECIDED_TRIPLE_GAP
        assert v.witness is not None
        w = coloring_from_partition(v.witness, p.n)
        assert verify_no_rainbow(build_hypergraph(p), w)

    def test_rooted(self):
        # taxon 0 in every locus and all triples covered, but no full locus
        p = make_pattern(
            [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]],
            5,
        )
        v = decide(p)
        assert v.decisive and v.decided_by == DECIDED_ROOTED

    def test_disjoint_coverage_pair_yields_witness(self):
        # taxa 0 and 5 share no locus; an uncovered triple containing both is
        # caught by the triple screen and certifies non-decisiveness
        p = make_pattern(
            [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]],
            6,
        )
        v = decide(p)
        assert not v.decisive
        w = coloring_from_partition(v.witness, p.n)
        assert verify_no_rainbow(build_hypergraph(p), w)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidInstanceError):
            decide(make_pattern([[0, 1, 2, 3]], 4), strategy="magic")


class TestDecideEngines:
    def test_star_pattern_decisive_by_search(self):
        from decisive.bounds import star_hypergraph

        edges = star_hypergraph(5, 4).edges
        p = make_pattern([list(e) for e in edges], 5)
        for strategy in ("direct", "fpt", "oracle"):
            v = decide(p, strategy=strategy)
            assert v.decisive, strategy

    def test_strategies_agree(self):
        rng = random.Random(16)
        for _ in range(60):
            p = random_pattern(rng, n_range=(4, 9), k_range=(1, 4))
            verdicts = {
                s: decide(p, strategy=s)
                for s in ("auto", "direct", "fpt", "oracle")
            }
            answers = {s: v.decisive for s, v in verdicts.items()}
            assert len(set(answers.values())) == 1, answers
            for v in verdicts.values():
                if not v.decisive:
                    w = coloring_from_partition(v.witness, p.n)
                    assert verify_no_rainbow(build_hypergraph(p), w)

    def test_duplicate_heavy_patterns(self):
        rng = random.Random(17)
        for _ in range(40):
            p = duplicated_pattern(rng, base_n=4, k=3, copies=6)
            auto = decide(p)
            assert auto.decisive == decide(p, strategy="oracle").decisive

    def test_witness_blocks_partition_taxa(self):
        p = make_pattern([[0, 1, 2], [1, 2, 3]], 4)
        v = decide(p)
        flat = sorted(i for block in v.witness for i in block)
        assert flat == list(range(p.n))
        assert len(v.witness) == 4

    def test_stats_have_timing(self):
        v = decide(make_pattern([[0, 1, 2, 3]], 4))
        assert v.stats["elapsed_s"] >= 0


class TestWithoutQuadrupleBound:
    def test_many_loci_small_kernel_decided(self):
        # taxon i is in group i mod 12; locus j drops group j mod 12, and
        # loci 12..21 one more group.  Loci 0..11 each drop one group, so a
        # no-rainbow coloring would need, for each of them, a color found
        # only in its group: twelve colors, so the pattern is decisive.  The
        # kernel has 12 rows, one per group.
        n, groups = 112, 12
        loci = []
        for j in range(22):
            dropped = {j % groups}
            if j >= groups:
                dropped.add((j + 1 + j // groups) % groups)
            loci.append([i for i in range(n) if i % groups not in dropped])
        p = make_pattern(loci, n)
        with pytest.raises(SizeLimitError):
            lower_bound_screen(p)  # too many quadruples to enumerate
        v = decide(p)
        assert v.decisive and v.witness is None
        assert v.decided_by == DECIDED_FPT

    @staticmethod
    def triples_and_more(rng: random.Random) -> CoveragePattern:
        """Most triples as loci, plus a few larger loci: many triples are
        covered and few quadruples."""
        n = rng.randint(4, 10)
        loci = [list(t) for t in combinations(range(n), 3) if rng.random() < 0.9]
        loci += [
            rng.sample(range(n), rng.randint(4, min(6, n)))
            for _ in range(rng.randint(0, 2 * n))
        ]
        return make_pattern(loci, n)

    @staticmethod
    def planted(rng: random.Random) -> CoveragePattern:
        """Loci that each miss a color of a hidden 4-coloring."""
        n = rng.randint(4, 10)
        colors = [0, 1, 2, 3] + [rng.randrange(4) for _ in range(n - 4)]
        rng.shuffle(colors)
        loci = []
        for _ in range(rng.randint(1, 3 * n)):
            miss = rng.randrange(4)
            rest = [v for v in range(n) if colors[v] != miss]
            loci.append(rng.sample(rest, rng.randint(min(3, len(rest)), len(rest))))
        return make_pattern(loci, n)

    def test_bound_implies_a_verified_witness(self):
        # decide runs no quadruple bound: wherever the bound proves the
        # pattern non-decisive, decide must return a verified witness
        rng = random.Random(19)
        generators = [
            lambda: random_pattern(rng, n_range=(4, 10), k_range=(1, 8),
                                   locus_size_range=(3, 7)),
            lambda: self.triples_and_more(rng),
            lambda: self.planted(rng),
        ]
        searched = 0
        for generate in generators:
            for _ in range(400):
                p = generate()
                # n <= 10: direct enumeration is cheap and equals the
                # inclusion-exclusion count
                if not lower_bound_screen(p, ie_max_loci=0):
                    continue
                v = decide(p)
                assert not v.decisive
                w = coloring_from_partition(v.witness, p.n)
                assert verify_no_rainbow(build_hypergraph(p), w)
                searched += v.decided_by != DECIDED_TRIPLE_GAP
        assert searched >= 20  # the kernel search, not the triple gap


class TestDecisiveSubset:
    def test_two_triple_trace(self):
        # coverage: taxa 0 and 3 appear once, 1 and 2 twice; taxon 0 is the
        # tie-broken first removal, after which {1,2,3} with a full locus
        # remains but n=3 is already decisive
        p = make_pattern([[0, 1, 2], [1, 2, 3]], 4)
        trace = decisive_subset(p)
        assert [name for name, _cov in trace.removals] == ["t0"]
        assert trace.removals[0][1] == 1
        assert trace.final_taxa == ("t1", "t2", "t3")
        assert trace.final_verdict.decisive

    def test_already_decisive_removes_nothing(self):
        p = make_pattern([[0, 1, 2, 3, 4]], 5)
        trace = decisive_subset(p)
        assert trace.removals == ()
        assert trace.final_taxa == tuple(f"t{i}" for i in range(5))

    def test_random_inputs_terminate_decisive(self):
        rng = random.Random(18)
        for _ in range(40):
            p = random_pattern(rng, n_range=(4, 8), k_range=(1, 4))
            trace = decisive_subset(p)
            assert len(trace.removals) <= p.n
            assert trace.final_verdict.decisive
            if len(trace.final_taxa) >= 4:
                remaining = make_subpattern(p, trace.final_taxa)
                assert brute_force_nrc(build_hypergraph(remaining), 4) is None


def make_subpattern(
    p: CoveragePattern, keep_names: tuple[str, ...]
) -> CoveragePattern:
    keep = [i for i, name in enumerate(p.taxa) if name in set(keep_names)]
    index = {old: new for new, old in enumerate(keep)}
    loci = []
    for name, members in p.loci:
        kept = [index[i] for i in members if i in index]
        if kept:
            loci.append((name, kept))
    return CoveragePattern.from_sets([p.taxa[i] for i in keep], loci)
