"""The decision pipeline and the greedy decisive-subset heuristic."""

import importlib
import logging
import random
import re
import time
from itertools import combinations

import pytest

from conftest import (
    duplicated_pattern,
    kernel_hypergraph,
    planted_4_sets,
    planted_pattern,
    random_pattern,
    reference_link_covers,
    with_copies,
)
from decisive import bounds, reduction
from decisive.bounds import lower_bound_screen
from decisive.core import (
    Coloring,
    CoveragePattern,
    Hypergraph,
    build_hypergraph,
    verify_no_rainbow,
)
from decisive.errors import DecisiveError, SizeLimitError
from decisive.nrc import NrcOutcome, nrc4
from decisive.oracle import brute_force_nrc
from decisive.pipeline import (
    DECIDED_DIRECT,
    DECIDED_FPT,
    DECIDED_FULL_LOCUS,
    DECIDED_ROOTED,
    DECIDED_TRIPLE_GAP,
    DECIDED_TRIVIAL_SMALL,
    Verdict,
    coloring_from_partition,
    decide,
    decisive_subset,
    partition_from_coloring,
)
from decisive.reduction import (
    dedup,
    fpt_nrc4,
    kernel_nrc4,
    lift_coloring,
    reduce_pattern,
    zero_and_screen,
)

# the package exports a function named nrc, which hides the module attribute
nrc_module = importlib.import_module("decisive.nrc")


def make_pattern(loci: list[list[int]], n: int) -> CoveragePattern:
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)],
        [(f"L{j}", members) for j, members in enumerate(loci)],
    )


def assert_engines_agree(p: CoveragePattern) -> Verdict:
    """``decide``, ``fpt_nrc4``, ``nrc4`` and the oracle give one answer, and
    every witness is a no-rainbow 4-coloring; returns decide's verdict."""
    h = build_hypergraph(p)
    decisive = brute_force_nrc(h, 4) is None
    v = decide(p)
    assert v.decisive == decisive
    witnesses = [fpt_nrc4(p).witness, nrc4(h).witness]
    assert [w is None for w in witnesses] == [decisive, decisive]
    if not decisive:
        witnesses.append(coloring_from_partition(v.witness, p.n))
        assert all(verify_no_rainbow(h, w) for w in witnesses)
    return v


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


class TestWitnessReverification:
    """``decide`` re-checks every witness on the raw pattern and refuses one
    that fails."""

    SCREENED = make_pattern([[0, 1, 2, 3], [1, 2, 3, 4]], 5)

    @pytest.mark.parametrize("assignment", [
        (1, 2, 3, 4, 4),  # locus 0 is rainbow
        (1, 1, 2, 3, 3),  # color 4 unused
    ])
    def test_screen_witness_that_fails_is_refused(self, monkeypatch, assignment):
        bad = Coloring(4, assignment)
        assert not verify_no_rainbow(build_hypergraph(self.SCREENED), bad)
        monkeypatch.setattr(reduction, "zero_and_screen", lambda p: bad)
        with pytest.raises(DecisiveError, match="fails re-verification"):
            decide(self.SCREENED)

    def test_search_witness_that_fails_is_refused(self, monkeypatch):
        # every 4-set of six taxa that misses a color of (1, 2, 3, 4, 1, 2),
        # plus copies: the six rows form an antichain, so nothing folds and
        # the kernel that reaches the search has six rows
        planted = make_pattern(planted_4_sets((1, 2, 3, 4, 1, 2)), 6)
        p = with_copies(planted, random.Random(5), 3)
        lifted = []

        def rainbow_search(ri, search_cap):
            kernel_coloring = Coloring(
                4, tuple(min(i, 3) + 1 for i in range(ri.n_reduced))
            )
            lifted.append(lift_coloring(ri, kernel_coloring))
            return NrcOutcome(lifted[-1], nrc_module.RULE_EXHAUSTED)

        monkeypatch.setattr(reduction, "kernel_nrc4", rainbow_search)
        with pytest.raises(DecisiveError, match="fails re-verification"):
            decide(p)
        assert lifted[0].assignment[:6] == (1, 2, 3, 4, 4, 4)
        assert not verify_no_rainbow(build_hypergraph(p), lifted[0])


class TestKernelBuiltOnlyForTheSearch:
    """The screens read the pattern's rows; the kernel is built once, and
    only when the search runs."""

    ROOTED = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]]
    QUADS = [list(q) for q in combinations(range(6), 4)]

    @pytest.fixture
    def reductions(self, monkeypatch):
        """The patterns passed to ``reduction.reduce_pattern``."""
        calls = []
        original = reduction.reduce_pattern

        def counted(pattern):
            calls.append(pattern)
            return original(pattern)

        monkeypatch.setattr(reduction, "reduce_pattern", counted)
        return calls

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(pattern):
            raise AssertionError("kernel built for a screen")

        monkeypatch.setattr(reduction, "reduce_pattern", refuse)

    @pytest.mark.parametrize(
        "loci, n, label",
        [
            ([[0, 1, 2, 3, 4]], 5, DECIDED_FULL_LOCUS),
            ([[0, 1, 2], [1, 2, 3]], 4, DECIDED_TRIPLE_GAP),
            (ROOTED, 5, DECIDED_ROOTED),
        ],
    )
    def test_screens_build_no_kernel(self, no_kernel, loci, n, label):
        assert decide(make_pattern(loci, n)).decided_by == label

    @pytest.mark.parametrize(
        "loci, n, label",
        [
            (QUADS, 6, DECIDED_DIRECT),
            ([q + [6] if 5 in q else q for q in QUADS], 7, DECIDED_FPT),
        ],
    )
    def test_search_builds_the_kernel_once(self, reductions, loci, n, label):
        p = make_pattern(loci, n)
        assert decide(p).decided_by == label
        assert reductions == [p]

    def test_fpt_nrc4_screens_before_the_kernel(self, no_kernel):
        assert fpt_nrc4(make_pattern([[0, 1, 2], [1, 2, 3]], 4)).found


class TestDecideEngines:
    def test_star_pattern_decisive_by_search(self):
        from decisive.bounds import star_hypergraph

        h = star_hypergraph(5, 4)
        p = make_pattern([list(e) for e in h.edges], 5)
        assert decide(p).decisive
        assert not nrc4(h).found
        assert not fpt_nrc4(p).found
        assert brute_force_nrc(h, 4) is None

    def test_strategies_agree(self):
        rng = random.Random(16)
        for _ in range(60):
            p = random_pattern(rng, n_range=(4, 9), k_range=(1, 4))
            assert_engines_agree(p)

    def test_duplicate_heavy_patterns(self):
        rng = random.Random(17)
        for _ in range(40):
            assert_engines_agree(duplicated_pattern(rng, base_n=4, k=3, copies=6))

    def test_witness_blocks_partition_taxa(self):
        p = make_pattern([[0, 1, 2], [1, 2, 3]], 4)
        v = decide(p)
        flat = sorted(i for block in v.witness for i in block)
        assert flat == list(range(p.n))
        assert len(v.witness) == 4

    def test_stats_have_timing(self):
        v = decide(make_pattern([[0, 1, 2, 3]], 4))
        assert v.stats["elapsed_s"] >= 0

    def test_each_decide_logs_one_line(self, caplog):
        # every 4-set of 6 taxa: searched directly, and with a copy of the
        # last taxon, searched on its 6-row kernel
        quads = [list(q) for q in combinations(range(6), 4)]
        rooted = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]]
        cases = [
            ([[0, 1, 2]], 3, "trivial-small-n, n=3, k=1, kernel rows not built"),
            ([[0, 1, 2, 3, 4]], 5, "full-locus, n=5, k=1, kernel rows not built"),
            ([[0, 1, 2], [1, 2, 3]], 4,
             "triple-gap, n=4, k=2, kernel rows not built"),
            (rooted, 5, "rooted, n=5, k=4, kernel rows not built"),
            (quads, 6, "direct-search, n=6, k=15, kernel rows 6"),
            ([q + [6] if 5 in q else q for q in quads], 7,
             "fpt, n=7, k=15, kernel rows 6"),
        ]
        caplog.set_level(logging.DEBUG, logger="decisive.pipeline")
        for loci, n, _ in cases:
            decide(make_pattern(loci, n))
        assert len(caplog.records) == len(cases)
        for record, (_, _, fields) in zip(caplog.records, cases):
            assert record.name == "decisive.pipeline"
            assert record.levelno == logging.DEBUG
            assert re.fullmatch(
                rf"decide: {fields}, \d+\.\d{{6}} s", record.getMessage()
            )


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

    def test_bound_implies_a_verified_witness(self, monkeypatch):
        # decide runs no quadruple bound: wherever the bound proves the
        # pattern non-decisive, decide must return a verified witness
        # n <= 10: direct enumeration is cheap and equals the
        # inclusion-exclusion count
        monkeypatch.setattr(bounds, "IE_MAX_LOCI", 0)
        rng = random.Random(19)
        generators = [
            lambda: random_pattern(rng, n_range=(4, 10), k_range=(1, 8),
                                   locus_size_range=(3, 7)),
            lambda: self.triples_and_more(rng),
            lambda: planted_pattern(rng),
        ]
        searched = 0
        for generate in generators:
            for _ in range(400):
                p = generate()
                if not lower_bound_screen(p):
                    continue
                v = decide(p)
                assert not v.decisive
                w = coloring_from_partition(v.witness, p.n)
                assert verify_no_rainbow(build_hypergraph(p), w)
                searched += v.decided_by != DECIDED_TRIPLE_GAP
        assert searched >= 20  # the kernel search, not the triple gap


def relabelled(p: CoveragePattern, rng: random.Random) -> CoveragePattern:
    """p with its taxa renumbered at random and its loci reordered."""
    new_index = list(range(p.n))
    rng.shuffle(new_index)
    taxa = [""] * p.n
    for i, name in enumerate(p.taxa):
        taxa[new_index[i]] = name
    loci = [(name, [new_index[i] for i in members]) for name, members in p.loci]
    rng.shuffle(loci)
    return CoveragePattern.from_sets(taxa, loci)


def dense_pattern(rng: random.Random, n_range: tuple[int, int]) -> CoveragePattern:
    """Loci that each miss one to three taxa: most triples are covered, so
    many of these patterns reach the kernel search."""
    n = rng.randint(*n_range)
    return random_pattern(
        rng, n_range=(n, n), k_range=(3, 12), locus_size_range=(n - 3, n - 1)
    )


def dense_with_copies(rng: random.Random) -> CoveragePattern:
    p = dense_pattern(rng, (4, 7))
    return with_copies(p, rng, rng.randint(1, 9 - p.n))


class TestDifferential:
    """decide against the oracle and the other engines, n <= 9."""

    FAMILIES = {
        "random": lambda rng: dense_pattern(rng, (4, 9)),
        "duplicated": dense_with_copies,
        "planted": lambda rng: planted_pattern(rng, n_range=(4, 9)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_engines_agree_and_labels_do_not_matter(self, family):
        rng = random.Random(f"differential-{family}")
        searched = 0
        for _ in range(100):
            p = self.FAMILIES[family](rng)
            v = assert_engines_agree(p)
            assert decide(relabelled(p, rng)).decisive == v.decisive
            searched += v.decided_by in (DECIDED_FPT, DECIDED_DIRECT)
        assert searched >= 10  # the kernel search, not only the screens


def missing_groups(n: int, dropped: list[set[int]]) -> CoveragePattern:
    """Locus j covers every taxon outside ``dropped[j]``."""
    return make_pattern([[i for i in range(n) if i not in d] for d in dropped], n)


def nested_pattern(rng: random.Random, copies: bool) -> CoveragePattern:
    """A dense pattern, with copied taxa or without, plus one to four loci
    that each lie inside one of its loci (or equal it)."""
    p = dense_pattern(rng, (4, 7) if copies else (4, 9))
    if copies:
        p = with_copies(p, rng, rng.randint(1, 9 - p.n))
    loci = [list(members) for _name, members in p.loci]
    for _ in range(rng.randint(1, 4)):
        outer = rng.choice(loci)
        loci.append(rng.sample(outer, rng.randint(min(3, len(outer)), len(outer))))
    return make_pattern(loci, p.n)


class TestDominatedLoci:
    """decide searches the kernel left after dropping dominated loci."""

    @staticmethod
    def grouped_miss_100() -> CoveragePattern:
        """Taxon i is in group i mod 10; locus j drops group j mod 10, and
        loci 10..20 also drop taxon j + 11: 21 distinct rows, over the
        budget, and a 10-row kernel once loci 10..20, each inside locus
        j - 10, are dropped."""
        groups = [{i for i in range(100) if i % 10 == g} for g in range(10)]
        return missing_groups(
            100, groups + [groups[j % 10] | {j + 11} for j in range(10, 21)]
        )

    def test_grouped_miss_decided_within_a_second(self):
        p = self.grouped_miss_100()
        assert dedup(p.rows, p.k).n_reduced == 21
        assert reduce_pattern(p).n_reduced == 10
        start = time.perf_counter()
        v = decide(p)
        assert time.perf_counter() - start < 1.0
        assert v.decisive and v.decided_by == DECIDED_FPT

    def test_decide_logs_the_searched_kernel(self, caplog):
        # decide's line names the row count that the search's estimate
        # line names as its nodes
        caplog.set_level(logging.DEBUG, logger="decisive")
        decide(self.grouped_miss_100())
        lines = [(r.name, r.getMessage()) for r in caplog.records]
        (estimate,) = [m for name, m in lines if "guesses, budget" in m]
        (decided,) = [m for name, m in lines if name == "decisive.pipeline"]
        assert estimate.startswith("4-NRC search: 10 nodes, ")
        assert re.fullmatch(
            r"decide: fpt, n=100, k=21, kernel rows 10, \d+\.\d{6} s", decided
        )

    def test_rows_merged_by_the_drop_count_as_spares(self):
        # taxon i is in group i mod 10: taxa 0 and 10 differ only in the
        # last locus, which lies inside the one that drops group 1
        groups = [{i for i in range(11) if i % 10 == g} for g in range(10)]
        p = missing_groups(11, groups + [groups[1] | {10}])
        assert dedup(p.rows, p.k).spares == 0
        assert reduce_pattern(p).spares == 1
        v = decide(p)
        assert v.decisive and v.decided_by == DECIDED_FPT

    @pytest.mark.parametrize("copies", [False, True])
    def test_engines_agree_on_nested_loci(self, copies):
        rng = random.Random(f"nested-{copies}")
        shrunk = 0
        for _ in range(150):
            p = nested_pattern(rng, copies)
            v = assert_engines_agree(p)
            shrunk += (
                v.decided_by in (DECIDED_FPT, DECIDED_DIRECT)
                and reduce_pattern(p).n_reduced < dedup(p.rows, p.k).n_reduced
            )
        assert shrunk >= 10  # the search ran on a smaller kernel


class TestFoldedKernel:
    """decide searches the kernel that the fold leaves, once every triple
    is covered."""

    @pytest.fixture
    def searched(self, monkeypatch):
        """The kernels passed to ``reduction.kernel_nrc4``, and a count of
        the search's completions."""
        seen = dict(kernels=[], completions=0)
        kernel_nrc4, complete = reduction.kernel_nrc4, nrc_module._complete

        def kernel_spy(ri, *args):
            seen["kernels"].append(ri)
            return kernel_nrc4(ri, *args)

        def complete_spy(*args):
            seen["completions"] += 1
            return complete(*args)

        monkeypatch.setattr(reduction, "kernel_nrc4", kernel_spy)
        monkeypatch.setattr(nrc_module, "_complete", complete_spy)
        return seen

    def test_star_reaches_the_search_as_one_row(self, searched):
        from decisive.bounds import star_hypergraph

        p = make_pattern([list(e) for e in star_hypergraph(10, 4).edges], 10)
        assert reduce_pattern(p).n_reduced == 10
        v = decide(p)
        assert v.decisive and v.decided_by == DECIDED_FPT
        assert v.stats["rule"] == nrc_module.RULE_EXHAUSTED
        (kernel,) = searched["kernels"]
        assert kernel.n_reduced == 1 and kernel.classes == (tuple(range(10)),)
        assert searched["completions"] == 0

    def test_shape_once_refused_is_decided(self, searched):
        # locus j drops the taxa i = j mod 22 and one random taxon: every
        # triple is covered and the rows form no antichain, 35 of them
        # until the fold leaves one
        rng = random.Random(0)
        dropped = []
        for j in range(22):
            d = {i for i in range(40) if i % 22 == j}
            d.add(rng.choice(sorted(set(range(40)) - d)))
            dropped.append(d)
        p = missing_groups(40, dropped)
        assert reduce_pattern(p).n_reduced == 35
        start = time.perf_counter()
        v = decide(p)
        assert time.perf_counter() - start < 1.0
        assert v.decisive and v.decided_by == DECIDED_FPT
        assert [ri.n_reduced for ri in searched["kernels"]] == [1]
        assert searched["completions"] == 0

    def test_unfolded_kernels_give_the_search_they_gave_before(self):
        # where the fold returns the kernel itself, decide's verdict and
        # witness are the search's on reduce_pattern's kernel
        rng = random.Random("unfolded")
        unfolded = 0
        for _ in range(80):
            p = with_copies(planted_pattern(rng, (5, 9)), rng, rng.randint(0, 3))
            kernel = reduce_pattern(p)
            if zero_and_screen(p) is not None or kernel.n_reduced < 4:
                continue
            if reduction.fold_kernel(kernel) is not kernel:
                continue
            unfolded += 1
            v = decide(p)
            outcome = reduction.kernel_nrc4(kernel)
            assert v.witness == partition_from_coloring(outcome.witness)
            assert v.decided_by == (DECIDED_FPT if kernel.spares else DECIDED_DIRECT)
        assert unfolded >= 10


class TestKernelSearch:
    """On patterns with every triple covered, the kernel search on the rows
    of ``reduce_pattern(p)`` gives ``nrc4`` on that kernel's hypergraph,
    lifted."""

    FAMILIES = {
        "dense": lambda rng: dense_pattern(rng, (4, 9)),
        "duplicated": dense_with_copies,
        "nested": lambda rng: nested_pattern(rng, rng.random() < 0.5),
        "planted": lambda rng: with_copies(
            planted_pattern(rng, n_range=(5, 9)), rng, rng.randint(0, 3)
        ),
    }

    def test_equals_nrc4_on_the_kernel_hypergraph(self):
        seen = dict(searched=0, found=0, copies=0, dropped=0, small_edge=0)
        for family, make in self.FAMILIES.items():
            rng = random.Random(f"kernel-search-{family}")
            for _ in range(150):
                p = make(rng)
                kernel = reduce_pattern(p)
                if zero_and_screen(p) is not None or kernel.n_reduced < 4:
                    continue
                h = kernel_hypergraph(kernel)
                out = nrc4(h)
                if out.found:
                    out = NrcOutcome(lift_coloring(kernel, out.witness), out.rule)
                assert kernel_nrc4(kernel) == out
                seen["searched"] += 1
                seen["found"] += out.found
                seen["copies"] += kernel.spares > 0
                seen["dropped"] += kernel.source_rows != p.rows
                seen["small_edge"] += any(len(e) < 4 for e in h.edges)
        assert seen["searched"] >= 100
        assert min(seen.values()) >= 30


def grouped_miss(rng: random.Random, n: int, groups: int, pure: int, k: int):
    """Taxa in ``groups`` nonempty random groups; locus j drops group
    j mod groups, and from locus ``pure`` on also one random taxon or one
    more group.  Pure loci for five distinct groups make it decisive."""
    group = list(range(groups)) + [rng.randrange(groups) for _ in range(n - groups)]
    rng.shuffle(group)
    dropped = []
    for j in range(k):
        d = {i for i in range(n) if group[i] == j % groups}
        if j >= pure:
            if rng.random() < 0.5:
                d.add(rng.randrange(n))
            else:
                extra = rng.randrange(groups)
                d |= {i for i in range(n) if group[i] == extra}
        dropped.append(d)
    return missing_groups(n, dropped)


def residue(rng: random.Random, n: int) -> CoveragePattern:
    """Taxon i in group i mod g for some g >= 5, locus j drops group j:
    decisive."""
    g = rng.randint(5, n)
    return missing_groups(n, [{i for i in range(n) if i % g == j} for j in range(g)])


def link_screen_fires(h: Hypergraph) -> bool:
    """nrc4 on h skips a rarest class A: its link covers every triple."""
    n = h.node_count
    return any(
        reference_link_covers(h, a, 3)
        for i in range(1, n // 4 + 1)
        for a in combinations(range(n), i)
    )


def screened_search(p: CoveragePattern) -> bool:
    """decide searches the kernel of p, and nrc4 skips a guess both there
    and on the taxa."""
    kernel = reduce_pattern(p)
    return (
        decide(p).decided_by in (DECIDED_FPT, DECIDED_DIRECT)
        and link_screen_fires(kernel_hypergraph(kernel))
        and link_screen_fires(build_hypergraph(p))
    )


class TestLinkScreen:
    """Patterns whose search skips rarest classes with a link that covers
    every triple: the engines still agree with the oracle, n <= 9."""

    FAMILIES = {
        "residue": lambda rng: residue(rng, rng.randint(7, 9)),
        "grouped-miss": lambda rng: grouped_miss(
            rng, rng.randint(7, 9), rng.randint(4, 6), rng.randint(3, 5),
            rng.randint(6, 9),
        ),
        "nested-loci": lambda rng: nested_pattern(rng, rng.random() < 0.5),
        "planted": lambda rng: planted_pattern(rng, n_range=(8, 9)),
    }

    @pytest.fixture(scope="class")
    def screened(self):
        rng = random.Random("link-screen")
        out = {}
        for family, make in self.FAMILIES.items():
            out[family] = []
            while len(out[family]) < 6:
                p = make(rng)
                if screened_search(p):
                    out[family].append(p)
        return out

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_engines_agree_with_the_oracle(self, screened, family):
        for p in screened[family]:
            assert_engines_agree(p)

    # perfbench/run.py calls decide(parsed, parallel=True) for its
    # search-parallel workload; decide takes the keyword and ignores it
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_parallel_search_gives_the_sequential_verdict(self, screened, family):
        for p in screened[family]:
            par, seq = decide(p, parallel=True), decide(p)
            assert (par.decisive, par.witness, par.decided_by) == (
                seq.decisive, seq.witness, seq.decided_by
            )


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
