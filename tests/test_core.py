"""Core types, components, and the rainbow checker."""

import random
from functools import reduce
from itertools import combinations
from operator import and_

import pytest
from hypothesis import given, strategies as st

from decisive import core
from decisive.core import (
    Coloring,
    CoveragePattern,
    Hypergraph,
    build_hypergraph,
    color_classes,
    coloring_failure,
    connected_components,
    is_rainbow,
    no_rainbow_failure,
    uncovered_set,
    verify_no_rainbow,
)
from decisive.errors import InvalidInstanceError


class TestCoveragePattern:
    def test_from_sets_sorts_and_dedups(self):
        p = CoveragePattern.from_sets(["a", "b", "c"], [("L", [2, 0, 2])])
        assert p.loci == (("L", (0, 2)),)
        assert p.n == 3 and p.k == 1

    def test_duplicate_taxon_rejected(self):
        with pytest.raises(InvalidInstanceError):
            CoveragePattern(("a", "a"), (("L", (0,)),))

    def test_duplicate_locus_name_rejected(self):
        with pytest.raises(InvalidInstanceError):
            CoveragePattern(("a", "b"), (("L", (0,)), ("L", (1,))))

    def test_empty_locus_rejected(self):
        with pytest.raises(InvalidInstanceError):
            CoveragePattern(("a",), (("L", ()),))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidInstanceError):
            CoveragePattern(("a", "b"), (("L", (0, 2)),))

    @pytest.mark.parametrize("members", [(1, 0), (0, 0), (0, 1, 1)])
    def test_unsorted_or_repeated_members_rejected(self, members):
        with pytest.raises(InvalidInstanceError) as info:
            CoveragePattern(("a", "b"), (("L", members),))
        assert str(info.value) == "locus 'L' must be sorted with no duplicates"


class TestHypergraph:
    def test_edges_normalized_and_deduped(self):
        h = Hypergraph(4, ((2, 0, 1), (0, 1, 2), (3, 3)))
        assert h.edges == ((0, 1, 2), (3,))

    # sorted edges skip the sort, so draw many of them, as lists and tuples
    @given(st.lists(st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
        st.sets(st.integers(0, 5), min_size=1).map(sorted),
        st.sets(st.integers(0, 5), min_size=1).map(sorted).map(tuple),
    ), max_size=8))
    def test_edges_are_the_sorted_sets_in_first_order(self, edges):
        expected = tuple(dict.fromkeys(tuple(sorted(set(e))) for e in edges))
        h = Hypergraph(6, tuple(edges))
        assert h.edges == expected
        assert all(type(e) is tuple for e in h.edges)

    def test_bad_node_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(2, ((0, 2),))

    def test_build_from_pattern(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L1", [0, 1]), ("L2", [2, 3])])
        assert build_hypergraph(p).edges == ((0, 1), (2, 3))


class TestComponents:
    def test_two_components(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        assert connected_components(h).count == 2

    def test_chain_is_one_component(self):
        h = Hypergraph(4, ((0, 1), (1, 2), (2, 3)))
        assert connected_components(h).count == 1

    def test_isolated_nodes_are_singletons(self):
        h = Hypergraph(5, ((0, 1),))
        parts = connected_components(h)
        assert parts.count == 4
        assert parts.ids[0] == parts.ids[1]

    @given(st.integers(2, 8), st.data())
    def test_component_ids_are_contiguous(self, n, data):
        m = data.draw(st.integers(0, 6))
        edges = tuple(
            tuple(
                data.draw(
                    st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
                )
            )
            for _ in range(m)
        )
        parts = connected_components(Hypergraph(n, edges))
        assert set(parts.ids) == set(range(parts.count))

    @given(st.integers(1, 9), st.data())
    def test_components_numbered_by_lowest_node(self, n, data):
        edges = data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(tuple),
            max_size=6,
        ))
        # reference: each edge merges the blocks it meets
        blocks = [{v} for v in range(n)]
        for edge in edges:
            met = [b for b in blocks if b & set(edge)]
            blocks = [b for b in blocks if b not in met] + [set().union(*met)]
        blocks.sort(key=min)
        parts = connected_components(Hypergraph(n, tuple(edges)))
        assert parts.count == len(blocks)
        assert parts.ids == tuple(
            next(c for c, block in enumerate(blocks) if v in block) for v in range(n)
        )


class TestRainbow:
    def test_full_rainbow_edge(self):
        assert is_rainbow((0, 1, 2, 3), Coloring(4, (1, 2, 3, 4)))

    def test_missing_color_is_not_rainbow(self):
        assert not is_rainbow((0, 1, 2), Coloring(4, (1, 2, 3, 4)))

    def test_two_color_edge(self):
        assert is_rainbow((0, 1), Coloring(2, (1, 2)))

    def test_verify_rejects_rainbow_edge(self):
        h = Hypergraph(4, ((0, 1, 2, 3),))
        assert not verify_no_rainbow(h, Coloring(4, (1, 2, 3, 4)))
        assert "rainbow edge" in no_rainbow_failure(h, Coloring(4, (1, 2, 3, 4)))

    def test_verify_accepts_component_split(self):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        assert verify_no_rainbow(h, Coloring(2, (1, 1, 2, 2)))

    def test_verify_rejects_non_surjective(self):
        h = Hypergraph(4, ((0, 1),))
        reason = no_rainbow_failure(h, Coloring(4, (1, 1, 2, 3)))
        assert reason is not None and "not surjective" in reason

    def test_verify_rejects_wrong_length(self):
        h = Hypergraph(4, ((0, 1),))
        assert no_rainbow_failure(h, Coloring(4, (1, 2, 3, 4, 1))) is not None

    def test_coloring_value_range_checked(self):
        with pytest.raises(InvalidInstanceError):
            Coloring(4, (0, 1, 2, 3))
        with pytest.raises(InvalidInstanceError):
            Coloring(4, (1, 2, 5, 3))

    def test_empty_coloring_is_valid(self):
        assert Coloring(4, ()).assignment == ()

    def test_edge_inside_the_smaller_classes_is_not_rainbow(self):
        # colors 1-3 hold one node each, so the edge meets each of them and
        # is exactly as long as they are together: it misses color 4
        c = Coloring(4, (1, 2, 3, 4, 4, 4))
        assert no_rainbow_failure(Hypergraph(6, ((0, 1, 2), (0, 1, 2, 5))), c) == (
            "rainbow edge 1: (0, 1, 2, 5)"
        )
        assert no_rainbow_failure(Hypergraph(6, ((0, 1, 2),)), c) is None
        assert no_rainbow_failure(Hypergraph(6, ((0, 2), (1,))), c) is None

    def test_first_rainbow_edge_is_reported(self):
        c = Coloring(3, (1, 1, 2, 2, 3, 3))  # three classes tie for largest
        h = Hypergraph(6, ((0, 1, 2, 3), (5, 3, 0), (0, 2, 4), (1, 2, 3, 4, 5)))
        assert no_rainbow_failure(h, c) == "rainbow edge 1: (0, 3, 5)"

    def test_color_classes(self):
        assert color_classes(Coloring(4, (4, 2, 4, 1, 2))) == [
            (3,), (1, 4), (), (0, 2)
        ]


def reference_failure(h: Hypergraph, coloring: Coloring):
    """The checker as a loop of ``is_rainbow`` over every edge."""
    if len(coloring.assignment) != h.node_count:
        return "coloring does not cover every node"
    if not coloring.is_surjective():
        missing = sorted(set(range(1, coloring.r + 1)) - set(coloring.assignment))
        return f"not surjective: color {missing[0]} unused"
    for idx, edge in enumerate(h.edges):
        if is_rainbow(edge, coloring):
            return f"rainbow edge {idx}: {edge}"
    return None


@st.composite
def colorings(draw, n: int, r: int) -> Coloring:
    """Any coloring, or one whose largest class ties with another, or one
    whose largest class holds all but one node of each other color."""
    shape = draw(st.sampled_from(["any", "tie", "dominant"]))
    if shape == "any":
        return Coloring(r, tuple(draw(st.lists(
            st.integers(1, r), min_size=n, max_size=n
        ))))
    order = draw(st.permutations(range(n)))
    assignment = [0] * n
    if shape == "tie":
        # colors 3..r once each, then colors 1 and 2 in turn
        for i, v in enumerate(order):
            assignment[v] = i + 3 if i < r - 2 else 1 + (i - r) % 2
    else:
        big = draw(st.integers(1, r))
        others = [q for q in range(1, r + 1) if q != big]
        for i, v in enumerate(order):
            assignment[v] = others[i] if i < len(others) else big
    return Coloring(r, tuple(assignment))


@st.composite
def colored_hypergraphs(draw) -> tuple[Hypergraph, Coloring]:
    r = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    nodes = st.integers(0, n - 1)
    edges = draw(st.lists(st.one_of(
        st.lists(nodes, min_size=1, max_size=r),  # unsorted, as short as r
        st.lists(nodes, min_size=1, max_size=2 * n),
        st.sets(nodes, min_size=1).map(sorted).map(tuple),
    ), min_size=1, max_size=8))
    coloring = draw(st.one_of(
        colorings(n, r),
        st.integers(max(n - 1, 1), n + 1).flatmap(lambda m: colorings(m, r)),
    ))
    return Hypergraph(n, tuple(edges)), coloring


class TestClassWiseChecker:
    @given(colored_hypergraphs())
    def test_matches_the_edge_loop(self, case):
        h, coloring = case
        assert no_rainbow_failure(h, coloring) == reference_failure(h, coloring)

    @given(st.data())
    def test_pattern_loci_match_the_hypergraph(self, data):
        n = data.draw(st.integers(1, 10))
        r = data.draw(st.integers(2, 4))
        members = data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=6
        ))
        members.append(members[0])  # two loci of equal members
        p = CoveragePattern.from_sets(
            [f"t{i}" for i in range(n)],
            [(f"L{j}", m) for j, m in enumerate(members)],
        )
        coloring = data.draw(colorings(n, r))
        on_loci = coloring_failure(
            n, p.locus_subsets(), coloring, color_classes(coloring)
        )
        on_graph = no_rainbow_failure(build_hypergraph(p), coloring)
        assert (on_loci is None) == (on_graph is None)
        assert on_graph == reference_failure(build_hypergraph(p), coloring)


class TestUncoveredSet:
    @given(
        st.integers(1, 3),
        st.one_of(
            st.integers(1, 4).flatmap(
                # few loci over many taxa: heavy duplication and all-zero rows
                lambda k: st.lists(st.integers(0, (1 << k) - 1), max_size=16)
            ),
            # many copies of at most 4 distinct rows
            st.lists(
                st.integers(0, 15), min_size=1, max_size=4, unique=True
            ).flatmap(lambda values: st.lists(st.sampled_from(values), max_size=40)),
        ),
    )
    def test_matches_lex_first_combination(self, size, rows):
        expected = next(
            (c for c in combinations(range(len(rows)), size)
             if reduce(and_, (rows[i] for i in c)) == 0),
            None,
        )
        assert uncovered_set(rows, size) == expected

    def test_later_copies_are_skipped(self):
        # the third copy of row 0b01 is never needed for a pair
        assert uncovered_set([0b01, 0b01, 0b01, 0b10], 2) == (0, 3)
        assert uncovered_set([0, 0, 0], 3) == (0, 1, 2)
        assert uncovered_set([0b11, 0b11, 0b11, 0b11], 3) is None

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_scan_counts_only_copy_closed_sets(self, monkeypatch, shuffled):
        # the rows of a 300-taxon, 45-locus rooted residue pattern: taxon 0
        # is in every locus, taxon i >= 1 misses locus i mod 45, and every
        # triple is covered, so the scan runs to the end
        full = (1 << 45) - 1
        rows = [full] + [full & ~(1 << i % 45) for i in range(1, 300)]
        if shuffled:
            random.Random(3).shuffle(rows)
        # the scan keeps the first 3 copies of each row; a partial set is
        # extended only while it holds the earlier kept copies of each row in
        # it, and only by positions that leave room for the rest of the set
        kept = [i for i, row in enumerate(rows) if rows[:i].count(row) < 3]
        end = len(kept)
        earlier = [
            {q for q in range(p) if rows[kept[q]] == rows[kept[p]]}
            for p in range(end)
        ]
        singles, pairs = (
            [t for t in combinations(range(end), m)
             if t[-1] <= end - 3 + m - 1 and all(earlier[p] <= set(t) for p in t)]
            for m in (1, 2)
        )
        calls, reads = [0], [0]
        scan = core._first_zero_and

        class CountedRows(list):
            def __getitem__(self, p):
                reads[0] += 1
                return list.__getitem__(self, p)

        def counted(kept_rows, *args):
            calls[0] += 1
            return scan(CountedRows(kept_rows), *args)

        monkeypatch.setattr(core, "_first_zero_and", counted)
        assert uncovered_set(rows, 3) is None
        # one call for the empty set and one per single, whose row is read
        # once; the last two levels run inline in that call: each pair reads
        # its last row, and then the row of every later position, as the
        # third element is not checked and no triple is uncovered
        assert calls[0] == 1 + len(singles)
        assert reads[0] == len(singles) + sum(end - t[-1] for t in pairs)
        if not shuffled:
            # one single per first copy (46); one pair of taxon 0 and a first
            # copy (45); and from the i-th first copy, one pair per later
            # first copy and one with its own second copy (46 - i)
            assert len(singles) == 46
            assert len(pairs) == 45 + 45 * 46 // 2

    def test_size_must_be_positive(self):
        with pytest.raises(InvalidInstanceError):
            uncovered_set([0, 0], 0)
