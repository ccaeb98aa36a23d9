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
        earlier = [
            {q for q in range(p) if rows[kept[q]] == rows[kept[p]]}
            for p in range(len(kept))
        ]
        expected = 1 + sum(
            1
            for m in (1, 2)
            for t in combinations(range(len(kept)), m)
            if t[-1] <= len(kept) - 3 + m - 1
            and all(earlier[p] <= set(t) for p in t)
        )
        calls = [0]
        scan = core._first_zero_and

        def counted(*args):
            calls[0] += 1
            return scan(*args)

        monkeypatch.setattr(core, "_first_zero_and", counted)
        assert uncovered_set(rows, 3) is None
        assert calls[0] == expected
        if not shuffled:
            # the top call; one per first copy (46); one per pair of taxon 0
            # and a first copy (45); and from the i-th first copy, one per
            # later first copy and one for its own second copy (46 - i)
            assert expected == 1 + 46 + 45 + 45 * 46 // 2

    def test_size_must_be_positive(self):
        with pytest.raises(InvalidInstanceError):
            uncovered_set([0, 0], 0)
