"""Edge-count lower bounds, coverage screens, and the tight construction."""

import random
from itertools import combinations
from math import comb

import pytest

from conftest import random_pattern
from decisive import bounds
from decisive.bounds import (
    a_closed,
    a_recurrence,
    bound_report,
    count_quadruples,
    lower_bound_screen,
    rooted_decide,
    star_hypergraph,
    triple_coverage,
)
from decisive.core import CoveragePattern
from decisive.errors import InvalidInstanceError, SizeLimitError
from decisive.oracle import brute_force_nrc


def full_pattern(n: int) -> CoveragePattern:
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)], [("L", range(n))]
    )


def star_pattern(n: int = 5) -> CoveragePattern:
    edges = star_hypergraph(n, 4).edges
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)],
        [(f"Q{j}", e) for j, e in enumerate(edges)],
    )


class TestEdgeCountBound:
    def test_recurrence_equals_closed_form(self):
        for n in range(1, 31):
            for r in range(1, n + 1):
                assert a_recurrence(n, r) == a_closed(n, r) == comb(n - 1, r - 1)

    def test_known_values(self):
        assert a_recurrence(7, 4) == 20
        assert a_closed(30, 4) == 3654
        assert a_closed(5, 4) == 4

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInstanceError):
            a_recurrence(3, 4)
        with pytest.raises(InvalidInstanceError):
            a_closed(5, 0)


class TestQuadrupleCount:
    def test_full_locus(self):
        assert count_quadruples(full_pattern(6)) == comb(6, 4)

    def test_inclusion_exclusion_matches_direct(self, monkeypatch):
        rng = random.Random(10)
        for _ in range(60):
            p = random_pattern(rng, n_range=(4, 9), k_range=(1, 4))
            direct = sum(
                1
                for quad in combinations(range(p.n), 4)
                if any(set(quad) <= set(m) for _n, m in p.loci)
            )
            assert count_quadruples(p) == direct
            with monkeypatch.context() as m:
                m.setattr(bounds, "IE_MAX_LOCI", 0)
                assert count_quadruples(p) == direct

    def test_work_cap(self, monkeypatch):
        p = random_pattern(random.Random(11), n_range=(9, 9), k_range=(3, 3))
        monkeypatch.setattr(bounds, "IE_MAX_LOCI", 0)
        monkeypatch.setattr(bounds, "ENUM_WORK_CAP", 10)
        with pytest.raises(SizeLimitError):
            count_quadruples(p)

    def test_screen_never_fires_on_full_locus(self):
        for n in range(4, 9):
            assert not lower_bound_screen(full_pattern(n))

    def test_screen_fires_on_sparse_pattern(self):
        p = CoveragePattern.from_sets(
            list("abcdef"), [("L1", [0, 1, 2, 3]), ("L2", [2, 3, 4, 5])]
        )
        # 2 quadruples < C(5,3) = 10
        assert lower_bound_screen(p)


class TestTripleCoverage:
    def test_full_locus_covers(self):
        ok, gap = triple_coverage(full_pattern(5))
        assert ok and gap is None

    def test_first_gap_is_lexicographic(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1, 2])]
        )
        ok, gap = triple_coverage(p)
        assert not ok and gap == (0, 1, 3)

    def test_star_pattern_covers_triples(self):
        assert triple_coverage(star_pattern())[0]


class TestRooted:
    def test_common_taxon_found(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1, 2]), ("L2", [0, 2, 3])]
        )
        assert bound_report(p).common_taxon == 0

    def test_no_common_taxon(self):
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1]), ("L2", [2, 3])]
        )
        assert bound_report(p).common_taxon is None
        assert rooted_decide(p) is None

    def test_rooted_decisive_iff_triples_covered(self):
        assert rooted_decide(full_pattern(5)) is True
        p = CoveragePattern.from_sets(
            list("abcd"), [("L1", [0, 1, 2]), ("L2", [0, 2, 3])]
        )
        assert rooted_decide(p) is False  # triple (1, 2, 3) uncovered

    def test_report_fields(self):
        rep = bound_report(star_pattern())
        assert rep.n == 5 and rep.k == 4
        assert rep.quadruple_count == 4 and rep.threshold == comb(4, 3)
        assert rep.triple_coverage_ok
        # node 3 sits in every edge of the 5-node tight instance
        assert rep.rooted and rep.common_taxon == 3


class TestStarHypergraph:
    def test_edge_counts(self):
        for n in range(5, 10):
            assert len(star_hypergraph(n, 4).edges) == a_closed(n, 4)
        for r in range(2, 6):
            assert len(star_hypergraph(r + 1, r).edges) == r

    def test_uniform(self):
        assert all(len(e) == 4 for e in star_hypergraph(8, 4).edges)

    def test_five_node_instance_blocked(self):
        s = star_hypergraph(5, 4)
        assert s.edges == ((0, 1, 2, 3), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4))
        assert brute_force_nrc(s, 4) is None

    def test_three_color_instance_blocked(self):
        assert brute_force_nrc(star_hypergraph(6, 3), 3) is None

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInstanceError):
            star_hypergraph(4, 4)
