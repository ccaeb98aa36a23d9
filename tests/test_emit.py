"""ILP and CNF emitters, their evaluators, and byte-stable output."""

import random

import pytest

from conftest import (
    cnf_satisfiable_exhaustive,
    random_hypergraph,
    random_pattern,
)
from decisive.core import Coloring, CoveragePattern, Hypergraph, build_hypergraph
from decisive.emit import (
    cnf_assignment_from_coloring,
    cnf_holds,
    decode_cnf,
    emit_cnf,
    emit_ilp,
    evaluate_ilp,
    ilp_assignment_from_coloring,
    violated_clause,
)
from decisive.errors import InputFormatError, InvalidInstanceError
from decisive.oracle import brute_force_nrc


def synthetic_pattern(n: int, k: int) -> CoveragePattern:
    """Loci tiled over the taxa; only (n, k) matter for the model shape."""
    loci = []
    for j in range(k):
        members = [i for i in range(n) if i % k == j] or [j % n]
        loci.append((f"L{j}", members))
    return CoveragePattern.from_sets([f"t{i}" for i in range(n)], loci)


class TestIlpShape:
    @pytest.mark.parametrize(
        "n,k,rows,cols",
        [(136, 6, 194, 568), (112, 5, 161, 468), (137, 6, 195, 572)],
    )
    def test_published_model_sizes(self, n, k, rows, cols):
        model = emit_ilp(synthetic_pattern(n, k))
        assert (model.num_rows, model.num_columns) == (rows, cols)

    def test_dimension_formulas(self):
        rng = random.Random(12)
        for _ in range(20):
            p = random_pattern(rng)
            m = emit_ilp(p)
            coverage = sum(len(members) for _n, members in p.loci)
            assert m.num_rows == p.n + 4 + 9 * p.k
            assert m.num_columns == 4 * p.n + 4 * p.k
            assert m.num_nonzeros == 8 * p.n + 8 * coverage + 12 * p.k

    def test_lp_text_sections(self):
        text = emit_ilp(synthetic_pattern(5, 2)).to_lp_text()
        lines = text.split("\n")
        assert lines[0] == "Minimize"
        assert lines[1] == " obj: 0"
        assert lines[2] == "Subject To"
        assert "Binary" in lines and lines[-2] == "End" and lines[-1] == ""
        assert "\r" not in text

    def test_lp_text_byte_stable(self):
        p = synthetic_pattern(8, 3)
        assert emit_ilp(p).to_lp_text() == emit_ilp(p).to_lp_text()

    def test_too_few_taxa(self):
        with pytest.raises(InvalidInstanceError):
            emit_ilp(synthetic_pattern(3, 1))


class TestIlpEvaluation:
    def test_witness_assignment_feasible(self):
        p = CoveragePattern.from_sets(
            list("abcde"), [("L1", [0, 1, 2, 3]), ("L2", [1, 2, 3, 4])]
        )
        w = brute_force_nrc(build_hypergraph(p), 4)
        assert w is not None
        assert evaluate_ilp(emit_ilp(p), ilp_assignment_from_coloring(p, w)) is None

    def test_rainbow_coloring_violates_block_four(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1, 2, 3])])
        row = evaluate_ilp(
            emit_ilp(p), ilp_assignment_from_coloring(p, Coloring(4, (1, 2, 3, 4)))
        )
        assert row is not None and row.block == 4

    def test_monochrome_violates_block_two(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1])])
        model = emit_ilp(p)
        values = ilp_assignment_from_coloring(p, Coloring(4, (1, 1, 1, 1)))
        row = evaluate_ilp(model, values)
        assert row is not None and row.block == 2

    def test_double_color_violates_block_one(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1])])
        model = emit_ilp(p)
        values = ilp_assignment_from_coloring(p, Coloring(4, (1, 2, 3, 4)))
        values["x_1_2"] = 1  # taxon 1 now claims colors 1 and 2
        row = evaluate_ilp(model, values)
        assert row is not None and row.block == 1 and row.index == 0

    def test_missing_variable_rejected(self):
        p = CoveragePattern.from_sets(list("abcd"), [("L", [0, 1])])
        with pytest.raises(InputFormatError):
            evaluate_ilp(emit_ilp(p), {})


class TestCnf:
    def test_single_quadruple_unsatisfiable(self):
        h = Hypergraph(4, ((0, 1, 2, 3),))
        assert not cnf_satisfiable_exhaustive(emit_cnf(h), 4)

    def test_bit_decoding(self):
        h = Hypergraph(4, ((0, 1, 2),))
        f = emit_cnf(h)
        coloring = Coloring(4, (4, 1, 2, 3))
        values = cnf_assignment_from_coloring(f, coloring)
        assert decode_cnf(f, values) == coloring

    def test_legend_comments_present(self):
        text = emit_cnf(Hypergraph(4, ((0, 1, 2, 3),))).to_dimacs()
        assert text.startswith("c var 1 = hi 0")
        assert "p cnf " in text
        assert text.endswith(" 0\n")

    def test_wide_edges_use_absence_encoding(self):
        for edge in ((0, 1, 2, 3), (0, 1, 2, 3, 4)):
            h = Hypergraph(6, (edge,))
            f = emit_cnf(h)
            kinds = {meaning[0] for meaning in f.legend.values()}
            assert kinds == {"hi", "lo", "color_absent", "node_color"}
            # two bits and four node-color indicators per node, four absence
            # indicators for the edge
            assert f.num_vars == 6 * 6 + 4
            w = brute_force_nrc(h, 4)
            assert w is not None and cnf_holds(f, w)

    def test_small_edges_skipped(self):
        f = emit_cnf(Hypergraph(5, ((0, 1), (1, 2, 3), (0, 1, 2, 3, 4))))
        assert f.edges == ((0, 1, 2, 3, 4),)

    def test_witness_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            h = random_hypergraph(rng, n_range=(4, 8))
            w = brute_force_nrc(h, 4)
            f = emit_cnf(h)
            if w is not None:
                assert cnf_holds(f, w)

    def test_rainbow_coloring_violates_a_clause(self):
        h = Hypergraph(4, ((0, 1, 2, 3),))
        f = emit_cnf(h)
        values = cnf_assignment_from_coloring(f, Coloring(4, (1, 2, 3, 4)))
        assert violated_clause(f, values) is not None

    def test_satisfiability_matches_oracle(self):
        rng = random.Random(14)
        for _ in range(25):
            h = random_hypergraph(rng, n_range=(4, 6), max_edges=5)
            sat = cnf_satisfiable_exhaustive(emit_cnf(h), h.node_count)
            assert sat == (brute_force_nrc(h, 4) is not None)

    def test_dimacs_byte_stable(self):
        h = Hypergraph(5, ((0, 1, 2, 3), (1, 2, 3, 4)))
        assert emit_cnf(h).to_dimacs() == emit_cnf(h).to_dimacs()
