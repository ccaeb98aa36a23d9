"""Exact no-rainbow solvers against the oracle."""

import importlib
import logging
import multiprocessing
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import (
    kernel_hypergraph,
    random_hypergraph,
    random_uniform_hypergraph,
    reference_class_completes,
    reference_last_split,
    reference_link_covers,
    reference_link_strands,
    reference_no_rainbow_colorings,
)
from decisive.cli import EXIT_CAP_EXCEEDED, run
from decisive.core import (
    Coloring,
    CoveragePattern,
    Hypergraph,
    incidence_rows,
    verify_no_rainbow,
)
from decisive.errors import InvalidInstanceError, SizeLimitError
from decisive.nrc import (
    DEFAULT_SEARCH_CAP,
    GUESS_COUNT_LIMIT,
    RULE_COMPONENT_SPLIT,
    RULE_EXHAUSTED,
    RULE_NON_NEIGHBOR,
    check_budget,
    non_neighbor_coloring,
    non_neighbor_witness,
    nrc,
    nrc2,
    nrc3,
    nrc3_guesses,
    nrc4,
    nrc4_guesses,
)
from decisive.oracle import brute_force_nrc
from decisive.reduction import reduce_pattern

# the package exports a function named nrc, which hides the module attribute
nrc_module = importlib.import_module("decisive.nrc")


def planted(rng: random.Random, sizes: tuple[int, ...]) -> Hypergraph:
    """Every len(sizes)-set that misses a color of a hidden coloring with
    these class sizes, on randomly relabelled nodes: the hidden coloring is
    a witness."""
    color = [c for c, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(color)
    r = len(sizes)
    edges = tuple(
        q
        for q in combinations(range(len(color)), r)
        if len({color[v] for v in q}) < r
    )
    return Hypergraph(len(color), edges)


@pytest.fixture
def two_cores(monkeypatch):
    """A parallel search may run on two CPUs, so it runs two workers."""
    monkeypatch.setattr(
        nrc_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )


@pytest.fixture
def no_slice(monkeypatch):
    """A parallel search hands every A to the workers."""
    monkeypatch.setattr(nrc_module, "SLICE_UNITS", 0)


@pytest.fixture
def no_pool(monkeypatch):
    """Starting a worker process raises AssertionError."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(nrc_module.multiprocessing, "Process", refuse)


class InlineProcess:
    """A stand-in for multiprocessing.Process that runs its target at
    ``start``, in this process, and so in a fixed order."""

    exitcode = 0

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass


class TestNrc2:
    def test_no_edges_two_nodes(self):
        out = nrc2(Hypergraph(2, ()))
        assert out.witness == Coloring(2, (1, 2))
        assert out.rule == RULE_COMPONENT_SPLIT

    def test_connected_has_none(self):
        assert not nrc2(Hypergraph(3, ((0, 1), (1, 2)))).found

    def test_matches_component_count(self):
        rng = random.Random(2)
        for _ in range(1000):
            h = random_hypergraph(rng, n_range=(2, 9), max_edges=6)
            from decisive.core import connected_components

            out = nrc2(h)
            disconnected = connected_components(h).count >= 2
            assert out.found == disconnected
            if out.found:
                assert verify_no_rainbow(h, out.witness)


class TestNonNeighbor:
    def test_pair_example(self):
        h = Hypergraph(4, ((0, 1, 2),))
        # {0,3} lies in no edge: colors 1,2 there, color 3 elsewhere
        col = non_neighbor_coloring(4, (0, 3))
        assert col.assignment == (1, 3, 3, 2)
        assert verify_no_rainbow(h, col)
        assert non_neighbor_witness(h, 3) == col
        assert non_neighbor_witness(h, 4) is not None

    def test_single_full_edge_has_no_witness(self):
        assert non_neighbor_witness(Hypergraph(4, ((0, 1, 2, 3),)), 4) is None

    def test_returned_witnesses_always_verify(self):
        rng = random.Random(3)
        for _ in range(200):
            h = random_hypergraph(rng, n_range=(4, 9))
            w = non_neighbor_witness(h, 4)
            if w is not None:
                assert verify_no_rainbow(h, w)


class TestNrc3:
    def test_complete_triples_blocked(self):
        h = Hypergraph(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        assert not nrc3(h).found

    def test_three_triples_blocked(self):
        assert not nrc3(Hypergraph(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3)))).found

    @pytest.mark.parametrize("sizes", [(1, 1, 3), (2, 2, 4), (3, 3, 3), (2, 3, 4)])
    def test_planted_partition_found(self, sizes):
        rng = random.Random(sum(sizes))
        for _ in range(3):
            h = planted(rng, sizes)
            out = nrc3(h)
            assert out.found and verify_no_rainbow(h, out.witness)

    def test_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(150):
            h = random_hypergraph(rng, n_range=(3, 8), max_edges=7)
            out = nrc3(h)
            assert out.found == (brute_force_nrc(h, 3) is not None)
            if out.found:
                assert verify_no_rainbow(h, out.witness)


class TestNrc4:
    def test_single_quadruple_blocked(self):
        out = nrc4(Hypergraph(4, ((0, 1, 2, 3),)))
        assert not out.found and out.rule == RULE_EXHAUSTED

    def test_star_blocked_and_deletion_flips(self):
        from decisive.bounds import star_hypergraph

        for n in (6, 7):
            s = star_hypergraph(n, 4)
            assert not nrc4(s).found
            for i in range(len(s.edges)):
                sub = Hypergraph(n, s.edges[:i] + s.edges[i + 1 :])
                out = nrc4(sub)
                assert out.found and verify_no_rainbow(sub, out.witness)

    # two equal smallest classes: the guess must take B above min A
    @pytest.mark.parametrize(
        "sizes", [(1, 1, 2, 3), (1, 1, 4, 6), (2, 2, 3, 3), (3, 3, 3, 3)]
    )
    def test_planted_tied_classes_found(self, two_cores, sizes):
        rng = random.Random(sum(sizes))
        for _ in range(3):
            h = planted(rng, sizes)
            for out in (nrc4(h), nrc4(h, parallel=True)):
                assert out.found and verify_no_rainbow(h, out.witness)

    def test_parallel_stops_other_workers(self, two_cores, no_slice):
        # only a guess with A = the singleton class completes, and only one
        # worker makes it; the other's full scan takes about 25 s on 2 cores
        h = planted(random.Random(0), (1, 5, 5, 5))
        start = time.perf_counter()
        out = nrc4(h, parallel=True)
        assert time.perf_counter() - start < 5.0
        assert out.found and verify_no_rainbow(h, out.witness)

    def test_workers_finishing_together_never_hang(self):
        # every worker's first guess completes, so all of them send at once;
        # a worker terminated in mid-send once left the shared result queue
        # of a multiprocessing.Pool locked, and the search hung within some
        # 80-650 searches of this kind
        script = (
            "import importlib\n"
            "from decisive.core import Hypergraph\n"
            "nrc = importlib.import_module('decisive.nrc')\n"
            "nrc.os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
            "nrc.SLICE_UNITS = 0\n"
            "for _ in range(250):\n"
            "    assert nrc.nrc4(Hypergraph(11, ()), parallel=True).found\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=30)

    def test_small_edges_ignored(self):
        # edges below size 4 cannot be rainbow with 4 colors
        h = Hypergraph(5, ((0, 1), (1, 2, 3), (2, 3, 4)))
        out = nrc4(h)
        assert out.found and verify_no_rainbow(h, out.witness)

    def test_node_cap(self):
        h = Hypergraph(40, ((0, 1, 2, 3),))
        with pytest.raises(SizeLimitError):
            nrc4(h)

    def test_too_few_nodes(self):
        with pytest.raises(InvalidInstanceError):
            nrc4(Hypergraph(3, ((0, 1, 2),)))

    def test_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(150):
            h = random_hypergraph(rng, n_range=(4, 9), max_edges=7)
            out = nrc4(h)
            assert out.found == (brute_force_nrc(h, 4) is not None)
            if out.found:
                assert verify_no_rainbow(h, out.witness)

    def test_deterministic(self):
        rng = random.Random(6)
        h = random_uniform_hypergraph(rng, 9, 4, 12)
        first = nrc4(h)
        assert nrc4(h) == first

    def test_parallel_same_verdict(self, two_cores):
        rng = random.Random(7)
        for _ in range(5):
            h = random_uniform_hypergraph(rng, 8, 4, 10)
            seq = nrc4(h)
            par = nrc4(h, parallel=True)
            assert seq.found == par.found
            if par.found:
                assert verify_no_rainbow(h, par.witness)

    # the n = 12 parallel benchmark instances, all scanned by the workers
    @pytest.mark.parametrize(
        "kind,arg",
        [("star", 12), ("planted", (3, 3, 3, 3)), ("planted", (2, 3, 3, 4))],
        ids=["star-12", "planted-3333", "planted-2334"],
    )
    def test_pool_agrees_and_leaves_no_workers(
        self, two_cores, no_slice, kind, arg
    ):
        from decisive.bounds import star_hypergraph

        if kind == "star":
            h = star_hypergraph(arg, 4)
        else:
            h = planted(random.Random(sum(arg)), arg)
        seq = nrc4(h)
        par = nrc4(h, parallel=True)
        assert par.found == seq.found == (kind == "planted")
        if par.found:
            assert verify_no_rainbow(h, par.witness)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_unheard_is_refused(
        self, monkeypatch, two_cores, tmp_path, capsys
    ):
        # as if each worker were killed before it sent its result: its share
        # of the guesses is unscanned, so "exhausted" would be a wrong answer;
        # the 13-node star outlasts the slice, so it reaches the workers
        from decisive.bounds import star_hypergraph

        monkeypatch.setattr(nrc_module, "_send_scan", lambda *args: os._exit(1))
        h = star_hypergraph(13, 4)
        with pytest.raises(SizeLimitError) as err:
            nrc4(h, parallel=True)
        assert str(err.value) == (
            "4-NRC search stopped: a worker process ended with exit code 1 "
            "before it reported its share of the guesses"
        )
        assert multiprocessing.active_children() == []
        f = tmp_path / "star.txt"
        f.write_text("nodes 13\n" + "".join(
            " ".join(map(str, e)) + "\n" for e in h.edges
        ))
        assert run(["nrc", "--input", str(f), "--format", "edge-list",
                    "--parallel"]) == EXIT_CAP_EXCEEDED
        assert "exit code 1" in capsys.readouterr().err


# the sizes of the benchmark's planted patterns, n = 10-12
PLANTED_SIZES = [
    (2, 2, 3, 3), (2, 2, 2, 4), (2, 3, 3, 3), (2, 2, 3, 4), (2, 2, 2, 5),
    (3, 3, 3, 3), (2, 3, 3, 4),
]


class TestSlice:
    """A parallel search scans in-process for up to SLICE_UNITS units, then
    hands the A's left to the workers."""

    def test_witness_in_the_slice_is_the_sequential_one(
        self, two_cores, no_pool
    ):
        from decisive.bounds import star_hypergraph

        rng = random.Random(23)
        cases = [star_hypergraph(n, 4) for n in (10, 11, 12)]
        cases += [planted(rng, sizes) for sizes in PLANTED_SIZES for _ in range(3)]
        for h in cases:
            assert nrc4(h, parallel=True) == nrc4(h)

    # 0 hands over every A, 1 all but the first, 100 ends within the first
    # A's of every instance here
    @pytest.mark.parametrize("units", [0, 1, 100])
    def test_any_slice_gives_the_sequential_verdict(
        self, monkeypatch, caplog, two_cores, units
    ):
        from decisive.bounds import star_hypergraph

        monkeypatch.setattr(nrc_module, "SLICE_UNITS", units)
        caplog.set_level(logging.DEBUG, logger="decisive.nrc")
        rng = random.Random(units)
        cases = [star_hypergraph(n, 4) for n in (10, 11, 12, 13)]
        cases += [planted(rng, sizes) for sizes in PLANTED_SIZES]
        for h in cases:
            caplog.clear()
            out = nrc4(h, parallel=True)
            handed_off = "in 2 workers" in caplog.records[-1].getMessage()
            assert out.found == nrc4(h).found
            if out.found:
                assert verify_no_rainbow(h, out.witness)
            else:  # every star outlasts the slice
                assert handed_off
            assert multiprocessing.active_children() == []

    # every A of the 12-node star, each passed to the link screen once
    @pytest.mark.parametrize("units", [0, 1, 3000, 11000])
    def test_split_visits_every_live_a_once(self, monkeypatch, units):
        from decisive.bounds import star_hypergraph

        monkeypatch.setattr(nrc_module, "SLICE_UNITS", units)
        monkeypatch.setattr(
            nrc_module.os, "sched_getaffinity", lambda pid: {0, 1, 2},
            raising=False,
        )
        monkeypatch.setattr(nrc_module.multiprocessing, "Process", InlineProcess)
        visited = []
        screen = nrc_module._link_admits

        def recorded(rows, amask, *args):
            visited.append(amask)
            return screen(rows, amask, *args)

        monkeypatch.setattr(nrc_module, "_link_admits", recorded)
        h = star_hypergraph(12, 4)
        assert not nrc4(h, parallel=True).found
        every_a = [
            sum(1 << v for v in a)
            for i in (1, 2, 3)
            for a in combinations(range(12), i)
        ]
        assert sorted(visited) == sorted(every_a)
        assert len(set(visited)) == len(visited)


def classes(coloring: Coloring, color: int) -> tuple[int, ...]:
    return tuple(v for v, c in enumerate(coloring.assignment) if c == color)


def nodes_of(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


class TestCompletion:
    """Once the rarest classes are guessed, the uncolored nodes split iff
    they are disconnected under the edges that meet every guessed class."""

    @given(st.data())
    def test_matches_pairwise_reference(self, data):
        n = data.draw(st.integers(4, 9))
        edges = data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=2, max_size=min(6, n)),
            max_size=12,
        ))
        h = Hypergraph(n, tuple(tuple(e) for e in edges))
        # A alone as in nrc3, or A and B as in nrc4, leaving 2+ uncolored
        order = data.draw(st.permutations(range(n)))
        a_size = data.draw(st.integers(1, n - 2))
        guessed = [tuple(sorted(order[:a_size]))]
        if data.draw(st.booleans()) and a_size < n - 2:
            b_size = data.draw(st.integers(1, n - 2 - a_size))
            guessed.append(tuple(sorted(order[a_size:a_size + b_size])))
        colored = {v for c in guessed for v in c}
        rows = incidence_rows(n, h.edges)
        reach = -1  # the edges that meet every guessed class
        for c in guessed:
            meets = 0
            for v in c:
                meets |= rows[v]
            reach &= meets
        rest = {1 << v: rows[v] for v in range(n) if v not in guessed[0]}
        uncolored = sum(1 << v for v in range(n) if v not in colored)
        split = nrc_module._complete(rest, reach, uncolored)
        expected = reference_last_split(h, guessed)
        if expected is None:
            assert split is None
        else:
            assert split is not None
            assert (nodes_of(split[0]), nodes_of(split[1])) == expected

    def test_a_node_met_late_joins_on_a_later_pass(self):
        # node 1 shares an edge only with 3, which joins after 1 is tested
        h = Hypergraph(6, ((0, 3, 5), (1, 3, 5)))
        rows = incidence_rows(6, h.edges)
        rest = {1 << v: rows[v] for v in range(5)}
        assert nrc_module._complete(rest, rows[5], 0b11111) == (0b01011, 0b10100)
        assert reference_last_split(h, [(5,)]) == ((0, 1, 3), (2, 4))

    def test_witness_ends_with_the_lowest_uncolored_component(self):
        rng = random.Random(10)
        found = {3: 0, 4: 0}
        for _ in range(300):
            h = random_hypergraph(rng, n_range=(4, 9), max_edges=10,
                                  edge_size_range=(2, 6))
            for r, search in ((3, nrc3), (4, nrc4)):
                out = search(h)
                if not out.found:
                    continue
                found[r] += 1
                w = out.witness
                guessed = [classes(w, c) for c in range(1, r - 1)]
                assert (classes(w, r - 1), classes(w, r)) == (
                    reference_last_split(h, guessed)
                )
        assert min(found.values()) >= 100


class TestSmallEdges:
    """Edges of fewer than r nodes never change an r-NRC search: one that
    meets A and holds an (r-1)-set outside A, or that meets every guessed
    class and holds two uncolored nodes, has r or more nodes."""

    FAMILIES = {
        "mixed": lambda rng: random_hypergraph(
            rng, n_range=(4, 9), max_edges=12, edge_size_range=(2, 6)
        ),
        "planted": lambda rng: planted(
            rng, tuple(rng.randint(1, most) for most in (2, 2, 3, 3))
        ),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rule_and_witness_unchanged(self, family):
        rng = random.Random(f"small-edges-{family}")
        found = {3: 0, 4: 0}
        for _ in range(150):
            h = self.FAMILIES[family](rng)
            n = h.node_count
            for r, search in ((3, nrc3), (4, nrc4)):
                small = [
                    tuple(rng.sample(range(n), rng.randint(1, r - 1)))
                    for _ in range(rng.randint(1, 8))
                ]
                edges = list(h.edges) + small
                rng.shuffle(edges)
                out = search(h)
                assert search(Hypergraph(n, tuple(edges))) == out
                found[r] += out.found
        assert found[3] >= 5 and found[4] >= 30


class TestWitnessOrder:
    """The sequential searches return the first witness in the order of the
    module docstring, found here from every no-rainbow coloring."""

    @pytest.fixture(scope="class")
    def hypergraphs(self):
        rng = random.Random(9)
        return [random_hypergraph(rng, n_range=(4, 7), max_edges=10)
                for _ in range(120)]

    def test_nrc4_first_pair(self, hypergraphs):
        for h in hypergraphs:
            n = h.node_count
            pairs = set()
            for coloring in reference_no_rainbow_colorings(h, 4):
                a, b = classes(coloring, 1), classes(coloring, 2)
                if (len(a) <= n // 4
                        and len(a) <= len(b) <= (n - len(a)) // 3
                        and (len(a) < len(b) or a[0] < b[0])):
                    pairs.add((len(a), a, len(b), b))
            out = nrc4(h)
            if not pairs:
                assert not out.found
                continue
            _, a, _, b = min(pairs)
            assert (classes(out.witness, 1), classes(out.witness, 2)) == (a, b)
            assert verify_no_rainbow(h, out.witness)

    def test_nrc3_first_class(self, hypergraphs):
        for h in hypergraphs:
            firsts = {
                (len(a), a)
                for a in (classes(c, 1)
                          for c in reference_no_rainbow_colorings(h, 3))
                if len(a) <= h.node_count // 3
            }
            out = nrc3(h)
            if not firsts:
                assert not out.found
                continue
            assert classes(out.witness, 1) == min(firsts)[1]
            assert verify_no_rainbow(h, out.witness)


class TestNodeScreen:
    """nrc4 skips every A that leaves a node outside all the triples that its
    link leaves uncovered; no coloring with such an A as a class exists."""

    FAMILIES = {
        "mixed": lambda rng: random_hypergraph(
            rng, n_range=(5, 10), max_edges=16, edge_size_range=(3, 6)
        ),
        "4-uniform": lambda rng: random_uniform_hypergraph(
            rng, rng.randint(5, 10), 4, rng.randint(5, 60)
        ),
        "planted": lambda rng: planted(
            rng, tuple(rng.randint(1, most) for most in (2, 2, 3, 3))
        ),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_skipped_classes_never_complete(self, family):
        rng = random.Random(family)
        skipped = completing = 0
        for _ in range(30):
            h = self.FAMILIES[family](rng)
            n = h.node_count
            rows = incidence_rows(n, h.edges)
            triples, dead = [], []  # shared by the A's, as in the scan
            for a in (a for i in range(1, n // 4 + 1)
                      for a in combinations(range(n), i)):
                amask = sum(1 << v for v in a)
                meets = 0
                for v in a:
                    meets |= rows[v]
                admits = nrc_module._link_admits(rows, amask, meets, triples, dead)
                assert admits == (not reference_link_strands(h, a))
                completes = reference_class_completes(h, a)
                assert admits or not completes
                skipped += not admits
                completing += completes
        assert skipped >= 20 and completing >= 5


class TestGuessBudget:
    @pytest.fixture
    def completions(self, monkeypatch):
        """Counts the calls of the completion helper: one per guess."""
        calls = [0]
        complete = nrc_module._complete

        def counted(*args):
            calls[0] += 1
            return complete(*args)

        monkeypatch.setattr(nrc_module, "_complete", counted)
        return calls

    # an exhaustive scan makes every guess but those of the A's that leave a
    # node outside every triple their link leaves uncovered
    @pytest.mark.parametrize(
        "n,guesses",
        [(8, 406), (9, 666), (10, 1875), (11, 7480), (12, 21351), (13, 42406)],
    )
    def test_nrc4_count_equals_exhaustive_scan(self, completions, n, guesses):
        from decisive.bounds import star_hypergraph

        made = {8: 235, 9: 411, 10: 1260, 11: 4354, 12: 11679, 13: 25441}[n]

        def b_guesses(a):
            i, rest = len(a), [v for v in range(n) if v not in a]
            tied = comb(sum(v > a[0] for v in rest), i)  # min A < min B
            return tied + sum(comb(n - i, j) for j in range(i + 1, (n - i) // 3 + 1))

        h = star_hypergraph(n, 4)
        skipped = sum(
            b_guesses(a)
            for i in range(1, n // 4 + 1)
            for a in combinations(range(n), i)
            if reference_link_strands(h, a)
        )
        assert nrc4_guesses(n) == guesses
        assert not nrc4(h).found
        assert completions[0] == guesses - skipped == made

    def test_planted_witness_is_the_first_completion(self, completions):
        # classes {0,1,2}, {3,4,5}, ...: every A before {0,1,2} leaves a node
        # outside all uncovered triples, and B = {3,4,5} comes first
        h = Hypergraph(12, tuple(
            q for q in combinations(range(12), 4) if len({v // 3 for v in q}) < 4
        ))
        out = nrc4(h)
        assert out.witness.assignment == tuple(v // 3 + 1 for v in range(12))
        assert completions[0] == 1

    # nrc3 skips the A's that hold a node whose own link covers every pair:
    # every node of a complete 3-uniform hypergraph, no node of a star
    @pytest.mark.parametrize(
        "n,guesses", [(6, 21), (7, 28), (8, 36), (9, 129), (10, 175)]
    )
    def test_nrc3_count_equals_exhaustive_scan(self, completions, n, guesses):
        from decisive.bounds import star_hypergraph

        assert nrc3_guesses(n) == guesses
        complete = Hypergraph(n, tuple(combinations(range(n), 3)))
        for h, dead_count in ((complete, n), (star_hypergraph(n, 3), 0)):
            dead = {v for v in range(n) if reference_link_covers(h, (v,), 2)}
            assert len(dead) == dead_count
            skipped = sum(
                1
                for i in range(1, n // 3 + 1)
                for a in combinations(range(n), i)
                if dead & set(a)
            )
            completions[0] = 0
            assert not nrc3(h).found
            assert completions[0] == guesses - skipped

    def test_grouped_miss_kernel_makes_no_completion(self, completions):
        # taxon i in group i mod 15, locus j drops group j: a 15-row kernel
        # in which every triple lies in an edge through any one node
        p = CoveragePattern.from_sets(
            [f"t{i}" for i in range(45)],
            [(f"L{j}", [i for i in range(45) if i % 15 != j]) for j in range(15)],
        )
        kernel = reduce_pattern(p)
        assert kernel.n_reduced == 15
        assert not nrc4(kernel_hypergraph(kernel)).found
        assert completions[0] == 0

    def test_default_budget_admits_18_nodes_and_refuses_19(self):
        assert nrc4_guesses(18) == 6492147 <= DEFAULT_SEARCH_CAP
        assert nrc4_guesses(19) == 22737756 > DEFAULT_SEARCH_CAP
        assert nrc3_guesses(27) <= DEFAULT_SEARCH_CAP < nrc3_guesses(28)

    @pytest.mark.parametrize("count", [nrc3_guesses, nrc4_guesses])
    def test_count_stops_past_its_limit(self, count):
        for n in range(3, 40):
            exact = count(n)
            for limit in (0, 1, exact // 2, exact - 1, exact, exact + 1):
                assert count(n, limit) == min(exact, limit + 1)
        # the exact count of a million nodes would take minutes
        start = time.perf_counter()
        assert count(10**6, GUESS_COUNT_LIMIT) == GUESS_COUNT_LIMIT + 1
        assert time.perf_counter() - start < 1.0

    def test_refusal_past_the_count_limit_names_the_limit(self):
        assert GUESS_COUNT_LIMIT == 10**18
        with pytest.raises(SizeLimitError) as err:
            check_budget(4, 200, DEFAULT_SEARCH_CAP, "200 nodes")
        assert str(err.value) == (
            "4-NRC search refused: 200 nodes; an exhaustive search makes more "
            "than 1000000000000000000 guesses, over the budget of 10000000"
        )
        # a budget over the limit counts as far as the budget
        assert check_budget(4, 50, 10**30, "50 nodes") == nrc4_guesses(50)
        assert nrc4_guesses(50) > GUESS_COUNT_LIMIT
        with pytest.raises(SizeLimitError, match=f"more than {10**30} guesses"):
            check_budget(4, 100, 10**30, "100 nodes")

    def test_over_budget_refused_before_the_search(self, completions):
        # the first guess would complete: only the count can refuse these
        with pytest.raises(SizeLimitError) as err:
            nrc4(Hypergraph(19, ((0, 1, 2, 3),)))
        assert str(err.value) == (
            "4-NRC search refused: the hypergraph has 19 nodes; an exhaustive "
            "search makes 22737756 guesses, over the budget of 10000000"
        )
        with pytest.raises(SizeLimitError, match="3-NRC search refused"):
            nrc3(Hypergraph(28, ((0, 1, 2),)))
        with pytest.raises(SizeLimitError, match="21 guesses, over the budget of 20"):
            nrc(Hypergraph(6, tuple(combinations(range(6), 3))), 3, guess_cap=20)
        assert completions[0] == 0
        assert nrc4(Hypergraph(18, ((0, 1, 2, 3),))).found
        assert nrc3(Hypergraph(27, ((0, 1, 2),))).found

    def test_search_logs_its_estimate(self, caplog):
        from decisive.bounds import star_hypergraph

        caplog.set_level(logging.DEBUG, logger="decisive.nrc")
        nrc4(star_hypergraph(9, 4))
        nrc3(Hypergraph(6, ((0, 1, 2),)), guess_cap=100)
        assert [r.getMessage() for r in caplog.records] == [
            "4-NRC search: 9 nodes, at most 666 guesses, budget 10000000",
            "4-NRC search: 9 of 9 nodes pass the link screen",
            "3-NRC search: 6 nodes, at most 21 guesses, budget 100",
            "3-NRC search: 6 of 6 nodes pass the link screen",
        ]
        assert all(
            r.name == "decisive.nrc" and r.levelno == logging.DEBUG
            for r in caplog.records
        )

    def test_short_parallel_search_starts_no_pool(self, two_cores, no_pool):
        from decisive.bounds import star_hypergraph

        # a planted witness turns up within the slice, on 11 nodes and on 12
        for sizes in ((2, 3, 3, 3), (3, 3, 3, 3)):
            h = planted(random.Random(1), sizes)
            out = nrc4(h, parallel=True)
            assert out == nrc4(h) and verify_no_rainbow(h, out.witness)
        # the 12-node star is exhausted within it, the 13-node one is not
        out = nrc4(star_hypergraph(12, 4), parallel=True)
        assert not out.found and out.rule == RULE_EXHAUSTED
        with pytest.raises(AssertionError, match="a pool was started"):
            nrc4(star_hypergraph(13, 4), parallel=True)

    def test_hand_off_logs_its_split(self, caplog, monkeypatch, two_cores):
        from decisive.bounds import star_hypergraph

        monkeypatch.setattr(nrc_module, "SLICE_UNITS", 1000)
        caplog.set_level(logging.DEBUG, logger="decisive.nrc")
        assert not nrc4(star_hypergraph(10, 4), parallel=True).found
        assert [r.getMessage() for r in caplog.records] == [
            "4-NRC search: 10 nodes, at most 1875 guesses, budget 10000000",
            "4-NRC search: 10 of 10 nodes pass the link screen",
            "4-NRC search: 889 units in-process, the A's from position 7 on "
            "in 2 workers",
        ]
        assert all(
            r.name == "decisive.nrc" and r.levelno == logging.DEBUG
            for r in caplog.records
        )


class TestDispatcher:
    def test_r_validation(self):
        with pytest.raises(InvalidInstanceError):
            nrc(Hypergraph(5, ()), 5)

    def test_too_few_nodes_for_r(self):
        with pytest.raises(InvalidInstanceError):
            nrc(Hypergraph(3, ()), 4)

    def test_component_split_rule(self):
        out = nrc(Hypergraph(4, ((0, 1), (2, 3))), 2)
        assert out.rule == RULE_COMPONENT_SPLIT

    def test_non_neighbor_rule(self):
        out = nrc(Hypergraph(4, ((0, 1, 2),)), 4)
        assert out.rule == RULE_NON_NEIGHBOR

    def test_exhausted_rule_on_star(self):
        from decisive.bounds import star_hypergraph

        out = nrc(star_hypergraph(5, 4), 4)
        assert not out.found and out.rule == RULE_EXHAUSTED
