"""Seeded instance generators and the four benchmark workloads.

Every expected verdict comes from the construction, never from the code being
timed:

* ``star_hypergraph(n, 4)``, the paper's tight construction with C(n-1, 3)
  edges, blocks every no-rainbow 4-coloring, so its pattern is decisive.
* A planted pattern keeps only loci that miss a color of a hidden 4-coloring,
  so that coloring is a no-rainbow witness and the pattern is non-decisive.
  Duplicated taxa copy an original's loci and take its color, which keeps the
  witness valid.
* A full locus makes every surjective 4-coloring rainbow: decisive.
* Sparse random coverage with one planted uncovered triple {a, b, c}: coloring
  a, b, c with 1, 2, 3 and every other taxon 4 leaves no rainbow locus, so the
  pattern is non-decisive.
* A rooted residue-class pattern has one taxon in every locus and covers every
  triple (k >= 4), so it is decisive by the rooted case of the paper.
* A grouped-miss pattern partitions the taxa into groups and contains at least
  five "pure" loci, each of which is every taxon but one group.  A no-rainbow
  coloring needs, for each pure locus, a color confined to its missing group;
  the groups are disjoint, so five pure loci would need five distinct colors.
  Extra loci only remove colorings, so the pattern is decisive whatever else
  it contains.  Four pure loci already cover every triple.

The seed picks labels, locus order, groupings, the duplicated taxa and the
random coverage.  Slot sizes, kernel sizes and the place of a planted witness
in the search order are fixed per workload, so two seeds give about the same
amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from decisive.core import CoveragePattern

SOLVE = "solve"
REFUSE = "refuse"  # today's code raises SizeLimitError (exit 3) on these


@dataclass(frozen=True)
class Instance:
    """One check: the text a user would feed the CLI, plus what it must yield."""

    id: str
    family: str
    fmt: str  # "matrix-csv" or "locus-list"
    text: str
    pattern: CoveragePattern  # the generator's own copy, used to re-verify
    decisive: bool  # expected verdict, from the construction
    plan: str  # SOLVE, or REFUSE where today's code is expected to refuse
    n: int
    k: int
    kernel_rows: int
    spares: int
    guesses: Optional[int]  # (A, B) guesses of an exhaustive nrc4 on the kernel


def nrc4_guesses(d: int) -> int:
    """Number of (A, B) guesses ``nrc4`` enumerates on a d-node hypergraph.

    |A| runs over 1..d//4 and |B| over 1..(d-|A|)//3, as in the solver.
    """
    return sum(
        comb(d, i) * sum(comb(d - i, j) for j in range(1, (d - i) // 3 + 1))
        for i in range(1, d // 4 + 1)
    )


def matrix_csv(pattern: CoveragePattern) -> str:
    rows = [["0"] * pattern.k for _ in range(pattern.n)]
    for j, (_name, members) in enumerate(pattern.loci):
        for i in members:
            rows[i][j] = "1"
    lines = ["taxon," + ",".join(name for name, _members in pattern.loci)]
    lines += [taxon + "," + ",".join(row) for taxon, row in zip(pattern.taxa, rows)]
    return "\n".join(lines) + "\n"


def locus_list(pattern: CoveragePattern) -> str:
    return "".join(
        f"{name}: " + " ".join(pattern.taxa[i] for i in members) + "\n"
        for name, members in pattern.loci
    )


def make_pattern(n: int, loci: list[list[int]]) -> CoveragePattern:
    """Taxa t0..t{n-1} and loci L0, L1, ... with the given members."""
    return CoveragePattern.from_sets(
        [f"t{i}" for i in range(n)], [(f"L{j}", m) for j, m in enumerate(loci)]
    )


def _kernel_rows(n: int, loci: list[list[int]]) -> int:
    """Distinct taxon rows of the incidence matrix, counted from the loci."""
    rows: list[set[int]] = [set() for _ in range(n)]
    for j, members in enumerate(loci):
        for i in members:
            rows[i].add(j)
    return len({frozenset(row) for row in rows})


def _instance(
    rng: random.Random,
    ident: str,
    family: str,
    fmt: str,
    n: int,
    loci: list[list[int]],
    decisive: bool,
    plan: str = SOLVE,
    shuffle_taxa: bool = True,
) -> Instance:
    """Relabel taxa (unless their order is part of the construction), shuffle
    locus order, and render the pattern as text."""
    perm = list(range(n))
    if shuffle_taxa:
        rng.shuffle(perm)
    order = list(range(len(loci)))
    rng.shuffle(order)
    relabelled = [[perm[i] for i in loci[j]] for j in order]
    pattern = make_pattern(n, relabelled)
    render = matrix_csv if fmt == "matrix-csv" else locus_list
    d = _kernel_rows(n, relabelled)
    return Instance(
        id=ident,
        family=family,
        fmt=fmt,
        text=render(pattern),
        pattern=pattern,
        decisive=decisive,
        plan=plan,
        n=n,
        k=len(loci),
        kernel_rows=d,
        spares=n - d,
        guesses=nrc4_guesses(d) if d <= 64 else None,  # no search goes that far
    )


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------


def star_loci(n: int, r: int = 4) -> list[list[int]]:
    """The tight construction behind ``bounds.star_hypergraph``, rebuilt here
    so that the expectation does not rest on the code being timed: the edges
    through node 0 of the (n-1, r-1) instance plus the (n-1, r) instance."""
    if r == 1:
        return [[0]]
    if n == r:
        return [list(range(n))]
    through = [[0] + [v + 1 for v in edge] for edge in star_loci(n - 1, r - 1)]
    return through + [[v + 1 for v in edge] for edge in star_loci(n - 1, r)]


def planted_loci(
    rng: random.Random, sizes: tuple[int, ...], copies: int = 0
) -> tuple[int, list[list[int]]]:
    """All 4-sets that miss a color of a hidden coloring with these class
    sizes; then ``copies`` extra taxa, each duplicating a random original.

    The classes are laid out largest first, so the search meets the witness
    late, at a place that does not depend on the seed.
    """
    m = sum(sizes)
    colors = [c for c, size in enumerate(sorted(sizes, reverse=True))
              for _ in range(size)]
    loci = [
        list(quad)
        for quad in combinations(range(m), 4)
        if len({colors[v] for v in quad}) < 4
    ]
    for extra in range(m, m + copies):
        source = rng.randrange(m)
        for members in loci:
            if source in members:
                members.append(extra)
    return m + copies, loci


def sparse_loci(
    rng: random.Random, n: int, k: int, full_locus: bool
) -> list[list[int]]:
    """Random coverage at a density that leaves many triples uncovered, with
    one triple planted uncovered, and optionally one locus covering all."""
    # (1 - p^3)^k >= 0.2: at least one triple in five is uncovered
    p_max = (1 - 0.2 ** (1 / k)) ** (1 / 3)
    a, b, c = rng.sample(range(n), 3)
    loci = []
    for _ in range(k):
        p = rng.uniform(0.1, p_max)
        members = {i for i in range(n) if rng.random() < p}
        if {a, b, c} <= members:
            members.discard(rng.choice((a, b, c)))
        loci.append(sorted(members) or [rng.randrange(n)])
    if full_locus:
        loci[rng.randrange(k)] = list(range(n))
    return loci


def rooted_residue_loci(n: int, k: int) -> list[list[int]]:
    """Taxon 0 is in every locus; locus j drops the taxa i >= 1 with
    i mod k == j."""
    return [[i for i in range(n) if i == 0 or i % k != j] for j in range(k)]


def grouped_miss_loci(
    rng: random.Random, n: int, groups: int, k: int, pure: int, extra: str
) -> list[list[int]]:
    """Taxa split into ``groups`` nonempty groups; locus j drops group
    j mod groups.  Loci 0..pure-1 drop nothing else.  Every other locus also
    drops one more taxon (``extra="taxon"``) or one more group
    (``extra="group"``).

    The extra taxa are distinct, come from the pure loci's groups, and leave
    each group a taxon that is never dropped on its own, so the kernel has
    exactly groups + (k - pure) rows with extra taxa, and ``groups`` rows with
    extra groups.
    """
    if not 5 <= pure <= groups <= min(n, k):
        raise ValueError("need 5 <= pure <= groups <= min(n, k)")
    taxa = list(range(n))
    rng.shuffle(taxa)
    member_of = {t: g for g, t in enumerate(taxa[:groups])}
    for t in taxa[groups:]:
        member_of[t] = rng.randrange(groups)
    undropped = [0] * groups
    for g in member_of.values():
        undropped[g] += 1
    extras: set[int] = set()
    loci = []
    for j in range(k):
        dropped = {j % groups}
        if j >= pure and extra == "group":
            dropped.add((j + 1 + j // groups) % groups)
        members = {t for t in range(n) if member_of[t] not in dropped}
        if j >= pure and extra == "taxon":
            # from a pure group: two extra taxa then never share a row
            t = rng.choice(sorted(
                t for t in members - extras
                if member_of[t] < pure and undropped[member_of[t]] >= 2
            ))
            extras.add(t)
            undropped[member_of[t]] -= 1
            members.discard(t)
        loci.append(sorted(members))
    return loci


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

# (n, k) of the sparse supermatrix slots: n = 100..1000 taxa, k = 10..50 loci
_SPARSE_SLOTS = [(100 + 75 * (s % 13), 10 + 5 * (s % 9)) for s in range(37)]
_FULL_LOCUS_SLOTS = [(150 + 110 * s, 12 + 5 * s) for s in range(8)]
_ROOTED_SLOTS = [(150, 12), (200, 20), (250, 30), (300, 45)]
_DENSE_SLOTS = [(100, 21), (120, 26)]


def screen_supermatrix(rng: random.Random) -> list[Instance]:
    out = []
    for s, (n, k) in enumerate(_SPARSE_SLOTS):
        out.append(_instance(rng, f"sparse-{s}", "sparse", "matrix-csv", n,
                             sparse_loci(rng, n, k, False), False))
    for s, (n, k) in enumerate(_FULL_LOCUS_SLOTS):
        out.append(_instance(rng, f"full-locus-{s}", "full-locus", "matrix-csv", n,
                             sparse_loci(rng, n, k, True), True))
    for s, (n, k) in enumerate(_ROOTED_SLOTS):
        out.append(_instance(rng, f"rooted-residue-{s}", "rooted-residue",
                             "matrix-csv", n, rooted_residue_loci(n, k), True))
    for s, (n, k) in enumerate(_DENSE_SLOTS):
        loci = grouped_miss_loci(rng, n, 10, k, pure=10, extra="taxon")
        out.append(_instance(rng, f"dense-{s}", "dense-grouped-miss", "matrix-csv",
                             n, loci, True, REFUSE))
    return out


_STAR_SIZES = (10, 11, 12)
# one n = 12 member per family besides (2, 3, 3, 4), the early-exit probe of
# search-parallel: the n = 12 checks take most of a pass, and fewer of them
# leave room for more passes, so more samples of each, in a run
_PLANTED_SIZES = (
    (2, 2, 3, 3), (2, 2, 2, 4), (2, 3, 3, 3), (2, 2, 3, 4), (2, 2, 2, 5), (3, 3, 3, 3),
    (2, 3, 3, 4),
)


def search_direct(rng: random.Random) -> list[Instance]:
    out = []
    for n in _STAR_SIZES:
        out.append(_instance(rng, f"star-{n}", "star", "locus-list", n,
                             star_loci(n), True))
    for sizes in _PLANTED_SIZES:
        n, loci = planted_loci(rng, sizes)
        ident = "planted-" + "".join(map(str, sizes))
        # matrix-csv keeps the taxon order, and with it the late witness
        out.append(_instance(rng, ident, "planted", "matrix-csv", n, loci, False,
                             shuffle_taxa=False))
    return out


# (n, groups): residue classes are the groups, one pure locus per group
_RESIDUE_SLOTS = [(12, 9), (40, 12), (120, 14), (250, 13), (400, 15)]
# (n, groups, k): 5 pure loci, the rest drop a group plus one random taxon;
# kernels of 12, 14 and 14 rows
_GROUPED_MISS_SLOTS = [(30, 7, 10), (60, 9, 10), (90, 9, 10)]
_DUPLICATED_PLANTED = (((2, 2, 3, 3), 6), ((2, 3, 3, 3), 9))
# (n, groups, k): a 12-row kernel under k > 20 loci, refused today
_WIDE_SLOTS = [(112, 12, 22)]


def search_kernel(rng: random.Random) -> list[Instance]:
    out = []
    for s, (n, groups) in enumerate(_RESIDUE_SLOTS):
        loci = grouped_miss_loci(rng, n, groups, groups, pure=groups, extra="taxon")
        out.append(_instance(rng, f"residue-{s}", "residue", "locus-list", n,
                             loci, True))
    for s, (n, groups, k) in enumerate(_GROUPED_MISS_SLOTS):
        loci = grouped_miss_loci(rng, n, groups, k, pure=5, extra="taxon")
        out.append(_instance(rng, f"grouped-miss-{s}", "grouped-miss",
                             "locus-list", n, loci, True))
    for sizes, copies in _DUPLICATED_PLANTED:
        n, loci = planted_loci(rng, sizes, copies)
        ident = "planted-dup-" + "".join(map(str, sizes))
        out.append(_instance(rng, ident, "planted-duplicated", "matrix-csv", n,
                             loci, False, shuffle_taxa=False))
    for s, (n, groups, k) in enumerate(_WIDE_SLOTS):
        loci = grouped_miss_loci(rng, n, groups, k, pure=groups, extra="group")
        out.append(_instance(rng, f"wide-{s}", "wide-small-kernel", "locus-list",
                             n, loci, True, REFUSE))
    return out


def hanging_40x22() -> Instance:
    """A 40-taxon, 22-locus grouped-miss pattern on which ``decide`` hangs in
    ``nrc3``: locus j drops the taxa i with i mod 22 == j plus one random
    taxon, which leaves a 35-row kernel.  Its verdict is not known, so it only
    serves to show that the deadline is enforced."""
    rng = random.Random(0)
    loci = []
    for j in range(22):
        members = {i for i in range(40) if i % 22 != j}
        members.discard(rng.choice(sorted(members)))
        loci.append(sorted(members))
    return _instance(rng, "grouped-miss-40x22", "grouped-miss", "locus-list", 40,
                     loci, True)


WORKLOADS = {
    "screen-supermatrix": screen_supermatrix,
    "search-direct": search_direct,
    "search-kernel": search_kernel,
    "search-parallel": search_direct,
}


def build(workload: str, seed: int) -> list[Instance]:
    # search-parallel runs exactly the search-direct instances of the seed
    key = "search-direct" if workload == "search-parallel" else workload
    return WORKLOADS[workload](random.Random(f"{key}:{seed}"))
