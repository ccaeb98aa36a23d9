"""Smoke test of the benchmark itself, on one small seed and small inputs.

    python3 -m pytest perfbench -q

It checks that every metric of BENCHMARK.json is emitted with its unit on
every workload, that a wrong expectation or a bad witness is counted as a
failure rather than raised, that a check past its deadline is counted rather
than left hanging, that the tracer refuses a function the program no longer
has, that the generators' constructed verdicts agree with the
brute-force oracle on small members of every family, and that the benchmark
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run  # puts the checkout's src/ first on the import path
import instances
import tracing
from decisive import oracle
from decisive.core import build_hypergraph

SEED = 7
HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def cheapest_per_family(workload: str) -> list[instances.Instance]:
    best: dict[str, instances.Instance] = {}
    for inst in instances.build(workload, SEED):
        if inst.family not in best or (inst.n, inst.k) < (best[inst.family].n,
                                                         best[inst.family].k):
            best[inst.family] = inst
    return list(best.values())


def use_instances(monkeypatch, workload: str, insts: list) -> None:
    monkeypatch.setitem(instances.WORKLOADS, workload, lambda rng: list(insts))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, workload, trace):
    use_instances(monkeypatch, workload, cheapest_per_family(workload))
    result, record = run.run(workload, SEED, 0, trace)
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    assert all(i["kernel_rows"] >= 1 for i in record["instances"])


def test_wrong_expectation_is_counted_not_raised(monkeypatch):
    star, planted = cheapest_per_family("search-direct")
    wrong = [replace(star, decisive=not star.decisive),
             replace(planted, decisive=not planted.decisive)]
    use_instances(monkeypatch, "search-direct", wrong)
    result, record = run.run("search-direct", SEED, 0, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert all(c["reason"].startswith("verdict") for c in record["checks"])
    traced, _ = run.run("search-direct", SEED, 0, 1)
    assert traced["metrics"]["outcome.fail_ratio"]["value"] == 1.0


def test_rejected_witness_is_counted_not_raised(monkeypatch):
    _, planted = cheapest_per_family("search-direct")
    use_instances(monkeypatch, "search-direct", [planted])
    decide = run.pipeline.decide

    def decide_with_bad_witness(pattern, **kwargs):
        verdict = decide(pattern, **kwargs)
        blocks = ((0,), (1,), (2,), tuple(range(3, pattern.n)))
        return replace(verdict, witness=blocks)

    monkeypatch.setattr(run.pipeline, "decide", decide_with_bad_witness)
    result, record = run.run("search-direct", SEED, 0, 0)
    assert result["failed"] == result["attempted"] == 1
    assert record["checks"][0]["reason"] == "witness has a rainbow locus"


def test_deadline_instance_is_counted(monkeypatch):
    monkeypatch.setitem(run.DEADLINE_S, "search-kernel", 0.5)
    use_instances(monkeypatch, "search-kernel", [instances.hanging_40x22()])
    start = time.monotonic()
    result, record = run.run("search-kernel", SEED, 0, 0)
    assert time.monotonic() - start < 30
    assert result["failed"] == result["attempted"] == 1
    assert record["checks"][0]["reason"] == "missed the deadline"
    assert result["metrics"]["par2_s"]["value"] == 2 * 0.5


def test_tracer_refuses_a_missing_target(monkeypatch):
    parse = tracing.cli.parse_pattern_text
    monkeypatch.delattr(tracing.bounds, "rooted_decide")
    with pytest.raises(AttributeError, match="bounds.rooted_decide"):
        with tracing.Tracer().installed():
            pass
    assert tracing.cli.parse_pattern_text is parse


def small_family_members() -> list[tuple[str, int, list[list[int]], bool]]:
    rng = random.Random(SEED)
    n, planted = instances.planted_loci(rng, (2, 2, 2, 2), copies=1)
    return [
        ("star", 8, instances.star_loci(8), True),
        ("planted-duplicated", n, planted, False),
        ("sparse", 9, instances.sparse_loci(rng, 9, 5, False), False),
        ("full-locus", 9, instances.sparse_loci(rng, 9, 5, True), True),
        ("rooted-residue", 9, instances.rooted_residue_loci(9, 4), True),
        ("grouped-miss", 9,
         instances.grouped_miss_loci(rng, 9, 5, 7, pure=5, extra="taxon"), True),
        ("wide-small-kernel", 9,
         instances.grouped_miss_loci(rng, 9, 5, 7, pure=5, extra="group"), True),
    ]


@pytest.mark.parametrize("family,n,loci,decisive", small_family_members(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_constructions_match_the_oracle(family, n, loci, decisive):
    pattern = instances.make_pattern(n, loci)
    witness = oracle.brute_force_nrc(build_hypergraph(pattern), 4)
    assert (witness is None) == decisive


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
