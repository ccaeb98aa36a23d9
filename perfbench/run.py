"""Benchmark of the decisive solver: PAR-2 over four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  A check is one closed-loop call, one at a
time in one process: parse the pattern text with ``cli.parse_pattern_text``,
then ``pipeline.decide``.  Each pass runs every instance of the workload once
and then emits the LP and DIMACS text of every pattern; passes repeat until
the next one would end after ``--seconds``.  Within a pass, checks and exports
of small patterns are repeated up to SAMPLE_S.  Every verdict is compared with
the expectation the generator derived from its construction, and every
witness is re-verified against the generator's own copy of the pattern,
outside the timed interval.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics of one
traced pass, plus the tracing overhead against untraced passes of the same
run.  A record of the instances, of every check and (traced) of every span is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

_import_start = time.perf_counter()
import decisive  # noqa: E402
IMPORT_S = time.perf_counter() - _import_start
from decisive import cli, emit, pipeline  # noqa: E402
from decisive.core import Coloring, build_hypergraph, verify_no_rainbow  # noqa: E402
from decisive.errors import SizeLimitError  # noqa: E402

import instances  # noqa: E402
from instances import Instance  # noqa: E402
from tracing import Tracer  # noqa: E402

# Per-check deadline in seconds, three to seven times the slowest check of
# the workload today.  A check that is refused, fails or misses it scores twice
# the deadline in PAR-2.  search-parallel enforces none, because an alarm
# cannot stop the pool's workers; its deadline only scores refusals.
DEADLINE_S = {
    "screen-supermatrix": 5.0,
    "search-direct": 10.0,
    "search-kernel": 10.0,
    "search-parallel": 10.0,
}
# no check starts with a deadline that would end the run past this point
RUN_BUDGET_S = 150.0
# set-up repeats at least SETUP_REPEATS times and until SETUP_S is spent: one
# set-up of the search workloads takes tens of milliseconds and jitters by a
# third
SETUP_REPEATS = 5
SETUP_S = 1.0
# Checks and exports of small patterns take milliseconds and jitter by tens
# of percent; each pass repeats them until this much time is spent (at most
# SAMPLES_MAX times) and every repeat is a sample.
SAMPLE_S = 0.05
SAMPLES_MAX = 25

SOLVED, REFUSED, FAILED = "solved", "refused", "failed"


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Check:
    instance: str
    outcome: str  # SOLVED, REFUSED or FAILED
    elapsed_s: float
    reason: str = ""


def run_check(inst: Instance, parallel: bool, deadline_s: float) -> Check:
    """Time one parse + decide, then judge the result outside the timing."""
    start = time.perf_counter()
    try:
        if deadline_s:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            parsed = cli.parse_pattern_text(inst.text, inst.fmt)
            verdict = pipeline.decide(parsed, parallel=parallel)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Check(inst.id, FAILED, deadline_s, "missed the deadline")
    except SizeLimitError as exc:
        return Check(inst.id, REFUSED, elapsed, str(exc))
    except Exception as exc:  # a crashing check is counted, not raised
        return Check(inst.id, FAILED, elapsed, f"raised {exc!r}")
    problem = judge(inst, parsed, verdict)
    return Check(inst.id, FAILED if problem else SOLVED, elapsed, problem)


def judge(inst: Instance, parsed, verdict) -> str:
    """Why the verdict is wrong, or "" when it matches the construction."""
    if verdict.decisive != inst.decisive:
        return f"verdict decisive={verdict.decisive}, expected {inst.decisive}"
    if verdict.decisive:
        return "" if verdict.witness is None else "decisive verdict with a witness"
    blocks = verdict.witness
    if blocks is None or len(blocks) != 4 or not all(blocks):
        return "witness is not four nonempty blocks"
    index = {name: i for i, name in enumerate(inst.pattern.taxa)}
    assignment = [0] * inst.pattern.n
    for color, block in enumerate(blocks, start=1):
        for v in block:
            i = index.get(parsed.taxa[v]) if 0 <= v < parsed.n else None
            if i is None or assignment[i]:
                return "witness blocks are not a partition of the taxa"
            assignment[i] = color
    if 0 in assignment:
        return "witness leaves a taxon uncolored"
    coloring = Coloring(4, tuple(assignment))
    if not verify_no_rainbow(build_hypergraph(inst.pattern), coloring):
        return "witness has a rainbow locus"
    return ""


def export(inst: Instance) -> float:
    """Seconds to emit the LP text and the DIMACS text of one pattern."""
    start = time.perf_counter()
    emit.emit_ilp(inst.pattern).to_lp_text()
    emit.emit_cnf(build_hypergraph(inst.pattern)).to_dimacs()
    return time.perf_counter() - start


def sample(measure_once, seconds=lambda x: x) -> list:
    """Repeat a measurement until SAMPLE_S is spent, at least once."""
    out = [measure_once()]
    while sum(map(seconds, out)) < SAMPLE_S and len(out) < SAMPLES_MAX:
        out.append(measure_once())
    return out


def run_pass(insts, parallel, deadline_s, run_end, tracer=None):
    """Check every instance, then export every pattern; returns the check
    samples and the export samples of each instance.  A traced pass takes
    one sample each, so that its counts are exact."""

    def check(inst):
        left = run_end - time.monotonic()
        if deadline_s and left <= 0:
            return Check(inst.id, FAILED, deadline_s, "run budget spent")
        return run_check(inst, parallel, min(deadline_s, left))

    checks, exports = [], []
    for inst in insts:
        if tracer is not None:
            tracer.instance = inst.id
            checks.append([check(inst)])
        else:
            checks.append(sample(lambda: check(inst), lambda c: c.elapsed_s))
    for inst in insts:
        if tracer is not None:
            tracer.instance = inst.id
            exports.append([export(inst)])
        else:
            exports.append(sample(lambda: export(inst)))
    return checks, exports


def measure(insts, seconds, parallel, deadline_s, run_end):
    """Untraced passes until the next one would end after ``seconds``."""
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(insts, parallel, deadline_s, run_end))
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            return passes


def summarize(passes, deadline_s) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes.

    Every instance scores the median over its samples of the PAR-2 score
    (the time when solved, twice the deadline otherwise).  A refusal's
    penalty is a constant, so ``solved_s`` also sums the median times of the
    solved checks alone: it follows the solver's speed where refusals make
    up most of ``par2_s``.  The median check time is taken over the
    per-instance medians, so it does not depend on how many samples fit in
    the run.  It and the export time are recorded but not reported as
    metrics: their run-to-run spread on a shared 2-vCPU machine reaches the
    largest bound a metric may have.
    """
    per_inst = per_instance(passes, 0)
    scores = [
        statistics.median(c.elapsed_s if c.outcome == SOLVED else 2 * deadline_s
                          for c in runs)
        for runs in per_inst
    ]
    times = [statistics.median(c.elapsed_s for c in runs) for runs in per_inst]
    decided = [all(c.outcome == SOLVED for c in runs) for runs in per_inst]
    metrics = {
        "par2_s": sum(scores),
        "solved_s": solved_time(passes),
        "decided_ratio": sum(decided) / len(decided),
    }
    recorded = {
        "check_p50_ms": statistics.median(times) * 1e3,
        "export_s": sum(statistics.median(ex) for ex in per_instance(passes, 1)),
    }
    return metrics, recorded


def per_instance(passes, part: int) -> list[list]:
    """The check (part 0) or export (part 1) samples of every instance,
    pooled over the passes."""
    return [
        [x for samples in per_pass for x in samples]
        for per_pass in zip(*[p[part] for p in passes])
    ]


def solved_time(passes) -> float:
    """Sum over instances of the median time of their solved checks."""
    total = 0.0
    for runs in per_instance(passes, 0):
        solved = [c.elapsed_s for c in runs if c.outcome == SOLVED]
        total += statistics.median(solved) if solved else 0.0
    return total


def setup(workload: str, seed: int) -> tuple[list[Instance], float]:
    """Generate the instances and warm up on the n = 9 star pattern, several
    times (see SETUP_S); returns the instances and the median set-up time.

    The import is timed once per process and only recorded: timed in fresh
    interpreters on a shared 2-vCPU machine, its median moved by a third
    between two sets of ten runs.
    """
    warm = instances.locus_list(instances.make_pattern(9, instances.star_loci(9)))
    took = []
    while len(took) < SETUP_REPEATS or sum(took) < SETUP_S:
        start = time.perf_counter()
        insts = instances.build(workload, seed)
        pipeline.decide(cli.parse_pattern_text(warm, "locus-list"))
        took.append(time.perf_counter() - start)
    return insts, statistics.median(took)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest ended child: the
    pool workers of search-parallel run the search, and leave at the end of
    each check."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run(workload, seed, seconds, trace):
    """Measure one workload; returns (result object, record for .bench_out)."""
    run_end = time.monotonic() + RUN_BUDGET_S
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _run(workload, seed, seconds, trace, run_end)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _run(workload, seed, seconds, trace, run_end):
    insts, setup_s = setup(workload, seed)
    parallel = workload == "search-parallel"
    deadline_s = DEADLINE_S[workload]
    enforced = 0.0 if parallel else deadline_s
    if trace:
        passes = measure(insts, seconds / 2, parallel, enforced, run_end)
        tracer = Tracer()
        with tracer.installed():
            traced = [run_pass(insts, parallel, enforced, run_end, tracer)]
        metrics = tracer.metrics()
        base = solved_time(passes)
        metrics["trace.overhead_ratio"] = solved_time(traced) / base if base else 0.0
        highs = highs_reference(insts) if workload == "search-direct" else []
        metrics["emit.highs_ref_s"] = sum(c.elapsed_s for c in highs)
        # ratios over the traced pass, one check per instance, and HiGHS
        exact = [c for runs in per_instance(traced, 0) for c in runs] + highs
        metrics["outcome.fail_ratio"] = (
            sum(c.outcome == FAILED for c in exact) / len(exact)
        )
        metrics["outcome.refused_ratio"] = (
            sum(c.outcome == REFUSED for c in exact) / len(exact)
        )
        checks = [c for runs in per_instance(passes, 0) for c in runs] + exact
        spans = tracer.dump()
        recorded = {}
    else:
        passes = measure(insts, seconds, parallel, enforced, run_end)
        metrics, recorded = summarize(passes, deadline_s)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        checks = [c for runs in per_instance(passes, 0) for c in runs]
        spans = None
    units = manifest_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    failed = sum(c.outcome == FAILED for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "instances": [
            {"id": i.id, "family": i.family, "n": i.n, "k": i.k,
             "kernel_rows": i.kernel_rows, "spares": i.spares,
             "guesses": i.guesses, "decisive": i.decisive, "plan": i.plan}
            for i in insts
        ],
        "checks": [vars(c) for c in checks],
        "result": result,
        "import_s": IMPORT_S,
        **recorded,
    }
    if spans is not None:
        record["spans"] = spans
    return result, record


def highs_reference(insts) -> list[Check]:
    """HiGHS (scipy.optimize.milp) on ``emit_ilp`` for the n = 10 star and the
    n = 10 planted 4-partition with classes (2, 2, 3, 3).

    The emitted ILP is feasible iff the pattern is non-decisive; a feasible
    solution is decoded and re-verified as a witness.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    checks = []
    for inst in insts:
        if inst.id not in ("star-10", "planted-2233"):
            continue
        start = time.perf_counter()
        model = emit.emit_ilp(inst.pattern)
        col = {name: j for j, name in enumerate(model.variables)}
        rows, cols, vals, lo, hi = [], [], [], [], []
        for r, row in enumerate(model.rows):
            for name, coeff in row.terms:
                rows.append(r)
                cols.append(col[name])
                vals.append(coeff)
            lo.append(row.rhs if row.sense in ("=", ">=") else -np.inf)
            hi.append(row.rhs if row.sense in ("=", "<=") else np.inf)
        a = coo_matrix((vals, (rows, cols)), shape=(model.num_rows, model.num_columns))
        res = milp(
            np.zeros(model.num_columns),
            constraints=LinearConstraint(a.tocsr(), lo, hi),
            integrality=np.ones(model.num_columns),
            bounds=Bounds(0, 1),
            options={"time_limit": 120},
        )
        elapsed = time.perf_counter() - start
        problem = ""
        if res.status not in (0, 2):
            problem = f"HiGHS ended with status {res.status}"
        elif (res.status == 0) == inst.decisive:
            problem = f"HiGHS finds the ILP feasible={res.status == 0}, " \
                      f"expected decisive={inst.decisive}"
        elif res.status == 0:
            x = np.round(res.x).astype(int)
            assignment = tuple(
                next((q for q in range(1, 5) if x[col[f"x_{i + 1}_{q}"]]), 0)
                for i in range(inst.n)
            )
            if 0 in assignment or not verify_no_rainbow(
                build_hypergraph(inst.pattern), Coloring(4, assignment)
            ):
                problem = "HiGHS solution is not a witness"
        checks.append(Check(f"highs:{inst.id}", FAILED if problem else SOLVED,
                            elapsed, problem))
    return checks


def manifest_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(decisive.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: decisive was imported from {decisive.__file__}, "
                 f"not from {SRC}")
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    mix = record["instances"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes over {len(mix)} instances "
          "(check_p50_ms is the median of their median times); "
          f"sum n={sum(i['n'] for i in mix)} k={sum(i['k'] for i in mix)} "
          f"kernel rows={sum(i['kernel_rows'] for i in mix)} "
          f"spares={sum(i['spares'] for i in mix)} "
          f"guesses={sum(i['guesses'] or 0 for i in mix)}; "
          + "".join(f"{key}={record[key]:.6g} " for key in ("check_p50_ms", "export_s")
                    if key in record)
          +
          f"record in {OUT.name}/{name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
