"""Workload definitions, output checks and the untraced end-to-end run.

Every call goes through the public functions of ``mmds``: the end-to-end
numbers come from ``mmds.cli.run_scenario`` exactly as ``mmds run``
invokes it, pooled over ``os.cpu_count()`` workers.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from mmds.cli import ScenarioConfig, run_scenario
from mmds.workload import parse_topology
from spans import NullTracer

DEFAULT_SEED = 2024
TOPOLOGY = Path("src", "mmds", "data", "kdl_754_895.gml")
# Solvers whose result is an exact optimum (or the direct baseline): each
# row must be re-costed to exactly its total, and the totals are pinned in
# golden.json.  hmmdea is a heuristic; a better one may lower its totals,
# so only its place between mmdea and omds is checked.
EXACT_SOLVERS = ("omds", "mmdea", "emmdea")
# Set-up is timed this many times before the first batch and once after
# each batch.
SETUP_REPEATS = 5
# Candidate tail percentiles, highest first.  A workload guarantees
# tail_rows timed rows per solver, and its tail is the highest of these
# that leaves at least TAIL_BEYOND of tail_rows above it; a run never
# has fewer rows, so the percentile is fixed per workload.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    views: int
    d: int
    clients: int
    dist: str
    solvers: tuple
    samples: int        # samples per pooled run_scenario batch
    tail_rows: int      # timed rows per solver a run always reaches
    trace_samples: int  # samples per serial replay in the traced run

    def config(self, root: Path, seed: int, samples: int | None = None):
        return ScenarioConfig(
            topology=str(root / TOPOLOGY), fmt="gml", views=self.views,
            clients=self.clients, dist=self.dist, d=self.d,
            solvers=self.solvers, phi="exact",
            samples=self.samples if samples is None else samples, seed=seed)


WORKLOADS = {w.name: w for w in (
    # The ROADMAP headline scenario: many short samples, so per-sample fixed
    # costs (SPT, cost, pool pickling) dominate; terminal sets never repeat.
    # Its tail is p95, not p99: a run times thousands of ~10 ms rows, and
    # their p99 follows the machine's stalls more than the code (quartile
    # spread 26% over ten seeds on a 2-core VM, against 8% at p95).
    Workload("headline", views=12, d=5, clients=400, dist="uniform",
             solvers=("omds", "mmdea"), samples=100, tail_rows=200,
             trace_samples=100),
    # The ROADMAP stress point: every non-server node is a client, so every
    # sample has the same terminal set, and the mmdea DP does ~97% of the work.
    Workload("wide", views=100, d=16, clients=753, dist="uniform",
             solvers=("omds", "mmdea"), samples=8, tail_rows=40,
             trace_samples=4),
    # Skewed demand; the only workload that runs emmdea and hmmdea (~95% of
    # its work), and all four solvers, so emmdea <= mmdea <= hmmdea <= omds
    # is checked on every sample.
    Workload("relaxed", views=24, d=4, clients=400, dist="zipf:1",
             solvers=("omds", "mmdea", "emmdea", "hmmdea"), samples=32,
             tail_rows=100, trace_samples=12),
)}

# Units of every end-to-end figure the run reports; the gated subset is
# listed in BENCHMARK.json.
UNITS = {
    "samples_per_s": "1/s", "setup_s": "s", "failed_frac": "share",
    "saving": "share", "hmmdea_excess": "share", "peak_rss_mb": "MB",
    **{f"{s}_{q}_ms": "ms" for s in ("mmdea", "emmdea", "hmmdea")
       for q in ("p50", "tail")},
}


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples (n * p is exact
    for the ladder values, so the ceiling is too)."""
    return max(1, int(-(-n * p // 100)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile whose nearest rank leaves at least
    TAIL_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} samples leave no tail percentile")


def rows_of(rows):
    """Per-sample rows of a run_scenario result, without the mean rows."""
    return [r for r in rows if r["sample"] != "mean"]


def totals_of(rows) -> dict:
    """(sample, solver) -> total_bandwidth, None for a failed row."""
    return {(r["sample"], r["solver"]):
            r["total_bandwidth"] if r["status"] == "ok" else None for r in rows}


def check_rows(rows) -> list[str]:
    """Per-row and per-sample checks that hold at any seed."""
    problems = []
    by_sample = {}
    for r in rows:
        if r["status"] != "ok":
            continue
        by_sample.setdefault(r["sample"], {})[r["solver"]] = r["total_bandwidth"]
        if r["solver"] in EXACT_SOLVERS and r["evaluated_cost"] != r["total_bandwidth"]:
            problems.append(f"sample {r['sample']} {r['solver']}: evaluated_cost "
                            f"{r['evaluated_cost']} != total {r['total_bandwidth']}")
    order = ("emmdea", "mmdea", "hmmdea", "omds")
    for sample, got in by_sample.items():
        chain = [got[s] for s in order if s in got]
        if len(chain) == len(order) and chain != sorted(chain):
            problems.append(f"sample {sample}: emmdea <= mmdea <= hmmdea <= omds "
                            f"fails on {chain}")
    return problems


def check_golden(workload: Workload, totals: dict, golden: dict) -> list[str]:
    """Compare pinned per-sample totals at the default seed."""
    ref = golden[workload.name]["totals"]
    problems = []
    for solver, values in ref.items():
        for i, want in enumerate(values):
            got = totals.get((i, solver), want)  # absent: sample not run
            if got != want:
                problems.append(f"sample {i} {solver}: total {got}, "
                                f"recorded {want}")
    return problems


def load_golden(bench_dir: Path) -> dict:
    with open(bench_dir / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def time_setup(root: Path, tracer=NullTracer()):
    """Parse the bundled topology once; (seconds, graph)."""
    t0 = time.perf_counter()
    with tracer.span("workload.parse_topology"):
        graph = parse_topology(str(root / TOPOLOGY), "gml")
    return time.perf_counter() - t0, graph


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (a pool worker), in MiB.  Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def batch_seed(seed: int, batch: int) -> int:
    """Scenario seed of a run's batch: the workload seed itself for batch 0
    (what `mmds run --seed` would use), derived distinct seeds after it."""
    if batch == 0:
        return seed
    return int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])


def measure(workload: Workload, root: Path, seed: int, seconds: float,
            golden: dict) -> dict:
    """Untraced end-to-end run: pooled run_scenario batches, each on fresh
    samples, until `seconds` have passed and the workload's minimum batch
    count is reached.  Every batch is checked."""
    setup = [time_setup(root)[0] for _ in range(SETUP_REPEATS)]
    min_batches = -(-workload.tail_rows // workload.samples)
    rates, runtimes, problems = [], {s: [] for s in workload.solvers}, []
    quality_rows = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        b = len(rates)
        config = workload.config(root, batch_seed(seed, b))
        t0 = time.perf_counter()
        rows = rows_of(run_scenario(config))
        wall = time.perf_counter() - t0
        rates.append(config.samples / wall)
        attempted += len(rows)
        failed += sum(r["status"] != "ok" for r in rows)
        for r in rows:
            if r["status"] == "ok":
                runtimes[r["solver"]].append(r["runtime_ms"])
        problems += check_rows(rows)
        if b == 0 and seed == DEFAULT_SEED:
            problems += check_golden(workload, totals_of(rows), golden)
        if b < min_batches:
            quality_rows += rows
        # the pool is shut down between batches, so set-up is timed on an
        # otherwise idle process, spread over the whole run
        setup.append(time_setup(root)[0])
        elapsed = time.perf_counter() - start
        if problems or (b + 1 >= min_batches and elapsed + wall > seconds):
            break

    metrics = {"samples_per_s": statistics.median(rates),
               "setup_s": statistics.median(setup),
               "failed_frac": failed / attempted}
    p = tail_percentile(workload.tail_rows)
    for solver in ("mmdea", "emmdea", "hmmdea"):
        if runtimes.get(solver):
            metrics[f"{solver}_p50_ms"] = statistics.median(runtimes[solver])
            metrics[f"{solver}_tail_ms"] = percentile(runtimes[solver], p)
    means = mean_totals(quality_rows)
    if "mmdea" in means and "omds" in means:
        metrics["saving"] = 1 - means["mmdea"] / means["omds"]
    if "hmmdea" in means and "mmdea" in means:
        metrics["hmmdea_excess"] = means["hmmdea"] / means["mmdea"] - 1
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "tail_percentile": p,
            "timed_rows": {s: len(v) for s, v in runtimes.items()},
            "batch_rates": rates, "samples_per_batch": workload.samples,
            "quality_samples": min_batches * workload.samples,
            "attempted": attempted, "failed": failed, "problems": problems}


def mean_totals(rows) -> dict:
    """Mean total bandwidth per solver over the ok rows given."""
    out = {}
    for solver in dict.fromkeys(r["solver"] for r in rows):
        ok = [r["total_bandwidth"] for r in rows
              if r["solver"] == solver and r["status"] == "ok"]
        if ok:
            out[solver] = sum(ok) / len(ok)
    return out
