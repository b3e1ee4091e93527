"""Traced run: the scenario's samples replayed serially, one span around
each public call, and the per-layer metrics derived from the spans.

A sample is re-derived exactly as ``mmds.cli`` derives it: the generator
is ``SeedSequence(seed, spawn_key=(i,))``, terminals are a choice over
the non-server nodes sorted by ``repr``, and the demand is drawn from the
same generator.  Each replay's totals must equal ``run_scenario``'s.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
from mmds.cli import parse_dist, run_scenario, run_solver
from mmds.cost import evaluate_cost, view_trees
from mmds.emmdea import StateSpaceError
from mmds.graphs import build_spt, segment_views
from mmds.oracle import OracleGuardError
from mmds.workload import sample_demand

from bench import (DEFAULT_SEED, check_golden, check_rows, rows_of,
                   time_setup, totals_of)
from spans import NullTracer, Tracer

# Span name of each solver: <module>.<public function>.
LAYER_OF = {"omds": "oracle.omds", "mmdea": "mmdea.solve_general",
            "emmdea": "emmdea.solve_extended", "hmmdea": "hmmdea.h_solve"}
TIMED_LAYERS = ("workload.parse_topology", "workload.sample_demand",
                "graphs.build_spt", "cost.view_trees", "cost.evaluate_cost",
                *LAYER_OF.values())
# Layers whose share of the replay's wall time is reported on every
# workload (0 where the layer does not run).
SHARE_LAYERS = ("graphs.build_spt", "mmdea.solve_general",
                "emmdea.solve_extended", "hmmdea.h_solve")


@dataclass
class Sample:
    index: int
    terminals: frozenset
    tree: object
    demand: object
    results: dict   # solver -> SolveResult, or None when refused


def dp_cells(segments, D: int) -> int:
    """DP variants mmdea fills: per segment one for the first column, then
    min(D, j) for the column j steps to its right (variant 0 plus anchor
    depths 2..min(D, j))."""
    return sum(1 + sum(min(D, j) for j in range(1, seg.hi - seg.lo + 1))
               for seg in segments)


def replay_sample(config, graph, i: int, tracer) -> Sample:
    """Run sample i of `config` in this process, as run_scenario's workers
    do."""
    with tracer.span("cli.sample", i):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(i,)))
        candidates = sorted((n for n in graph.nodes if n != graph.server),
                            key=repr)
        with tracer.span("workload.sample_demand", i):
            picks = rng.choice(len(candidates), size=config.clients,
                               replace=False)
            terminals = [candidates[j] for j in sorted(picks)]
            demand = sample_demand(parse_dist(config.dist, config.views),
                                   terminals, rng)
        with tracer.span("graphs.build_spt", i):
            tree = build_spt(graph, terminals)
        results = {}
        for solver in config.solvers:
            with tracer.span(LAYER_OF[solver], i):
                try:
                    results[solver] = run_solver(solver, tree, demand,
                                                 config.d, config.phi)
                except (OracleGuardError, StateSpaceError):
                    results[solver] = None
    return Sample(i, frozenset(terminals), tree, demand, results)


def replay_both(config, graph, tracer):
    """Replay every sample twice, untraced and traced, alternating which
    goes first so that neither gains from warm caches and slow drifts in
    machine speed hit both alike.  Returns (per-sample (untraced, traced)
    seconds, untraced totals, traced samples)."""
    pairs, plain, traced = [], {}, []
    for i in range(config.samples):
        wall = {}
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            sample = replay_sample(config, graph, i, tracer if on else NullTracer())
            wall[on] = time.perf_counter() - t0
            if on:
                traced.append(sample)
            else:
                # keep only the totals, so the heap stays the same size
                plain.update(replay_totals([sample]))
            del sample  # freed here, not inside the next timed call
        pairs.append((wall[False], wall[True]))
    return pairs, plain, traced


def replay_totals(samples) -> dict:
    return {(s.index, solver): None if r is None else r.total
            for s in samples for solver, r in s.results.items()}


def probe(samples, D: int, tracer) -> tuple[dict, list[str]]:
    """Work counts per sample, and an independent re-costing of every
    result by evaluate_cost (each call is a span)."""
    n = len(samples)
    sums = dict.fromkeys(("graphs.spt_arcs", "cost.view_tree_units",
                          "mmdea.segments", "mmdea.dp_cells", "hmmdea.rounds"), 0)
    refusals = repeats = 0
    seen = set()
    problems = []
    for s in samples:
        repeats += s.terminals in seen
        seen.add(s.terminals)
        sums["graphs.spt_arcs"] += len(s.tree.arcs)
        with tracer.span("cost.view_trees", s.index):
            trees = view_trees(s.tree, s.demand)
        sums["cost.view_tree_units"] += sum(len(t) for t in trees.values())
        for solver, result in s.results.items():
            if result is None:
                refusals += solver == "emmdea"
                continue
            with tracer.span("cost.evaluate_cost", s.index):
                cost = evaluate_cost(s.tree, s.demand, result.theta)
            if cost != result.total:
                problems.append(f"sample {s.index} {solver}: evaluate_cost "
                                f"{cost} != reported total {result.total}")
        if "mmdea" in s.results:
            segments = segment_views(s.demand, D)
            sums["mmdea.segments"] += len(segments)
            sums["mmdea.dp_cells"] += dp_cells(segments, D)
        if s.results.get("hmmdea") is not None:
            sums["hmmdea.rounds"] += len(s.results["hmmdea"].round_costs) - 1
    counts = {k: v / n for k, v in sums.items()}
    counts["emmdea.refusals"] = refusals
    counts["graphs.terminal_repeat_frac"] = repeats / n
    return counts, problems


def unit_of(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith((".share", "_frac", ".overhead")):
        return "share"
    if name.endswith("speedup"):
        return "ratio"
    return "count"


def measure_layers(workload, root, seed: int, seconds: float,
                   golden: dict) -> dict:
    """Repeat (pooled run, untraced and traced serial replay, probe) rounds
    while another round fits in `seconds` (at least one); every round is
    checked."""
    tracer = Tracer()
    _, graph = time_setup(root, tracer)
    config = workload.config(root, seed, workload.trace_samples)
    speedups, overheads, problems = [], [], []
    attempted = failed = 0
    counts = None
    start = time.perf_counter()
    while True:
        round_start = t0 = time.perf_counter()
        with tracer.span("cli.run_scenario"):
            rows = rows_of(run_scenario(config))
        pooled = time.perf_counter() - t0
        pairs, plain, traced = replay_both(config, graph, tracer)
        speedups.append(sum(u for u, _ in pairs) / pooled)
        overheads += [t / u - 1 for u, t in pairs]

        problems += check_rows(rows)
        totals = totals_of(rows)
        if seed == DEFAULT_SEED:
            problems += check_golden(workload, totals, golden)
        for name, got in (("untraced", plain), ("traced", replay_totals(traced))):
            if got != totals:
                problems.append(f"{name} serial replay totals differ from "
                                "run_scenario's")
            failed += sum(total is None for total in got.values())
        counts, found = probe(traced, config.d, tracer)
        problems += found
        del traced
        attempted += 3 * len(rows)
        failed += sum(r["status"] != "ok" for r in rows)
        now = time.perf_counter()
        if problems or now - start + (now - round_start) > seconds:
            break

    selfs = tracer.self_times()
    replay_ns = selfs["cli.sample"][2]
    metrics = {}
    for name in TIMED_LAYERS:
        calls, own, _ = selfs.get(name, (0, 0, 0))
        if calls:
            metrics[f"{name}.ms"] = own / calls / 1e6
    for name in SHARE_LAYERS:
        metrics[f"{name}.share"] = selfs.get(name, (0, 0, 0))[1] / replay_ns
    metrics.update(counts)
    metrics["cli.pool_speedup"] = statistics.median(speedups)
    metrics["trace.overhead"] = statistics.median(overheads)
    return {"metrics": metrics, "rounds": len(speedups),
            "samples_per_replay": config.samples, "attempted": attempted,
            "failed": failed, "problems": problems, "tracer": tracer,
            "self_ms": {k: {"calls": c, "self_ms": own / 1e6}
                        for k, (c, own, _) in sorted(selfs.items())}}
