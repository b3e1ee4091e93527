"""Command-line harness: one-off solves from topology/demand files and
batch scenario runs that emit self-describing CSV rows.

Per-sample randomness is derived from the master seed by numpy seed
spawning: sample i uses SeedSequence(seed, spawn_key=(i,)).  The derived
integer is recorded in the sample_seed column of every row.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .emmdea import StateSpaceError, solve_extended
from .graphs import build_spt, check_quality
from .hmmdea import h_solve
from .instances import DEMO_VIEW_COUNT, demo_instance
from .mmdea import SolverError, solve_general, two_view_fraction
from .oracle import OracleGuardError, brute_force_emmds, brute_force_mmds, omds
from .workload import (DemandDistribution, generate_topology, parse_topology,
                       read_demand, sample_demand)

SOLVERS = ("omds", "mmdea", "emmdea", "hmmdea", "oracle", "oracle-ext")

CSV_COLUMNS = ("topology", "views", "clients", "dist", "d", "phi", "samples",
               "seed", "sample", "sample_seed", "solver", "status",
               "total_bandwidth", "evaluated_cost", "two_view_fraction",
               "runtime_ms", "error")


@dataclass
class ScenarioConfig:
    topology: str | None = None       # path, or None when generating
    fmt: str = "gml"
    gen: tuple | None = None          # (nodes, edges)
    preset: str | None = None
    views: int = 12
    clients: int = 100
    dist: str = "uniform"
    d: int = 5
    solvers: tuple = ("omds", "mmdea")
    phi: str = "exact"
    samples: int = 100
    seed: int = 0
    largest_component: bool = False

    def label(self):
        if self.preset:
            return f"preset:{self.preset}"
        if self.gen:
            return f"gen:{self.gen[0]},{self.gen[1]}"
        return str(self.topology)


def parse_dist(spec: str, view_count: int) -> DemandDistribution:
    name, _, arg = spec.partition(":")
    if name == "uniform":
        return DemandDistribution("uniform", view_count)
    if name == "gaussian":
        return DemandDistribution("gaussian", view_count, variance=float(arg or 4))
    if name == "zipf":
        return DemandDistribution("zipf", view_count, exponent=float(arg or 2))
    raise ValueError(f"unknown demand distribution {spec!r}")


def run_solver(name: str, tree, demand, D: int, phi: str):
    if name == "omds":
        return omds(tree, demand)
    if name == "mmdea":
        return solve_general(tree, demand, D, mode=phi)
    if name == "emmdea":
        return solve_extended(tree, demand, D, mode=phi)
    if name == "hmmdea":
        return h_solve(tree, demand, D)
    if name == "oracle":
        return brute_force_mmds(tree, demand, D)
    if name == "oracle-ext":
        return brute_force_emmds(tree, demand, D)
    raise ValueError(f"unknown solver {name!r}")


def sample_seed_of(master: int, index: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


def _echo(config: ScenarioConfig):
    return {
        "topology": config.label(), "views": config.views,
        "clients": config.clients, "dist": config.dist, "d": config.d,
        "phi": config.phi, "samples": config.samples, "seed": config.seed,
    }


def _client_candidates(graph):
    """The nodes a sample may place clients on, sorted by `repr`."""
    return sorted((n for n in graph.nodes if n != graph.server), key=repr)


def _run_sample(args, candidates=None):
    """Rows of one sample; `args` is (config, graph, index) and
    `candidates` is `_client_candidates(graph)`, computed when omitted."""
    config, graph, index = args
    if config.clients < 1:
        raise ValueError("no desired views")
    ss = np.random.SeedSequence(config.seed, spawn_key=(index,))
    rng = np.random.default_rng(ss)
    if candidates is None:
        candidates = _client_candidates(graph)
    if config.clients > len(candidates):
        raise ValueError(f"cannot place {config.clients} clients on "
                         f"{len(candidates)} non-server nodes")
    picks = rng.choice(len(candidates), size=config.clients, replace=False)
    terminals = [candidates[i] for i in np.sort(picks).tolist()]
    demand = sample_demand(parse_dist(config.dist, config.views), terminals, rng)
    tree = build_spt(graph, terminals)
    rows = []
    base = _echo(config)
    base.update({"sample": index, "sample_seed": int(ss.generate_state(1)[0])})
    for solver in config.solvers:
        rows.append(_solver_row(base, solver, tree, demand, config.d, config.phi))
    return rows


# A pool worker's graph and client candidates, set once by _init_worker,
# or the exception that stopped it.
_worker = {}


def _init_worker(graph, candidates):
    # an initializer that raises makes every worker print a traceback, so
    # the failure is kept and reported by the worker's first task instead
    try:
        _worker.update(graph=graph, candidates=candidates)
    except Exception as exc:
        _worker["error"] = exc


def _run_pooled_sample(args):
    """Rows of one sample in a pool worker; `args` is (config, index)."""
    if "error" in _worker:
        raise BrokenProcessPool(f"worker initializer failed: {_worker['error']!r}")
    config, index = args
    return _run_sample((config, _worker["graph"], index), _worker["candidates"])


def _solver_row(base, solver, tree, demand, D, phi):
    row = dict(base)
    row.update({"solver": solver, "status": "ok", "error": ""})
    start = time.perf_counter()
    try:
        result = run_solver(solver, tree, demand, D, phi)
    except Exception as exc:  # one failing solve must not abort the batch
        refused = isinstance(exc, (OracleGuardError, StateSpaceError))
        error = str(exc) if refused else f"{type(exc).__name__}: {exc}"
        # "fault" is no CSV column; it makes `mmds run` exit 3
        row.update({"status": "error", "error": error, "fault": not refused,
                    "total_bandwidth": "", "evaluated_cost": "",
                    "two_view_fraction": "",
                    "runtime_ms": round((time.perf_counter() - start) * 1000, 3)})
        return row
    elapsed = (time.perf_counter() - start) * 1000
    row.update({
        "total_bandwidth": result.total,
        "evaluated_cost": result.evaluated,
        "two_view_fraction": round(two_view_fraction(result, demand), 6),
        "runtime_ms": round(elapsed, 3),
    })
    return row


def run_scenario(config: ScenarioConfig) -> list[dict]:
    """Run all samples of a scenario; one row per (sample, solver) plus a
    mean row per solver, in sample order.  A bad D raises before any runs."""
    check_quality(config.d)
    if config.preset == "demo":
        tree, demand = demo_instance()
        base = _echo(config)
        base.update({"views": DEMO_VIEW_COUNT, "clients": len(demand),
                     "dist": "fixed", "samples": 1, "sample": 0,
                     "sample_seed": sample_seed_of(config.seed, 0)})
        rows = [_solver_row(base, s, tree, demand, config.d, config.phi)
                for s in config.solvers]
        return rows + _mean_rows(rows, base)
    if config.gen:
        graph = generate_topology(config.gen[0], config.gen[1], seed=config.seed)
    elif config.topology:
        graph = parse_topology(config.topology, config.fmt,
                               largest_component=config.largest_component)
    else:
        raise ValueError("scenario needs --topology, --gen or --preset")
    candidates = _client_candidates(graph)
    workers = min(os.cpu_count() or 1, config.samples)
    if workers > 1 and config.samples > 1:
        # each worker receives the graph once; a task is (config, index),
        # handed out about four chunks per worker so uneven samples balance
        chunk = max(1, config.samples // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(graph, candidates)) as pool:
            per_sample = list(pool.map(
                _run_pooled_sample,
                [(config, i) for i in range(config.samples)], chunksize=chunk))
    else:
        per_sample = [_run_sample((config, graph, i), candidates)
                      for i in range(config.samples)]
    rows = [row for sample in per_sample for row in sample]
    return rows + _mean_rows(rows, _echo(config))


def _mean_rows(rows, base) -> list[dict]:
    out = []
    for solver in dict.fromkeys(r["solver"] for r in rows):
        ok = [r for r in rows if r["solver"] == solver and r["status"] == "ok"]
        row = dict(base)
        row.update({"sample": "mean", "sample_seed": "", "solver": solver})
        if ok:
            row.update({
                "status": f"ok:{len(ok)}",
                "total_bandwidth": sum(r["total_bandwidth"] for r in ok) / len(ok),
                "evaluated_cost": sum(r["evaluated_cost"] for r in ok) / len(ok),
                "two_view_fraction": round(
                    sum(r["two_view_fraction"] for r in ok) / len(ok), 6),
                "runtime_ms": round(sum(r["runtime_ms"] for r in ok) / len(ok), 3),
                "error": "",
            })
        else:
            row.update({"status": "error", "total_bandwidth": "",
                        "evaluated_cost": "", "two_view_fraction": "",
                        "runtime_ms": "", "error": "no successful samples"})
        out.append(row)
    return out


def write_csv(rows, stream):
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in CSV_COLUMNS})


def _cmd_solve(args) -> int:
    try:
        check_quality(args.d)
        graph = parse_topology(args.topology, args.format,
                               largest_component=args.largest_component)
        demand = read_demand(args.demand, args.views)
        tree = build_spt(graph, demand.demand.keys())
        result = run_solver(args.solver, tree, demand, args.d, args.phi)
    except (OracleGuardError, StateSpaceError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is a fault, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"solver: {result.solver}"
          + (f" (phi={result.phi_mode})" if result.phi_mode else ""))
    print(f"total bandwidth: {result.total}")
    print(f"evaluate_cost check: {result.evaluated}")
    print("transmitted:", " ".join(str(v) for v in result.transmitted))
    print("assignments:")
    for v in sorted(result.theta):
        l, r = result.theta[v]
        print(f"  {v} -> ({l}, {r})")
    return 0


def _cmd_run(args) -> int:
    solvers = tuple(s.strip() for s in args.solver.split(",") if s.strip())
    for s in solvers:
        if s not in SOLVERS:
            print(f"error: unknown solver {s!r}", file=sys.stderr)
            return 1
    gen = None
    if args.gen:
        try:
            n, e = (int(x) for x in args.gen.split(","))
        except ValueError:
            print(f"error: --gen expects N,E, got {args.gen!r}", file=sys.stderr)
            return 1
        gen = (n, e)
    config = ScenarioConfig(
        topology=args.topology, fmt=args.format, gen=gen, preset=args.preset,
        views=args.views, clients=args.clients, dist=args.dist, d=args.d,
        solvers=solvers, phi=args.phi, samples=args.samples, seed=args.seed,
        largest_component=args.largest_component)
    try:
        rows = run_scenario(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool as exc:
        print(f"error: worker pool failed: {exc}", file=sys.stderr)
        return 3
    if args.out and args.out != "-":
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    if any(r.get("fault") for r in rows):
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmds",
        description="Multicast view-selection solvers and simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance from files")
    ps.add_argument("--topology", required=True, help="topology file")
    ps.add_argument("--format", choices=("gml", "edges"), default="gml")
    ps.add_argument("--demand", required=True, help="terminal/view pairs file")
    ps.add_argument("--d", type=int, required=True, help="quality constraint")
    ps.add_argument("--solver", choices=SOLVERS, default="mmdea")
    ps.add_argument("--phi", choices=("literal", "exact", "per-view"),
                    default="exact")
    ps.add_argument("--views", type=int, help="universe size (default: max view)")
    ps.add_argument("--largest-component", action="store_true")
    ps.set_defaults(func=_cmd_solve)

    pr = sub.add_parser("run", help="run a simulation scenario, emit CSV")
    pr.add_argument("--preset", choices=("demo",))
    pr.add_argument("--topology")
    pr.add_argument("--format", choices=("gml", "edges"), default="gml")
    pr.add_argument("--gen", metavar="N,E", help="generate a random topology")
    pr.add_argument("--views", type=int, default=12)
    pr.add_argument("--clients", type=int, default=100)
    pr.add_argument("--dist", default="uniform",
                    help="uniform | gaussian:VAR | zipf:S")
    pr.add_argument("--d", type=int, default=5)
    pr.add_argument("--solver", default="omds,mmdea",
                    help="comma-separated list of solvers")
    pr.add_argument("--phi", choices=("literal", "exact", "per-view"),
                    default="exact")
    pr.add_argument("--samples", type=int, default=100)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    pr.add_argument("--largest-component", action="store_true")
    pr.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "phi", None) == "per-view":
        args.phi = "per_view"
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
