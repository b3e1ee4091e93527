"""Command-line harness: one-off solves from topology/demand files and
batch scenario runs that emit self-describing CSV rows.

Per-sample randomness is derived from the master seed by numpy seed
spawning: sample i uses SeedSequence(seed, spawn_key=(i,)).  The derived
integer is recorded in the sample_seed column of every row.  A batch
runs in W = min(usable cores, samples) processes: the caller runs the
samples i % W == 0 and forked child c those with i % W == c, sending
back its rows as one pickle; without os.fork, W is 1, a serial loop.  A
child whose caller has died leaves before its next sample.
"""

from __future__ import annotations

import argparse
import csv
import os
import pickle
import signal
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np
# loaded here, before `run_scenario` forks, so no child pays the import
from numpy.random import SeedSequence, default_rng

from .cost import PHI_MODES, Instance, SolverError, two_view_fraction
from .emmdea import StateSpaceError, solve_extended
from .graphs import build_spt, check_quality
from .hmmdea import h_solve
from .instances import DEMO_VIEW_COUNT, demo_instance
from .mmdea import solve_general
from .oracle import OracleGuardError, brute_force_emmds, brute_force_mmds, omds
from .workload import (DemandDistribution, draw_demand, generate_topology,
                       is_integer, parse_topology, read_demand)

# name -> call(inst, D, phi) on a `cost.Instance`; `run_solver`, `_solver_row`,
# the `solve --solver` choices and `run_scenario`'s solver check read it.  Each
# call looks its solver up when it runs, so a replaced attribute takes effect.
SOLVERS = {
    "omds": lambda inst, D, phi: omds(inst),
    "mmdea": lambda inst, D, phi: solve_general(inst, D, phi),
    "emmdea": lambda inst, D, phi: solve_extended(inst, D, phi),
    "hmmdea": lambda inst, D, phi: h_solve(inst, D),
    "oracle": lambda inst, D, phi: brute_force_mmds(inst, D),
    "oracle-ext": lambda inst, D, phi: brute_force_emmds(inst, D),
}

# The `--phi` spellings of cost.PHI_MODES: `main` maps "-" back to "_".
PHI_CHOICES = tuple(m.replace("_", "-") for m in PHI_MODES)

CSV_COLUMNS = ("topology", "views", "clients", "dist", "d", "phi", "samples",
               "seed", "sample", "sample_seed", "solver", "status",
               "total_bandwidth", "evaluated_cost", "two_view_fraction",
               "runtime_ms", "error")

REFUSALS = (OracleGuardError, StateSpaceError)  # exit 2, or an error row
# How `main` ends a command that raised: the first entry whose classes
# match gives the exit code and the stderr prefix ({} takes the class
# name).  Order matters: OracleGuardError is a ValueError, and
# ChildProcessError, raised when a forked child dies, an OSError.
OUTCOMES = (
    (KeyboardInterrupt, 130, "interrupted"),  # 128 + SIGINT, as a shell has it
    (REFUSALS, 2, "refused: "),
    (ChildProcessError, 3, "error: worker pool failed: "),
    (SolverError, 3, "internal error: "),
    ((ValueError, OSError), 1, "error: "),
    (Exception, 3, "internal error: {}: "),
)


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


def _integer(text: str) -> int:
    """argparse type of every integer flag: the text `is_integer` takes."""
    if not is_integer(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def parse_dist(spec: str, view_count: int) -> DemandDistribution:
    name, _, arg = spec.partition(":")
    if name == "uniform":
        if arg:
            raise ValueError(f"uniform demand takes no parameter, got {spec!r}")
        return DemandDistribution("uniform", view_count)
    if name not in ("gaussian", "zipf"):
        raise ValueError(f"unknown demand distribution {spec!r}")
    # the integer rule with at most one '.': float() also reads '٣' as 3,
    # '1_0' as 10 and '+2' as 2
    whole, _, frac = arg.removeprefix("-").partition(".")
    if arg and not ((whole + frac).isascii() and (whole + frac).isdigit()):
        raise ValueError(f"{name} demand takes a decimal number, got {spec!r}")
    if name == "gaussian":
        return DemandDistribution("gaussian", view_count, variance=float(arg or 4))
    return DemandDistribution("zipf", view_count, exponent=float(arg or 2))


def run_solver(name: str, tree, demand, D: int, phi: str):
    """Solve a fresh instance with `SOLVERS[name]`, `name` one of its keys."""
    return SOLVERS[name](Instance(tree, demand), D, phi)


def sample_seed_of(master: int, index: int) -> int:
    return int(SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


def _echo(config: ScenarioConfig):
    return {
        "topology": config.label(), "views": config.views,
        "clients": config.clients, "dist": config.dist, "d": config.d,
        "phi": config.phi, "samples": config.samples, "seed": config.seed,
    }


def _client_candidates(graph):
    """The nodes a sample may place clients on, sorted by `repr`."""
    return sorted((n for n in graph.nodes if n != graph.server), key=repr)


def _run_sample(config, graph, candidates, index):
    """Rows of sample `index`; `candidates` is `_client_candidates(graph)`
    and `config` has passed `run_scenario`'s checks."""
    ss = SeedSequence(config.seed, spawn_key=(index,))
    rng = default_rng(ss)
    picks = rng.choice(len(candidates), size=config.clients, replace=False)
    # in `repr` order, as the sorted indices of `repr`-sorted candidates
    terminals = [candidates[i] for i in np.sort(picks).tolist()]
    demand = draw_demand(parse_dist(config.dist, config.views), terminals, rng)
    tree = build_spt(graph, terminals)
    return _sample_rows(config, index, int(ss.generate_state(1)[0]), tree, demand)


def _sample_rows(config, index, sample_seed, tree, demand):
    """One row per solver of `config` for sample `index`, on one instance."""
    base = _echo(config)
    base.update({"sample": index, "sample_seed": sample_seed})
    inst = Instance(tree, demand)
    return [_solver_row(base, s, inst, config.d, config.phi)
            for s in config.solvers]


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    has one, else all the machine's cores."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _solver_row(base, solver, inst, D, phi):
    row = dict(base)
    row.update({"solver": solver, "status": "ok", "error": ""})
    start = time.perf_counter()
    try:
        result = SOLVERS[solver](inst, D, phi)
    except Exception as exc:  # one failing solve must not abort the batch
        refused = isinstance(exc, REFUSALS)
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
        "two_view_fraction": round(two_view_fraction(result, inst.demand), 6),
        "runtime_ms": round(elapsed, 3),
    })
    return row


def run_scenario(config: ScenarioConfig) -> list[dict]:
    """Run all samples of a scenario; one row per (sample, solver) plus a
    mean row per solver, in sample order.  Every check but the client count
    against the topology's nodes raises before anything is parsed or run."""
    sources = [f"--{name}" for name in ("topology", "gen", "preset")
               if getattr(config, name)]
    if len(sources) != 1:
        raise ValueError("scenario needs --topology, --gen or --preset"
                         + (f", not {' and '.join(sources)}" if sources else ""))
    check_quality(config.d)
    if config.samples < 0:
        raise ValueError(f"sample count must be >= 0, got {config.samples}")
    if config.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {config.seed}")
    if not config.solvers:
        raise ValueError("no solver given")
    for i, s in enumerate(config.solvers):
        if s not in SOLVERS:
            raise ValueError(f"unknown solver {s!r}")
        if s in config.solvers[:i]:
            raise ValueError(f"solver {s!r} given twice")
    demo = config.preset == "demo"
    # the demo's demand is fixed, but a bad --dist fails as on a topology
    parse_dist(config.dist, DEMO_VIEW_COUNT if demo else config.views)
    if config.clients < 1 and not demo:  # the demo places its own clients
        raise ValueError("no desired views")
    if demo:
        tree, demand = demo_instance()
        config = replace(config, views=DEMO_VIEW_COUNT, clients=len(demand),
                         dist="fixed", samples=1)
        rows = _sample_rows(config, 0, sample_seed_of(config.seed, 0),
                            tree, demand)
        return rows + _mean_rows(rows, _echo(config))
    if config.gen:
        graph = generate_topology(config.gen[0], config.gen[1], seed=config.seed)
    else:
        graph = parse_topology(config.topology, config.fmt,
                               largest_component=config.largest_component)
    candidates = _client_candidates(graph)
    if config.clients > len(candidates):
        raise ValueError(f"cannot place {config.clients} clients on "
                         f"{len(candidates)} non-server nodes")
    workers = max(1, min(_usable_cores() if hasattr(os, "fork") else 1,
                         config.samples))

    def share(c):
        rows = []
        for i in range(c, config.samples, workers):
            if c and os.getppid() != caller:  # the caller died: leave
                os._exit(1)
            rows.append(_run_sample(config, graph, candidates, i))
        return rows
    graph.spt  # built here once, so that the children inherit it
    caller = os.getpid()  # a child's parent until the caller dies
    per_sample = [None] * config.samples
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for c in range(1, workers):
            r, w = os.pipe()
            if pid := os.fork():
                os.close(w)
                children[pid] = open(r, "rb")
                continue
            try:  # in the child, which exits 0 once its whole pickle is written
                os.close(r)
                with open(w, "wb") as pipe:
                    pickle.dump(share(c), pipe, pickle.HIGHEST_PROTOCOL)
            except BaseException:
                os._exit(1)
            os._exit(0)  # runs no atexit handler, flushes no inherited buffer
        per_sample[::workers] = share(0)
        for c, (pid, pipe) in enumerate(list(children.items()), 1):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if code:  # also when it died part way through its pickle
                raise ChildProcessError(f"child {pid} exited with {code}")
            per_sample[c::workers] = pickle.loads(data)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, restval="",
                            extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)


def _cmd_solve(args) -> int:
    check_quality(args.d)
    graph = parse_topology(args.topology, args.format,
                           largest_component=args.largest_component)
    demand = read_demand(args.demand, args.views)
    tree = build_spt(graph, demand.demand.keys())
    result = run_solver(args.solver, tree, demand, args.d, args.phi)
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
    gen = None
    if args.gen:
        try:
            n, e = (_integer(x) for x in args.gen.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"--gen expects N,E, got {args.gen!r}") from None
        gen = (n, e)
    config = ScenarioConfig(
        topology=args.topology, fmt=args.format, gen=gen, preset=args.preset,
        views=args.views, clients=args.clients, dist=args.dist, d=args.d,
        solvers=solvers, phi=args.phi, samples=args.samples, seed=args.seed,
        largest_component=args.largest_component)
    # opened before the first sample, as a shell redirection would be, so a
    # bad path fails at once rather than after the whole batch
    with (open(args.out, "w", newline="", encoding="utf-8")
          if args.out and args.out != "-" else nullcontext(sys.stdout)) as out:
        rows = run_scenario(config)
        write_csv(rows, out)
    return 3 if any(r.get("fault") for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmds",
        description="Multicast view-selection solvers and simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance from files")
    ps.add_argument("--topology", required=True, help="topology file")
    ps.add_argument("--format", choices=("gml", "edges"), default="gml")
    ps.add_argument("--demand", required=True, help="terminal/view pairs file")
    ps.add_argument("--d", type=_integer, required=True, help="quality constraint")
    ps.add_argument("--solver", choices=SOLVERS, default="mmdea")
    ps.add_argument("--phi", choices=PHI_CHOICES, default="exact")
    ps.add_argument("--views", type=_integer, help="universe size (default: max view)")
    ps.add_argument("--largest-component", action="store_true")
    ps.set_defaults(func=_cmd_solve)

    pr = sub.add_parser("run", help="run a simulation scenario, emit CSV")
    given = ScenarioConfig()  # each default is written there once
    pr.add_argument("--preset", choices=("demo",))
    pr.add_argument("--topology")
    pr.add_argument("--format", choices=("gml", "edges"), default=given.fmt)
    pr.add_argument("--gen", metavar="N,E", help="generate a random topology")
    pr.add_argument("--views", type=_integer, default=given.views)
    pr.add_argument("--clients", type=_integer, default=given.clients)
    pr.add_argument("--dist", default=given.dist,
                    help="uniform | gaussian:VAR | zipf:S")
    pr.add_argument("--d", type=_integer, default=given.d)
    pr.add_argument("--solver", default=",".join(given.solvers),
                    help="comma-separated list of solvers")
    pr.add_argument("--phi", choices=PHI_CHOICES, default=given.phi)
    pr.add_argument("--samples", type=_integer, default=given.samples)
    pr.add_argument("--seed", type=_integer, default=given.seed)
    pr.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    pr.add_argument("--largest-component", action="store_true")
    pr.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.phi = args.phi.replace("-", "_")
    try:
        with warnings.catch_warnings():  # each warning is one line of stderr
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (Exception, KeyboardInterrupt) as exc:  # an exit code, no traceback
        code, prefix = next(o[1:] for o in OUTCOMES if isinstance(exc, o[0]))
        print(prefix.format(type(exc).__name__) + str(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
