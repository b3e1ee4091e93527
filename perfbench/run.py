"""Scenario benchmark for the mmds package.

Runs from the root of a source checkout and drives ``src/mmds`` from
outside, through its public functions only.

    python3 perfbench/run.py                        # all workloads, untraced,
                                                    # each in a process of its own
    python3 perfbench/run.py --workload wide --seed 7 --seconds 35
    python3 perfbench/run.py --workload relaxed --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run writes
its full result, with an environment stamp, under ``perfbench/out/``.
The exit status is 1 when an output check fails and 2 when the checkout
holds no ``src/mmds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("headline", "wide", "relaxed")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=2024,
                   help="workload seed; only 2024 is compared with golden.json")
    p.add_argument("--seconds", type=float, default=35,
                   help="measuring time of one workload; 'all' runs each "
                        "workload for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: serial traced replay and per-layer metrics")
    return p.parse_args(argv)


def _git(*args):
    """Output of a git command in the checkout, or None outside a repository
    (only the checkout itself is searched, never its parents)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def environment(workers: int) -> dict:
    import numpy
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    src = ROOT / "src" / "mmds"
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_start": os.getloadavg()[0],
        "src_mmds_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                              for f in sorted(src.rglob("*.py"))),
    }


def gated_metrics() -> dict:
    """Names of the metrics the final line carries, per trace mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}


def run_workload(name, args, golden, gated) -> dict:
    import bench
    import layers
    workload = bench.WORKLOADS[name]
    samples = workload.trace_samples if args.trace else workload.samples
    workers = min(os.cpu_count() or 1, samples)
    env = environment(workers)
    if workers > env["affinity_cores"]:
        print(f"warning: run_scenario will start {workers} workers on "
              f"{env['affinity_cores']} available cores", file=sys.stderr)
    if args.trace:
        result = layers.measure_layers(workload, ROOT, args.seed, args.seconds, golden)
        units = {k: layers.unit_of(k) for k in result["metrics"]}
        tracer = result.pop("tracer")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{name}-seed{args.seed}.trace.json"
        tracer.write_chrome(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result = bench.measure(workload, ROOT, args.seed, args.seconds, golden)
        units = {k: bench.UNITS[k] for k in result["metrics"]}
    env["loadavg_1m_end"] = os.getloadavg()[0]
    missing = [m for m in gated[args.trace] if m not in result["metrics"]]
    if missing:
        result["problems"].append(f"metrics not measured: {missing}")

    print(f"== {name}  seed={args.seed}  trace={args.trace}  "
          f"workers={workers}  cores={env['affinity_cores']}")
    for key, value in result["metrics"].items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    if "tail_percentile" in result:
        print(f"  tails are p{result['tail_percentile']:g} of "
              f"{result['timed_rows']} timed rows")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)

    result.update({"workload": name, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "units": units, "environment": env,
                   "correct": not result["problems"]})
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def run_all(args) -> int:
    """Run every workload in a process of its own, so that each one's
    ``peak_rss_mb`` is its own, and merge their final lines under
    ``<workload>.`` prefixes."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if done.returncode not in (0, 1) or not isinstance(result, dict):
            print("\n".join(lines))
            print(f"error: workload {name} exited with {done.returncode} "
                  "and no result", file=sys.stderr)
            return done.returncode or 2
        print("\n".join(lines[:-1]))
        line["correct"] = line["correct"] and result["correct"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        line["metrics"].update({f"{name}.{m}": v
                                for m, v in result["metrics"].items()})
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mmds" / "__init__.py").is_file():
        print(f"error: no mmds package under {src}; run this from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import bench
    import mmds
    if Path(mmds.__file__).resolve().parent != src / "mmds":
        print(f"error: imported mmds from {mmds.__file__}, not {src}",
              file=sys.stderr)
        return 2
    gated = gated_metrics()
    result = run_workload(args.workload, args, bench.load_golden(BENCH_DIR), gated)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": result["units"][m]}
                    for m in gated[args.trace] if m in result["metrics"]},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
