"""Tests of the benchmark's own logic.  From the repository root:

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402
from mmds import demo_instance, segment_views, solve_segment  # noqa: E402
from mmds.cli import run_scenario  # noqa: E402
from mmds.workload import parse_topology  # noqa: E402

import bench  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Small enough to finish in seconds, large enough to run every solver and
# every check; seed 5 is not the default, so golden.json is not consulted.
TINY = bench.Workload("tiny", views=8, d=3, clients=30, dist="zipf:1",
                      solvers=("omds", "mmdea", "emmdea", "hmmdea"), samples=20,
                      tail_rows=40, trace_samples=3)
SEED = 5


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def end_to_end():
    return bench.measure(TINY, ROOT, SEED, 0, {})


@pytest.fixture(scope="module")
def traced():
    return layers.measure_layers(TINY, ROOT, SEED, 0, {})


def test_emitted_names_are_valid_and_cover_the_spec(spec, end_to_end, traced):
    assert not end_to_end["problems"] and not traced["problems"]
    for name, unit in bench.UNITS.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit)
    for name in traced["metrics"]:
        assert NAME.fullmatch(name) and UNIT.fullmatch(layers.unit_of(name))
    for name in end_to_end["metrics"]:
        assert NAME.fullmatch(name) and name in bench.UNITS
    for name in bench.WORKLOADS:
        assert NAME.fullmatch(name)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["name"] in end_to_end["metrics"]
        assert m["unit"] == bench.UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["name"] in traced["metrics"]
        assert m["unit"] == layers.unit_of(m["name"])


def beyond(n, p):
    """Samples strictly above the p-th percentile of n distinct values."""
    values = range(n)
    return n - 1 - bench.percentile(values, p)


def test_tail_percentile_leaves_ten_samples_beyond():
    ladder = bench.TAIL_LADDER
    for m in range(40, 2000, 7):
        p = bench.tail_percentile(m)
        assert all(beyond(m, q) < 10 for q in ladder[:ladder.index(p)])
        for n in (m, m + 1, m + 7, 2 * m):   # a run may time more rows
            assert beyond(n, p) >= 10
    for w in bench.WORKLOADS.values():
        assert bench.tail_percentile(w.tail_rows) > 50


def test_dp_cells_matches_hand_count_on_demo():
    tree, demand = demo_instance()
    segments = segment_views(demand, 4)
    # desired views 2,3,4,6,7,8 form one segment 2..8: one variant at
    # column 2, then min(4, j) variants j = 1..6 columns to its right
    assert layers.dp_cells(segments, 4) == 1 + (1 + 2 + 3 + 4 + 4 + 4) == 19
    filled = sum(len(col) for seg in segments
                 for col in solve_segment(tree, demand, seg, 4)[2].columns.values())
    assert filled == 19


def test_serial_replay_reproduces_run_scenario_totals():
    config = TINY.config(ROOT, SEED, samples=3)
    pooled = bench.totals_of(bench.rows_of(run_scenario(config)))
    graph = parse_topology(str(ROOT / bench.TOPOLOGY), "gml")
    assert len(pooled) == 3 * len(TINY.solvers)
    tracer = Tracer()
    pairs, untraced, traced = layers.replay_both(config, graph, tracer)
    assert len(pairs) == 3
    assert untraced == pooled
    assert layers.replay_totals(traced) == pooled
    selfs = tracer.self_times()
    assert selfs["cli.sample"][0] == 3
    assert sum(own for _, own, _ in selfs.values()) == selfs["cli.sample"][2]


def test_checks_reject_wrong_outputs():
    row = {"sample": 0, "status": "ok"}
    rows = [dict(row, solver="emmdea", total_bandwidth=9, evaluated_cost=9),
            dict(row, solver="mmdea", total_bandwidth=8, evaluated_cost=8),
            dict(row, solver="hmmdea", total_bandwidth=10, evaluated_cost=10),
            dict(row, solver="omds", total_bandwidth=11, evaluated_cost=12)]
    problems = bench.check_rows(rows)
    assert len(problems) == 2   # omds re-costed wrongly; emmdea above mmdea
    golden = {"tiny": {"totals": {"omds": [11], "mmdea": [7]}}}
    assert len(bench.check_golden(TINY, bench.totals_of(rows), golden)) == 1


def test_golden_matches_workloads():
    golden = bench.load_golden(ROOT / "perfbench")
    for name, w in bench.WORKLOADS.items():
        entry = golden[name]
        assert entry["seed"] == bench.DEFAULT_SEED
        assert entry["samples"] == w.samples
        assert set(entry["totals"]) == set(w.solvers) & set(bench.EXACT_SOLVERS)
        assert all(len(v) == w.samples for v in entry["totals"].values())


def test_chrome_trace_export(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", 0):
        with tracer.span("inner", 0):
            pass
    tracer.write_chrome(tmp_path / "t.json")
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0
