import csv
import random
from importlib.resources import files

import pytest

from mmds import (DemandDistribution, DemandMap, Instance, ShortestPathTree,
                  brute_force_mmds, build_spt, cost, edge_view_loads, h_solve,
                  hmmdea, omds, oracle, parse_topology, segment_views,
                  validate_selection, view_masks)
from mmds.cli import main
from mmds.cost import SolverError, cost_of_parts
from mmds.instances import demo_instance

from conftest import bundled_instance, random_tree_instance


def reference_h_solve(tree, demand, D):
    """The heuristic as one greedy over all segments at once: each round
    commits the strictly best move anywhere, ranked by (new total, view,
    width).  Returns the fields h_solve reports and the number of
    segments that committed a move."""
    segs = segment_views(demand, D)
    boundary = {v for seg in segs for v in (seg.lo, seg.hi)}
    theta = {v: (v, v) for v in demand.desired_views}
    delivery = dict(view_masks(tree, demand))  # popped and grown below
    active = sorted(demand.desired_views)
    sources = set()
    cost_now = sum(arcs.bit_count() for arcs in delivery.values())
    history = [cost_now]
    while True:
        best = best_key = None
        for i, w in enumerate(active):
            if w in boundary or w in sources:
                continue
            left, right = active[i - 1], active[i + 1]
            if right - left > D:
                continue
            tw = delivery[w]
            u = (cost_now - tw.bit_count() + (tw & ~delivery[left]).bit_count()
                 + (tw & ~delivery[right]).bit_count())
            if u < cost_now:
                key = (u, w, right - left)
                if best_key is None or key < best_key:
                    best, best_key = (u, w, left, right), key
        if best is None:
            break
        u, w, left, right = best
        theta[w] = (left, right)
        tw = delivery.pop(w)
        delivery[left] |= tw
        delivery[right] |= tw
        active.remove(w)
        sources.update((left, right))
        cost_now = u
        history.append(cost_now)
    masks = view_masks(tree, demand)
    per_segment = [(seg, cost_of_parts(masks, {v: theta[v] for v in seg.members}))
                   for seg in segs]
    moved = sum(any(theta[v][0] < theta[v][1] for v in seg.members)
                for seg in segs)
    return (cost_now, theta, history, per_segment,
            arc_views(tree, demand, theta), moved)


def arc_views(tree, demand, theta):
    """The views on every arc of the tree, empty where it carries none."""
    loads = edge_view_loads(tree, demand, theta)
    return {arc: loads.get(arc, frozenset()) for arc in tree.arcs}


class TestHSolve:
    def test_uniform_demand_stays_direct(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0, 3: 0}, [1, 2, 3])
        demand = DemandMap({1: 5, 2: 5, 3: 5}, 9)
        res = h_solve(Instance(tree, demand), 3)
        assert res.theta == {5: (5, 5)}
        assert res.round_costs == [3]

    def test_demo_lands_between_optimum_and_direct(self):
        tree, demand = demo_instance()
        res = h_solve(Instance(tree, demand), 4)
        assert 32 <= res.total <= 45
        # current behaviour, recorded: the greedy pass stops at 38
        assert res.total == 38

    def test_sandwich_and_strict_descent(self, rng):
        for _ in range(120):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            res = h_solve(Instance(tree, demand), D)
            lo = brute_force_mmds(Instance(tree, demand), D).total
            hi = omds(Instance(tree, demand)).total
            assert lo <= res.total <= hi
            assert all(b < a for a, b in
                       zip(res.round_costs, res.round_costs[1:]))
            assert res.round_costs[-1] == res.total == res.evaluated

    def test_selection_valid_non_crossing(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4])
            res = h_solve(Instance(tree, demand), D)
            assert validate_selection(res.theta, demand, D) == []

    def test_demo_round_costs(self):
        tree, demand = demo_instance()
        want = {2: [45, 41, 40], 3: [45, 41, 38], 4: [45, 41, 38],
                5: [45, 41, 38]}
        for D, rounds in want.items():
            assert h_solve(Instance(tree, demand), D).round_costs == rounds

    def test_a_total_off_the_cost_functional_is_an_error(
            self, monkeypatch, tmp_path, capsys):
        # each round checks the running total against the cost functional;
        # one unit off fails the solve, and in `mmds run` only its row
        monkeypatch.setattr(hmmdea, "cost_of_parts",
                            lambda masks, theta: cost_of_parts(masks, theta) + 1)
        message = "delivery trees disagree with the cost functional"
        tree, demand = demo_instance()
        with pytest.raises(SolverError, match=f"^{message}$"):
            h_solve(Instance(tree, demand), 4)
        out = tmp_path / "rows.csv"
        code = main(["run", "--preset", "demo", "--d", "4", "--solver",
                     "omds,hmmdea", "--out", str(out)])
        assert code == 3 and capsys.readouterr() == ("", "")
        with open(out, newline="", encoding="utf-8") as fh:
            rows = {r["solver"]: r for r in csv.DictReader(fh)
                    if r["sample"] == "0"}
        assert (rows["omds"]["status"], rows["hmmdea"]["status"]) == \
            ("ok", "error")
        assert rows["hmmdea"]["error"] == f"SolverError: {message}"

    def test_arc_indicators_match_edge_loads(self, rng):
        # terminal 2 desires nothing, so arc (0, 2) carries no view
        idle = ShortestPathTree(0, {1: 0, 2: 0}, [1, 2])
        instances = [(*demo_instance(), 4), (idle, DemandMap({1: 3}, 5), 2)]
        for _ in range(40):
            instances.append((*random_tree_instance(rng), rng.choice([2, 3, 4, 5])))
        for tree, demand, D in instances:
            res = h_solve(Instance(tree, demand), D)
            want = {}
            for t, v in demand.demand.items():
                for arc in tree.arcs_of(tree.path_mask[t]):
                    want.setdefault(arc, set()).update(res.theta[v])
            # an arc that carries nothing, such as (0, 2), has no entry
            loads = edge_view_loads(tree, demand, res.theta)
            assert loads == {arc: frozenset(vs) for arc, vs in want.items()}


class TestAgainstOneGreedyOverAllSegments:
    """h_solve runs one greedy per segment and merges their moves; it must
    report exactly what one greedy over all segments reports."""

    @staticmethod
    def assert_matches_reference(tree, demand, D):
        total, theta, history, per_segment, views, moved = \
            reference_h_solve(tree, demand, D)
        res = h_solve(Instance(tree, demand), D)
        assert res.total == total
        assert res.theta == theta
        assert res.round_costs == history
        assert res.per_segment == per_segment
        assert arc_views(tree, demand, res.theta) == views
        return moved

    def test_random_trees(self, rng):
        for _ in range(3000):
            tree, demand = random_tree_instance(rng, max_nodes=24,
                                                max_terminals=12,
                                                max_views=16)
            self.assert_matches_reference(tree, demand, rng.choice([2, 3, 4, 5]))

    def test_bundled_multi_segment_instances(self):
        graph = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
        nodes = sorted(n for n in graph.nodes if n != graph.server)
        rng = random.Random(7)
        instances = several_moved = 0
        while instances < 300:
            clients = rng.sample(nodes, rng.randint(10, 60))
            K, D = rng.randint(16, 40), rng.randint(2, 4)
            demand = DemandMap({c: rng.randint(1, K) for c in clients}, K)
            if len(segment_views(demand, D)) < 2:
                continue
            instances += 1
            moved = self.assert_matches_reference(build_spt(graph, clients),
                                                  demand, D)
            several_moved += moved >= 2
        # the merge of per-segment moves is exercised, not just one list
        assert several_moved >= 25


def count_view_masks(monkeypatch):
    """Count `view_masks` calls from the instance and the cost functionals."""
    calls = []
    real = cost.view_masks

    def counted(tree, demand):
        calls.append(1)
        return real(tree, demand)
    monkeypatch.setattr(cost, "view_masks", counted)
    return calls


class TestViewMasksPerSolve:
    def test_oracle_builds_masks_independent_of_candidate_count(
            self, monkeypatch):
        calls = count_view_masks(monkeypatch)
        candidates = []
        real_parts = oracle.cost_of_parts
        monkeypatch.setattr(oracle, "cost_of_parts",
                            lambda *args: candidates.append(1) or real_parts(*args))
        tree, demand = demo_instance()
        seen = set()
        for D in (2, 3, 4, 5):
            calls.clear()
            candidates.clear()
            brute_force_mmds(Instance(tree, demand), D)
            seen.add((len(candidates), len(calls)))
        assert len({n for n, _ in seen}) > 1
        assert len({c for _, c in seen}) == 1

    def test_heuristic_builds_masks_independent_of_round_count(
            self, monkeypatch):
        calls = count_view_masks(monkeypatch)
        seen = set()
        for seed in range(4):
            for dist in (DemandDistribution("zipf", 24, exponent=1),
                         DemandDistribution("uniform", 12)):
                tree, demand = bundled_instance(dist, seed, clients=400)
                calls.clear()
                rounds = len(h_solve(Instance(tree, demand),
                                     4).round_costs) - 1
                seen.add((rounds, len(calls)))
        assert max(r for r, _ in seen) > max(c for _, c in seen)
        # the instance's masks, which the certificate reads too
        assert {c for _, c in seen} == {1}
