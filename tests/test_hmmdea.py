from mmds import (DemandMap, ShortestPathTree, brute_force_mmds,
                  edge_view_loads, h_solve, omds, validate_selection)
from mmds.instances import demo_instance

from conftest import random_tree_instance


class TestHSolve:
    def test_uniform_demand_stays_direct(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0, 3: 0}, [1, 2, 3])
        demand = DemandMap({1: 5, 2: 5, 3: 5}, 9)
        res = h_solve(tree, demand, 3)
        assert res.theta == {5: (5, 5)}
        assert res.round_costs == [3]

    def test_demo_lands_between_optimum_and_direct(self):
        tree, demand = demo_instance()
        res = h_solve(tree, demand, 4)
        assert 32 <= res.total <= 45
        # current behaviour, recorded: the greedy pass stops at 38
        assert res.total == 38

    def test_sandwich_and_strict_descent(self, rng):
        for _ in range(120):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            res = h_solve(tree, demand, D)
            lo = brute_force_mmds(tree, demand, D).total
            hi = omds(tree, demand).total
            assert lo <= res.total <= hi
            assert all(b < a for a, b in
                       zip(res.round_costs, res.round_costs[1:]))
            assert res.round_costs[-1] == res.total == res.evaluated

    def test_selection_valid_non_crossing(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4])
            res = h_solve(tree, demand, D)
            assert validate_selection(res.theta, demand, D) == []

    def test_demo_round_costs(self):
        tree, demand = demo_instance()
        want = {2: [45, 41, 40], 3: [45, 41, 38], 4: [45, 41, 38],
                5: [45, 41, 38]}
        for D, rounds in want.items():
            assert h_solve(tree, demand, D).round_costs == rounds

    def test_arc_indicators_match_edge_loads(self, rng):
        # terminal 2 desires nothing, so arc (0, 2) carries no view
        idle = ShortestPathTree(0, {1: 0, 2: 0}, [1, 2])
        instances = [(*demo_instance(), 4), (idle, DemandMap({1: 3}, 5), 2)]
        for _ in range(40):
            instances.append((*random_tree_instance(rng), rng.choice([2, 3, 4, 5])))
        for tree, demand, D in instances:
            res = h_solve(tree, demand, D)
            loads = edge_view_loads(tree, demand, res.theta)
            assert set(res.arc_views) == tree.arcs
            for arc, views in loads.items():
                assert res.arc_views[arc] == views
            # arcs carrying nothing are reported empty, not missing
            for arc in tree.arcs - set(loads):
                assert res.arc_views[arc] == frozenset()
