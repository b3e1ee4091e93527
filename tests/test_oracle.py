import random

import pytest

from mmds import (DemandMap, Instance, OracleGuardError, ShortestPathTree,
                  brute_force_emmds, brute_force_mmds, evaluate_cost, omds,
                  segment_views, solve_general, validate_selection)
from mmds.instances import demo_instance
from mmds.oracle import selection_options

from conftest import random_tree_instance


class TestOmds:
    def test_demo_direct_cost(self):
        tree, demand = demo_instance()
        assert omds(Instance(tree, demand)).total == 45

    def test_single_client_costs_depth(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2, 4: 3}, [4])
        assert omds(Instance(tree, DemandMap({4: 2}, 5))).total == 4

    def test_dominates_optimum(self, rng):
        for _ in range(50):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4])
            assert omds(Instance(tree, demand)).total >= \
                solve_general(Instance(tree, demand), D).total


class TestBruteForceMmds:
    def test_demo_optimum(self):
        tree, demand = demo_instance()
        res = brute_force_mmds(Instance(tree, demand), 4)
        assert res.total == 32
        assert res.transmitted == (2, 4, 8)

    def test_single_desired_view(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1}, [2])
        res = brute_force_mmds(Instance(tree, DemandMap({2: 3}, 5)), 2)
        assert res.total == 2 and res.theta == {3: (3, 3)}

    def test_colocated_clients_keep_only_boundaries(self):
        # span within D and fully shared paths: two views suffice
        parents = {1: 0, 2: 1, 3: 2}
        leaves = {10 + v: 3 for v in range(1, 5)}
        parents.update(leaves)
        tree = ShortestPathTree(0, parents, list(leaves))
        demand = DemandMap({10 + v: v for v in range(1, 5)}, 4)
        res = brute_force_mmds(Instance(tree, demand), 4)
        assert set(res.transmitted) == {1, 4}

    def test_guard_refusal(self):
        parents = {i: 0 for i in range(1, 31)}
        tree = ShortestPathTree(0, parents, list(range(1, 31)))
        demand = DemandMap({i: i for i in range(1, 31)}, 30)
        with pytest.raises(OracleGuardError, match="guard"):
            brute_force_mmds(Instance(tree, demand), 2)

    def test_lower_bounds_random_valid_selections(self, rng):
        # fuzz valid non-crossing selections via random transmitted sets
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=9)
            D = rng.choice([2, 3, 4])
            best = brute_force_mmds(Instance(tree, demand), D).total
            for _ in range(10):
                theta = {}
                ok = True
                for seg in segment_views(demand, D):
                    fset = {seg.lo, seg.hi}
                    for v in range(seg.lo + 1, seg.hi):
                        if rng.random() < 0.5:
                            fset.add(v)
                    fs = sorted(fset)
                    if any(b - a > D for a, b in zip(fs, fs[1:])):
                        ok = False
                        break
                    for v in seg.members:
                        if v in fset:
                            theta[v] = (v, v)
                        else:
                            theta[v] = (max(f for f in fs if f < v),
                                        min(f for f in fs if f > v))
                if not ok:
                    continue
                assert validate_selection(theta, demand, D) == []
                assert evaluate_cost(tree, demand, theta) >= best

    def test_invariant_to_demand_ordering(self):
        tree, demand = demo_instance()
        shuffled = DemandMap(dict(reversed(list(demand.demand.items()))),
                             demand.universe_size)
        assert brute_force_mmds(Instance(tree, shuffled), 4).total == 32


class TestBruteForceEmmds:
    def test_demo_optimum(self):
        tree, demand = demo_instance()
        assert brute_force_emmds(Instance(tree, demand), 4).total == 32

    def test_never_above_non_crossing_oracle(self, rng):
        for _ in range(30):
            tree, demand = random_tree_instance(rng, max_nodes=12,
                                                max_terminals=6, max_views=7)
            D = rng.choice([2, 3])
            assert brute_force_emmds(Instance(tree, demand), D).total <= \
                brute_force_mmds(Instance(tree, demand), D).total

    def test_single_desired_view(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1}, [2])
        assert brute_force_emmds(Instance(tree, DemandMap({2: 3}, 6)),
                                 4).total == 2

    def test_guard_refusal(self):
        parents = {i: 0 for i in range(1, 20)}
        tree = ShortestPathTree(0, parents, list(range(1, 20)))
        demand = DemandMap({i: i for i in range(1, 20)}, 19)
        with pytest.raises(OracleGuardError, match="guard"):
            brute_force_emmds(Instance(tree, demand), 6)

    def test_selection_options_shape(self):
        from mmds.graphs import Segment
        seg = Segment(1, 6, (1, 2, 3, 4, 5, 6))
        opts = selection_options(3, seg, 3)
        assert (3, 3) in opts
        assert (2, 4) in opts and (1, 4) in opts and (2, 5) in opts
        assert all(l <= 3 <= r and r - l <= 3 for l, r in opts)
        assert (1, 5) not in opts  # width 4 > D
