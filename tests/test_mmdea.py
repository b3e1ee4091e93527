import pytest
from hypothesis import given, settings

from mmds import (DemandMap, ShortestPathTree, brute_force_mmds,
                  evaluate_cost, identity_selection, omds, segment_views,
                  solve_d2, solve_d3, solve_general, solve_segment)
from mmds.cost import view_masks
from mmds.instances import demo_instance
from mmds.mmdea import SolverError, backtrack

from conftest import random_tree_instance, small_instances

THETA_STAR = {2: (2, 2), 3: (2, 4), 4: (4, 4), 6: (4, 8), 7: (4, 8), 8: (8, 8)}
DEMO_COLUMN_MINIMA = {2: 7, 3: 14, 4: 17, 5: 19, 6: 19, 7: 28, 8: 32}


def chain_with_leaf_terminals(depth, views):
    """Chain of `depth` relay nodes ending in one leaf terminal per view."""
    parents = {}
    prev = 0
    for i in range(1, depth + 1):
        parents[i] = prev
        prev = i
    terms = []
    for j, v in enumerate(views):
        leaf = 100 + j
        parents[leaf] = prev
        terms.append(leaf)
    tree = ShortestPathTree(0, parents, terms)
    demand = DemandMap(dict(zip(terms, views)), max(views))
    return tree, demand


class TestDemoGolden:
    def test_optimal_cost_and_selection(self):
        tree, demand = demo_instance()
        res = solve_general(tree, demand, 4)
        assert res.total == 32
        assert res.transmitted == (2, 4, 8)
        assert res.theta == THETA_STAR
        assert res.evaluated == 32

    def test_column_minima(self):
        tree, demand = demo_instance()
        seg = segment_views(demand, 4)[0]
        _, _, table = solve_segment(tree, demand, seg, 4, "exact",
                                    view_masks(tree, demand))
        got = {k: table.minimum(k) for k in range(seg.lo, seg.hi + 1)}
        assert got == DEMO_COLUMN_MINIMA

    def test_literal_mode_overprices_this_instance(self):
        # the closed-form expansion cost charges the anchor's tree twice
        # here; the assembled selection still evaluates below the DP value
        tree, demand = demo_instance()
        res = solve_general(tree, demand, 4, mode="literal")
        assert res.total == 34
        assert res.evaluated == 32


class TestSolveD2:
    def test_shared_chain_synthesis_wins(self):
        # three co-located clients under a 2-arc chain want views 1, 2, 3
        tree, demand = chain_with_leaf_terminals(2, [1, 2, 3])
        seg = segment_views(demand, 2)[0]
        cost, theta = solve_d2(seg, tree, demand)
        assert cost == 8
        assert theta == {1: (1, 1), 2: (1, 3), 3: (3, 3)}
        # brute force over transmitted subsets agrees
        assert brute_force_mmds(tree, demand, 2).total == 8

    def test_single_view_costs_its_depth(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2}, [3])
        demand = DemandMap({3: 4}, 9)
        seg = segment_views(demand, 2)[0]
        cost, theta = solve_d2(seg, tree, demand)
        assert cost == 3 and theta == {4: (4, 4)}

    def test_boundary_views_on_disjoint_paths(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0, 3: 1, 4: 2}, [3, 4])
        demand = DemandMap({3: 1, 4: 3}, 3)
        seg = segment_views(demand, 2)[0]
        cost, _ = solve_d2(seg, tree, demand)
        assert cost == 2 + 2  # both boundary views transmitted

    def test_agrees_with_general(self, rng):
        for _ in range(150):
            tree, demand = random_tree_instance(rng)
            for mode in ("exact", "literal"):
                full = solve_general(tree, demand, 2, mode=mode)
                split = sum(solve_d2(seg, tree, demand, mode)[0]
                            for seg in segment_views(demand, 2))
                assert split == full.total


class TestSolveD3:
    def test_agrees_with_general(self, rng):
        for _ in range(150):
            tree, demand = random_tree_instance(rng)
            for mode in ("exact", "literal"):
                full = solve_general(tree, demand, 3, mode=mode)
                split = sum(solve_d3(seg, tree, demand, mode)[0]
                            for seg in segment_views(demand, 3))
                assert split == full.total

    def test_gap_of_three_forces_direct(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0, 3: 1, 4: 2}, [3, 4])
        demand = DemandMap({3: 2, 4: 5}, 5)
        seg = segment_views(demand, 3)[0]
        cost, theta = solve_d3(seg, tree, demand)
        assert theta == {2: (2, 2), 5: (5, 5)}
        assert cost == 4

    def test_colocated_chain_vs_enumeration(self):
        for prefix in (1, 2, 4):
            tree, demand = chain_with_leaf_terminals(prefix, [1, 2, 3, 4])
            seg = segment_views(demand, 3)[0]
            cost, theta = solve_d3(seg, tree, demand)
            assert cost == brute_force_mmds(tree, demand, 3).total
            if prefix >= 2:  # sharing pays: only the boundaries travel
                assert {v for p in theta.values() for v in p} == {1, 4}


class TestSolveGeneral:
    def test_single_terminal(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1}, [2])
        demand = DemandMap({2: 7}, 9)
        res = solve_general(tree, demand, 4)
        assert res.total == 2
        assert res.theta == {7: (7, 7)}

    def test_monotone_in_quality_constraint(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng)
            costs = [solve_general(tree, demand, D).total for D in (2, 3, 4, 5)]
            assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_never_worse_than_direct_delivery(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            assert solve_general(tree, demand, D).total <= \
                omds(tree, demand).total

    def test_segment_additivity(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=14)
            D = rng.choice([2, 3])
            res = solve_general(tree, demand, D)
            assert res.total == sum(c for _, c in res.per_segment)
            for seg, _ in res.per_segment:
                for v in seg.members:
                    l, r = res.theta[v]
                    assert seg.lo <= l <= r <= seg.hi
                # transmitted views inside a segment stay within D of
                # each other, so every synthesis pair is available
                sent = sorted(w for w in res.transmitted
                              if seg.lo <= w <= seg.hi)
                assert all(b - a <= D for a, b in zip(sent, sent[1:]))

    def test_backtracked_cost_matches_evaluation(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            res = solve_general(tree, demand, D, mode="exact")
            assert evaluate_cost(tree, demand, res.theta, D) == res.total

    def test_literal_never_undercharges(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            for mode in ("literal", "per_view"):
                res = solve_general(tree, demand, D, mode=mode)
                assert res.total >= res.evaluated

    def test_deterministic(self, rng):
        tree, demand = random_tree_instance(rng)
        a = solve_general(tree, demand, 3)
        b = solve_general(tree, demand, 3)
        assert a.theta == b.theta and a.total == b.total

    def test_mode_validation(self):
        tree, demand = demo_instance()
        with pytest.raises(ValueError, match="phi mode"):
            solve_general(tree, demand, 4, mode="bogus")
        with pytest.raises(ValueError, match="quality"):
            solve_general(tree, demand, 1)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_exact_mode_matches_oracle_property(inst):
    tree, demand, D = inst
    assert solve_general(tree, demand, D, mode="exact").total == \
        brute_force_mmds(tree, demand, D).total


def test_terminal_at_the_server_consumes_nothing():
    tree = ShortestPathTree(0, {1: 0}, [0, 1])
    demand = DemandMap({0: 3, 1: 5}, 5)
    res = solve_general(tree, demand, 2)
    assert res.total == 1  # only the arc to the remote client carries a view
    assert res.theta == {3: (3, 3), 5: (5, 5)}


class TestBacktrack:
    def test_demo_table_backtracks_to_optimum(self):
        tree, demand = demo_instance()
        seg = segment_views(demand, 4)[0]
        _, _, table = solve_segment(tree, demand, seg, 4, "exact",
                                    view_masks(tree, demand))
        assert backtrack(table) == THETA_STAR

    def test_all_direct_optimum_is_identity(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0}, [1, 2])
        demand = DemandMap({1: 1, 2: 2}, 2)
        res = solve_general(tree, demand, 2)
        assert res.theta == identity_selection(demand)

    def test_dangling_pointer_raises(self):
        tree, demand = demo_instance()
        seg = segment_views(demand, 4)[0]
        _, _, table = solve_segment(tree, demand, seg, 4, "exact",
                                    view_masks(tree, demand))
        victim = table.best(8)[1]
        table.columns[8 - victim.d].pop(victim.choice[1])
        with pytest.raises(SolverError, match="dangling"):
            backtrack(table)
