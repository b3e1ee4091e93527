

import random
from importlib.resources import files

import pytest

from mmds import (INFEASIBLE, DemandMap, ShortestPathTree, build_spt,
                  direct_cost, edge_view_loads, evaluate_cost, expansion_cost,
                  identity_selection, parse_topology, sample_demand,
                  solve_general, subscriber_tree, view_trees)
from mmds.cost import cost_of_parts, view_masks
from mmds.instances import demo_instance
from mmds.workload import DemandDistribution

from conftest import random_tree_instance

THETA_STAR = {2: (2, 2), 3: (2, 4), 4: (4, 4), 6: (4, 8), 7: (4, 8), 8: (8, 8)}


def star_instance():
    tree = ShortestPathTree("s", {"a": "s", "b": "s", "c": "s"},
                            ["a", "b", "c"])
    return tree, DemandMap({"a": 1, "b": 2, "c": 3}, 3)


class TestEvaluateCost:
    def test_demo_identity_cost(self):
        tree, demand = demo_instance()
        assert evaluate_cost(tree, demand, identity_selection(demand)) == 45

    def test_demo_synthesis_cost(self):
        tree, demand = demo_instance()
        assert evaluate_cost(tree, demand, THETA_STAR, D=4) == 32

    def test_star_identity(self):
        tree, demand = star_instance()
        assert evaluate_cost(tree, demand, identity_selection(demand)) == 3

    def test_invalid_selection_rejected_with_reason(self):
        tree, demand = star_instance()
        with pytest.raises(ValueError, match="invalid view selection.*width"):
            evaluate_cost(tree, demand, {1: (1, 1), 2: (1, 9), 3: (3, 3)}, D=2)

    def test_matches_per_arc_loads(self, rng):
        for _ in range(30):
            tree, demand = random_tree_instance(rng)
            theta = identity_selection(demand)
            loads = edge_view_loads(tree, demand, theta)
            assert evaluate_cost(tree, demand, theta) == \
                sum(len(v) for v in loads.values())

    def test_identity_equals_direct_cost_sum(self, rng):
        # each desired view rides exactly its subscribers' path union
        for _ in range(30):
            tree, demand = random_tree_instance(rng)
            total = evaluate_cost(tree, demand, identity_selection(demand))
            assert total == sum(direct_cost(tree, demand, v)
                                for v in demand.desired_views)

    def test_relabeling_invariance(self, rng):
        tree, demand = random_tree_instance(rng)
        mapping = {n: f"x{n * 7 + 1}" for n in
                   set(tree.parents) | {tree.root} | set(tree.terminals)}
        tree2 = ShortestPathTree(
            mapping[tree.root],
            {mapping[c]: mapping[p] for c, p in tree.parents.items()},
            [mapping[t] for t in tree.terminals])
        demand2 = DemandMap({mapping[t]: v for t, v in demand.demand.items()},
                            demand.universe_size)
        theta = identity_selection(demand)
        assert evaluate_cost(tree, demand, theta) == \
            evaluate_cost(tree2, demand2, theta)


class TestSubscriberTree:
    def test_no_subscribers_empty(self):
        tree, demand = star_instance()
        assert subscriber_tree(tree, demand, {9}) == frozenset()

    def test_single_terminal_path(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2}, [3])
        demand = DemandMap({3: 1}, 1)
        assert len(subscriber_tree(tree, demand, {1})) == 3

    def test_shared_prefix_union(self):
        # two terminals share a 2-arc prefix; depths 3 and 4
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2, 4: 2, 5: 4}, [3, 5])
        demand = DemandMap({3: 1, 5: 2}, 2)
        assert len(subscriber_tree(tree, demand, {1, 2})) == 5


class TestDirectCost:
    def test_demo_view2(self):
        tree, demand = demo_instance()
        assert direct_cost(tree, demand, 2) == 7

    def test_demo_view4(self):
        tree, demand = demo_instance()
        assert direct_cost(tree, demand, 4) == 7

    def test_unsubscribed_view_costs_nothing(self):
        tree, demand = demo_instance()
        assert direct_cost(tree, demand, 5) == 0


class TestExpansionCost:
    def test_demo_middle_view(self):
        tree, demand = demo_instance()
        assert expansion_cost(tree, demand, {3}, 2, 4) == 3

    def test_demo_joint_pair(self):
        tree, demand = demo_instance()
        assert expansion_cost(tree, demand, {3, 4}, 2, 5) == 12

    def test_covered_clients_cost_nothing(self):
        # the middle client's path lies inside both source trees
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2, 4: 3}, [2, 3, 4])
        demand = DemandMap({2: 2, 3: 1, 4: 3}, 3)
        assert expansion_cost(tree, demand, {2}, 1, 3) == 0

    def test_empty_or_undesired_middle_is_free(self):
        tree, demand = demo_instance()
        assert expansion_cost(tree, demand, {5}, 4, 6) == 0

    def test_precondition_errors(self):
        tree, demand = demo_instance()
        with pytest.raises(ValueError, match="left < right"):
            expansion_cost(tree, demand, {3}, 4, 4)
        with pytest.raises(ValueError, match="between"):
            expansion_cost(tree, demand, {7}, 2, 4)

    def test_monotone_in_middle_set(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=8)
            left, right = 0, demand.universe_size + 1
            inner = list(demand.desired_views)
            if len(inner) < 2:
                continue
            small = set(rng.sample(inner, len(inner) // 2))
            if not small:
                continue
            phi_small = expansion_cost(tree, demand, small, left, right)
            phi_all = expansion_cost(tree, demand, set(inner), left, right)
            assert phi_small <= phi_all
            per_view = sum(expansion_cost(tree, demand, {v}, left, right)
                           for v in inner)
            assert phi_all <= per_view


class TestInfeasibleSentinel:
    def test_absorbing_addition(self):
        assert INFEASIBLE + 5 == INFEASIBLE

    def test_min_recovers_finite(self):
        assert min(INFEASIBLE, 3) == 3


class TestCostOfParts:
    def test_partial_selection_counts_only_covered_clients(self):
        tree, demand = demo_instance()
        # only the view-2 client participates
        assert cost_of_parts(tree, demand, {2: (2, 2)}) == 7


class TestViewMasks:
    @staticmethod
    def assert_masks_match_trees(tree, demand):
        masks, trees = view_masks(tree, demand), view_trees(tree, demand)
        assert masks.keys() == trees.keys()
        for a in trees:
            assert masks[a].bit_count() == len(trees[a])
            for b in trees:
                assert (masks[a] & ~masks[b]).bit_count() == len(trees[a] - trees[b])

    def test_demo(self):
        self.assert_masks_match_trees(*demo_instance())

    def test_random_trees(self, rng):
        for _ in range(200):
            self.assert_masks_match_trees(*random_tree_instance(rng))

    def test_bundled_topology(self):
        graph = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
        nodes = sorted(n for n in graph.nodes if n != graph.server)
        clients = random.Random(2024).sample(nodes, 400)
        demand = sample_demand(DemandDistribution("uniform", 12), clients, seed=5)
        self.assert_masks_match_trees(build_spt(graph, clients), demand)

    def test_deep_path_needs_no_recursion(self):
        # a 5,000-arc path: far deeper than Python's default recursion limit
        n = 5000
        tree = ShortestPathTree(0, {i: i - 1 for i in range(1, n + 1)},
                                [n, n // 2, n // 4])
        demand = DemandMap({n: 1, n // 2: 2, n // 4: 3}, 3)
        masks = view_masks(tree, demand)
        assert [masks[v].bit_count() for v in (1, 2, 3)] == [n, n // 2, n // 4]
        # view 1 already covers view 2's client; view 3 stretches to it
        assert solve_general(tree, demand, 2).total == n + n // 2


def reference_paths(tree):
    """Each terminal's root path as a frozenset of arcs, by its own walk up
    the parent pointers; shares no code with the path masks."""
    paths = {}
    for t in tree.terminals:
        arcs, n = set(), t
        while n != tree.root:
            arcs.add((tree.parents[n], n))
            n = tree.parents[n]
        paths[t] = frozenset(arcs)
    return paths


class TestPathMasksAgainstReference:
    """Decoded path masks and every functional built on them equal a
    frozenset computation from per-terminal parent walks."""

    @staticmethod
    def assert_matches_reference(tree, demand, D):
        paths = reference_paths(tree)
        assert tree.arcs == frozenset().union(*paths.values())
        assert tree.depth == {t: len(p) for t, p in paths.items()}
        for t, path in paths.items():
            assert tree.arcs_of(tree.path_mask[t]) == path
        assert tree.path_arcs == paths

        trees = {}
        for t, v in demand.demand.items():
            trees[v] = trees.get(v, frozenset()) | paths[t]
        assert view_trees(tree, demand) == trees

        full = [identity_selection(demand), solve_general(tree, demand, D).theta]
        half = {v: full[1][v] for v in demand.desired_views[::2]}
        for theta in (*full, half):
            loads = {}
            for t, v in demand.demand.items():
                if v in theta:
                    for arc in paths[t]:
                        loads.setdefault(arc, set()).update(theta[v])
            loads = {a: frozenset(views) for a, views in loads.items()}
            assert cost_of_parts(tree, demand, theta) == \
                sum(len(views) for views in loads.values())
            assert edge_view_loads(tree, demand, theta) == loads

    def test_demo(self):
        self.assert_matches_reference(*demo_instance(), 4)

    def test_random_trees(self, rng):
        for _ in range(200):
            self.assert_matches_reference(*random_tree_instance(rng), 3)

    @pytest.mark.parametrize("clients", [400, 753])
    def test_bundled_topology(self, clients):
        graph = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
        nodes = sorted(n for n in graph.nodes if n != graph.server)
        terms = random.Random(clients).sample(nodes, clients)
        demand = sample_demand(DemandDistribution("uniform", 12), terms, seed=7)
        self.assert_matches_reference(build_spt(graph, terms), demand, 5)
