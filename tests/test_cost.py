

import ast
import random
from importlib.resources import files
from pathlib import Path
from types import MappingProxyType

import pytest

from mmds import (INFEASIBLE, DemandMap, ShortestPathTree, build_spt,
                  edge_view_loads, evaluate_cost, identity_selection,
                  parse_topology, sample_demand, solve_general,
                  validate_selection, view_trees)
from mmds import cli, cost, hmmdea, mmdea
from mmds.cli import ScenarioConfig
from mmds.cost import cost_of_parts, phi, view_masks
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
        assert validate_selection(THETA_STAR, demand, 4) == []
        assert evaluate_cost(tree, demand, THETA_STAR) == 32

    def test_star_identity(self):
        tree, demand = star_instance()
        assert evaluate_cost(tree, demand, identity_selection(demand)) == 3

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
            masks = view_masks(tree, demand)
            assert total == sum(masks[v].bit_count()
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


def union_mask(tree, demand, views):
    """The union of the view trees of `views`, as a mask."""
    masks = view_masks(tree, demand)
    union = 0
    for v in views:
        union |= masks.get(v, 0)
    return union


class TestSubscriberTree:
    def test_no_subscribers_empty(self):
        tree, demand = star_instance()
        assert union_mask(tree, demand, {9}) == 0
        assert 9 not in view_trees(tree, demand)

    def test_single_terminal_path(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2}, [3])
        demand = DemandMap({3: 1}, 1)
        assert union_mask(tree, demand, {1}).bit_count() == 3

    def test_shared_prefix_union(self):
        # two terminals share a 2-arc prefix; depths 3 and 4
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2, 4: 2, 5: 4}, [3, 5])
        demand = DemandMap({3: 1, 5: 2}, 2)
        assert union_mask(tree, demand, {1, 2}).bit_count() == 5


class TestDirectCost:
    def test_demo_view2(self):
        tree, demand = demo_instance()
        assert view_masks(tree, demand)[2].bit_count() == 7

    def test_demo_view4(self):
        tree, demand = demo_instance()
        assert cost_of_parts(view_masks(tree, demand), {4: (4, 4)}) == 7

    def test_unsubscribed_view_costs_nothing(self):
        tree, demand = demo_instance()
        masks = view_masks(tree, demand)
        assert 5 not in masks and cost_of_parts(masks, {5: (5, 5)}) == 0


def expansion(tree, demand, between, left, right):
    """phi of the view trees of `between` against the two sources' own."""
    masks = view_masks(tree, demand)
    return phi(union_mask(tree, demand, between), masks.get(left, 0),
               masks.get(right, 0))


class TestExpansionCost:
    def test_demo_middle_view(self):
        tree, demand = demo_instance()
        assert expansion(tree, demand, {3}, 2, 4) == 3

    def test_demo_joint_pair(self):
        tree, demand = demo_instance()
        assert expansion(tree, demand, {3, 4}, 2, 5) == 12

    def test_covered_clients_cost_nothing(self):
        # the middle client's path lies inside both source trees
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2, 4: 3}, [2, 3, 4])
        demand = DemandMap({2: 2, 3: 1, 4: 3}, 3)
        assert expansion(tree, demand, {2}, 1, 3) == 0

    def test_empty_or_undesired_middle_is_free(self):
        tree, demand = demo_instance()
        assert expansion(tree, demand, {5}, 4, 6) == 0

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
            phi_small = expansion(tree, demand, small, left, right)
            phi_all = expansion(tree, demand, inner, left, right)
            assert phi_small <= phi_all
            per_view = sum(expansion(tree, demand, {v}, left, right)
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
        assert cost_of_parts(view_masks(tree, demand), {2: (2, 2)}) == 7


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
        for t, path in paths.items():
            assert tree.path_mask[t].bit_count() == len(path)
            assert tree.arcs_of(tree.path_mask[t]) == path

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
            assert cost_of_parts(view_masks(tree, demand), theta) == \
                sum(len(views) for views in loads.values())
            assert edge_view_loads(tree, demand, theta) == loads

    def test_demo(self):
        self.assert_matches_reference(*demo_instance(), 4)

    def test_random_trees(self, rng):
        for _ in range(200):
            self.assert_matches_reference(*random_tree_instance(rng), 3)

    @pytest.mark.parametrize("clients", [10, 60, 400, 753])
    def test_bundled_topology(self, clients):
        graph = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
        nodes = sorted(n for n in graph.nodes if n != graph.server)
        terms = random.Random(clients).sample(nodes, clients)
        demand = sample_demand(DemandDistribution("uniform", 12), terms, seed=7)
        self.assert_matches_reference(build_spt(graph, terms), demand, 5)


class TestOneCostLayer:
    """Every solver shares one cost layer: `solve_by_segment`, its
    certificate and the closed-form price live in `cost`, and a sample's
    solvers and functionals share one read-only build of the view masks."""

    # beyond the cost layer, emmdea takes mmdea's per-segment optimum as
    # the upper bound of its sweep, and nothing else
    ALSO = {"emmdea": {("mmdea", "solve_segment")}}

    @pytest.mark.parametrize("module", ["emmdea", "hmmdea", "oracle"])
    def test_solvers_import_only_the_cost_layer_and_graphs(self, module):
        source = Path(cost.__file__).with_name(f"{module}.py").read_text()
        imports = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ImportFrom) and node.level]
        also = {(node.module, alias.name) for node in imports
                if node.module not in ("cost", "graphs")
                for alias in node.names}
        assert also == self.ALSO.get(module, set())
        assert {node.module for node in imports} - {m for m, _ in also} \
            == {"cost", "graphs"}

    def test_phi_counts_the_arcs_each_source_misses(self, rng):
        def arcs(mask):
            return {i for i in range(12) if mask >> i & 1}
        for _ in range(300):
            mid, left, right = (rng.getrandbits(12) for _ in range(3))
            assert cost.phi(mid, left, right) == \
                len(arcs(mid) - arcs(left)) + len(arcs(mid) - arcs(right))

    def test_each_functional_builds_the_masks_once(self, monkeypatch):
        calls = []
        real = cost.view_masks
        monkeypatch.setattr(cost, "view_masks",
                            lambda *args: calls.append(1) or real(*args))
        tree, demand = demo_instance()
        assert len(view_trees(tree, demand)[2]) == 7 and len(calls) == 1
        assert evaluate_cost(tree, demand, THETA_STAR) == 32 \
            and len(calls) == 2
        assert len(edge_view_loads(tree, demand, THETA_STAR)) == 14 \
            and len(calls) == 3

    @pytest.mark.parametrize("views, d, dist, solvers", [
        (12, 5, "uniform", ("omds", "mmdea")),
        (24, 4, "zipf:1", ("omds", "mmdea", "emmdea", "hmmdea"))])
    def test_a_sample_builds_the_masks_once(self, monkeypatch, views, d, dist,
                                            solvers):
        builds = []
        monkeypatch.setattr(cost, "MappingProxyType",
                            lambda out: builds.append(1) or MappingProxyType(out))
        graph = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
        config = ScenarioConfig(views=views, clients=400, dist=dist, d=d,
                                solvers=solvers, seed=2024)
        rows = cli._run_sample(config, graph, cli._client_candidates(graph), 0)
        assert [(row["solver"], row["status"]) for row in rows] == \
            [(solver, "ok") for solver in solvers]
        assert len(builds) == 1

    def test_the_masks_are_read_only(self):
        tree, demand = demo_instance()
        masks = view_masks(tree, demand)
        with pytest.raises(TypeError):
            masks[2] = 0
        assert masks[2].bit_count() == len(view_trees(tree, demand)[2]) == 7

    def test_another_tree_or_demand_gets_a_fresh_build(self):
        tree, demand = demo_instance()
        other_tree, other_demand = demo_instance()
        masks = view_masks(tree, demand)
        assert view_masks(tree, demand) is masks
        for pair in ((other_tree, demand), (tree, other_demand)):
            fresh = view_masks(*pair)
            assert fresh is not masks and fresh == masks
        assert view_masks(tree, demand) is not masks  # only the latest is kept

    @pytest.mark.parametrize("mode", ["exact", "literal", "per_view"])
    def test_closed_form_prices_call_phi(self, monkeypatch, mode):
        calls = []
        monkeypatch.setattr(mmdea, "phi",
                            lambda *args: calls.append(1) or cost.phi(*args))
        tree, demand = demo_instance()
        solve_general(tree, demand, 4, mode)
        assert bool(calls) == (mode != "exact")

    def test_hmmdea_gain_calls_phi(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hmmdea, "phi",
                            lambda *args: calls.append(1) or cost.phi(*args))
        tree, demand = demo_instance()
        assert hmmdea.h_solve(tree, demand, 4).round_costs == [45, 41, 38]
        assert calls
