
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmds import (DemandDistribution, DemandMap, NetworkGraph,
                  ShortestPathTree, build_spt, check_quality, evaluate_cost,
                  identity_selection, sample_demand, segment_views,
                  transmitted_views, validate_selection, view_trees)
from mmds import graphs
from mmds.cli import run_solver
from mmds.instances import demo_instance
from mmds.workload import parse_topology

from conftest import bfs_distances


class TestNetworkGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            NetworkGraph([1, 2], [(1, 1)], 1)

    def test_collapses_parallel_edges(self):
        g = NetworkGraph([1, 2], [(1, 2), (2, 1)], 1)
        assert g.edge_count == 1

    def test_server_must_exist(self):
        with pytest.raises(ValueError, match="server"):
            NetworkGraph([1, 2], [(1, 2)], 99)


class TestBuildSpt:
    def test_tree_input_is_its_own_spt(self):
        g = NetworkGraph(["s", "a", "b", "c"],
                         [("s", "a"), ("a", "b"), ("a", "c")], "s")
        t = build_spt(g, ["b", "c"])
        assert t.arcs == {("s", "a"), ("a", "b"), ("a", "c")}

    def test_cycle_tie_broken_by_smallest_id(self):
        # 4-cycle s-a-b-c-s: b is reachable at depth 2 via a or c
        g = NetworkGraph(["s", "a", "b", "c"],
                         [("s", "a"), ("a", "b"), ("b", "c"), ("c", "s")], "s")
        t = build_spt(g, ["b"])
        assert t.path_mask["b"].bit_count() == 2
        assert ("a", "b") in t.arcs and ("c", "b") not in t.arcs

    def test_paths_match_independent_bfs(self, rng):
        for _ in range(25):
            n = 50
            nodes = list(range(n))
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            extra = rng.randint(0, 40)
            while extra:
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    edges.append((a, b))
                    extra -= 1
            g = NetworkGraph(nodes, edges, 0)
            terms = rng.sample(range(1, n), 8)
            t = build_spt(g, terms)
            dist = bfs_distances({x: g.neighbors(x) for x in g.nodes}, 0)
            for term in terms:
                assert t.path_mask[term].bit_count() == dist[term]

    def test_bundled_topology_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
        terms = [n for n in g.nodes if n != g.server]
        t = build_spt(g, terms)
        ref = nx.Graph(tuple(e) for e in g.edges)
        want = nx.single_source_shortest_path_length(ref, g.server)
        assert {n: t.path_mask[n].bit_count() for n in terms} == \
            {n: want[n] for n in terms}
        assert set(t.parents) == set(terms)
        for n, p in t.parents.items():
            assert p == min(m for m in ref[n] if want[m] == want[n] - 1)

    def test_deterministic(self, rng):
        n = 30
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
        edges = [(a, b) for a, b in edges if a != b]
        g = NetworkGraph(range(n), edges, 0)
        terms = rng.sample(range(1, n), 6)
        assert build_spt(g, terms).arcs == build_spt(g, terms).arcs

    def test_prunes_branches_without_terminals(self):
        g = NetworkGraph(["s", "a", "b", "dead"],
                         [("s", "a"), ("a", "b"), ("s", "dead")], "s")
        t = build_spt(g, ["b"])
        assert ("s", "dead") not in t.arcs
        assert t.arcs == {("s", "a"), ("a", "b")}
        assert "dead" not in t.path_mask
        assert ("s", "dead") not in t.arc_list

    def test_unreachable_terminal_is_named(self):
        g = NetworkGraph([0, 1, 2, 3], [(0, 1), (2, 3)], 0)
        with pytest.raises(ValueError, match="2.*unreachable|unreachable.*2"):
            build_spt(g, [1, 2])

    def test_missing_terminal_message(self):
        g = NetworkGraph([0, 1, 2, 3], [(0, 1), (2, 3)], 0)
        with pytest.raises(ValueError) as err:
            build_spt(g, [1, 9, 10])
        assert str(err.value) == "terminals not in graph: [10, 9]"

    def test_missing_terminals_are_named_before_unreachable_ones(self):
        # 3 and 2 are unreachable, 9 and "x" are not nodes at all
        g = NetworkGraph([0, 1, 2, 3], [(0, 1), (2, 3)], 0)
        with pytest.raises(ValueError) as err:
            build_spt(g, [3, 9, 1, 2, "x", 9])
        assert str(err.value) == "terminals not in graph: ['x', 9]"
        with pytest.raises(ValueError) as err:
            build_spt(g, [3, 1, 2])
        assert str(err.value) == "terminal 2 is unreachable from server 0"


def random_graph(rng, n, name=lambda i: i):
    """Connected random graph on n nodes named name(0..n-1), server
    name(0): a random spanning tree plus up to n extra edges."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
    return NetworkGraph(map(name, range(n)),
                        [(name(a), name(b)) for a, b in edges if a != b], name(0))


def bundled_graph():
    return parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))


class TestBuildSptAgainstConstructor:
    """build_spt cuts the graph's tree down to the terminals; the cut tree
    must be, bit for bit, the tree the constructor builds over the graph's
    parents, whichever order the terminals come in."""

    @staticmethod
    def assert_same_tree(graph, terms, demand, D, solvers):
        got = build_spt(graph, terms)
        for order in (terms, terms[::-1]):
            want = ShortestPathTree(graph.server, graph.spt.parents, order)
            assert got.arc_list == want.arc_list
            assert got.terminals == want.terminals
            for t in terms:
                assert got.path_mask[t] == want.path_mask[t]
        assert view_trees(got, demand) == view_trees(want, demand)
        thetas = [identity_selection(demand)]
        for name in solvers:
            a = run_solver(name, got, demand, D, "exact")
            b = run_solver(name, want, demand, D, "exact")
            assert (a.total, a.theta) == (b.total, b.theta), name
            thetas.append(a.theta)
        for theta in thetas:
            assert evaluate_cost(got, demand, theta) == \
                evaluate_cost(want, demand, theta)

    @pytest.mark.parametrize("name", [lambda i: i, lambda i: f"n{i:02d}"],
                             ids=["int", "str"])
    def test_random_graphs(self, rng, name):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 40), name)
            others = sorted(g.nodes - {g.server}, key=repr)
            terms = rng.sample(others, rng.randint(1, min(8, len(others))))
            if rng.random() < 0.2:
                terms.append(g.server)
            K = rng.randint(1, 8)
            demand = DemandMap({t: rng.randint(1, K) for t in terms}, K)
            self.assert_same_tree(g, terms, demand, rng.randint(2, 4),
                                  ("omds", "mmdea", "emmdea", "hmmdea",
                                   "oracle", "oracle-ext"))

    def test_bundled_topology(self, rng):
        g = bundled_graph()
        nodes = sorted(g.nodes - {g.server})
        for clients in (1, 30, 400, 753):
            terms = rng.sample(nodes, clients)
            demand = sample_demand(DemandDistribution("zipf", 24, exponent=1),
                                   terms, seed=clients)
            self.assert_same_tree(g, terms, demand, 4,
                                  ("omds", "mmdea", "emmdea", "hmmdea"))

    def test_graph_tree_is_built_once(self, rng, monkeypatch):
        sizes = []
        real = graphs.ShortestPathTree.__init__

        def counted(self, root, parents, terminals):
            terminals = tuple(terminals)
            sizes.append(len(terminals))
            real(self, root, parents, terminals)
        monkeypatch.setattr(graphs.ShortestPathTree, "__init__", counted)
        g = bundled_graph()
        nodes = sorted(g.nodes - {g.server})
        for _ in range(20):
            build_spt(g, rng.sample(nodes, 400))
        assert sizes == [len(nodes)]


class TestShortestPathTree:
    def test_arcs_numbered_by_depth_then_repr(self):
        t = ShortestPathTree(0, {1: 0, 2: 0, 3: 1}, [2, 3, 2, 1])
        assert t.arc_list == [(0, 1), (0, 2), (1, 3)]
        assert t.terminals == {1, 2, 3}
        assert [t.path_mask[n] for n in (1, 2, 3)] == [0b001, 0b010, 0b101]

    def test_terminal_order_does_not_change_the_masks(self):
        parents = {"b": "r", "a": "r", "c": "a", "d": "b", "e": "c"}
        one = ShortestPathTree("r", parents, ["e", "d", "b"])
        two = ShortestPathTree("r", parents, ["b", "d", "e"])
        assert one.path_mask == two.path_mask
        assert one.arc_list == two.arc_list == [
            ("r", "a"), ("r", "b"), ("a", "c"), ("b", "d"), ("c", "e")]

    def test_terminal_whose_parents_leave_the_map_is_unreachable(self):
        with pytest.raises(ValueError) as err:
            ShortestPathTree(0, {1: 0, 3: 2, 4: 3, 5: 9}, [5, 1, 4])
        assert str(err.value) == "terminal 4 is not reachable from root 0"

    def test_terminal_on_a_parent_cycle_is_unreachable(self):
        with pytest.raises(ValueError) as err:
            ShortestPathTree(0, {1: 0, 2: 3, 3: 2, 4: 3}, [1, 4, 2])
        assert str(err.value) == "terminal 2 is not reachable from root 0"

    def test_cycle_off_every_terminal_path_is_fine(self):
        t = ShortestPathTree(0, {1: 0, 2: 1, 3: 4, 4: 3}, [2])
        assert t.arc_list == [(0, 1), (1, 2)]
        assert t.path_mask == {0: 0, 1: 0b01, 2: 0b11}

    def test_arc_numbering_does_not_follow_string_hashing(self,
                                                          hash_seed_outputs):
        # the arc order, arc loads and path masks: the script's first lines
        assert len({tuple(o.splitlines()[:3]) for o in hash_seed_outputs}) == 1

    def test_root_cannot_have_parent(self):
        with pytest.raises(ValueError):
            ShortestPathTree(0, {0: 1, 1: 0}, [1])

    def test_internal_terminals_are_fine(self):
        t = ShortestPathTree(0, {1: 0, 2: 1}, [1, 2])
        assert t.arcs_of(t.path_mask[1]) == {(0, 1)}
        assert t.arcs_of(t.path_mask[2]) == {(0, 1), (1, 2)}


class TestDemandMap:
    def test_view_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            DemandMap({1: 5}, 4)

    def test_first_terminal_out_of_range_is_named(self):
        with pytest.raises(ValueError) as err:
            DemandMap({"a": 2, "b": 9, "c": 0, "d": 9, "e": 0}, 4)
        assert str(err.value) == "view 9 for terminal 'b' outside 1..4"
        with pytest.raises(ValueError) as err:
            DemandMap({"a": 2, "c": 0, "b": 9}, 4)
        assert str(err.value) == "view 0 for terminal 'c' outside 1..4"

    def test_view_counts(self):
        d = DemandMap({1: 3, 2: 1, 3: 3, 4: 5}, 5)
        assert d.view_counts == {3: 2, 1: 1, 5: 1}

    def test_keys_must_be_terminals(self):
        with pytest.raises(ValueError, match="not terminals"):
            DemandMap({9: 1}, 4, terminals={1, 2})

    def test_desired_views_sorted_distinct(self):
        d = DemandMap({1: 3, 2: 1, 3: 3}, 5)
        assert d.desired_views == (1, 3)


class TestSegmentation:
    def test_three_segment_split(self):
        demand = DemandMap({i: v for i, v in
                            enumerate([1, 2, 3, 5, 9, 10, 15, 17, 18])}, 18)
        segs = segment_views(demand, 3)
        assert [s.members for s in segs] == [(1, 2, 3, 5), (9, 10), (15, 17, 18)]

    def test_single_view_single_segment(self):
        segs = segment_views(DemandMap({0: 4}, 9), 2)
        assert len(segs) == 1 and segs[0].members == (4,)

    @given(views=st.sets(st.integers(1, 60), min_size=1, max_size=20),
           d=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, views, d):
        demand = DemandMap({i: v for i, v in enumerate(sorted(views))},
                           60)
        segs = segment_views(demand, d)
        chained = [v for s in segs for v in s.members]
        assert chained == sorted(views)
        for a, b in zip(segs, segs[1:]):
            assert b.lo - a.hi > d
        for s in segs:
            gaps = [y - x for x, y in zip(s.members, s.members[1:])]
            assert all(g <= d for g in gaps)

    def test_quality_constraint_validation(self):
        with pytest.raises(ValueError):
            check_quality(1)
        with pytest.raises(ValueError):
            check_quality(2.0)


class TestValidateSelection:
    def test_demo_optimum_is_valid(self):
        _, demand = demo_instance()
        theta = {2: (2, 2), 3: (2, 4), 4: (4, 4),
                 6: (4, 8), 7: (4, 8), 8: (8, 8)}
        assert validate_selection(theta, demand, 4) == []

    def test_crossing_detected(self):
        demand = DemandMap({0: 1, 1: 2, 2: 3, 3: 4}, 4)
        # interval (1,4) strictly contains the transmitted view 2
        theta = {1: (1, 1), 2: (2, 2), 3: (1, 4), 4: (4, 4)}
        issues = validate_selection(theta, demand, 3)
        assert any("inside" in m for m in issues)
        assert validate_selection(theta, demand, 3, crossing_allowed=True) == []

    def test_synthesized_source_detected(self):
        demand = DemandMap({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, 5)
        theta = {1: (1, 1), 2: (1, 3), 3: (2, 4), 4: (4, 4), 5: (5, 5)}
        issues = validate_selection(theta, demand, 2)
        assert any("source" in m and "synthesized" in m for m in issues)

    def test_missing_view_reported_not_raised(self):
        demand = DemandMap({0: 1, 1: 2}, 2)
        issues = validate_selection({1: (1, 1)}, demand, 2)
        assert any("no selection" in m for m in issues)

    def test_width_and_enclosure(self):
        demand = DemandMap({0: 5}, 9)
        assert any("width" in m
                   for m in validate_selection({5: (1, 9)}, demand, 3))
        demand2 = DemandMap({0: 2, 1: 5, 2: 6}, 9)
        theta = {2: (5, 5), 5: (5, 5), 6: (6, 6)}
        assert any("enclose" in m or "direct" in m
                   for m in validate_selection(theta, demand2, 4))

    @given(st.dictionaries(st.integers(0, 5), st.integers(1, 12),
                           min_size=1, max_size=6),
           st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_identity_always_valid(self, demand_dict, d):
        demand = DemandMap(demand_dict, 12)
        assert validate_selection(identity_selection(demand), demand, d) == []

    def test_transmitted_views(self):
        theta = {2: (2, 2), 3: (2, 4), 4: (4, 4)}
        assert transmitted_views(theta) == (2, 4)

    @given(st.dictionaries(st.integers(0, 8), st.integers(1, 14),
                           min_size=1, max_size=8),
           st.dictionaries(st.integers(1, 14),
                           st.tuples(st.integers(0, 15), st.integers(0, 15)),
                           max_size=10),
           st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_crossing_search_matches_scan(self, demand_dict, theta, d):
        # a random selection, valid or not: the bisected search for
        # transmitted views inside each interval reports what a scan does
        demand = DemandMap(demand_dict, 14)
        assert validate_selection(theta, demand, d) == \
            scanned_validate_selection(theta, demand, d)


def scanned_validate_selection(theta, demand, D):
    """`validate_selection` as it stood when the crossing check scanned
    every transmitted view per synthesized view; kept as a reference."""
    issues = validate_selection(theta, demand, D, crossing_allowed=True)
    sent = set(transmitted_views(theta))
    for v, (l, r) in sorted(theta.items()):
        if r > l:
            inside = sorted(w for w in sent if l < w < r)
            if inside:
                issues.append(
                    f"view {v}: transmitted views {inside} lie strictly "
                    f"inside the synthesis interval ({l},{r})")
    return issues
