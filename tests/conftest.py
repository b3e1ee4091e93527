"""Shared helpers: random instance generation and independent oracles."""

import random
from collections import deque
from importlib.resources import files

import pytest
from hypothesis import strategies as st

from mmds import DemandMap, ShortestPathTree, build_spt, parse_topology
from mmds.workload import sample_demand


def random_tree_instance(rng: random.Random, max_nodes=18, max_terminals=8,
                         max_views=10):
    """Random rooted tree with random terminals and demand; node 0 is the
    root.  Non-terminal dead branches are dropped, as build_spt would."""
    n = rng.randint(3, max_nodes)
    parents = {i: rng.randrange(i) for i in range(1, n)}
    n_terms = rng.randint(1, min(max_terminals, n - 1))
    terms = rng.sample(range(1, n), n_terms)
    keep = set()
    for t in terms:
        x = t
        while x != 0 and x not in keep:
            keep.add(x)
            x = parents[x]
    tree = ShortestPathTree(0, {c: p for c, p in parents.items() if c in keep},
                            terms)
    K = rng.randint(1, max_views)
    demand = DemandMap({t: rng.randint(1, K) for t in terms}, K, tree.terminals)
    return tree, demand


def bundled_instance(dist, seed, clients=400):
    """`clients` clients on the bundled topology with demand drawn from
    `dist`."""
    graph = parse_topology(str(files("mmds.data") / "kdl_754_895.gml"))
    nodes = sorted(n for n in graph.nodes if n != graph.server)
    picks = random.Random(seed).sample(nodes, clients)
    return build_spt(graph, picks), sample_demand(dist, picks, seed=seed)


@st.composite
def small_instances(draw):
    """Hypothesis strategy: a small random tree, demand on it and a D."""
    n = draw(st.integers(3, 14))
    chain_bias = draw(st.floats(0, 1))
    parents = {}
    for i in range(1, n):
        parents[i] = i - 1 if draw(st.floats(0, 1)) < chain_bias \
            else draw(st.integers(0, i - 1))
    n_terms = draw(st.integers(1, min(6, n - 1)))
    terms = draw(st.permutations(range(1, n)))[:n_terms]
    K = draw(st.integers(1, 9))
    views = draw(st.lists(st.integers(1, K), min_size=n_terms,
                          max_size=n_terms))
    tree = ShortestPathTree(0, parents, terms)
    demand = DemandMap(dict(zip(terms, views)), K, tree.terminals)
    return tree, demand, draw(st.integers(2, 5))


def bfs_distances(adjacency, source):
    """Plain breadth-first distances, independent of build_spt."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nb in adjacency[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return dist


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
