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


@st.composite
def promise_tree_instances(draw):
    """Hypothesis strategy: a tree and demand where views l < p < q < r lie
    within one D, so that r can be the right source of p and q, while the
    users' trees hold arcs that r's own tree lacks.  A trunk leaves the
    root; branch P hangs off it with p's client at its end and q's above,
    branch R with r's client at its end, and l's client sits on the trunk.
    A few more clients hang anywhere with any view."""
    trunk = draw(st.integers(1, 3))
    parents = {i: i - 1 for i in range(1, trunk + 1)}

    def branch(length):
        at = draw(st.integers(0, trunk))
        nodes = range(len(parents) + 1, len(parents) + 1 + length)
        for node in nodes:
            parents[node] = at
            at = node
        return list(nodes)
    p_branch = branch(draw(st.integers(2, 4)))
    r_branch = branch(draw(st.integers(1, 3)))
    D = draw(st.integers(3, 5))
    l = draw(st.integers(1, 2))
    r = l + draw(st.integers(3, D))
    p, q = sorted(draw(st.lists(st.integers(l + 1, r - 1), min_size=2,
                                max_size=2, unique=True)))
    demand = {draw(st.integers(1, trunk)): l, p_branch[-1]: p,
              draw(st.sampled_from(p_branch[:-1])): q, r_branch[-1]: r}
    K = r + draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        node = len(parents) + 1
        parents[node] = draw(st.integers(0, node - 1))
        demand[node] = draw(st.integers(1, K))
    terms = draw(st.permutations(list(demand)))
    tree = ShortestPathTree(0, parents, terms)
    return tree, DemandMap(demand, K, tree.terminals), D


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
