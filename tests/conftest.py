"""Shared helpers: random instance generation, independent oracles and
the outputs of one script under several string-hash seeds."""

import os
import random
import subprocess
import sys
from collections import deque
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import strategies as st

import mmds
from mmds import DemandMap, ShortestPathTree, build_spt, parse_topology
from mmds.instances import demo_graph
from mmds.workload import sample_demand, write_edges


def random_tree_instance(rng: random.Random, max_nodes=18, max_terminals=8,
                         max_views=10):
    """Random rooted tree with random terminals and demand; node 0 is the
    root.  Non-terminal dead branches are dropped from the parent map."""
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


KDL_PATH = str(files("mmds.data") / "kdl_754_895.gml")


def bundled_instance(dist, seed, clients=400):
    """`clients` clients on the bundled topology with demand drawn from
    `dist`."""
    graph = parse_topology(KDL_PATH)
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


# Prints what must not follow string hashing: the demo tree's arc order,
# hmmdea's arc loads and the path masks; the nodes kept of three tied
# components, the one holding the smallest id; and four commands' output
# with runtime_ms cut.  The edge-list run places clients on named nodes.
HASH_SEED_SCRIPT = """
import csv, io, sys, warnings
from contextlib import redirect_stdout
from mmds import (Instance, cli, demo_instance, edge_view_loads, h_solve,
                  parse_topology)
warnings.simplefilter("ignore")
tmp = sys.argv[1]
tree, demand = demo_instance()
result = h_solve(Instance(tree, demand), 4)
print(tree.arc_list)
print(list(edge_view_loads(tree, demand, result.theta)))
print([(t, sorted(tree.arcs_of(tree.path_mask[t]))) for t in tree.path_mask])
print(sorted(parse_topology(f"{tmp}/tied.edges", "edges",
                            largest_component=True).nodes))
for argv in [
        "run --preset demo --d 4 "
        "--solver omds,mmdea,emmdea,hmmdea,oracle,oracle-ext",
        "run --gen 60,80 --views 8 --clients 20 --d 3 --samples 3 --seed 5 "
        "--solver omds,mmdea,emmdea,hmmdea",
        f"run --topology {tmp}/demo.edges --format edges --views 8 "
        "--clients 5 --d 4 --samples 2",
        f"solve --topology {tmp}/tied.edges --format edges "
        f"--largest-component --demand {tmp}/tied.demand --d 2"]:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    text = out.getvalue()
    if argv.startswith("run"):  # runtime_ms is field 16
        text = [row[:15] + row[16:] for row in csv.reader(io.StringIO(text))]
    print(text)
"""


@pytest.fixture(scope="session")
def hash_seed_outputs(tmp_path_factory):
    """The set of HASH_SEED_SCRIPT's outputs under PYTHONHASHSEED 0..5; the
    tests that read it run the script once between them."""
    tmp = tmp_path_factory.mktemp("hash_seed")
    write_edges(demo_graph(), tmp / "demo.edges")
    (tmp / "tied.edges").write_text("e f\nc d\na b\n")
    (tmp / "tied.demand").write_text("b 1\n")
    src = str(Path(mmds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        outputs.add(subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(tmp)], env=env,
            capture_output=True, text=True, check=True).stdout)
    return outputs
