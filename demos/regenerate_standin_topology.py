"""Generate the bundled 754-node / 895-link stand-in topology.

The real Kentucky Datalink export is chain-heavy (mean degree 2.37, long
degree-2 runs between junctions, diameter in the dozens of hops, fiber
rings for redundancy).  We mimic that shape: grow a tree preferring to
extend existing chain ends, then add local ring shortcuts (2-6 hops up
the tree) until exactly 895 links.  Runs once; the GML output is
committed under src/mmds/data/.
"""
import sys
sys.path.insert(0, "src")
import numpy as np
from mmds.graphs import NetworkGraph
from mmds.workload import parse_topology, write_gml

N, E, SEED, P_CHAIN = 754, 895, 20240501, 0.92

rng = np.random.default_rng(SEED)
edges, degree, leaves, parent_of = set(), {0: 0}, [0], {}
for n in range(1, N):
    if leaves and rng.random() < P_CHAIN:
        i = int(rng.integers(len(leaves)))
        parent = leaves.pop(i)
    else:
        parent = int(rng.integers(n))
    parent_of[n] = parent
    edges.add((min(parent, n), max(parent, n)))
    degree[parent] = degree.get(parent, 0) + 1
    degree[n] = 1
    leaves.append(n)
    if degree[parent] >= 3 and parent in leaves:
        leaves.remove(parent)
while len(edges) < E:
    a = int(rng.integers(1, N))
    hops = int(rng.integers(2, 7))
    b = a
    for _ in range(hops):
        b = parent_of.get(b, 0)
    if a == b:
        continue
    e = (min(a, b), max(a, b))
    if e not in edges:
        edges.add(e)

g = NetworkGraph(range(N), edges, 0)
assert g.is_connected() and g.node_count == N and g.edge_count == E
deg = [len(g.neighbors(n)) for n in g.nodes]
print("nodes", g.node_count, "edges", g.edge_count,
      "mean degree", round(sum(deg) / len(deg), 3),
      "max degree", max(deg), "server ecc", max(g.dist.values()))
write_gml(g, "src/mmds/data/kdl_754_895.gml")
assert parse_topology("src/mmds/data/kdl_754_895.gml", "gml") == g
print("roundtrip ok; written")
