"""Core domain types: network graphs, rooted shortest-path trees, demand
maps, view-selection functions, segmentation and validity checking.

Views are plain positive integers 1..K.  A view-selection function is a
plain dict mapping each desired view v to an ordered pair (left, right);
(v, v) means v is transmitted directly, left < right means v is
synthesized from the two transmitted source views.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

# Maps the characters of bin() to the bytes 0 and 1, for itertools.compress.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def bfs_distances(adj, source) -> dict:
    """Hop count from `source` to every node it reaches; `adj` maps each
    node to its neighbours."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        n = queue.popleft()
        for m in adj[n]:
            if m not in dist:
                dist[m] = dist[n] + 1
                queue.append(m)
    return dist


class NetworkGraph:
    """Undirected unit-length graph with a designated server node.

    Self-loops are rejected; parallel edges collapse to one.  `dist` holds
    the hop count from the server to every node it reaches.
    """

    def __init__(self, nodes, edges, server, labels=None):
        self.nodes = frozenset(nodes)
        self._adj = adj = {n: set() for n in self.nodes}
        es = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if a not in adj or b not in adj:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            es.add(frozenset((a, b)))
            adj[a].add(b)
            adj[b].add(a)
        self.edges = frozenset(es)
        if server not in self.nodes:
            raise ValueError(f"server {server!r} is not a node")
        self.server = server
        self.labels = dict(labels or {})
        self.dist = bfs_distances(adj, server)

    def neighbors(self, n):
        return self._adj[n]

    @cached_property
    def spt(self) -> ShortestPathTree:
        """The shortest-path tree to every reachable non-server node.  Each
        node's parent is its smallest-identifier neighbour one hop nearer
        the server, so a node's depth is its distance.  `build_spt` cuts it
        down to a sample's terminals.  Built on first use, once per graph."""
        dist = self.dist
        parents = {n: min(m for m in self._adj[n] if dist[m] == d - 1)
                   for n, d in dist.items() if d}
        return ShortestPathTree(self.server, parents, parents)

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return len(self.edges)

    def is_connected(self):
        return len(self.dist) == len(self.nodes)

    def __eq__(self, other):
        return (isinstance(other, NetworkGraph)
                and self.nodes == other.nodes
                and self.edges == other.edges
                and self.server == other.server)


class ShortestPathTree:
    """Rooted directed tree spanning the root and a set of terminal nodes.

    Arcs point away from the root.  Every non-root node has exactly one
    parent and every terminal is reachable from the root.  `parents` may
    hold nodes off the terminals' root paths.

    Arc sets are int bitmasks; `arcs_of` decodes one.  Bit i is the arc
    into the i-th node reachable from the root through `parents`, taken in
    (depth, `repr`) order, so the numbering does not depend on the order
    of the terminals.  `path_mask` maps every reachable node to the mask
    of its root path, its parent's mask plus its own arc's bit.  A tree
    from `restrict` keeps the numbering of the tree it was cut from and
    holds only its terminals' masks.  Either way `arc_list` lists the arcs
    on the terminals' root paths in bit order.
    """

    def __init__(self, root, parents, terminals):
        self.root = root
        self.parents = parents = dict(parents)
        self.terminals = frozenset(terminals)
        if root in parents:
            raise ValueError("root must not have a parent")
        children = {}
        for c, p in parents.items():
            children.setdefault(p, []).append(c)
        numbering = []
        path_mask = {root: 0}
        level = [root]
        while level:  # a node on a parent cycle is never reached
            level = sorted((c for p in level for c in children.get(p, ())), key=repr)
            for c in level:
                path_mask[c] = path_mask[parents[c]] | 1 << len(numbering)
                numbering.append((parents[c], c))
        unreached = self.terminals - path_mask.keys()
        if unreached:
            raise ValueError(f"terminal {min(unreached, key=repr)!r} is not "
                             f"reachable from root {root!r}")
        self._numbering = numbering   # bit i stands for numbering[i]
        self.path_mask = path_mask

    def restrict(self, terminals) -> ShortestPathTree:
        """This tree cut down to `terminals`, a subset of its own, in the
        order given.  The cut tree shares the root, `parents` and bit
        numbering; its `path_mask` holds just the terminals' masks."""
        cut = object.__new__(ShortestPathTree)
        cut.root, cut.parents = self.root, self.parents
        path_mask = self.path_mask
        cut.path_mask = {t: path_mask[t] for t in terminals}  # repeats dropped
        cut.terminals = frozenset(cut.path_mask)
        cut._numbering = self._numbering
        return cut

    def _decode(self, mask):
        """The arcs whose bits are set in `mask`, in bit order."""
        # bin() lists the bits highest first, so reversed, char i is bit i
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return compress(self._numbering, bits)

    def arcs_of(self, mask) -> frozenset:
        """The arcs whose bits are set in `mask`."""
        return frozenset(self._decode(mask))

    @cached_property
    def arc_list(self) -> list:
        """The tree's arcs in bit order."""
        union = 0
        for t in self.terminals:  # an OR has no order
            union |= self.path_mask[t]
        return list(self._decode(union))

    @cached_property
    def arcs(self) -> frozenset:
        return frozenset(self.arc_list)


def build_spt(graph: NetworkGraph, terminals) -> ShortestPathTree:
    """Breadth-first shortest-path tree from the server to the terminals.

    Equal-distance parent candidates are broken by smallest node
    identifier (see `NetworkGraph.spt`), so identical inputs always
    produce identical trees.  The tree is the graph's own (`graph.spt`)
    cut down to the terminals: its `parents` is the whole parent map, and
    it has the masks and arc numbering of the tree the constructor builds
    over that map, but its arcs cover only the terminals' root paths.
    """
    terminals = tuple(terminals)
    dist = graph.dist
    off = [t for t in terminals if t not in dist]
    if off:
        # every node in dist is in the graph, so missing terminals are off it
        missing = set(off) - graph.nodes
        if missing:
            raise ValueError(f"terminals not in graph: {sorted(missing, key=repr)}")
        raise ValueError(f"terminal {min(off, key=repr)!r} is "
                         f"unreachable from server {graph.server!r}")
    return graph.spt.restrict(terminals)


class DemandMap:
    """Assignment of one desired view to every terminal."""

    def __init__(self, demand, universe_size, terminals=None):
        self.universe_size = int(universe_size)
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        self.demand = dict(demand)
        self.view_counts = Counter(self.demand.values())  # terminals per view
        if not all(1 <= v <= self.universe_size for v in self.view_counts):
            t, v = next((t, v) for t, v in self.demand.items()
                        if not 1 <= v <= self.universe_size)
            raise ValueError(f"view {v} for terminal {t!r} outside 1..{self.universe_size}")
        if terminals is not None:
            extra = set(self.demand) - set(terminals)
            if extra:
                raise ValueError(f"demand keys are not terminals: {sorted(extra, key=repr)}")
        self.desired_views = tuple(sorted(self.view_counts))

    def __eq__(self, other):
        return (isinstance(other, DemandMap)
                and self.demand == other.demand
                and self.universe_size == other.universe_size)

    def __len__(self):
        return len(self.demand)


@dataclass(frozen=True)
class Segment:
    """Maximal run of desired views whose consecutive gaps are <= D."""
    lo: int
    hi: int
    members: tuple = field(default=())


def segment_views(demand: DemandMap, D: int) -> list[Segment]:
    """Split the desired views into maximal segments with gap <= D."""
    check_quality(D)
    views = demand.desired_views
    if not views:
        raise ValueError("no desired views")
    segs = []
    run = [views[0]]
    for v in views[1:]:
        if v - run[-1] <= D:
            run.append(v)
        else:
            segs.append(Segment(run[0], run[-1], tuple(run)))
            run = [v]
    segs.append(Segment(run[0], run[-1], tuple(run)))
    return segs


def check_quality(D):
    if not isinstance(D, int) or D < 2:
        raise ValueError(f"quality constraint D must be an integer >= 2, got {D!r}")
    return D


def transmitted_views(theta) -> tuple:
    """All source views actually sent from the server (sorted)."""
    out = set()
    for l, r in theta.values():
        out.add(l)
        out.add(r)
    return tuple(sorted(out))


def identity_selection(demand: DemandMap) -> dict:
    return {v: (v, v) for v in demand.desired_views}


def validate_selection(theta, demand: DemandMap, D: int,
                       crossing_allowed: bool = False) -> list[str]:
    """Check a view selection against the demand; returns all violations.

    An empty list means the selection is valid.  With crossing_allowed
    the non-crossing condition is skipped (the relaxed problem); the
    width, ordering and source-transmitted-directly conditions always
    apply.
    """
    check_quality(D)
    issues = []
    desired = set(demand.desired_views)
    for v in sorted(desired):
        if v not in theta:
            issues.append(f"desired view {v} has no selection")
    for v in sorted(theta):
        if v not in desired:
            issues.append(f"selection given for non-desired view {v}")
    for v, (l, r) in sorted(theta.items()):
        if l == r and l != v:
            issues.append(f"view {v}: pair ({l},{r}) is direct but not the view itself")
        if not (l <= v <= r):
            issues.append(f"view {v}: pair ({l},{r}) does not enclose the view")
        if not (0 <= r - l <= D):
            issues.append(f"view {v}: pair width {r - l} violates 0 <= width <= {D}")
        if r > l:
            for src in (l, r):
                if src in desired and src in theta and theta[src] != (src, src):
                    issues.append(
                        f"view {v}: source {src} is itself synthesized as {theta[src]}")
    if not crossing_allowed:
        sent = transmitted_views(theta)
        for v, (l, r) in sorted(theta.items()):
            if r > l:
                inside = list(sent[bisect_right(sent, l):bisect_left(sent, r)])
                if inside:
                    issues.append(
                        f"view {v}: transmitted views {inside} lie strictly "
                        f"inside the synthesis interval ({l},{r})")
    return issues
