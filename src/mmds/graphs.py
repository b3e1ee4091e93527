"""Core domain types: network graphs, rooted shortest-path trees, demand
maps, view-selection functions, segmentation and validity checking.

Views are plain positive integers 1..K.  A view-selection function is a
plain dict mapping each desired view v to an ordered pair (left, right);
(v, v) means v is transmitted directly, left < right means v is
synthesized from the two transmitted source views.
"""

from __future__ import annotations

from collections import deque
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
        es = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            es.add(frozenset((a, b)))
        self.edges = frozenset(es)
        if server not in self.nodes:
            raise ValueError(f"server {server!r} is not a node")
        self.server = server
        self.labels = dict(labels or {})
        self._adj = {n: set() for n in self.nodes}
        for e in self.edges:
            a, b = tuple(e)
            self._adj[a].add(b)
            self._adj[b].add(a)
        self.dist = bfs_distances(self._adj, server)

    def neighbors(self, n):
        return self._adj[n]

    @cached_property
    def spt_parents(self) -> dict:
        """Each reachable non-server node's parent in every shortest-path
        tree: its smallest-identifier neighbour one hop nearer the server.
        Computed on first use, once per graph."""
        dist = self.dist
        return {n: min(m for m in self._adj[n] if dist[m] == d - 1)
                for n, d in dist.items() if d}

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

    def __hash__(self):
        return hash((self.nodes, self.edges, self.server))


class ShortestPathTree:
    """Rooted directed tree spanning the root and a set of terminal nodes.

    Arcs point away from the root.  Every non-root node has exactly one
    parent and every terminal is reachable from the root.  Arcs are
    numbered as the walks up from the terminals meet them, each walk's new
    arcs top-down: bit i of a mask stands for `arc_list[i]`.  `path_mask`
    maps every node on a terminal's root path to the mask of that path,
    which is its parent's mask plus its own arc's bit, computed once per
    node.
    """

    def __init__(self, root, parents, terminals):
        self.root = root
        self.parents = dict(parents)
        self.terminals = frozenset(terminals)
        if root in self.parents:
            raise ValueError("root must not have a parent")
        parents = self.parents
        arc_list = []
        path_mask = {root: 0}
        for t in self.terminals:
            climb = []
            n = t
            while n not in path_mask:
                if n not in parents:
                    raise ValueError(f"terminal {t!r} is not reachable from root {root!r}")
                climb.append(n)
                if len(climb) > len(parents):  # some node repeats
                    p = next(c for i, c in enumerate(climb) if c in climb[:i])
                    raise ValueError(f"cycle through node {p!r}")
                n = parents[n]
            mask = path_mask[n]
            for c in reversed(climb):
                mask |= 1 << len(arc_list)
                arc_list.append((parents[c], c))
                path_mask[c] = mask
        self.arc_list = arc_list
        self.path_mask = path_mask
        self.depth = {t: path_mask[t].bit_count() for t in self.terminals}
        self.arcs = frozenset(arc_list)

    def arcs_of(self, mask) -> frozenset:
        """The arcs whose bits are set in `mask`."""
        # bin() lists the bits highest first, so reversed, char i is bit i
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return frozenset(compress(self.arc_list, bits))

    @cached_property
    def path_arcs(self) -> dict:
        """Each terminal's root path as a frozenset of arcs."""
        return {t: self.arcs_of(self.path_mask[t]) for t in self.terminals}

    def __eq__(self, other):
        return (isinstance(other, ShortestPathTree)
                and self.root == other.root
                and self.arcs == other.arcs
                and self.terminals == other.terminals)

    def __hash__(self):
        return hash((self.root, self.arcs, self.terminals))


def build_spt(graph: NetworkGraph, terminals) -> ShortestPathTree:
    """Breadth-first shortest-path tree from the server to the terminals.

    Equal-distance parent candidates are broken by smallest node
    identifier (`NetworkGraph.spt_parents`), so identical inputs always
    produce identical trees.  Branches that lead to no terminal are pruned.
    """
    terminals = set(terminals)
    missing = terminals - graph.nodes
    if missing:
        raise ValueError(f"terminals not in graph: {sorted(missing, key=repr)}")
    dist = graph.dist
    unreachable = [t for t in terminals if t not in dist]
    if unreachable:
        raise ValueError(f"terminal {min(unreachable, key=repr)!r} is "
                         f"unreachable from server {graph.server!r}")
    # walking up from the terminals visits only nodes on some root path
    spt_parents = graph.spt_parents
    parents = {}
    for t in terminals:
        n = t
        while n != graph.server and n not in parents:
            parents[n] = spt_parents[n]
            n = parents[n]
    return ShortestPathTree(graph.server, parents, terminals)


class DemandMap:
    """Assignment of one desired view to every terminal."""

    def __init__(self, demand, universe_size, terminals=None):
        self.universe_size = int(universe_size)
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        self.demand = dict(demand)
        for t, v in self.demand.items():
            if not (1 <= v <= self.universe_size):
                raise ValueError(f"view {v} for terminal {t!r} outside 1..{self.universe_size}")
        if terminals is not None:
            extra = set(self.demand) - set(terminals)
            if extra:
                raise ValueError(f"demand keys are not terminals: {sorted(extra, key=repr)}")
        self.desired_views = tuple(sorted(set(self.demand.values())))

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
        sent = set(transmitted_views(theta))
        for v, (l, r) in sorted(theta.items()):
            if r > l:
                inside = sorted(w for w in sent if l < w < r)
                if inside:
                    issues.append(
                        f"view {v}: transmitted views {inside} lie strictly "
                        f"inside the synthesis interval ({l},{r})")
    return issues
