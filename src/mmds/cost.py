"""Bandwidth accounting: per-arc view loads, the direct multicast cost of a
single view, and the expansion cost of extending two source views to the
clients of the views synthesized between them.

Bandwidth is a count of (arc, view) pairs.  INFEASIBLE is an absorbing
sentinel: INFEASIBLE + x == INFEASIBLE and min(INFEASIBLE, x) == x.
"""

from __future__ import annotations

from math import inf as INFEASIBLE  # noqa: N811  (absorbing sentinel)

from .graphs import DemandMap, ShortestPathTree, validate_selection


def view_trees(tree: ShortestPathTree, demand: DemandMap) -> dict:
    """Map each desired view to the union of its subscribers' root paths."""
    out = {}
    for t, v in demand.demand.items():
        if v in out:
            out[v] = out[v] | tree.path_arcs[t]
        else:
            out[v] = set(tree.path_arcs[t])
    return {v: frozenset(a) for v, a in out.items()}


def view_masks(tree: ShortestPathTree, demand: DemandMap) -> dict:
    """`view_trees` as int bitmasks, one bit per arc on a subscriber's
    root path, so that |A - B| is `(a & ~b).bit_count()`.

    Arcs are numbered as the walk meets them; a node's path mask is its
    parent's mask plus the bit of its own arc, computed once per node.
    """
    path = {tree.root: 0}
    out = {}
    for t, v in demand.demand.items():
        climb = []
        n = t
        while n not in path:
            climb.append(n)
            n = tree.parents[n]
        mask = path[n]
        for n in reversed(climb):
            mask |= 1 << (len(path) - 1)
            path[n] = mask
        out[v] = out.get(v, 0) | mask
    return out


def subscriber_tree(tree: ShortestPathTree, demand: DemandMap, views) -> frozenset:
    """Union of root paths over terminals whose desired view is in `views`."""
    arcs = set()
    views = set(views)
    for t, v in demand.demand.items():
        if v in views:
            arcs |= tree.path_arcs[t]
    return frozenset(arcs)


def direct_cost(tree: ShortestPathTree, demand: DemandMap, view: int) -> int:
    """Cost of multicasting `view` to exactly its subscribers (0 if none)."""
    return len(subscriber_tree(tree, demand, {view}))


def expansion_cost(tree: ShortestPathTree, demand: DemandMap, between,
                   left: int, right: int) -> int:
    """Extra (arc, view) units to push `left` and `right` to the clients of
    the desired views in `between`, beyond the sources' own subscriber
    trees.  Zero when no view in `between` is desired.
    """
    between = set(between)
    if not (left < right):
        raise ValueError(f"sources must satisfy left < right, got ({left},{right})")
    bad = [v for v in between if not (left < v < right)]
    if bad:
        raise ValueError(f"views {sorted(bad)} are not strictly between {left} and {right}")
    mid = subscriber_tree(tree, demand, between)
    if not mid:
        return 0
    tl = subscriber_tree(tree, demand, {left})
    tr = subscriber_tree(tree, demand, {right})
    return len(mid - tl) + len(mid - tr)


def _need_sets(demand: DemandMap, theta):
    """Per-terminal set of views the terminal must receive under theta."""
    needs = {}
    for t, v in demand.demand.items():
        l, r = theta[v]
        needs[t] = {l, r}
    return needs


def edge_view_loads(tree: ShortestPathTree, demand: DemandMap, theta) -> dict:
    """Views carried on each arc: the union of need-sets of all terminals
    whose root path crosses the arc."""
    loads = {}
    for t, need in _need_sets(demand, theta).items():
        for arc in tree.path_arcs[t]:
            loads.setdefault(arc, set()).update(need)
    return {a: frozenset(v) for a, v in loads.items()}


def evaluate_cost(tree: ShortestPathTree, demand: DemandMap, theta,
                  D: int | None = None, crossing_allowed: bool = False) -> int:
    """Total bandwidth of a view selection: sum over arcs of the number of
    distinct views carried.  Validates theta first when D is given."""
    if D is not None:
        issues = validate_selection(theta, demand, D, crossing_allowed)
        if issues:
            raise ValueError("invalid view selection: " + "; ".join(issues))
    return cost_of_parts(tree, demand, theta)


def cost_of_parts(tree: ShortestPathTree, demand: DemandMap, theta) -> int:
    """Bandwidth of a (possibly partial) selection, without validation.

    Only terminals whose desired view is in theta participate.  Equals
    the per-arc union sum because each transmitted view contributes one
    unit on every arc of the union of its receivers' paths.
    """
    trees = {}
    for t, v in demand.demand.items():
        if v not in theta:
            continue
        for w in set(theta[v]):
            if w in trees:
                trees[w] |= tree.path_arcs[t]
            else:
                trees[w] = set(tree.path_arcs[t])
    return sum(len(a) for a in trees.values())
