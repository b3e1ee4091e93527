"""Bandwidth accounting: per-arc view loads, the direct multicast cost of a
single view, and the expansion cost of extending two source views to the
clients of the views synthesized between them.

Arc sets are int bitmasks over the tree's arc numbering (bit i is
`tree.arc_list[i]`), built from `ShortestPathTree.path_mask`; arcs are
decoded into frozensets only where a function returns them.

Bandwidth is a count of (arc, view) pairs.  INFEASIBLE is an absorbing
sentinel: INFEASIBLE + x == INFEASIBLE and min(INFEASIBLE, x) == x.
"""

from __future__ import annotations

from math import inf as INFEASIBLE  # noqa: N811  (absorbing sentinel)

from .graphs import DemandMap, ShortestPathTree, validate_selection


def view_masks(tree: ShortestPathTree, demand: DemandMap) -> dict:
    """Map each desired view to its view tree as an int bitmask, the OR of
    its subscribers' `tree.path_mask`, so that |A - B| is
    `(a & ~b).bit_count()`."""
    path_mask = tree.path_mask
    out = {}
    for t, v in demand.demand.items():
        out[v] = out.get(v, 0) | path_mask[t]
    return out


def view_trees(tree: ShortestPathTree, demand: DemandMap) -> dict:
    """Map each desired view to the union of its subscribers' root paths."""
    return {v: tree.arcs_of(m) for v, m in view_masks(tree, demand).items()}


def _subscriber_mask(tree: ShortestPathTree, demand: DemandMap, views) -> int:
    views = set(views)
    mask = 0
    for t, v in demand.demand.items():
        if v in views:
            mask |= tree.path_mask[t]
    return mask


def subscriber_tree(tree: ShortestPathTree, demand: DemandMap, views) -> frozenset:
    """Union of root paths over terminals whose desired view is in `views`."""
    return tree.arcs_of(_subscriber_mask(tree, demand, views))


def direct_cost(tree: ShortestPathTree, demand: DemandMap, view: int) -> int:
    """Cost of multicasting `view` to exactly its subscribers (0 if none)."""
    return _subscriber_mask(tree, demand, {view}).bit_count()


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
    mid = _subscriber_mask(tree, demand, between)
    if not mid:
        return 0
    tl = _subscriber_mask(tree, demand, {left})
    tr = _subscriber_mask(tree, demand, {right})
    return (mid & ~tl).bit_count() + (mid & ~tr).bit_count()


def _delivery_masks(tree: ShortestPathTree, demand: DemandMap, theta) -> dict:
    """Each transmitted view's delivery tree as a mask: the union of the
    root paths of the terminals that receive it.  Only terminals whose
    desired view is in theta participate."""
    trees = {}
    for v, mask in view_masks(tree, demand).items():
        if v in theta:
            for w in set(theta[v]):
                trees[w] = trees.get(w, 0) | mask
    return trees


def edge_view_loads(tree: ShortestPathTree, demand: DemandMap, theta) -> dict:
    """Views carried on each arc: the union of need-sets of all terminals
    whose root path crosses the arc."""
    loads = {}
    for w, mask in _delivery_masks(tree, demand, theta).items():
        for arc in tree.arcs_of(mask):
            loads.setdefault(arc, set()).add(w)
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
    return sum(m.bit_count() for m in _delivery_masks(tree, demand, theta).values())
