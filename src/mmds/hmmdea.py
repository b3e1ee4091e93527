"""Improvement heuristic: start from direct delivery and repeatedly
replace one transmitted view by its two transmitted neighbours.  Each
transmitted view keeps its delivery tree (the arcs that carry it, as an
int bitmask from ``cost.view_masks``), so a candidate is priced by its
marginal change to those trees alone: three popcounts.  Only the
strictly best improvement is committed per round, so the cost decreases
monotonically and the loop terminates.  Rounds span all segments, so
h_solve checks each round and segment itself, then ``mmdea.certify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import cost_of_parts, edge_view_loads, evaluate_cost, view_masks
from .graphs import DemandMap, ShortestPathTree, segment_views
from .mmdea import SolveResult, SolverError, certify


@dataclass
class HeuristicResult(SolveResult):
    round_costs: list = field(default_factory=list)
    arc_views: dict = field(default_factory=dict)


def h_solve(tree: ShortestPathTree, demand: DemandMap, D: int) -> HeuristicResult:
    """Improvement heuristic over transmitted views; the result always
    sits between the optimum and direct delivery."""
    segs = segment_views(demand, D)
    boundary = set()
    for seg in segs:
        boundary.add(seg.lo)
        boundary.add(seg.hi)

    theta = {v: (v, v) for v in demand.desired_views}
    delivery = view_masks(tree, demand)   # transmitted view -> mask of its arcs
    active = sorted(demand.desired_views)   # transmitted views, ascending
    sources = set()

    cost = sum(arcs.bit_count() for arcs in delivery.values())
    if cost != evaluate_cost(tree, demand, theta):
        raise SolverError("delivery trees disagree with the cost functional")
    history = [cost]

    while True:
        best = best_key = None
        for i, w in enumerate(active):
            if w in boundary or w in sources:
                continue
            left, right = active[i - 1], active[i + 1]
            if right - left > D:
                continue
            # w is no source, so only its own subscribers receive it and
            # moving them to (left, right) touches just these three trees
            tw = delivery[w]
            u = (cost - tw.bit_count() + (tw & ~delivery[left]).bit_count()
                 + (tw & ~delivery[right]).bit_count())
            if u < cost:
                key = (u, w, right - left)
                if best_key is None or key < best_key:
                    best, best_key = (u, w, left, right), key
        if best is None:
            break
        u, w, left, right = best
        theta[w] = (left, right)
        tw = delivery.pop(w)
        delivery[left] |= tw
        delivery[right] |= tw
        active.remove(w)
        sources.update((left, right))
        cost = u
        if cost != evaluate_cost(tree, demand, theta):
            raise SolverError("committed cost diverged from the functional")
        history.append(cost)

    per_segment = [(seg, cost_of_parts(tree, demand,
                                       {v: theta[v] for v in seg.members}))
                   for seg in segs]
    if sum(c for _, c in per_segment) != cost:
        raise SolverError("per-segment costs do not add up to the total")
    result = certify("hmmdea", tree, demand, D, theta, cost, per_segment)
    loads = edge_view_loads(tree, demand, result.theta)
    arc_views = {arc: loads.get(arc, frozenset()) for arc in tree.arcs}
    return HeuristicResult(**vars(result), round_costs=history,
                           arc_views=arc_views)
