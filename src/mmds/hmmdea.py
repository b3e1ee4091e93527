"""Improvement heuristic: start from direct delivery and repeatedly
replace one transmitted view by its two transmitted neighbours.  Each
transmitted view keeps its delivery tree (the arcs that carry it, as an
int bitmask), so a candidate is priced by its marginal change to those
trees alone: three popcounts.  Only the strictly best improvement is
committed per round, so the cost decreases monotonically.

A move changes only its own segment's trees, so each segment runs its own
greedy under ``mmdea.solve_by_segment`` on copies of the driver's masks,
checking every round with ``cost.cost_of_parts``.  One greedy over all
segments commits, each round, the best next move among the segments,
ranked by (-gain, view, width); ``heapq.merge`` over the segments' moves
gives back that order for ``round_costs``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import accumulate

from .cost import cost_of_parts, delivery_loads
from .graphs import DemandMap, Segment, ShortestPathTree
from .mmdea import SolveResult, SolverError, solve_by_segment


@dataclass
class HeuristicResult(SolveResult):
    round_costs: list = field(default_factory=list)
    arc_views: dict = field(default_factory=dict)


def _improve(seg: Segment, masks: dict, D: int, moves: list,
             delivery: dict) -> tuple:
    """Greedy over one segment's transmitted views; appends each committed
    move to `moves` as (-gain, view, width), leaves each transmitted
    view's final delivery tree in `delivery` and returns (cost, theta)."""
    theta = {v: (v, v) for v in seg.members}
    delivery.update((v, masks[v]) for v in seg.members)  # view -> its arcs
    active = list(seg.members)   # transmitted views, ascending
    sources = set()
    cost = sum(arcs.bit_count() for arcs in delivery.values())
    while True:
        if cost != cost_of_parts(masks, theta):
            raise SolverError("delivery trees disagree with the cost functional")
        best = None
        # the segment's two ends are never replaced
        for left, w, right in zip(active, active[1:], active[2:]):
            if w in sources or right - left > D:
                continue
            # w is no source, so only its own subscribers receive it and
            # moving them to (left, right) touches just these three trees
            tw = delivery[w]
            gain = (tw.bit_count() - (tw & ~delivery[left]).bit_count()
                    - (tw & ~delivery[right]).bit_count())
            if gain > 0 and (best is None or (-gain, w, right - left) < best):
                best, pair = (-gain, w, right - left), (left, right)
        if best is None:
            return cost, theta
        moves.append(best)
        change, w, _ = best
        theta[w] = pair
        left, right = pair
        tw = delivery.pop(w)
        delivery[left] |= tw
        delivery[right] |= tw
        active.remove(w)
        sources.update(pair)
        cost += change


def h_solve(tree: ShortestPathTree, demand: DemandMap, D: int) -> HeuristicResult:
    """Improvement heuristic over transmitted views; the result always
    sits between the optimum and direct delivery.  `round_costs` lists the
    total after each round of one greedy over all segments; `arc_views`
    is read off the segments' final delivery trees."""
    moves, trees = [], []   # per segment: committed moves, delivery trees

    def solve_one(seg, masks):
        moves.append([])
        trees.append({})
        return _improve(seg, masks, D, moves[-1], trees[-1])

    result = solve_by_segment("hmmdea", tree, demand, D, solve_one)
    changes = [change for change, _, _ in heapq.merge(*moves)]
    history = list(accumulate(changes, initial=result.total - sum(changes)))
    loads = delivery_loads(tree, {w: m for seg in trees for w, m in seg.items()})
    arc_views = {arc: loads.get(arc, frozenset()) for arc in tree.arc_list}
    return HeuristicResult(**vars(result), round_costs=history,
                           arc_views=arc_views)
