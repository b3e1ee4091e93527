"""Improvement heuristic: start from direct delivery and repeatedly
replace one transmitted view by its two transmitted neighbours.  Each
transmitted view keeps its delivery tree (the arcs that carry it, as an
int bitmask), so a candidate is priced by its marginal change to those
trees alone: three popcounts.  Only the strictly best improvement is
committed per round, so the cost decreases monotonically.

A move changes only its own segment's trees, so each segment runs its own
greedy under ``cost.solve_by_segment`` on copies of the instance's shared
masks, checking every round with ``cost.cost_of_parts``.  One greedy over all
segments commits, each round, the best next move among the segments,
ranked by (-gain, view, width); ``heapq.merge`` over the segments' moves
gives back that order for ``round_costs``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import accumulate

from .cost import (Instance, SolveResult, SolverError, cost_of_parts, phi,
                   solve_by_segment)
from .graphs import Segment


@dataclass
class HeuristicResult(SolveResult):
    round_costs: list = field(default_factory=list)


def _improve(seg: Segment, masks: dict, D: int, moves: list) -> tuple:
    """Greedy over one segment's transmitted views; appends each committed
    move to `moves` as (-gain, view, width) and returns (cost, theta)."""
    theta = {v: (v, v) for v in seg.members}
    delivery = {v: masks[v] for v in seg.members}  # view -> its arcs
    sources = set()
    cost = sum(arcs.bit_count() for arcs in delivery.values())
    while True:
        if cost != cost_of_parts(masks, theta):
            raise SolverError("delivery trees disagree with the cost functional")
        best, views = None, list(delivery)  # transmitted views, ascending
        # the segment's two ends are never replaced
        for left, w, right in zip(views, views[1:], views[2:]):
            if w in sources or right - left > D:
                continue
            # w is no source, so only its own subscribers receive it and
            # moving them to (left, right) touches just these three trees
            tw = delivery[w]
            gain = tw.bit_count() - phi(tw, delivery[left], delivery[right])
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
        sources.update(pair)
        cost += change


def h_solve(inst: Instance, D: int) -> HeuristicResult:
    """Improvement heuristic over transmitted views; the result always
    sits between the optimum and direct delivery.  `round_costs` lists the
    total after each round of one greedy over all segments; the views on
    each arc are `cost.edge_view_loads` of `result.theta`."""
    moves = []   # per segment: its committed moves

    def solve_one(seg, masks):
        moves.append([])
        return _improve(seg, masks, D, moves[-1])

    result = solve_by_segment("hmmdea", inst, D, solve_one)
    changes = [change for change, _, _ in heapq.merge(*moves)]
    history = list(accumulate(changes, initial=result.total - sum(changes)))
    return HeuristicResult(**vars(result), round_costs=history)
