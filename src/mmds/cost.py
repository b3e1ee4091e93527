"""Bandwidth accounting on view bitmasks: each desired view's view tree,
the closed-form synthesis price `phi`, a selection's cost and its per-arc
view loads.

Arc sets are int bitmasks over the tree's arc numbering, built from
`ShortestPathTree.path_mask` and decoded by `tree.arcs_of` only where a
function returns arcs.  Every tree numbers its arcs by one rule, (depth,
`repr`) from the root over its whole parent map, so masks may leave
unused the bits of arcs off the terminals' paths.

Bandwidth is a count of (arc, view) pairs.  INFEASIBLE is an absorbing
sentinel: INFEASIBLE + x == INFEASIBLE and min(INFEASIBLE, x) == x.

An `Instance` is one sample: its view masks, built once, read-only, for
all its solvers, oracles and certificates, and mmdea's segment results.
Each solver and oracle takes it and runs its per-segment search under
`solve_by_segment`, which certifies the joined selection; a solver module
holds only its search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf as INFEASIBLE  # noqa: N811  (absorbing sentinel)
from types import MappingProxyType

from .graphs import (DemandMap, ShortestPathTree, segment_views,
                     transmitted_views, validate_selection)

PHI_MODES = ("literal", "exact", "per_view")


class SolverError(RuntimeError):
    """Internal inconsistency: a solver produced a selection it cannot
    defend (validation failure or cost mismatch)."""


@dataclass
class SolveResult:
    total: int
    theta: dict
    transmitted: tuple
    per_segment: list
    evaluated: int
    solver: str
    phi_mode: str | None = None
    stats: dict = field(default_factory=dict)  # work counters; no CSV column


def view_masks(tree: ShortestPathTree, demand: DemandMap) -> MappingProxyType:
    """Map each desired view to its view tree as an int bitmask, the OR of
    its subscribers' `tree.path_mask`, so that |A - B| is
    `(a & ~b).bit_count()`.  The mapping is read-only."""
    path_mask = tree.path_mask
    out = {}
    for t, v in demand.demand.items():
        out[v] = out.get(v, 0) | path_mask[t]
    return MappingProxyType(out)


class Instance:
    """One sample, whose tree and demand are never changed after they are
    built: `masks`, their `view_masks`, built once, and `solved`, mmdea's
    segment results keyed (lo, hi, members, D, mode), which emmdea's bound
    reads, so that a sample's mmdea row and emmdea fill one DP table."""

    def __init__(self, tree: ShortestPathTree, demand: DemandMap):
        self.tree, self.demand = tree, demand
        self.masks = view_masks(tree, demand)
        self.solved = {}


def view_trees(tree: ShortestPathTree, demand: DemandMap) -> dict:
    """Map each desired view to the union of its subscribers' root paths."""
    return {v: tree.arcs_of(m) for v, m in view_masks(tree, demand).items()}


def phi(mid: int, left: int, right: int) -> int:
    """Closed-form synthesis cost on masks, |mid - left| + |mid - right|:
    the arcs of `mid` that each source's tree misses, counted per source."""
    return (mid & ~left).bit_count() + (mid & ~right).bit_count()


def _delivery_masks(masks: dict, theta) -> dict:
    """Each transmitted view's delivery tree as a mask: the union of the
    view trees (`masks`, from `view_masks`) of the desired views that
    receive it.  Only desired views in theta participate."""
    trees = {}
    for v, mask in masks.items():
        if v in theta:
            for w in set(theta[v]):
                trees[w] = trees.get(w, 0) | mask
    return trees


def edge_view_loads(tree: ShortestPathTree, demand: DemandMap, theta) -> dict:
    """Views carried on each arc: the union of need-sets of all terminals
    whose root path crosses the arc.  Arcs come in bit order."""
    loads = {}
    for w, mask in _delivery_masks(view_masks(tree, demand), theta).items():
        for arc in tree.arcs_of(mask):
            loads.setdefault(arc, set()).add(w)
    return {a: frozenset(loads[a]) for a in tree.arc_list if a in loads}


def evaluate_cost(tree: ShortestPathTree, demand: DemandMap, theta) -> int:
    """Total bandwidth of a view selection, which it does not validate: the
    sum over arcs of the number of distinct views carried."""
    return cost_of_parts(view_masks(tree, demand), theta)


def cost_of_parts(masks: dict, theta) -> int:
    """Bandwidth of a (possibly partial) selection on `masks`, the
    `view_masks` of its instance, without validation.

    Only desired views in theta participate.  Equals the per-arc union
    sum because each transmitted view contributes one unit on every arc
    of the union of its receivers' paths.
    """
    return sum(m.bit_count() for m in _delivery_masks(masks, theta).values())


def _check_mode(mode):
    if mode not in PHI_MODES:
        raise ValueError(f"phi mode must be one of {PHI_MODES}, got {mode!r}")
    return mode


def solve_by_segment(name: str, inst: Instance, D: int, solve_one,
                     mode: str | None = None, crossing_allowed: bool = False,
                     stats: dict | None = None) -> SolveResult:
    """Run `solve_one(seg, inst.masks) -> (value, theta)` on every maximal
    segment of the desired views and certify the joined selection as
    solver `name`'s result: it must be valid for D, and its total must
    equal its `cost_of_parts` re-cost, which unions each transmitted view's
    receivers and shares no solver's telescoped prices; literal and
    per_view prices may exceed it, but none may fall below it."""
    if mode is not None:
        _check_mode(mode)
    masks = inst.masks
    total, theta, per_segment = 0, {}, []
    for seg in segment_views(inst.demand, D):
        value, th = solve_one(seg, masks)
        total += value
        theta.update(th)
        per_segment.append((seg, value))
    issues = validate_selection(theta, inst.demand, D, crossing_allowed)
    if issues:
        raise SolverError(f"{name} selection is invalid: " + "; ".join(issues))
    evaluated = cost_of_parts(masks, theta)
    if total < evaluated:
        raise SolverError(f"{name} value {total} below true cost {evaluated}")
    if total != evaluated and mode not in ("literal", "per_view"):
        raise SolverError(f"{name} value {total} != re-evaluated cost {evaluated}")
    return SolveResult(total, theta, transmitted_views(theta), per_segment,
                       evaluated, name, mode, {} if stats is None else stats)


def two_view_fraction(result: SolveResult, demand: DemandMap) -> float:
    """Fraction of terminals that receive two distinct views."""
    if not demand.demand:
        return 0.0
    theta = result.theta
    two = sum(n for v, n in demand.view_counts.items()
              if theta[v][0] != theta[v][1])
    return two / len(demand.demand)
