"""Exact solver for the multicast view-selection problem.

Per maximal segment of the desired views, a dynamic program sweeps the
integer view columns m..M.  A column variant d records how view v_k is
used: d = 0 means v_k serves only its own subscribers; d >= 2 means v_k
and the anchor view v_{k-d} are both transmitted and every desired view
strictly between them is synthesized from that pair.  Backtracking over
the stored argmin choices recovers the optimal selection.

Three ways of pricing a synthesis step are supported:

* ``exact``    - the marginal number of new (arc, view) units, measured
                 against the arcs already carrying the anchor view in the
                 predecessor variant.  Sums telescope to the true cost of
                 the reconstructed selection.
* ``literal``  - the closed-form expansion cost ``cost.phi`` against
                 the sources' own subscriber trees only.  May overcharge
                 when the anchor already reaches synthesis clients of an
                 earlier step.
* ``per_view`` - like ``literal`` but summed per intermediate view,
                 double-counting arcs shared between their trees.

Arc sets are int bitmasks from ``cost.view_masks``, built once per sample
and shared read-only, so every price is a popcount: |A - B| is
``(a & ~b).bit_count()``.  The DP runs per segment under
``cost.solve_by_segment``, which certifies the joined selection.

An anchor variant's price splits in two.  The part that is the same for
every predecessor variant j of the anchor column (v_k's own tree, and in
exact mode |joint - m_k|; all of it in the other modes) is worked out once
per variant.  Each finished column keeps only its staircase: its feasible
variants in (value, j) order, each with a larger j than every one before
it.  A column's anchor trees nest as j grows, so a dropped variant has a
strictly larger value and no smaller |joint - tree_j| than an earlier,
kept one, and can never win or tie.  A j-free price takes the head of the
staircase; exact mode walks it adding |joint| - |joint & tree_j| (|joint|
counted once per anchor, so no complement is built) and stops at the
first value that alone exceeds the best price so far.  Equal prices go to
the smallest j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import (INFEASIBLE, SolveResult, SolverError, _check_mode, phi,
                   solve_by_segment, view_masks)
from .graphs import DemandMap, Segment, ShortestPathTree


@dataclass(slots=True)
class Variant:
    value: float
    d: int
    choice: tuple | None      # ("jump", column) or ("anchor", j)
    anchor_tree: int          # mask of arcs carrying this column's view so far


@dataclass
class CostTable:
    """DP lattice of one segment: columns[k][d] holds variant d at column k.
    `cells` counts the variants filled and `prices` the exact-mode
    popcounts against a staircase entry's tree."""
    segment: Segment
    desired: frozenset
    columns: dict = field(default_factory=dict)
    cells: int = 0
    prices: int = 0

    def minimum(self, k):
        return min(v.value for v in self.columns[k].values())

    def best(self, k):
        return min(self.columns[k].items(), key=lambda kv: (kv[1].value, kv[0]))


def solve_segment(tree: ShortestPathTree, demand: DemandMap, seg: Segment,
                  D: int, mode: str = "exact") -> tuple:
    """Fill the DP table for one segment; returns (cost, theta, table)."""
    _check_mode(mode)
    masks = view_masks(tree, demand)
    desired = frozenset(seg.members)
    m, M = seg.lo, seg.hi
    table = CostTable(seg, desired)
    # ranked[k]: column k's staircase of (value, d, anchor_tree), ascending in
    # value and d: built from the deepest d down, a variant joins when no
    # deeper one is cheaper; d is unique per column, so ties go to the smaller d
    t = masks.get(m, 0)
    table.columns[m] = {0: Variant(t.bit_count(), 0, None, t)}
    ranked = {m: [(t.bit_count(), 0, t)]}
    cells, prices = 1, 0
    last = m  # nearest desired view below k

    for k in range(m + 1, M + 1):
        col = {}
        mk = masks.get(k, 0)
        ck = mk.bit_count()
        # variant 0: v_k extends a shorter prefix without synthesizing
        if k in desired:
            best_val, best_col = INFEASIBLE, None
            for kp in range(k - 1, last - 1, -1):  # nearest predecessor wins ties
                r = ranked[kp]
                if r and r[0][0] < best_val:
                    best_val, best_col = r[0][0], kp
            if best_col is None:
                col[0] = Variant(INFEASIBLE, 0, None, mk)
            else:
                col[0] = Variant(best_val + ck, 0, ("jump", best_col), mk)
        else:
            col[0] = Variant(INFEASIBLE, 0, None, 0)
        # variants d >= 2: anchor pair (v_{k-d}, v_k) synthesizes E_d;
        # E_d and its path union grow by view a+1 as d grows
        between, joint = [], 0
        for d in range(2, min(D, k - m) + 1):
            a = k - d
            if a + 1 in desired:
                between.append(a + 1)
                joint |= masks[a + 1]
            cands = ranked[a]
            if not cands or (not between and k not in desired):
                col[d] = Variant(INFEASIBLE, d, None, 0)
                continue
            # a price that is the same for every predecessor variant j
            # goes to the head of the staircase; exact mode adds |joint - tree_j|
            head, j, _ = cands[0]
            if not between:
                price = head + ck
            elif mode == "per_view":
                m_a = masks.get(a, 0)
                price = head + ck + sum(phi(masks[v], m_a, mk) for v in between)
            elif mode == "literal":
                price = head + ck + phi(joint, masks.get(a, 0), mk)
            else:
                # value order: once a stored value alone exceeds the best
                # price, the popcount (>= 0) cannot bring a later one back
                nj = joint.bit_count()
                bv = INFEASIBLE
                for value, dj, tj in cands:
                    if value > bv:
                        break
                    c = value + nj - (joint & tj).bit_count()
                    prices += 1
                    if c < bv:
                        bv, j = c, dj
                price = bv + ck + nj - (joint & mk).bit_count()
            col[d] = Variant(price, d, ("anchor", j), mk | joint)
        cells += len(col)
        table.columns[k] = col
        stair, low = [], INFEASIBLE
        for d, v in reversed(col.items()):
            if v.value <= low and v.value != INFEASIBLE:
                stair.append((v.value, d, v.anchor_tree))
                low = v.value
        ranked[k] = stair[::-1]
        if k in desired:
            last = k
    table.cells, table.prices = cells, prices

    value = table.minimum(M)
    if value == INFEASIBLE:
        raise SolverError(f"segment {seg.lo}..{seg.hi} came out infeasible; "
                          "direct delivery is always feasible, so the table is corrupt")
    theta = backtrack(table)
    return value, theta, table


def backtrack(table: CostTable) -> dict:
    """Recover the optimal selection from the stored argmin choices."""
    seg = table.segment
    theta = {}
    k = seg.hi
    d, var = table.best(k)
    while True:
        if var.choice is None:
            if k != seg.lo:
                raise SolverError(f"dangling choice pointer at column {k}")
            theta[seg.lo] = (seg.lo, seg.lo)
            break
        if var.d == 0:
            if k in table.desired:
                theta[k] = (k, k)
            _, kp = var.choice
            k = kp
            d, var = table.best(k)
        else:
            a = k - var.d
            if k in table.desired:
                theta[k] = (k, k)
            for v in range(a + 1, k):
                if v in table.desired:
                    theta[v] = (a, k)
            _, j = var.choice
            if j not in table.columns[a]:
                raise SolverError(f"dangling variant pointer ({a}, {j})")
            k, d = a, j
            var = table.columns[a][j]
    return theta


def solve_general(tree: ShortestPathTree, demand: DemandMap, D: int,
                  mode: str = "exact") -> SolveResult:
    """Optimal non-crossing view selection over all segments."""
    stats = {"cells": 0, "prices": 0}

    def solve_one(seg, _masks):  # solve_segment reads the same masks
        value, theta, table = solve_segment(tree, demand, seg, D, mode)
        stats["cells"] += table.cells
        stats["prices"] += table.prices
        return value, theta

    return solve_by_segment("mmdea", tree, demand, D, solve_one, mode,
                            stats=stats)


def solve_d2(seg: Segment, tree: ShortestPathTree, demand: DemandMap,
             mode: str = "exact") -> tuple:
    """Two-variant recurrence for D = 2: v_k is unused for synthesis, or
    synthesizes v_{k-1} jointly with v_{k-2}.  The general DP at D = 2
    fills exactly these variants (anchor depth 2)."""
    return solve_segment(tree, demand, seg, 2, mode)[:2]


def solve_d3(seg: Segment, tree: ShortestPathTree, demand: DemandMap,
             mode: str = "exact") -> tuple:
    """Three-variant recurrence for D = 3: the anchor sits one or two
    views below v_k; the two-view middle set is priced jointly.  The
    general DP at D = 3 fills exactly these variants (anchor depths 2, 3)."""
    return solve_segment(tree, demand, seg, 3, mode)[:2]
