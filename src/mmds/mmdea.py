"""Exact solver for the multicast view-selection problem.

Per maximal segment of the desired views, a dynamic program sweeps the
integer view columns m..M.  A column variant d records how view v_k is
used: d = 0 means v_k serves only its own subscribers; d >= 2 means v_k
and the anchor view v_{k-d} are both transmitted and every desired view
strictly between them is synthesized from that pair.  A variant d >= 2
with no desired view between its anchors is never filled: it synthesizes
nothing, so it is variant 0's jump from v_{k-d} at a price no lower, and
variant 0 wins every tie.  Each filled cell links to the cell it was
priced from, so the optimal selection is read off the link chain of the
last column's cheapest cell.

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
per variant.  Only a column's staircase is read later: its feasible
variants in (value, d) order, each with a larger d than every one before
it.  A column is filled from its deepest d down to 2, then d = 0; a
variant joins the staircase, and gets its anchor tree mask(k) | joint,
when its price is at most `low`, the smallest price of a deeper variant.
Every other cell is DROPPED.  The anchor trees nest as d grows, so a
variant off the staircase can never win or tie.  No price falls below
head + |m_k| + |joint - m_k| (head: the staircase's smallest value), so a
variant whose bound exceeds `low` is cut unpriced, in every mode.  Exact
mode walks the staircase adding |joint| - |joint & tree_j| and stops at
the first value that alone reaches the best price so far, which starts at
the price that would tie `low`.  Equal prices go to the smallest j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import (INFEASIBLE, SolveResult, SolverError, _check_mode, phi,
                   solve_by_segment, view_masks)
from .graphs import DemandMap, Segment, ShortestPathTree

# the one cell of every variant off its column's staircase
DROPPED = (INFEASIBLE, None, 0)
_solved = (None, {})  # (masks, results) of the latest view_masks build


@dataclass
class CostTable:
    """DP lattice of one segment: columns[k][d] is cell (value, link,
    joint) of variant d at column k.  link is the cell's selection as a
    back chain (prev, k, a): a is the anchor column k - d, None for d = 0;
    prev is the link of the cell it was priced from, a variant of column a
    or, for d = 0, the cheapest cell of the column jumped from.  link is
    None at the first column and in a DROPPED cell, so every chain ends at
    the first column.  joint is the union of the view trees strictly
    between the anchors (0 for d = 0), so the cell's anchor tree is
    mask(k) | joint.  A cell off its column's staircase is
    DROPPED, so every variant keeps one cell.  `cells` counts those cells,
    DROPPED ones included, `prices` the exact-mode popcounts against a
    staircase entry's tree and `cut` the variants the lower bound left
    unpriced."""
    segment: Segment
    desired: frozenset
    columns: dict = field(default_factory=dict)
    cells: int = 0
    prices: int = 0
    cut: int = 0

    def minimum(self, k):
        return min(cell[0] for cell in self.columns[k].values())


def solve_segment(tree: ShortestPathTree, demand: DemandMap, seg: Segment,
                  D: int, mode: str = "exact") -> tuple:
    """Fill the DP table for one segment; returns (cost, theta, table).  The
    results are kept for the latest `view_masks` build, so a call with the
    tree and demand objects of the latest call, and the same segment, D and
    mode, returns the kept result, which callers only read: a sample's
    mmdea row and emmdea's bound fill one table."""
    global _solved
    _check_mode(mode)
    masks = view_masks(tree, demand)
    if _solved[0] is not masks:
        _solved = (masks, {})
    key = (seg.lo, seg.hi, seg.members, D, mode)
    if key in _solved[1]:
        return _solved[1][key]
    desired = frozenset(seg.members)
    m, M = seg.lo, seg.hi
    table = CostTable(seg, desired)
    # ranked[k]: column k's staircase of (value, link, anchor tree), ascending
    # in value and d: filled from the deepest d down, a cell joins when no
    # deeper one is cheaper; d is unique per column, so ties go to the smaller d
    t = masks.get(m, 0)
    table.columns[m] = {0: (t.bit_count(), None, 0)}
    ranked = {m: [(t.bit_count(), None, t)]}
    cells, prices, cut = 1, 0, 0
    last = m  # nearest desired view below k

    for k in range(m + 1, M + 1):
        mk = masks.get(k, 0)
        ck = mk.bit_count()
        # joints[d - 2]: union of the desired views' trees strictly between
        # k - d and k, growing by view a + 1 as d grows
        joints, joint = [], 0
        for a in range(k - 2, max(m, k - D) - 1, -1):
            if a + 1 in desired:
                joint |= masks[a + 1]
            joints.append(joint)
        col, stair, low = {}, [], INFEASIBLE
        for d in range(len(joints) + 1, 1, -1):
            col[d] = DROPPED  # until the variant joins the staircase
            a = k - d
            cands = ranked[a]
            if not cands or a >= last:  # a >= last: variant 0's jump from a
                continue
            # a price that is the same for every predecessor variant j goes
            # to the head of the staircase; exact mode adds |joint - tree_j|
            head, link, _ = cands[0]
            joint = joints[d - 2]
            if (head + ck > low
                    or head + (base := ck + (nj := joint.bit_count())
                               - (joint & mk).bit_count()) > low):
                # |joint - tree_j| >= 0, so the price would exceed low too
                cut += 1
                continue
            elif mode == "exact":
                # value order: once a stored value alone reaches the best
                # price, or the price that would tie low, no popcount (>= 0)
                # can undercut it
                bv = low - base + 1
                for value, lj, tj in cands:
                    if value >= bv:
                        break
                    c = value + nj - (joint & tj).bit_count()
                    prices += 1
                    if c < bv:
                        bv, link = c, lj
                price = bv + base
            elif mode == "literal":
                price = head + ck + phi(joint, masks.get(a, 0), mk)
            else:
                m_a = masks.get(a, 0)
                price = head + ck + sum(phi(masks[v], m_a, mk)
                                        for v in range(a + 1, last + 1)
                                        if v in desired)
            if price <= low:  # only a staircase cell is ever read
                link = (link, k, a)
                col[d] = (price, link, joint)
                stair.append((price, link, mk | joint))
                low = price
        # variant 0: v_k extends a shorter prefix without synthesizing
        best_val, link = INFEASIBLE, None
        if k in desired:
            for kp in range(k - 1, last - 1, -1):  # nearest predecessor wins ties
                r = ranked[kp]
                if r and r[0][0] < best_val:
                    best_val, link, _ = r[0]
        price, col[0] = best_val + ck, DROPPED
        if price <= low and price != INFEASIBLE:
            link = (link, k, None)
            col[0] = (price, link, 0)
            stair.append((price, link, mk))
        cells += len(col)
        table.columns[k] = col
        ranked[k] = stair[::-1]
        if k in desired:
            last = k
    table.cells, table.prices, table.cut = cells, prices, cut

    if not ranked[M]:
        raise SolverError(f"segment {seg.lo}..{seg.hi} came out infeasible; "
                          "direct delivery is always feasible, so the table is corrupt")
    value, link, _ = ranked[M][0]
    theta = {}
    while link is not None:
        link, k, a = link
        if k in desired:
            theta[k] = (k, k)
        if a is not None:
            for v in range(a + 1, k):
                if v in desired:
                    theta[v] = (a, k)
    theta[m] = (m, m)
    solved = _solved[1][key] = value, theta, table
    return solved


def solve_general(tree: ShortestPathTree, demand: DemandMap, D: int,
                  mode: str = "exact") -> SolveResult:
    """Optimal non-crossing view selection over all segments."""
    stats = {"cells": 0, "prices": 0, "cut": 0}

    def solve_one(seg, _masks):  # solve_segment reads the same masks
        value, theta, table = solve_segment(tree, demand, seg, D, mode)
        stats["cells"] += table.cells
        stats["prices"] += table.prices
        stats["cut"] += table.cut
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
