"""Solver for the relaxed delivery-selection problem in which synthesis
intervals may cross: a desired view may pick any transmitted source pair
(l, r) with l < v < r and r - l <= D, even when other transmitted views
lie strictly between l and r.

The dynamic program sweeps the view columns of each segment keeping, per
column, the best ``(value, back)`` of each state ``(window, promises)``,
grouped by ``promises`` (a dict of dicts by window), so a promise set is
built, hashed and bounded once per column, not once per state.  ``window``
holds a ``(view, users)`` pair per transmitted view in the trailing
window, in view order; ``promises`` a ``(r, users)`` pair per view
promised as a future right source, in ``r`` order; ``users`` is an int
with bit ``p`` set for each desired view ``p`` synthesized from that
source.  An undesired view that is not promised is always transmitted, as
a possible left source: its own tree is empty, so this costs nothing until
a user joins, and once it leaves the window unused its state is the one
skipping it would give, so the sweep never branches on skipping it.  A
transmitted view's retire price is its full delivery tree for its users
so far.  One memo per segment maps each ``(view, users)`` entry to its
tree and price, and is the sweep's only pricing path: ``(view, 0)`` is
the view's own tree, and any other entry the entry without its newest
user k (the one it grew from, as users join in column order) grown in
O(1): the tree gains k's, and the literal / per_view price k's marginal
against the view's own tree.  A state's value is the retire prices of
every view transmitted so far, window entries included at their current
users, so a view leaving the window (no later view can select it) changes
no value and final values are the true per-arc cost of the assembled
selection.  ``back`` is a cons cell ``(parent_back, (k, (l, r)))``,
decoded into theta for the best final state only.  Delivery trees are
``cost.view_masks`` bitmasks.

Ties: of two states with one key and one value the sweep keeps the
smaller ``back`` (tuple order, which compares picks from the first column
on; every chain in a column has the same length), and of final states with
one value the smaller chain wins.  So theta is the lexicographically
smallest optimal selection, whatever the sweep's order or pruning.

Folds: at a desired column k that fulfils none of a promise set's
promises, a window of the set is folded when another of its windows has a
smaller ``(value, back)`` and, leaving out both windows' entries of the
retiring view ``k - D + 1``, holds the same entries (the two are twins) or
the same entries but for one, in which it holds a strict superset of the
users.  A folded window pushes just the child its retiring entry makes (k
from that view and k + 1, kept under the window without the entry).  Each
of its other children has a counterpart from the cheaper window with the
same views and promise set, every delivery tree a superset and a smaller
``(value, back)``; a larger tree never pays more for a later user (an exact
price is a union's size, a literal or per_view marginal does not depend on
the users so far), so no total, theta or tie changes.  Twins are grouped
first, and only each group's smallest ``(value, back)``, its lead, may
expand; each other member is counted ``merged``.  A twin's other children
have its lead's keys, so these folds keep the states a full expansion
keeps.  Then a lead that another lead dominates in one entry is counted
``dominated`` (the other may be folded too: dominance is transitive); its
children's keys are not the other's, so these folds keep fewer states.

In exact mode the sweep is a branch-and-bound.  Its upper bound is
mmdea's optimum for the segment (``mmdea.solve_segment``, which hands
back the sample's own mmdea result when mmdea ran first), since a
non-crossing selection is a crossing-allowed one.  h[k]
bounds the views transmitted above k: each desired p > k needs, on every
arc of its tree, a right source r with p <= r <= p+D-1, and the least such
stabbing set is found on every arc at once, greedily from the top, with
bitmasks.  A child of column k valued above the bound less h[k] is cut
when pushed.  After the column a state with promises is pruned when its
value, its promised views' delivery trees so far and the points the
greedy adds where those trees stab nothing exceed the bound.  That sum
is at most h[k] plus those trees (per arc the greedy is optimal, and
points placed in advance only lower its count), so the stabbing runs
only for a promise set holding a value above that floor.  Literal and
per_view prices need not telescope, so those modes prune nothing.
``SolveResult.stats`` counts ``states`` kept (summed over columns), the
``peak`` column, the children ``cut``, the states ``pruned``, the twins
``merged``, the leads ``dominated`` and the delivery ``trees`` priced (the
memos' sizes).

A segment is refused (``StateSpaceError``) past ``STATE_CAP`` kept states
in one column or ten times that summed over its columns.  A segment
m..M is swept with D at most M - m + 2: at that width every window
already reaches past M and none starts below m, so a wider D changes
nothing, and the sweep's work is bounded by the segment, not by D.  The
sweep runs per segment under ``cost.solve_by_segment``, which certifies
the result.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf

from .cost import SolveResult, SolverError, solve_by_segment
from .graphs import DemandMap, ShortestPathTree
from .mmdea import solve_segment

STATE_CAP = 200_000


class StateSpaceError(RuntimeError):
    """Reachable state set exceeded the configured cap."""


class _Trees(dict):
    """A segment's memo from each transmitted view's ``(view, users)`` entry
    to its delivery tree and its price, priced when first read: ``(view, 0)``
    as the view's own tree, any other entry as the one without its newest
    user (the entry it grew from) grown by that user."""

    def __init__(self, masks, mode):
        super().__init__()
        self.masks, self.exact = masks, mode == "exact"

    def __missing__(self, entry):
        view, users = entry
        own = self.masks.get(view, 0)
        full, price = own, own.bit_count()
        if users:
            k = users.bit_length() - 1
            full, price = self[view, users ^ 1 << k]
            user = self.masks[k]
            full |= user
            # literal / per_view: closed-form marginals against the own tree
            price = (full.bit_count() if self.exact
                     else price + (user & ~own).bit_count())
        priced = self[entry] = full, price
        return priced


def _stab(masks, D, near, k):
    """For p from the top down to k+1, stab at p the arcs of p's tree that
    no point in p..p+D-1 stabs yet, and list how many, the top first.
    ``near[p - k - 1]`` holds the points at p (at first the arcs stabbed
    there at no cost), and its last D - 1 items those above the top."""
    counts = []
    for i in range(len(near) - D, -1, -1):
        covered = 0
        for points in near[i:i + D]:
            covered |= points
        new = masks.get(k + 1 + i, 0) & ~covered
        near[i] |= new
        counts.append(new.bit_count())
    return counts


def _suffix_bounds(masks, m, M, D):
    """h[k] for k in m-1..M, a lower bound on the cost of the views
    transmitted above k, and the points it places (a list by view, zero past
    M): stabbing from the top finds the least such set on every arc at once."""
    near = [0] * (M - m + D)
    counts = _stab(masks, D, near, m - 1)
    return (dict(zip(range(M, m - 2, -1), accumulate(counts, initial=0))),
            [0] * m + near)


def _promised_bound(trees, D, h, pts, k, promises):
    """A lower bound on what a state with ``promises`` still pays above
    column k: its promised views' delivery trees so far (read from the memo
    ``trees``), each stabbing its arcs at its view, plus the points left to
    add (``h``'s above the top)."""
    top = promises[-1][0]
    near = [0] * (top - k) + pts[top + 1:top + D]
    bound = h[top]
    for entry in promises:
        tree = near[entry[0] - k - 1] = trees[entry][0]
        bound += tree.bit_count()
    return bound + sum(_stab(trees.masks, D, near, k))


def _solve_segment(masks, desired, m, M, D, mode, ub, stats):
    D = min(D, M - m + 2)  # a wider D changes no window: each spans m..M
    trees = _Trees(masks, mode)
    if ub is not None:
        h, pts = _suffix_bounds(masks, m, M, D)
    states = {(): {(): (0, None)}}  # promises -> window -> (value, back)
    swept = cut = pruned = merged = dominated = 0
    for k in range(m, M + 1):
        nxt = {}
        group = nxt.setdefault
        bit, fresh, direct, gone = 1 << k, (k, 0), (k, (k, k)), k - D + 1
        wanted = k in desired
        # each usable left view's picks, one per right source
        lefts = {l: [(k, (l, r)) for r in range(k + 1, min(M, l + D) + 1)]
                 for l in range(gone, k)}
        # no child valued above lim can finish within mmdea's optimum; one
        # that keeps its parent's value, or fulfils a promise its parent's
        # bound already counted, never is
        lim = inf if ub is None else ub - h[k]
        # `put(key, child) > child` where the key holds a larger child (a
        # new key takes the child): equal values go to the smaller chain,
        # picks compared from the first column on, so no sweep order
        # decides a tie
        for promises, windows in states.items():
            due = promises and promises[0][0] == k
            into = group(promises[1:] if due else promises, {})
            put = into.setdefault
            # view k is transmitted: to the users it was promised to, or
            # directly (an undesired view's is free and covers skipping it)
            sent = promises[0] if due else fresh
            price = trees[sent][1]
            items = windows.items()
            if wanted and not due:
                # by right source r = k+1..: the windows of the promise set
                # that adds user k to r, where children synthesized from r go,
                # each set built in one walk over the sorted promises
                # (every promise is above k, so promises[i] is never below r)
                rights, i, n = [], 0, len(promises)
                for r in range(k + 1, min(M, k + D - 1) + 1):
                    if i < n and promises[i][0] == r:
                        key = (promises[:i] + ((r, promises[i][1] | bit),)
                               + promises[i + 1:])
                        i += 1
                    else:
                        key = promises[:i] + ((r, bit),) + promises[i:]
                    rights.append(group(key, {}))
                if len(windows) > 1:
                    # folds (see the module docstring): twins group under
                    # their smallest (value, back), their lead
                    leads, folds = {}, []
                    for window, vb in items:
                        kept = (window[1:] if window and window[0][0] == gone
                                else window)
                        lead = leads.setdefault(kept, (window, vb))
                        if lead[0] is window:
                            continue
                        if vb < lead[1]:  # window leads; the old lead folds
                            leads[kept] = window, vb
                            window, vb = lead
                        folds.append((kept, window, vb))
                    merged += len(folds)
                    if len(leads) > 1:
                        # a lead folds when a cheaper lead is alike but for
                        # one kept entry, where it holds a strict superset
                        # of the users: each lead is filed under each entry
                        # with its users blanked
                        buckets = {}
                        for kept, (_, vb) in leads.items():
                            for j, (view, users) in enumerate(kept):
                                buckets.setdefault(
                                    kept[:j] + (view,) + kept[j + 1:], []
                                ).append((users, vb, kept))
                        for bucket in buckets.values():
                            if len(bucket) == 1:
                                continue
                            for users, vb, kept in bucket:
                                if kept not in leads:
                                    continue  # folded in another entry
                                for u2, vb2, _ in bucket:
                                    if u2 | users == u2 and vb2 < vb:
                                        folds.append((kept, *leads.pop(kept)))
                                        dominated += 1
                                        break
                    # a folded window pushes just the child its retiring
                    # entry makes: k from that view and k + 1
                    for kept, window, (value, back) in folds:
                        if window is kept or not rights:
                            continue  # no retiring entry, or no right source
                        entry = window[0]
                        v2 = (value + trees[gone, entry[1] | bit][1]
                              - trees[entry][1])
                        if v2 > lim:
                            cut += 1
                            continue
                        child = (v2, (back, (k, (gone, k + 1))))
                        if rights[0].setdefault(kept, child) > child:
                            rights[0][kept] = child
                    items = leads.values()
            for window, (value, back) in items:
                # the view leaving the usable-left window retires
                off = 1 if window and window[0][0] == gone else 0
                kept = window[off:]
                if value + price > lim and not due:
                    cut += 1
                else:
                    key = kept + (sent,)
                    child = (value + price, (back, direct) if wanted else back)
                    if put(key, child) > child:
                        into[key] = child
                if due or not wanted:
                    continue
                # synthesis from a transmitted left and a promised right
                for i, entry in enumerate(window):
                    l, users = entry
                    grown = (l, users | bit)
                    v2 = value + trees[grown][1] - trees[entry][1]
                    if v2 > lim:
                        cut += len(lefts[l])
                        continue
                    j = i - off  # grown's place in kept; -1 once it retires
                    w2 = kept[:j] + (grown,) + kept[j + 1:] if j >= 0 else kept
                    for pick, right in zip(lefts[l], rights):
                        child = (v2, (back, pick))
                        if right.setdefault(w2, child) > child:
                            right[w2] = child
        for promises, windows in list(nxt.items()):
            if promises and windows and ub is not None:
                # a state cannot finish below its value plus its promises'
                # bound, which is at most h[k] plus their trees (an exact
                # price is its tree's size); drop it when that exceeds
                # mmdea's optimum
                floor = lim
                for entry in promises:
                    floor -= trees[entry][1]
                for value, _ in windows.values():
                    if value > floor:
                        break
                else:
                    continue  # no value here can pass the bound: no stabbing
                most = ub - _promised_bound(trees, D, h, pts, k, promises)
                for window in [w for w, (v, _) in windows.items() if v > most]:
                    del windows[window]
                    pruned += 1
            if not windows:
                del nxt[promises]
        count = sum(map(len, nxt.values()))
        swept += count
        stats["peak"] = max(stats["peak"], count)
        if count > STATE_CAP or swept > 10 * STATE_CAP:
            raise StateSpaceError(
                f"{count} states at column {k} ({swept} since column {m}) "
                f"exceed the cap {STATE_CAP} ({10 * STATE_CAP} per segment); "
                "use a smaller D")
        states = nxt
    stats["states"] += swept
    stats["cut"] += cut
    stats["pruned"] += pruned
    stats["merged"] += merged
    stats["dominated"] += dominated
    stats["trees"] += len(trees)

    if not states:
        raise SolverError(f"every state of segment {m}..{M} was pruned: "
                          "its lower bound exceeds an optimum, so it is unsound")
    if any(states):
        raise SolverError("promise outlived the final column")
    value, back = min(min(windows.values()) for windows in states.values())
    picks = []
    while back is not None:
        back, pick = back
        picks.append(pick)
    return value, dict(reversed(picks))


def solve_extended(tree: ShortestPathTree, demand: DemandMap, D: int,
                   mode: str = "exact") -> SolveResult:
    """Optimal crossing-allowed view selection (exact mode); in literal /
    per_view mode the same sweep is priced with closed-form marginals."""
    stats = {"states": 0, "peak": 0, "pruned": 0, "cut": 0, "merged": 0,
             "dominated": 0, "trees": 0}

    def solve_one(seg, masks):
        # a non-crossing selection is a crossing-allowed one, so mmdea's
        # optimum bounds the sweep; only exact mode prices telescope
        ub = (solve_segment(tree, demand, seg, D, "exact")[0]
              if mode == "exact" else None)
        return _solve_segment(masks, frozenset(seg.members), seg.lo, seg.hi,
                              D, mode, ub, stats)

    return solve_by_segment("emmdea", tree, demand, D, solve_one, mode,
                            crossing_allowed=True, stats=stats)
