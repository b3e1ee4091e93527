"""Solver for the relaxed delivery-selection problem in which synthesis
intervals may cross: a desired view may pick any transmitted source pair
(l, r) with l < v < r and r - l <= D, even when other transmitted views
lie strictly between l and r.

The dynamic program sweeps the view columns of each segment keeping, per
column, a dict from state ``(window, promises)`` to its best ``(value,
back)``.  ``window`` holds a ``(view, users)`` pair per transmitted view
in the trailing window, in view order; ``promises`` a ``(r, users)`` pair
per view promised as a future right source, in ``r`` order; ``users`` is
an int with bit ``p`` set for each desired view ``p`` synthesized from
that source.  A transmitted view's retire price is its full delivery tree
for its users so far, memoised per segment on ``(view, users)``.  A
state's value is the retire prices of every view transmitted so far,
window entries included at their current users, so a view leaving the
window (no later view can select it) changes no value and final values
are the true per-arc cost of the assembled selection.  ``back`` is a cons
cell ``(parent_back, (k, (l, r)))``, decoded into theta for the best final
state only.  Delivery trees are ``cost.view_masks`` bitmasks.

Ties: of two states with one key and one value the sweep keeps the
smaller ``back`` (tuple order, which compares picks from the first column
on; every chain in a column has the same length), and of final states with
one value the smaller chain wins.  So theta is the lexicographically
smallest optimal selection, whatever the sweep's order or pruning.

In exact mode the sweep is a branch-and-bound.  Its upper bound is
mmdea's optimum for the segment (``mmdea.solve_segment`` on the same
masks), since a non-crossing selection is a crossing-allowed one.  h[k]
bounds the views transmitted above k: each desired p > k needs, on every
arc of its tree, a right source r with p <= r <= p+D-1, and the least such
stabbing set is found on every arc at once, greedily from the top, with
bitmasks.  A child of column k valued above the bound less h[k] is cut
when pushed.  After the column a state with promises is pruned when its
value, its promised views' delivery trees so far and the points the
greedy adds where those trees stab nothing exceed the bound.  Literal and
per_view prices need not telescope, so those modes prune nothing.
``SolveResult.stats`` counts ``states`` kept (summed over columns), the
``peak`` column, the children ``cut`` and the states ``pruned``.

A segment is refused (``StateSpaceError``) past ``state_cap`` kept states
in one column or ten times that summed over its columns.  The sweep runs
per segment under ``cost.solve_by_segment``, which certifies the result.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate
from math import inf

from .cost import SolveResult, SolverError, solve_by_segment
from .graphs import DemandMap, ShortestPathTree
from .mmdea import solve_segment

DEFAULT_STATE_CAP = 200_000


class StateSpaceError(RuntimeError):
    """Reachable state set exceeded the configured cap."""


def _delivery(masks, entry):
    """A transmitted view's delivery tree for its users so far (its own tree
    OR theirs, a view bitmask) and its own tree's size plus each user's
    marginal against it; ``entry`` is its ``(view, users)`` pair."""
    view, users = entry
    own = masks.get(view, 0)
    full, marginal = own, own.bit_count()
    while users:
        low = users & -users
        users ^= low
        user = masks[low.bit_length() - 1]
        full |= user
        marginal += (user & ~own).bit_count()
    return full, marginal


def _retire(masks, mode, entry):
    """Price a transmitted view's delivery tree for its users so far."""
    full, marginal = _delivery(masks, entry)
    # literal / per_view: closed-form marginals against the view's own tree
    return full.bit_count() if mode == "exact" else marginal


def _promise(promises, r, bit):
    """Add user bit ``bit`` to the promise for ``r``, keeping ``r`` order."""
    users = dict(promises)
    users[r] = users.get(r, 0) | bit
    return tuple(sorted(users.items()))


def _stab(masks, D, pts, top, k, free):
    """For p = top..k+1, yield how many arcs of p's tree no point in
    p..p+D-1 stabs yet, and stab them at p.  ``pts[q]`` holds the points at
    q > top and takes those at p; ``free[p]`` are arcs stabbed at no cost."""
    for p in range(top, k, -1):
        here = covered = free.get(p, 0)
        for q in range(p + 1, p + D):
            covered |= pts[q]
        new = masks.get(p, 0) & ~covered
        pts[p] = new | here
        yield new.bit_count()


def _suffix_bounds(masks, m, M, D):
    """h[k] for k in m-1..M, a lower bound on the cost of the views
    transmitted above k, and the points it places (a list by view, zero past
    M): stabbing from the top finds the least such set on every arc at once."""
    pts = [0] * (M + D)
    counts = _stab(masks, D, pts, M, m - 1, {})
    return dict(zip(range(M, m - 2, -1), accumulate(counts, initial=0))), pts


def _promised_bound(masks, D, h, pts, k, promises):
    """A lower bound on what a state with ``promises`` still pays above
    column k: its promised views' delivery trees so far, each stabbing its
    arcs at its view, plus the points left to add (``h``'s above the top)."""
    free = {entry[0]: _delivery(masks, entry)[0] for entry in promises}
    top = promises[-1][0]
    return (sum(tree.bit_count() for tree in free.values()) + h[top]
            + sum(_stab(masks, D, list(pts), top, k, free)))


def _solve_segment(masks, desired, m, M, D, mode, cap, ub, stats):
    retire = cache(partial(_retire, masks, mode))
    promise = cache(_promise)
    if ub is not None:
        h, pts = _suffix_bounds(masks, m, M, D)
        bound = cache(partial(_promised_bound, masks, D, h, pts))
    unset = (inf,)  # above every (value, back)
    # a state's value counts its window entries at their current retire
    # prices, so a view leaving the window changes no value
    states = {((), ()): (0, None)}
    swept = cut = 0
    for k in range(m, M + 1):
        nxt = {}
        get = nxt.get
        bit, fresh, direct = 1 << k, (k, 0), (k, (k, k))
        price, wanted = retire(fresh), k in desired
        # no child valued above lim can finish within mmdea's optimum; one
        # that keeps its parent's value, or fulfils a promise its parent's
        # bound already counted, never is
        lim = inf if ub is None else ub - h[k]
        # equal values go to the smaller chain: picks compared from the
        # first column on, so no sweep order decides a tie
        for (window, promises), (value, back) in states.items():
            # the view leaving the usable-left window retires
            off = 1 if window and window[0][0] == k - D + 1 else 0
            kept = window[off:]
            if promises and promises[0][0] == k:
                key = (kept + (promises[0],), promises[1:])
                child = (value + retire(promises[0]),
                         (back, direct) if wanted else back)
                if child < get(key, unset):
                    nxt[key] = child
            elif wanted:
                # direct transmission
                if value + price > lim:
                    cut += 1
                else:
                    key = (kept + (fresh,), promises)
                    child = (value + price, (back, direct))
                    if child < get(key, unset):
                        nxt[key] = child
                # synthesis from a transmitted left and a promised right
                for i, entry in enumerate(window):
                    l, users = entry
                    grown = (l, users | bit)
                    v2 = value + retire(grown) - retire(entry)
                    rights = range(k + 1, min(M, l + D) + 1)
                    if v2 > lim:
                        cut += len(rights)
                        continue
                    j = i - off  # grown's place in kept; -1 once it retires
                    w2 = kept[:j] + (grown,) + kept[j + 1:] if j >= 0 else kept
                    for r in rights:
                        key = (w2, promise(promises, r, bit))
                        child = (v2, (back, (k, (l, r))))
                        if child < get(key, unset):
                            nxt[key] = child
            else:
                # skip, or transmit speculatively as a future left source
                # (an undesired view's own tree is empty: no price yet)
                child = (value, back)
                for key in ((kept, promises), (kept + (fresh,), promises)):
                    if child < get(key, unset):
                        nxt[key] = child
        if ub is not None:
            # a state cannot finish below its value plus its promises'
            # bound; drop it when that exceeds mmdea's optimum
            drop = [key for key, (value, _) in nxt.items()
                    if key[1] and value + bound(k, key[1]) > ub]
            for key in drop:
                del nxt[key]
            stats["pruned"] += len(drop)
        swept += len(nxt)
        stats["peak"] = max(stats["peak"], len(nxt))
        if len(nxt) > cap or swept > 10 * cap:
            raise StateSpaceError(
                f"{len(nxt)} states at column {k} ({swept} since column {m}) "
                f"exceed the cap {cap} ({10 * cap} per segment); "
                "use a smaller D or raise state_cap")
        states = nxt
    stats["states"] += swept
    stats["cut"] += cut

    if not states:
        raise SolverError(f"every state of segment {m}..{M} was pruned: "
                          "its lower bound exceeds an optimum, so it is unsound")
    if any(promises for _, promises in states):
        raise SolverError("promise outlived the final column")
    value, back = min(states.values())
    picks = []
    while back is not None:
        back, pick = back
        picks.append(pick)
    return value, dict(reversed(picks))


def solve_extended(tree: ShortestPathTree, demand: DemandMap, D: int,
                   mode: str = "exact",
                   state_cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Optimal crossing-allowed view selection (exact mode); in literal /
    per_view mode the same sweep is priced with closed-form marginals."""
    stats = {"states": 0, "peak": 0, "pruned": 0, "cut": 0}

    def solve_one(seg, masks):
        # a non-crossing selection is a crossing-allowed one, so mmdea's
        # optimum bounds the sweep; only exact mode prices telescope
        ub = (solve_segment(tree, demand, seg, D, "exact")[0]
              if mode == "exact" else None)
        return _solve_segment(masks, frozenset(seg.members), seg.lo, seg.hi,
                              D, mode, state_cap, ub, stats)

    return solve_by_segment("emmdea", tree, demand, D, solve_one, mode,
                            crossing_allowed=True, stats=stats)
