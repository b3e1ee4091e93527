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
masks), since a non-crossing selection is a crossing-allowed one.  After
column k a state is dropped when its value plus the larger of its
promises' retire prices and h[k] exceeds that bound.  h[k] bounds the
views transmitted above k: each desired p > k needs, on every arc of its
tree, a right source r with p <= r <= p+D-1, and the least such stabbing
set is found on every arc at once, greedily from the top, with bitmasks.
The literal and per_view prices need not telescope, so those modes prune
nothing.  ``SolveResult.stats`` counts ``states`` kept (summed over
columns), the ``peak`` column and the states ``pruned``.

A segment is refused (``StateSpaceError``) past ``state_cap`` kept states
in one column or ten times that summed over its columns.  The sweep runs
per segment under ``cost.solve_by_segment``, which certifies the result.
"""

from __future__ import annotations

from functools import cache, partial

from .cost import SolveResult, SolverError, solve_by_segment
from .graphs import DemandMap, ShortestPathTree
from .mmdea import solve_segment

DEFAULT_STATE_CAP = 200_000


class StateSpaceError(RuntimeError):
    """Reachable state set exceeded the configured cap."""


def _retire(masks, mode, entry):
    """Price a transmitted view's delivery tree for its users so far (a
    view bitmask); ``entry`` is its ``(view, users)`` pair."""
    view, users = entry
    own = masks.get(view, 0)
    full, marginal = own, own.bit_count()
    while users:
        low = users & -users
        users ^= low
        user = masks[low.bit_length() - 1]
        full |= user
        marginal += (user & ~own).bit_count()
    # literal / per_view: closed-form marginals against the view's own tree
    return full.bit_count() if mode == "exact" else marginal


def _promise(promises, r, bit):
    """Add user bit ``bit`` to the promise for ``r``, keeping ``r`` order."""
    for i, (q, users) in enumerate(promises):
        if q == r:
            return promises[:i] + ((r, users | bit),) + promises[i + 1:]
        if q > r:
            return promises[:i] + ((r, bit),) + promises[i:]
    return promises + ((r, bit),)


def _suffix_bounds(masks, m, M, D):
    """h[k] for k in m-1..M: a lower bound on the cost of the views
    transmitted above k.  Each desired p > k needs, on every arc of its
    tree, a transmitted view r with p <= r <= p+D-1; choosing from the top,
    p stabs the arcs that no point in p+1..p+D-1 already covers, which is
    the least such set on every arc at once."""
    pts, h, total = {}, {M: 0}, 0
    for p in range(M, m - 1, -1):
        covered = 0
        for q in range(p + 1, min(p + D, M + 1)):
            covered |= pts[q]
        pts[p] = masks.get(p, 0) & ~covered
        total += pts[p].bit_count()
        h[p - 1] = total
    return h


def _solve_segment(masks, desired, m, M, D, mode, cap, ub, stats):
    retire = cache(partial(_retire, masks, mode))
    promise = cache(_promise)
    # the retire prices of a promise tuple's entries, summed
    priced = cache(lambda promises: sum(map(retire, promises)))
    h = _suffix_bounds(masks, m, M, D) if ub is not None else None
    # a state's value counts its window entries at their current retire
    # prices, so a view leaving the window changes no value
    states = {((), ()): (0, None)}
    swept = 0
    for k in range(m, M + 1):
        nxt = {}
        bit = 1 << k

        def push(window, promises, value, back):
            # the view leaving the usable-left window retires
            if window and window[0][0] == k - D + 1:
                window = window[1:]
            key = (window, promises)
            old = nxt.get(key)
            # equal values go to the smaller chain: picks compared from
            # the first column on, so no sweep order decides a tie
            if old is None or value < old[0] or \
                    value == old[0] and back < old[1]:
                nxt[key] = (value, back)

        for (window, promises), (value, back) in states.items():
            if promises and promises[0][0] == k:
                push(window + (promises[0],), promises[1:],
                     value + retire(promises[0]),
                     (back, (k, (k, k))) if k in desired else back)
            elif k in desired:
                # direct transmission
                push(window + ((k, 0),), promises, value + retire((k, 0)),
                     (back, (k, (k, k))))
                # synthesis from a transmitted left and a promised right
                for i, entry in enumerate(window):
                    l, users = entry
                    grown = (l, users | bit)
                    w2 = window[:i] + (grown,) + window[i + 1:]
                    v2 = value + retire(grown) - retire(entry)
                    for r in range(k + 1, min(M, l + D) + 1):
                        push(w2, promise(promises, r, bit), v2,
                             (back, (k, (l, r))))
            else:
                # skip, or transmit speculatively as a future left source
                # (an undesired view's own tree is empty: no price yet)
                push(window, promises, value, back)
                push(window + ((k, 0),), promises, value, back)
        if h is not None:
            # a state cannot finish below its value, plus the larger of
            # its promises' current retire prices and h[k] for the views
            # above k; drop it when that exceeds mmdea's optimum
            hk = h[k]
            drop = [key for key, (value, _) in nxt.items()
                    if value + max(priced(key[1]), hk) > ub]
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

    best = None
    for (window, promises), (value, back) in states.items():
        if promises:
            raise SolverError("promise outlived the final column")
        if best is None or (value, back) < best:
            best = (value, back)
    value, back = best
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
    stats = {"states": 0, "peak": 0, "pruned": 0}

    def solve_one(seg, masks):
        # a non-crossing selection is a crossing-allowed one, so mmdea's
        # optimum bounds the sweep; only exact mode prices telescope
        ub = (solve_segment(tree, demand, seg, D, "exact")[0]
              if mode == "exact" else None)
        return _solve_segment(masks, frozenset(seg.members), seg.lo, seg.hi,
                              D, mode, state_cap, ub, stats)

    return solve_by_segment("emmdea", tree, demand, D, solve_one, mode,
                            crossing_allowed=True, stats=stats)
