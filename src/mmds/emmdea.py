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
that source.  A transmitted view retires - its full delivery tree is
priced, memoised per segment on ``(view, users)`` - once no later view can
select it, which makes it the window's first entry; so state values
telescope to the true per-arc cost of the assembled selection.  ``back``
is a cons cell ``(parent_back, (k, (l, r)))``, decoded into theta for the
best final state only.  Delivery trees are ``cost.view_masks`` bitmasks.
A segment is refused (``StateSpaceError``) past ``state_cap`` states in
one column or ten times that summed over its columns.  The sweep runs
per segment under ``cost.solve_by_segment``, which certifies the result.
"""

from __future__ import annotations

from functools import cache, partial

from .cost import SolveResult, SolverError, solve_by_segment
from .graphs import DemandMap, ShortestPathTree

DEFAULT_STATE_CAP = 200_000


class StateSpaceError(RuntimeError):
    """Reachable state set exceeded the configured cap."""


def _retire(masks, mode, entry):
    """Price a transmitted view once its user set (a view bitmask) is final;
    ``entry`` is its ``(view, users)`` window pair."""
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


def _solve_segment(masks, desired, m, M, D, mode, cap):
    retire = cache(partial(_retire, masks, mode))
    promise = cache(_promise)
    states = {((), ()): (0, None)}
    swept = 0
    for k in range(m, M + 1):
        nxt = {}
        bit = 1 << k

        def push(window, promises, value, back):
            # retire the view leaving the usable-left window
            if window and window[0][0] == k - D + 1:
                value += retire(window[0])
                window = window[1:]
            key = (window, promises)
            old = nxt.get(key)
            if old is None or value < old[0]:
                nxt[key] = (value, back)

        for (window, promises), (value, back) in states.items():
            if promises and promises[0][0] == k:
                push(window + (promises[0],), promises[1:], value,
                     (back, (k, (k, k))) if k in desired else back)
            elif k in desired:
                # direct transmission
                push(window + ((k, 0),), promises, value, (back, (k, (k, k))))
                # synthesis from a transmitted left and a promised right
                for i, (l, users) in enumerate(window):
                    w2 = window[:i] + ((l, users | bit),) + window[i + 1:]
                    for r in range(k + 1, min(M, l + D) + 1):
                        push(w2, promise(promises, r, bit), value,
                             (back, (k, (l, r))))
            else:
                # skip, or transmit speculatively as a future left source
                push(window, promises, value, back)
                push(window + ((k, 0),), promises, value, back)
        swept += len(nxt)
        if len(nxt) > cap or swept > 10 * cap:
            raise StateSpaceError(
                f"{len(nxt)} states at column {k} ({swept} since column {m}) "
                f"exceed the cap {cap} ({10 * cap} per segment); "
                "use a smaller D or raise state_cap")
        states = nxt

    best = None
    for (window, promises), (value, back) in states.items():
        if promises:
            raise SolverError("promise outlived the final column")
        value += sum(retire(entry) for entry in window)
        if best is None or value < best[0]:
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
    return solve_by_segment(
        "emmdea", tree, demand, D,
        lambda seg, masks: _solve_segment(
            masks, frozenset(seg.members), seg.lo, seg.hi, D, mode, state_cap),
        mode, crossing_allowed=True)
