"""Solver for the relaxed delivery-selection problem in which synthesis
intervals may cross: a desired view may pick any transmitted source pair
(l, r) with l < v < r and r - l <= D, even when other transmitted views
lie strictly between l and r.

The dynamic program sweeps the view columns of each segment keeping, per
column, the set of reachable states.  A state records which views in the
trailing window are transmitted together with the synthesis users each
has accumulated, plus the views promised as future right sources.  A
transmitted view retires - its full delivery tree is priced - once no
later view can select it any more, so accumulated state values telescope
to the true per-arc cost of the assembled selection.  Delivery trees are
int bitmasks from ``cost.view_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import evaluate_cost, view_masks
from .graphs import (DemandMap, ShortestPathTree, check_quality,
                     segment_views, transmitted_views, validate_selection)
from .mmdea import PHI_MODES, SolveResult, SolverError

DEFAULT_STATE_CAP = 200_000


class StateSpaceError(RuntimeError):
    """Reachable state set exceeded the configured cap."""


@dataclass(frozen=True)
class _State:
    # window: tuple of (view, frozenset of user views), transmitted views only
    window: tuple
    promises: tuple
    value: int
    theta: tuple

    def key(self):
        return (self.window, self.promises)


def _retire(view, users, masks, mode):
    """Price a transmitted view once its user set is final."""
    own = masks.get(view, 0)
    if mode == "exact":
        full = own
        for p in users:
            full |= masks[p]
        return full.bit_count()
    # literal / per_view: closed-form marginals against the view's own tree
    return own.bit_count() + sum((masks[p] & ~own).bit_count() for p in users)


def _solve_segment(masks, desired, m, M, D, mode, cap):
    states = {((), ()): _State((), (), 0, ())}
    for k in range(m, M + 1):
        nxt = {}

        def push(window, promises, value, theta):
            # retire the view leaving the usable-left window
            w_retire = k - D + 1
            win = []
            val = value
            for w, users in window:
                if w == w_retire:
                    val += _retire(w, users, masks, mode)
                else:
                    win.append((w, users))
            st = _State(tuple(win), tuple(sorted(promises)), val, theta)
            old = nxt.get(st.key())
            if old is None or st.value < old.value:
                nxt[st.key()] = st

        for st in states.values():
            window = dict(st.window)
            promises = dict(st.promises)
            if k in promises:
                users = promises.pop(k)
                new_theta = st.theta + (((k, (k, k)),) if k in desired else ())
                push(tuple(sorted(window.items())) + ((k, users),),
                     tuple(promises.items()), st.value, new_theta)
                continue
            if k in desired:
                # direct transmission
                push(tuple(sorted(window.items())) + ((k, frozenset()),),
                     tuple(promises.items()), st.value,
                     st.theta + ((k, (k, k)),))
                # synthesis from a transmitted left and a promised right
                for l in window:
                    if l < k - D + 1:
                        continue
                    for r in range(k + 1, min(M, l + D) + 1):
                        w2 = dict(window)
                        w2[l] = w2[l] | {k}
                        p2 = dict(promises)
                        p2[r] = p2.get(r, frozenset()) | {k}
                        push(tuple(sorted(w2.items())), tuple(p2.items()),
                             st.value, st.theta + ((k, (l, r)),))
            else:
                # skip, or transmit speculatively as a future left source
                push(tuple(sorted(window.items())), tuple(promises.items()),
                     st.value, st.theta)
                push(tuple(sorted(window.items())) + ((k, frozenset()),),
                     tuple(promises.items()), st.value, st.theta)
        if len(nxt) > cap:
            raise StateSpaceError(
                f"{len(nxt)} states at column {k} exceed the cap {cap}; "
                "use a smaller D or raise state_cap")
        states = nxt

    best = None
    for st in states.values():
        if st.promises:
            raise SolverError("promise outlived the final column")
        val = st.value + sum(_retire(w, users, masks, mode)
                             for w, users in st.window)
        if best is None or val < best[0]:
            best = (val, dict(st.theta))
    return best


def solve_extended(tree: ShortestPathTree, demand: DemandMap, D: int,
                   mode: str = "exact",
                   state_cap: int = DEFAULT_STATE_CAP) -> SolveResult:
    """Optimal crossing-allowed view selection (exact mode); in literal /
    per_view mode the same sweep is priced with closed-form marginals."""
    check_quality(D)
    if mode not in PHI_MODES:
        raise ValueError(f"phi mode must be one of {PHI_MODES}, got {mode!r}")
    masks = view_masks(tree, demand)
    total = 0
    theta = {}
    per_segment = []
    for seg in segment_views(demand, D):
        desired = frozenset(seg.members)
        value, th = _solve_segment(masks, desired, seg.lo, seg.hi, D, mode,
                                   state_cap)
        total += value
        theta.update(th)
        per_segment.append((seg, value))
    issues = validate_selection(theta, demand, D, crossing_allowed=True)
    if issues:
        raise SolverError("relaxed selection invalid: " + "; ".join(issues))
    evaluated = evaluate_cost(tree, demand, theta, D, crossing_allowed=True)
    if mode == "exact" and evaluated != total:
        raise SolverError(f"exact-mode cost {total} != re-evaluated {evaluated}")
    if evaluated > total:
        raise SolverError(f"{mode} value {total} below true cost {evaluated}")
    return SolveResult(total, theta, transmitted_views(theta), per_segment,
                       evaluated, "emmdea", mode)
