"""Ground-truth baselines: direct delivery (OMDS) and exhaustive
minimizers for both the non-crossing and the relaxed problem.

The non-crossing search space collapses to transmitted sets: a valid
non-crossing selection is exactly a set F of transmitted views containing
both segment boundaries with consecutive gaps <= D, where every desired
view outside F maps to its enclosing consecutive pair in F.  The oracle
enumerates F directly and never reuses the solvers' reasoning: each
enumeration runs per segment under ``cost.solve_by_segment``, which holds
no search reasoning, only the segment loop, its masks and the certificate.
"""

from __future__ import annotations

import itertools

from .cost import Instance, SolveResult, cost_of_parts, solve_by_segment
from .graphs import Segment, identity_selection, transmitted_views

MMDS_SPAN_GUARD = 22
EMMDS_PRODUCT_GUARD = 10 ** 7


class OracleGuardError(ValueError):
    """Instance too large for exhaustive enumeration."""


def omds(inst: Instance) -> SolveResult:
    """Direct multicast of every desired view, no synthesis."""
    theta = identity_selection(inst.demand)
    cost = cost_of_parts(inst.masks, theta)
    return SolveResult(cost, theta, transmitted_views(theta), [], cost, "omds")


def _theta_for_fset(fset, members):
    theta = {}
    for v in members:
        if v in fset:
            theta[v] = (v, v)
        else:
            left = max(f for f in fset if f < v)
            right = min(f for f in fset if f > v)
            theta[v] = (left, right)
    return theta


def brute_force_mmds(inst: Instance, D: int) -> SolveResult:
    """Exhaustive optimum of the non-crossing problem via transmitted sets."""
    def solve_one(seg, masks):
        if seg.hi - seg.lo > MMDS_SPAN_GUARD:
            raise OracleGuardError(
                f"segment span {seg.hi - seg.lo} exceeds the enumeration "
                f"guard ({MMDS_SPAN_GUARD})")
        interior = range(seg.lo + 1, seg.hi)
        best = None
        for picks in itertools.product((False, True), repeat=len(interior)):
            fset = [seg.lo] + [v for v, p in zip(interior, picks) if p] + [seg.hi]
            if any(b - a > D for a, b in zip(fset, fset[1:])):
                continue
            cand = _theta_for_fset(set(fset), seg.members)
            cost = cost_of_parts(masks, cand)
            if best is None or cost < best[0]:
                best = (cost, cand)
        return best

    return solve_by_segment("oracle", inst, D, solve_one)


def selection_options(v: int, seg: Segment, D: int) -> list:
    """All pairs view v may select inside its segment: itself, or a strictly
    enclosing source pair of width <= D."""
    opts = [(v, v)]
    for left in range(max(seg.lo, v - D + 1), v):
        for right in range(v + 1, min(seg.hi, left + D) + 1):
            opts.append((left, right))
    return opts


def brute_force_emmds(inst: Instance, D: int) -> SolveResult:
    """Exhaustive optimum of the relaxed (crossing allowed) problem."""
    def solve_one(seg, masks):
        options = {v: selection_options(v, seg, D) for v in seg.members}
        size = 1
        for opts in options.values():
            size *= len(opts)
        if size > EMMDS_PRODUCT_GUARD:
            raise OracleGuardError(
                f"assignment space {size} exceeds the enumeration guard "
                f"({EMMDS_PRODUCT_GUARD})")
        best = None
        for combo in itertools.product(*(options[v] for v in seg.members)):
            cand = dict(zip(seg.members, combo))
            consistent = True
            for v, (l, r) in cand.items():
                if l < r:
                    if (l in cand and cand[l] != (l, l)) or \
                       (r in cand and cand[r] != (r, r)):
                        consistent = False
                        break
            if not consistent:
                continue
            cost = cost_of_parts(masks, cand)
            if best is None or cost < best[0]:
                best = (cost, cand)
        return best

    return solve_by_segment("oracle-ext", inst, D, solve_one,
                            crossing_allowed=True)
