import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings

from mmds import (INFEASIBLE, CostTable, DemandDistribution, DemandMap,
                  Instance, ShortestPathTree, brute_force_mmds, evaluate_cost,
                  h_solve, identity_selection, omds, segment_views, solve_d2,
                  solve_d3, solve_general, solve_segment, two_view_fraction,
                  validate_selection)
from mmds import mmdea
from mmds.cost import PHI_MODES, phi, view_masks
from mmds.instances import demo_instance
from mmds.mmdea import DROPPED

from conftest import bundled_instance, random_tree_instance, small_instances

THETA_STAR = {2: (2, 2), 3: (2, 4), 4: (4, 4), 6: (4, 8), 7: (4, 8), 8: (8, 8)}
DEMO_COLUMN_MINIMA = {2: 7, 3: 14, 4: 17, 5: 19, 6: 19, 7: 28, 8: 32}


def chain_with_leaf_terminals(depth, views):
    """Chain of `depth` relay nodes ending in one leaf terminal per view."""
    parents = {}
    prev = 0
    for i in range(1, depth + 1):
        parents[i] = prev
        prev = i
    terms = []
    for j, v in enumerate(views):
        leaf = 100 + j
        parents[leaf] = prev
        terms.append(leaf)
    tree = ShortestPathTree(0, parents, terms)
    demand = DemandMap(dict(zip(terms, views)), max(views))
    return tree, demand


class TestDemoGolden:
    def test_optimal_cost_and_selection(self):
        tree, demand = demo_instance()
        res = solve_general(Instance(tree, demand), 4)
        assert res.total == 32
        assert res.transmitted == (2, 4, 8)
        assert res.theta == THETA_STAR
        assert res.evaluated == 32

    def test_column_minima(self):
        tree, demand = demo_instance()
        seg = segment_views(demand, 4)[0]
        _, _, table = solve_segment(tree, demand, seg, 4, "exact")
        got = {k: table.minimum(k) for k in range(seg.lo, seg.hi + 1)}
        assert got == DEMO_COLUMN_MINIMA

    def test_literal_mode_overprices_this_instance(self):
        # the closed-form expansion cost charges the anchor's tree twice
        # here; the assembled selection still evaluates below the DP value
        tree, demand = demo_instance()
        res = solve_general(Instance(tree, demand), 4, mode="literal")
        assert res.total == 34
        assert res.evaluated == 32


class TestSolveD2:
    def test_shared_chain_synthesis_wins(self):
        # three co-located clients under a 2-arc chain want views 1, 2, 3
        tree, demand = chain_with_leaf_terminals(2, [1, 2, 3])
        seg = segment_views(demand, 2)[0]
        cost, theta = solve_d2(seg, tree, demand)
        assert cost == 8
        assert theta == {1: (1, 1), 2: (1, 3), 3: (3, 3)}
        # brute force over transmitted subsets agrees
        assert brute_force_mmds(Instance(tree, demand), 2).total == 8

    def test_single_view_costs_its_depth(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1, 3: 2}, [3])
        demand = DemandMap({3: 4}, 9)
        seg = segment_views(demand, 2)[0]
        cost, theta = solve_d2(seg, tree, demand)
        assert cost == 3 and theta == {4: (4, 4)}

    def test_boundary_views_on_disjoint_paths(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0, 3: 1, 4: 2}, [3, 4])
        demand = DemandMap({3: 1, 4: 3}, 3)
        seg = segment_views(demand, 2)[0]
        cost, _ = solve_d2(seg, tree, demand)
        assert cost == 2 + 2  # both boundary views transmitted

    def test_agrees_with_general(self, rng):
        for _ in range(150):
            tree, demand = random_tree_instance(rng)
            for mode in ("exact", "literal"):
                full = solve_general(Instance(tree, demand), 2, mode=mode)
                split = sum(solve_d2(seg, tree, demand, mode)[0]
                            for seg in segment_views(demand, 2))
                assert split == full.total


class TestSolveD3:
    def test_agrees_with_general(self, rng):
        for _ in range(150):
            tree, demand = random_tree_instance(rng)
            for mode in ("exact", "literal"):
                full = solve_general(Instance(tree, demand), 3, mode=mode)
                split = sum(solve_d3(seg, tree, demand, mode)[0]
                            for seg in segment_views(demand, 3))
                assert split == full.total

    def test_gap_of_three_forces_direct(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0, 3: 1, 4: 2}, [3, 4])
        demand = DemandMap({3: 2, 4: 5}, 5)
        seg = segment_views(demand, 3)[0]
        cost, theta = solve_d3(seg, tree, demand)
        assert theta == {2: (2, 2), 5: (5, 5)}
        assert cost == 4

    def test_colocated_chain_vs_enumeration(self):
        for prefix in (1, 2, 4):
            tree, demand = chain_with_leaf_terminals(prefix, [1, 2, 3, 4])
            seg = segment_views(demand, 3)[0]
            cost, theta = solve_d3(seg, tree, demand)
            assert cost == brute_force_mmds(Instance(tree, demand), 3).total
            if prefix >= 2:  # sharing pays: only the boundaries travel
                assert {v for p in theta.values() for v in p} == {1, 4}


class TestSolveGeneral:
    def test_single_terminal(self):
        tree = ShortestPathTree(0, {1: 0, 2: 1}, [2])
        demand = DemandMap({2: 7}, 9)
        res = solve_general(Instance(tree, demand), 4)
        assert res.total == 2
        assert res.theta == {7: (7, 7)}

    def test_monotone_in_quality_constraint(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng)
            costs = [solve_general(Instance(tree, demand), D).total
                     for D in (2, 3, 4, 5)]
            assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_never_worse_than_direct_delivery(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            assert solve_general(Instance(tree, demand), D).total <= \
                omds(Instance(tree, demand)).total

    def test_segment_additivity(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=14)
            D = rng.choice([2, 3])
            res = solve_general(Instance(tree, demand), D)
            assert res.total == sum(c for _, c in res.per_segment)
            for seg, _ in res.per_segment:
                for v in seg.members:
                    l, r = res.theta[v]
                    assert seg.lo <= l <= r <= seg.hi
                # transmitted views inside a segment stay within D of
                # each other, so every synthesis pair is available
                sent = sorted(w for w in res.transmitted
                              if seg.lo <= w <= seg.hi)
                assert all(b - a <= D for a, b in zip(sent, sent[1:]))

    def test_backtracked_cost_matches_evaluation(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            res = solve_general(Instance(tree, demand), D, mode="exact")
            assert validate_selection(res.theta, demand, D) == []
            assert evaluate_cost(tree, demand, res.theta) == res.total

    def test_literal_never_undercharges(self, rng):
        for _ in range(60):
            tree, demand = random_tree_instance(rng)
            D = rng.choice([2, 3, 4, 5])
            for mode in ("literal", "per_view"):
                res = solve_general(Instance(tree, demand), D, mode=mode)
                assert res.total >= res.evaluated

    def test_deterministic(self, rng):
        tree, demand = random_tree_instance(rng)
        a = solve_general(Instance(tree, demand), 3)
        b = solve_general(Instance(tree, demand), 3)
        assert a.theta == b.theta and a.total == b.total

    def test_mode_validation(self):
        tree, demand = demo_instance()
        with pytest.raises(ValueError, match="phi mode"):
            solve_general(Instance(tree, demand), 4, mode="bogus")
        with pytest.raises(ValueError, match="quality"):
            solve_general(Instance(tree, demand), 1)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_exact_mode_matches_oracle_property(inst):
    tree, demand, D = inst
    assert solve_general(Instance(tree, demand), D, mode="exact").total == \
        brute_force_mmds(Instance(tree, demand), D).total


def test_terminal_at_the_server_consumes_nothing():
    tree = ShortestPathTree(0, {1: 0}, [0, 1])
    demand = DemandMap({0: 3, 1: 5}, 5)
    res = solve_general(Instance(tree, demand), 2)
    assert res.total == 1  # only the arc to the remote client carries a view
    assert res.theta == {3: (3, 3), 5: (5, 5)}


def per_terminal_two_view_fraction(result, demand):
    two = sum(1 for v in demand.demand.values()
              if result.theta[v][0] != result.theta[v][1])
    return two / len(demand.demand)


class TestTwoViewFraction:
    """Counting terminals per desired view gives the float the
    per-terminal count gives."""

    def test_random_trees(self, rng):
        for _ in range(100):
            tree, demand = random_tree_instance(rng, max_views=14)
            for result in (solve_general(Instance(tree, demand),
                                         rng.choice([2, 3, 4])),
                           h_solve(Instance(tree, demand), 3)):
                assert two_view_fraction(result, demand) == \
                    per_terminal_two_view_fraction(result, demand)

    def test_bundled_instances(self):
        fractions = set()
        for seed in range(4):
            for dist in (DemandDistribution("uniform", 12),
                         DemandDistribution("zipf", 24, exponent=1)):
                tree, demand = bundled_instance(dist, seed, clients=400)
                result = solve_general(Instance(tree, demand), 5)
                got = two_view_fraction(result, demand)
                assert got == per_terminal_two_view_fraction(result, demand)
                fractions.add(got)
        assert len(fractions) > 1 and 0 < min(fractions)


class TestBacktrack:
    def test_demo_table_backtracks_to_optimum(self):
        tree, demand = demo_instance()
        seg = segment_views(demand, 4)[0]
        assert solve_segment(tree, demand, seg, 4, "exact")[1] == THETA_STAR

    def test_all_direct_optimum_is_identity(self):
        tree = ShortestPathTree(0, {1: 0, 2: 0}, [1, 2])
        demand = DemandMap({1: 1, 2: 2}, 2)
        res = solve_general(Instance(tree, demand), 2)
        assert res.theta == identity_selection(demand)


# The anchor loop as it stood before the price was split into a part that
# is the same for every predecessor variant j and a popcount against j's
# tree: every variant of column a is priced through _ref_phi, in j order.
# Kept as the reference the value-ordered loop must match cell for cell.
# Each feasible cell links to the cell of its own argmin, as a production
# cell does: (link of that cell, k, k - d), or (..., k, None) for d = 0.

def _ref_phi(mode, masks, between_desired, joint, anchor_view, k_view,
             anchor_tree):
    if not between_desired:
        return 0
    m_k = masks.get(k_view, 0)
    if mode == "per_view":
        m_a = masks.get(anchor_view, 0)
        return sum((masks[v] & ~m_a).bit_count() + (masks[v] & ~m_k).bit_count()
                   for v in between_desired)
    base = masks.get(anchor_view, 0) if mode == "literal" else anchor_tree
    return (joint & ~base).bit_count() + (joint & ~m_k).bit_count()


def cheapest(column):
    """Cell of the column's smallest (value, d)."""
    return min(column.items(), key=lambda kv: (kv[1][0], kv[0]))[1]


def reference_theta(ref):
    """Selection read off the link chain of the last column's cheapest
    cell: a link (prev, k, a) transmits v_k, and v_a with it when a is not
    None, synthesizing the desired views strictly between them."""
    _, link, _ = cheapest(ref.columns[ref.segment.hi])
    theta = {}
    while link is not None:
        link, k, a = link
        if k in ref.desired:
            theta[k] = (k, k)
        if a is not None:
            theta.update((v, (a, k)) for v in range(a + 1, k)
                         if v in ref.desired)
    return theta


def reference_table(masks, seg, D, mode):
    """The full-scan table: each feasible cell (value, link, anchor tree),
    each other cell DROPPED."""
    desired = frozenset(seg.members)
    m, M = seg.lo, seg.hi
    prev_desired = {}
    last = None
    for k in range(m, M + 1):
        prev_desired[k] = last
        if k in desired:
            last = k
    table = CostTable(seg, desired)
    for k in range(m, M + 1):
        col = {}
        if k == m:
            t = masks.get(m, 0)
            table.columns[k] = {0: (t.bit_count(), (None, m, None), t)}
            continue
        if k in desired:
            lo = max(m, prev_desired[k])
            best_val, best_col = INFEASIBLE, None
            for kp in range(k - 1, lo - 1, -1):
                val = table.minimum(kp)
                if val < best_val:
                    best_val, best_col = val, kp
            if best_col is None:
                col[0] = DROPPED
            else:
                link = (cheapest(table.columns[best_col])[1], k, None)
                col[0] = (best_val + masks[k].bit_count(), link, masks[k])
        else:
            col[0] = DROPPED
        between, joint = [], 0
        ck = masks[k].bit_count() if k in desired else 0
        for d in range(2, min(D, k - m) + 1):
            a = k - d
            if a + 1 in desired:
                between.append(a + 1)
                joint |= masks[a + 1]
            if not between:
                col[d] = DROPPED
                continue
            best = None
            for _, (value, link, tree_j) in sorted(table.columns[a].items()):
                if value == INFEASIBLE:
                    continue
                cand = value + ck + _ref_phi(mode, masks, between, joint,
                                             a, k, tree_j)
                if best is None or cand < best[0]:
                    best = (cand, link)
            if best is None:
                col[d] = DROPPED
            else:
                col[d] = (best[0], (best[1], k, a), masks.get(k, 0) | joint)
        table.columns[k] = col
    return table


class TestAgainstFullScanReference:
    """Every variant keeps its cell slot; the reference's staircase cells
    come out exactly, links and anchor trees included, and every other cell
    is the one DROPPED cell."""

    def assert_matches(self, tree, demand, D, mode):
        masks = view_masks(tree, demand)
        total, theta = 0, {}
        for seg in segment_views(demand, D):
            ref = reference_table(masks, seg, D, mode)
            _, _, got = solve_segment(tree, demand, seg, D, mode)
            assert got.columns.keys() == ref.columns.keys()
            for k, col in ref.columns.items():
                assert got.columns[k].keys() == col.keys()
                on = [d for _, d in staircase(col)]
                assert [got.columns[k][d] for d in on] == [col[d] for d in on]
                assert all(got.columns[k][d] == DROPPED
                           for d in col if d not in on)
            total += ref.minimum(seg.hi)
            theta.update(reference_theta(ref))
        res = solve_general(Instance(tree, demand), D, mode)
        assert res.total == total
        assert list(res.theta.items()) == list(theta.items())

    @pytest.mark.parametrize("mode", PHI_MODES)
    def test_random_trees(self, rng, mode):
        for _ in range(200):
            tree, demand = random_tree_instance(rng)
            for D in range(2, 8):
                self.assert_matches(tree, demand, D, mode)

    @pytest.mark.parametrize("mode", PHI_MODES)
    def test_wide_shaped_bundled_instance(self, mode):
        # K=100, D=16, every non-server node a client
        tree, demand = bundled_instance(DemandDistribution("uniform", 100),
                                        2024, clients=753)
        self.assert_matches(tree, demand, 16, mode)

    @pytest.mark.parametrize("mode", PHI_MODES)
    def test_relaxed_shaped_bundled_instance(self, mode):
        tree, demand = bundled_instance(
            DemandDistribution("zipf", 24, exponent=1.0), 2024)
        self.assert_matches(tree, demand, 4, mode)


class TestAnchorTreesNest:
    """A column's anchor trees grow with the anchor depth d.  That is what
    lets a finished column keep only its staircase: a variant that follows
    one of larger d in (value, d) order has a larger value and no smaller
    |joint - tree|, so its price can never win or tie.  Along the staircase
    d grows, so equal prices go to the smallest d without a tie clause."""

    def assert_nested(self, tree, demand, D):
        masks = view_masks(tree, demand)
        for seg in segment_views(demand, D):
            ref = reference_table(masks, seg, D, "exact")
            for column in ref.columns.values():
                nested = [t for _, (value, _, t) in sorted(column.items())
                          if value != INFEASIBLE]
                for i, small in enumerate(nested):
                    assert all(small & ~big == 0 for big in nested[i + 1:])

    def test_demo(self):
        tree, demand = demo_instance()
        for D in range(2, 8):
            self.assert_nested(tree, demand, D)

    def test_random_trees(self, rng):
        for _ in range(200):
            tree, demand = random_tree_instance(rng)
            for D in range(2, 8):
                self.assert_nested(tree, demand, D)

    def test_wide_shaped_bundled_instance(self):
        tree, demand = bundled_instance(DemandDistribution("uniform", 100),
                                        2024, clients=753)
        self.assert_nested(tree, demand, 16)


@pytest.fixture
def dp_cells(monkeypatch):
    """`perfbench/layers.py::dp_cells`, the variant count the benchmark
    derives from the segments alone."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    return importlib.import_module("layers").dp_cells


def scanned_candidates(table, mode):
    """Predecessor variants the full scan prices with a popcount: every
    feasible variant of column k - d, for each anchor variant d with a
    desired view between its anchors."""
    if mode != "exact":
        return 0
    n = 0
    for k, col in table.columns.items():
        for d in col:
            if d >= 2 and any(v in table.desired for v in range(k - d + 1, k)):
                n += sum(value != INFEASIBLE
                         for value, _, _ in table.columns[k - d].values())
    return n


def staircase(column):
    """Feasible (value, d) of a column in ascending order, keeping each
    entry whose d is larger than every d before it."""
    stair = []
    for value, d in sorted((value, d) for d, (value, _, _) in column.items()
                           if value != INFEASIBLE):
        if not stair or d > stair[-1][1]:
            stair.append((value, d))
    return stair


def anchor_variants(seg, D):
    """(k, d) of every anchor variant of the segment's lattice."""
    return [(k, d) for k in range(seg.lo + 1, seg.hi + 1)
            for d in range(2, min(D, k - seg.lo) + 1)]


def staircase_candidates(table, D):
    """Staircase entries an exact-mode walk may price: the length of column
    k - d's staircase, for each anchor variant d with a desired view between
    its anchors."""
    return sum(len(staircase(table.columns[k - d]))
               for k, d in anchor_variants(table.segment, D)
               if any(v in table.desired for v in range(k - d + 1, k)))


class TestStaircase:
    def assert_bounded(self, tree, demand, D):
        for seg in segment_views(demand, D):
            _, _, table = solve_segment(tree, demand, seg, D, "exact")
            assert table.prices <= staircase_candidates(table, D)

    def test_random_trees(self, rng):
        for _ in range(200):
            tree, demand = random_tree_instance(rng)
            for D in range(2, 8):
                self.assert_bounded(tree, demand, D)

    def test_wide_shaped_bundled_instance(self):
        tree, demand = bundled_instance(DemandDistribution("uniform", 100),
                                        2024, clients=753)
        self.assert_bounded(tree, demand, 16)


class TestNoSynthesisNoVariant:
    """An anchor variant with no desired view between its anchors
    synthesizes nothing: it is variant 0's jump from its anchor at a price
    no lower, so it is never filled and keeps the DROPPED cell."""

    @pytest.mark.parametrize("mode", PHI_MODES)
    def test_random_trees(self, rng, mode):
        at_desired = 0
        for _ in range(200):
            tree, demand = random_tree_instance(rng)
            for D in range(2, 8):
                for seg in segment_views(demand, D):
                    table = solve_segment(tree, demand, seg, D, mode)[2]
                    for k, d in anchor_variants(seg, D):
                        if not any(v in table.desired
                                   for v in range(k - d + 1, k)):
                            assert table.columns[k][d] == DROPPED
                            at_desired += k in table.desired
        assert at_desired > 0


class TestSolveStats:
    def test_cells_match_the_benchmark_formula(self, dp_cells):
        tree, demand = demo_instance()
        res = solve_general(Instance(tree, demand), 4)
        assert res.stats["cells"] == dp_cells(segment_views(demand, 4), 4) == 19
        tree, demand = bundled_instance(DemandDistribution("uniform", 12), 2024)
        res = solve_general(Instance(tree, demand), 5)
        assert res.stats["cells"] == dp_cells(segment_views(demand, 5), 5)

    @pytest.mark.parametrize("mode", PHI_MODES)
    def test_early_exit_prices_fewer_candidates(self, mode):
        tree, demand = bundled_instance(DemandDistribution("uniform", 100),
                                        2024, clients=753)
        masks = view_masks(tree, demand)
        scanned = prices = 0
        for seg in segment_views(demand, 16):
            _, _, table = solve_segment(tree, demand, seg, 16, mode)
            scanned += scanned_candidates(
                reference_table(masks, seg, 16, mode), mode)
            prices += table.prices
        assert solve_general(Instance(tree, demand), 16,
                             mode).stats["prices"] == prices
        if mode == "exact":
            assert 0 < prices < scanned
        else:  # the whole price is the same for every predecessor variant
            assert prices == 0

    @pytest.mark.parametrize("mode", PHI_MODES)
    def test_cut_counts_the_walks_the_bound_skips(self, mode, monkeypatch):
        """An anchor variant with a desired view between its anchors is
        priced or cut, and cut exactly when head + |m_k| + |joint - m_k|
        exceeds the smallest value of a deeper variant of its column."""
        tree, demand = bundled_instance(DemandDistribution("uniform", 100),
                                        2024, clients=753)
        masks = view_masks(tree, demand)
        calls = []  # literal mode prices each walked variant with one phi
        monkeypatch.setattr(mmdea, "phi",
                            lambda *args: calls.append(args) or phi(*args))
        between = bounded = cut = 0
        for seg in segment_views(demand, 16):
            ref = reference_table(masks, seg, 16, mode)
            for k, d in anchor_variants(seg, 16):
                value, _, tree_d = ref.columns[k][d]
                if value == INFEASIBLE or not any(
                        v in ref.desired for v in range(k - d + 1, k)):
                    continue
                between += 1
                mk = masks.get(k, 0)
                bound = (ref.minimum(k - d) + mk.bit_count()
                         + (tree_d & ~mk).bit_count())
                bounded += bound > min((v for dd, (v, _, _)
                                        in ref.columns[k].items() if dd > d),
                                       default=INFEASIBLE)
            cut += solve_segment(tree, demand, seg, 16, mode)[2].cut
        assert 0 < cut == bounded
        if mode == "literal":
            assert cut + len(calls) == between
        assert solve_general(Instance(tree, demand), 16,
                             mode).stats["cut"] == cut
