import csv
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmds import (DemandMap, Instance, ShortestPathTree, StateSpaceError,
                  brute_force_emmds, parse_topology, segment_views,
                  solve_extended, solve_general, transmitted_views,
                  validate_selection)
from mmds import cli, emmdea, mmdea
from mmds.cli import SOLVERS as SOLVER_NAMES
from mmds.cli import ScenarioConfig, main, run_solver
from mmds.cost import view_masks
from mmds.emmdea import _Trees, _promised_bound, _suffix_bounds
from mmds.instances import demo_instance
from mmds.workload import DemandDistribution

from conftest import (KDL_PATH, bundled_instance, promise_tree_instances,
                      random_tree_instance, small_instances)


def crossing_pays_instance():
    """Clients for views 1, 2, 4 share a deep branch while view 3 sits by
    the root: synthesizing 2 from (1, 4) crosses the transmitted view 3
    and beats every non-crossing alternative."""
    parents = {"n0": "root", "n1": "n0", "n2": "n1",
               "g1": "n2", "g3": "n2", "g4": "n2", "g2": "root"}
    tree = ShortestPathTree("root", parents, ["g1", "g2", "g3", "g4"])
    demand = DemandMap({"g1": 1, "g2": 3, "g3": 2, "g4": 4}, 4)
    return tree, demand


class TestSolveExtended:
    def test_demo_instance_gains_nothing(self):
        tree, demand = demo_instance()
        res = solve_extended(Instance(tree, demand), 4)
        assert res.total == 32
        assert brute_force_emmds(Instance(tree, demand), 4).total == 32

    def test_crossing_strictly_helps_here(self):
        tree, demand = crossing_pays_instance()
        mm = solve_general(Instance(tree, demand), 3)
        ext = solve_extended(Instance(tree, demand), 3)
        assert ext.total < mm.total
        assert ext.total == brute_force_emmds(Instance(tree, demand), 3).total
        # the winning selection really does cross a transmitted view
        l, r = ext.theta[2]
        assert (l, r) == (1, 4) and ext.theta[3] == (3, 3)
        assert validate_selection(ext.theta, demand, 3) != []  # not MMDS-valid
        assert validate_selection(ext.theta, demand, 3,
                                  crossing_allowed=True) == []

    def test_two_groups_on_disjoint_subtrees(self):
        # group A wants {1, 3}, group B wants {2, 4}; relaxation can only
        # match or beat the non-crossing optimum
        parents = {"a": "root", "a1": "a", "a2": "a",
                   "b": "root", "b1": "b", "b2": "b"}
        tree = ShortestPathTree("root", parents, ["a1", "a2", "b1", "b2"])
        demand = DemandMap({"a1": 1, "a2": 3, "b1": 2, "b2": 4}, 4)
        ext = solve_extended(Instance(tree, demand), 3)
        assert ext.total <= solve_general(Instance(tree, demand), 3).total
        assert ext.total == brute_force_emmds(Instance(tree, demand), 3).total

    def test_never_above_non_crossing(self, rng):
        for _ in range(80):
            tree, demand = random_tree_instance(rng, max_views=8)
            D = rng.choice([2, 3, 4])
            assert solve_extended(Instance(tree, demand), D).total <= \
                solve_general(Instance(tree, demand), D).total

    def test_matches_oracle_on_small_instances(self, rng):
        checked = 0
        while checked < 60:
            tree, demand = random_tree_instance(rng, max_nodes=12,
                                                max_terminals=6, max_views=7)
            D = rng.choice([2, 3])
            want = brute_force_emmds(Instance(tree, demand), D)
            got = solve_extended(Instance(tree, demand), D)
            assert got.total == want.total
            checked += 1

    def test_result_is_valid_in_relaxed_mode(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=8)
            D = rng.choice([2, 3, 4])
            res = solve_extended(Instance(tree, demand), D)
            assert validate_selection(res.theta, demand, D,
                                      crossing_allowed=True) == []
            assert res.evaluated == res.total

    def test_state_cap_raises_explicitly(self, monkeypatch):
        tree, demand = demo_instance()
        monkeypatch.setattr(emmdea, "STATE_CAP", 2)
        with pytest.raises(StateSpaceError, match="smaller D$"):
            solve_extended(Instance(tree, demand), 4)

    def test_literal_mode_never_undercharges(self, rng):
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=7)
            res = solve_extended(Instance(tree, demand), 3, mode="literal")
            assert res.total >= res.evaluated

    def test_summed_states_refuse_a_long_segment(self, monkeypatch):
        # 24 desired views, one client each on its own leaf: unpruned, no
        # column holds more than 19 states, but the 24 columns sum to over
        # 190, so at a cap of 19 only the per-segment budget (10 x the cap)
        # can refuse; literal mode does not prune
        K = 24
        tree = ShortestPathTree(0, {v: 0 for v in range(1, K + 1)},
                                range(1, K + 1))
        demand = DemandMap({v: v for v in range(1, K + 1)}, K)
        monkeypatch.setattr(emmdea, "STATE_CAP", 40)
        assert solve_extended(Instance(tree, demand), 3, "literal").total == K
        monkeypatch.setattr(emmdea, "STATE_CAP", 19)
        with pytest.raises(StateSpaceError, match="smaller D") as refused:
            solve_extended(Instance(tree, demand), 3, "literal")
        assert str(refused.value).startswith("19 states at column 13 "
                                             "(194 since column 1)")
        # exact mode prunes against mmdea's optimum (24): one state a
        # column is kept, 24 in all, so a cap of 2 (20 per segment) is
        # again refused by the summed budget alone
        monkeypatch.setattr(emmdea, "STATE_CAP", 3)
        assert solve_extended(Instance(tree, demand), 3).total == K
        monkeypatch.setattr(emmdea, "STATE_CAP", 2)
        with pytest.raises(StateSpaceError, match="smaller D") as refused:
            solve_extended(Instance(tree, demand), 3)
        assert str(refused.value).startswith("1 states at column 21 "
                                             "(21 since column 1)")


class TestBranchAndBound:
    @pytest.mark.parametrize("mode", ["literal", "per_view"])
    def test_only_exact_mode_prunes(self, rng, mode):
        for _ in range(40):
            tree, demand = random_tree_instance(rng, max_views=8)
            stats = solve_extended(Instance(tree, demand), 3, mode).stats
            assert stats["pruned"] == stats["cut"] == 0
            assert stats["states"] >= stats["peak"] > 0

    def test_exact_mode_counts_its_work(self):
        tree, demand = bundled_instance(DemandDistribution("uniform", 12), 2024)
        exact = solve_extended(Instance(tree, demand), 5).stats
        literal = solve_extended(Instance(tree, demand), 5, "literal").stats
        assert exact["pruned"] > 0 and exact["cut"] > 0
        assert exact["states"] < literal["states"]
        # each entry a state reaches is priced once; pruning reaches fewer
        assert 0 < exact["trees"] < literal["trees"]

    def test_an_undesired_view_is_never_skipped(self):
        # view 5 is undesired inside segment 2..8: it is transmitted, for
        # free, as a possible left source, and never also skipped
        tree, demand = demo_instance()
        exact = solve_extended(Instance(tree, demand), 4).stats
        literal = solve_extended(Instance(tree, demand), 4, "literal").stats
        assert (exact["states"], exact["peak"], exact["trees"]) == (17, 5, 28)
        # a folded window pushes only its retiring entry's child, so the
        # states and entries only its other children would reach go unkept
        # and unpriced; at the last column no right source is left, so no
        # entry grows there
        assert (literal["states"], literal["trees"]) == (119, 48)

    def test_a_d_wider_than_the_segment_costs_what_the_segment_does(self):
        # the demo's one segment spans views 2..8, so no D past 8 changes a
        # window; D=10**5 solves as D=8 does, with no D-sized work
        tree, demand = demo_instance()
        for mode in MODES:
            want = solve_extended(Instance(tree, demand), 8, mode)
            tracemalloc.start()
            try:
                got = solve_extended(Instance(tree, demand), 10**5, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (got.total, got.evaluated, got.theta, got.stats) == \
                (want.total, want.evaluated, want.theta, want.stats)
            assert peak <= 5 * 2**20

    def test_k12_d6_on_every_client_keeps_few_states(self):
        # unpruned, this instance sweeps about 145,000 states; the bound
        # keeps 34
        tree, demand = bundled_instance(DemandDistribution("uniform", 12), 2024,
                                        clients=753)
        result = solve_extended(Instance(tree, demand), 6)
        assert result.total == 1920
        assert result.stats["states"] <= 40

    def test_an_unsound_bound_is_an_internal_error(self, monkeypatch,
                                                   tmp_path):
        # a bound above every optimum prunes every state of the segment
        real = emmdea._suffix_bounds

        def over_counted(masks, m, M, D):
            h, pts = real(masks, m, M, D)
            return {k: n + 1_000 for k, n in h.items()}, pts
        monkeypatch.setattr(emmdea, "_suffix_bounds", over_counted)
        out = tmp_path / "rows.csv"
        code = main(["run", "--preset", "demo", "--d", "4", "--solver",
                     "emmdea", "--out", str(out)])
        assert code == 3
        with open(out, newline="", encoding="utf-8") as fh:
            row = next(r for r in csv.DictReader(fh) if r["sample"] == "0")
        assert row["status"] == "error"
        assert row["error"].startswith("SolverError: every state of "
                                       "segment 2..8 was pruned")
        assert "unsound" in row["error"]


def run_instances(monkeypatch, views, d, clients, dist, samples, seed=2024):
    """The instance of each sample `mmds run` draws at `seed` on the
    bundled topology."""
    drawn = []
    monkeypatch.setattr(cli, "_solver_row",
                        lambda base, solver, inst, D, phi: drawn.append(inst))
    graph = parse_topology(KDL_PATH)
    cfg = ScenarioConfig(topology=KDL_PATH, views=views, d=d, clients=clients,
                         dist=dist, solvers=("emmdea",), samples=samples,
                         seed=seed)
    for i in range(samples):
        cli._run_sample(cfg, graph, cli._client_candidates(graph), i)
    return drawn


# The states the sweep keeps, `states` and `pruned` summed over the samples
# and `peak` the largest solve's, and as the sweep that folded only twins
# kept them (a full expansion keeps those too).
KEPT = {
    "relaxed": ((24, 4, 400, "zipf:1", 32),
                (28_170, 218, 8_207), (43_805, 224, 16_830)),
    "K=12, D=6, 753 clients": ((12, 6, 753, "uniform", 2),
                               (76, 12, 249), (76, 12, 249)),
    "K=40, D=5": ((40, 5, 400, "uniform", 2),
                  (81_498, 2_214, 9_915), (179_399, 4_404, 25_271)),
}


@pytest.mark.parametrize("shape", KEPT)
def test_dominated_leads_fold_below_a_full_expansion(monkeypatch, shape):
    (views, d, clients, dist, samples), kept, twins_kept = KEPT[shape]
    states = peak = pruned = merged = dominated = 0
    for inst in run_instances(monkeypatch, views, d, clients, dist, samples):
        stats = solve_extended(inst, d).stats
        states += stats["states"]
        peak = max(peak, stats["peak"])
        pruned += stats["pruned"]
        merged += stats["merged"]
        dominated += stats["dominated"]
    assert (states, peak, pruned) == kept
    if views > 12:
        assert merged > 0 and dominated > 0
        assert all(now < then for now, then in zip(kept, twins_kept))
    else:  # K=12's bound leaves nothing to fold, so it keeps what it kept
        assert merged == dominated == 0


def test_a_sample_that_twin_folds_alone_refused_solves(monkeypatch):
    # K=20, D=7, 100 clients, sample 1 at seed 3: folding only twins kept
    # 226,939 states at column 11, past the cap of 200,000 a column, and
    # refused it; folding dominated leads too, no column keeps 102,000
    inst = run_instances(monkeypatch, 20, 7, 100, "uniform", 2, seed=3)[1]
    result = solve_extended(inst, 7)
    assert result.total == result.evaluated == 918
    assert result.total <= solve_general(inst, 7).total


def test_emmdea_bounds_with_the_samples_own_mmdea_tables(monkeypatch):
    # an instance keeps mmdea's results, so emmdea run after mmdea on one
    # instance fills no table of its own; a fresh instance of the same tree
    # and demand fills its own and still finds the same result
    filled = []
    real = mmdea.CostTable
    monkeypatch.setattr(mmdea, "CostTable",
                        lambda *args: filled.append(args) or real(*args))
    dist = DemandDistribution("zipf", 24, exponent=1.0)
    tree, demand = bundled_instance(dist, 2024)
    inst = Instance(tree, demand)
    segments = len(solve_general(inst, 4).per_segment)
    assert len(filled) == segments == len(inst.solved)
    warm = solve_extended(inst, 4)
    assert len(filled) == segments == len(inst.solved)
    fresh = Instance(tree, demand)
    cold = solve_extended(fresh, 4)
    assert len(filled) == 2 * segments
    assert fresh.solved.keys() == inst.solved.keys()
    assert (cold.total, cold.theta, cold.per_segment, cold.stats) == \
        (warm.total, warm.theta, warm.per_segment, warm.stats)
    # a literal-mode table is no exact bound, nor is one for another D
    inst = Instance(tree, demand)
    solve_general(inst, 4, "literal")
    solve_general(inst, 3)
    filled.clear()
    assert solve_extended(inst, 4).total == warm.total
    assert len(filled) == segments
    assert {key[3:] for key in inst.solved} == \
        {(4, "literal"), (3, "exact"), (4, "exact")}


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_the_suffix_bound_never_exceeds_a_segment_optimum(inst):
    tree, demand, D = inst
    masks = view_masks(tree, demand)
    for seg, value in solve_extended(Instance(tree, demand), D).per_segment:
        h, _ = _suffix_bounds(masks, seg.lo, seg.hi, D)
        assert h[seg.hi] == 0
        assert h[seg.lo - 1] <= value


# The sweep as it stood before user sets became view bitmasks and theta a
# backpointer chain: one dataclass per state, frozenset user sets, the
# window re-sorted and the theta tuple copied on every push.  It prunes
# nothing, and settles equal values by the smaller theta tuple, per key and
# among final states, so it returns the lexicographically smallest optimal
# selection; the pruned bitmask sweep must match it exactly, ties included.

@dataclass(frozen=True)
class _RefState:
    window: tuple
    promises: tuple
    value: int
    theta: tuple

    def key(self):
        return (self.window, self.promises)


def _ref_retire(view, users, masks, mode):
    own = masks.get(view, 0)
    if mode == "exact":
        full = own
        for p in users:
            full |= masks[p]
        return full.bit_count()
    return own.bit_count() + sum((masks[p] & ~own).bit_count() for p in users)


def _ref_segment(masks, desired, m, M, D, mode):
    states = {((), ()): _RefState((), (), 0, ())}
    for k in range(m, M + 1):
        nxt = {}

        def push(window, promises, value, theta):
            w_retire = k - D + 1
            win = []
            val = value
            for w, users in window:
                if w == w_retire:
                    val += _ref_retire(w, users, masks, mode)
                else:
                    win.append((w, users))
            st = _RefState(tuple(win), tuple(sorted(promises)), val, theta)
            old = nxt.get(st.key())
            if old is None or (st.value, st.theta) < (old.value, old.theta):
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
                push(tuple(sorted(window.items())) + ((k, frozenset()),),
                     tuple(promises.items()), st.value,
                     st.theta + ((k, (k, k)),))
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
                push(tuple(sorted(window.items())), tuple(promises.items()),
                     st.value, st.theta)
                push(tuple(sorted(window.items())) + ((k, frozenset()),),
                     tuple(promises.items()), st.value, st.theta)
        states = nxt

    best = None
    for st in states.values():
        assert not st.promises
        val = st.value + sum(_ref_retire(w, users, masks, mode)
                             for w, users in st.window)
        if best is None or (val, st.theta) < best:
            best = (val, st.theta)
    return best[0], dict(best[1])


def reference_extended(tree, demand, D, mode):
    """(total, theta items in order, per_segment) of the reference sweep."""
    masks = view_masks(tree, demand)
    total, theta, per_segment = 0, {}, []
    for seg in segment_views(demand, D):
        value, th = _ref_segment(masks, frozenset(seg.members), seg.lo,
                                 seg.hi, D, mode)
        total += value
        theta.update(th)
        per_segment.append((seg, value))
    return total, list(theta.items()), per_segment


MODES = ("exact", "literal", "per_view")


class TestAgainstFrozensetReference:
    def assert_matches(self, tree, demand, D, mode):
        got = solve_extended(Instance(tree, demand), D, mode=mode)
        assert (got.total, list(got.theta.items()), got.per_segment) == \
            reference_extended(tree, demand, D, mode)
        return got

    @pytest.mark.parametrize("mode", MODES)
    def test_random_trees(self, rng, mode):
        for _ in range(200):
            tree, demand = random_tree_instance(rng)
            for D in (2, 3, 4):
                self.assert_matches(tree, demand, D, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_relaxed_shaped_bundled_instances(self, mode):
        # the reference prunes and folds nothing, so it checks the folds
        dominated = 0
        for seed in range(6):
            tree, demand = bundled_instance(
                DemandDistribution("zipf", 24, exponent=1.0), seed)
            dominated += self.assert_matches(tree, demand, 4,
                                             mode).stats["dominated"]
        assert dominated > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_bundled_k12_d5(self, mode):
        tree, demand = bundled_instance(DemandDistribution("uniform", 12),
                                        2024)
        self.assert_matches(tree, demand, 5, mode)


def _delivery(masks, entry):
    """A transmitted view's delivery tree for its users so far (its own tree
    OR theirs, a view bitmask) and its own tree's size plus each user's
    marginal against it, priced from scratch; ``entry`` is its ``(view,
    users)`` pair.  The memo must price every entry as this does."""
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


def exact_price(masks, entry):
    """An entry's exact-mode price, from scratch."""
    return _delivery(masks, entry)[0].bit_count()


def replayed_states(masks, theta, lo, hi):
    """(k, value, promises) after each column k = lo..hi of a segment's
    exact sweep that assembles `theta`, the segment's selection: each view
    transmitted up to k priced for its users up to k, and each later right
    source of a user up to k promised."""
    users = {t: [p for p, pair in theta.items() if t in pair and p != t]
             for t in transmitted_views(theta)}

    def entry(t, k):
        return (t, sum(1 << p for p in users[t] if p <= k))
    for k in range(lo, hi + 1):
        value = sum(exact_price(masks, entry(t, k)) for t in users if t <= k)
        promises = tuple(entry(r, k) for r in sorted(users)
                         if r > k and min(users[r], default=r) <= k)
        yield k, value, promises


def promise_trees_instance():
    """An instance whose optimum passes a state promising a view whose
    users' trees hold arcs that its own tree lacks: a bound that lets only
    the own tree stab those arcs prices them twice, and exceeds the
    optimum."""
    terminals = [1, 2, 4, 5]
    tree = ShortestPathTree(0, {1: 0, 2: 1, 4: 1, 5: 4}, terminals)
    return tree, DemandMap({1: 1, 2: 4, 4: 3, 5: 2}, 4, terminals), 3


@given(st.one_of(small_instances(), promise_tree_instances()))
@example(promise_trees_instance())
@settings(max_examples=150, deadline=None)
def test_no_bound_puts_an_optimal_state_above_the_optimum(inst):
    # the sweep reaches each state along an optimal selection (here the
    # unpruned reference's), so no bound may put one above the optimum
    tree, demand, D = inst
    masks = view_masks(tree, demand)
    _, theta, per_segment = reference_extended(tree, demand, D, "exact")
    for seg, optimum in per_segment:
        h, pts = _suffix_bounds(masks, seg.lo, seg.hi, D)
        trees = _Trees(masks, "exact")
        theta_seg = {p: pair for p, pair in theta if p in seg.members}
        for k, value, promises in replayed_states(masks, theta_seg, seg.lo,
                                                  seg.hi):
            priced = sum(exact_price(masks, e) for e in promises)
            assert value + max(priced, h[k]) <= optimum
            if promises:
                assert value + _promised_bound(trees, D, h, pts, k,
                                               promises) <= optimum
        assert (value, promises) == (optimum, ())


@given(small_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_the_promised_bound_never_exceeds_its_floor(inst, data):
    # after a column the sweep skips the stabbing for a promise set whose
    # values all stay within mmdea's optimum less h[k] and the promised
    # trees, which is sound only while the bound never exceeds h[k] plus
    # those trees: the top-down greedy is optimal per arc, and points
    # placed in advance only lower its count
    tree, demand, D = inst
    masks = view_masks(tree, demand)
    seg = data.draw(st.sampled_from(segment_views(demand, D)))
    D = min(D, seg.hi - seg.lo + 2)  # as the sweep runs the segment
    h, pts = _suffix_bounds(masks, seg.lo, seg.hi, D)
    k = data.draw(st.integers(seg.lo - 1, seg.hi - 1))
    rights = data.draw(st.sets(st.integers(k + 1, seg.hi), min_size=1))
    users = st.sets(st.sampled_from(sorted(masks)))
    promises = tuple((r, sum(1 << p for p in data.draw(users)))
                     for r in sorted(rights))
    trees = _Trees(masks, "exact")
    assert _promised_bound(trees, D, h, pts, k, promises) <= \
        h[k] + sum(trees[entry][0].bit_count() for entry in promises)


# The promised bound as it stood before it read the sweep's memo: each
# promised tree priced from scratch, and the stabbing greedy run by a
# generator on a copy of all of `pts`.

def parent_stab(masks, D, pts, top, k, free):
    for p in range(top, k, -1):
        here = covered = free.get(p, 0)
        for q in range(p + 1, p + D):
            covered |= pts[q]
        new = masks.get(p, 0) & ~covered
        pts[p] = new | here
        yield new.bit_count()


def parent_promised_bound(masks, D, h, pts, k, promises):
    free = {entry[0]: _delivery(masks, entry)[0] for entry in promises}
    top = promises[-1][0]
    return (sum(tree.bit_count() for tree in free.values()) + h[top]
            + sum(parent_stab(masks, D, list(pts), top, k, free)))


@given(st.one_of(small_instances(), promise_tree_instances()))
@example(promise_trees_instance())
@settings(max_examples=150, deadline=None)
def test_the_promised_bound_is_the_parents(inst):
    # on every state the optimal selection passes, the bound read from the
    # memo equals the one priced from scratch on a copy of the points, and
    # leaves those points as they were
    tree, demand, D = inst
    masks = view_masks(tree, demand)
    _, theta, per_segment = reference_extended(tree, demand, D, "exact")
    for seg, _ in per_segment:
        h, pts = _suffix_bounds(masks, seg.lo, seg.hi, D)
        points, trees = list(pts), _Trees(masks, "exact")
        theta_seg = {p: pair for p, pair in theta if p in seg.members}
        for k, _, promises in replayed_states(masks, theta_seg, seg.lo,
                                              seg.hi):
            if promises:
                assert _promised_bound(trees, D, h, pts, k, promises) == \
                    parent_promised_bound(masks, D, h, pts, k, promises)
        assert pts == points


@pytest.mark.parametrize("mode", MODES)
@given(small_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_tree_grown_one_user_at_a_time_is_priced_as_from_scratch(mode, inst,
                                                                   data):
    tree, demand, D = inst
    masks = view_masks(tree, demand)
    view = data.draw(st.integers(1, demand.universe_size))
    # any order: an entry whose newest user is not the one just added is
    # priced from an entry the memo has not read yet
    users = data.draw(st.permutations(sorted(masks)))
    trees, grown = _Trees(masks, mode), 0
    for user in users:
        grown |= 1 << user
        full, marginal = _delivery(masks, (view, grown))
        assert trees[view, grown] == (full, full.bit_count() if mode == "exact"
                                      else marginal)


SOLVERS = pytest.mark.parametrize("solve", [solve_general, solve_extended],
                                  ids=["mmdea", "emmdea"])


@SOLVERS
@given(small_instances())
@settings(max_examples=25, deadline=None)
def test_reflecting_the_views_keeps_the_optimum(solve, inst):
    tree, demand, D = inst
    K = demand.universe_size
    mirrored = DemandMap({t: K + 1 - v for t, v in demand.demand.items()}, K)
    assert solve(Instance(tree, mirrored), D).total == \
        solve(Instance(tree, demand), D).total


@SOLVERS
@given(small_instances())
@settings(max_examples=25, deadline=None)
def test_a_looser_quality_bound_never_costs_more(solve, inst):
    tree, demand, D = inst
    assert solve(Instance(tree, demand), D + 1).total <= \
        solve(Instance(tree, demand), D).total


def with_client(tree, demand, node, view, parent=None):
    """The instance with one more client, at `node` (a new leaf under
    `parent` when given) desiring `view`."""
    parents = dict(tree.parents)
    if parent is not None:
        parents[node] = parent
    terminals = tree.terminals | {node}
    return (ShortestPathTree(tree.root, parents, terminals),
            DemandMap({**demand.demand, node: view}, demand.universe_size,
                      terminals))


@SOLVERS
@given(small_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_adding_a_client_never_lowers_the_optimum(solve, inst, data):
    tree, demand, D = inst
    nodes = sorted([tree.root, *tree.parents])
    view = data.draw(st.integers(1, demand.universe_size))
    free = [n for n in nodes if n not in tree.terminals]
    if data.draw(st.booleans()) and free:
        bigger = with_client(tree, demand, data.draw(st.sampled_from(free)), view)
    else:
        bigger = with_client(tree, demand, max(nodes) + 1, view,
                             parent=data.draw(st.sampled_from(nodes)))
    assert solve(Instance(*bigger), D).total >= \
        solve(Instance(tree, demand), D).total


@given(small_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_client_inside_its_view_tree_changes_nothing(inst, data):
    tree, demand, D = inst
    view = data.draw(st.sampled_from(demand.desired_views))
    inside = view_masks(tree, demand)[view]
    spots = sorted(n for n, path in tree.path_mask.items()
                   if path and path & ~inside == 0 and n not in tree.terminals)
    assume(spots)
    tree2, demand2 = with_client(tree, demand, data.draw(st.sampled_from(spots)),
                                 view)
    assert view_masks(tree2, demand2) == view_masks(tree, demand)
    for solver in SOLVER_NAMES:
        for mode in MODES:
            before = run_solver(solver, tree, demand, D, mode)
            after = run_solver(solver, tree2, demand2, D, mode)
            assert (after.total, after.theta) == (before.total, before.theta)
