"""Compare every solver on the sample network and on random instances.

Expected relationships, which also hold in the test suite:
  extended optimum <= non-crossing optimum <= heuristic <= direct delivery
and the DP in exact mode equals the brute-force oracle wherever the
oracle can run.
"""

import random

from mmds import (DemandMap, Instance, ShortestPathTree, brute_force_emmds,
                  brute_force_mmds, demo_instance, h_solve, omds,
                  solve_extended, solve_general)

inst = Instance(*demo_instance())  # one sample, shared by every solver
D = 4
print("sample network, D=4:")
print("  omds      :", omds(inst).total)
print("  mmdea     :", solve_general(inst, D).total)
print("  emmdea    :", solve_extended(inst, D).total)
print("  hmmdea    :", h_solve(inst, D).total)
print("  oracle    :", brute_force_mmds(inst, D).total)
print("  oracle-ext:", brute_force_emmds(inst, D).total)

print("\nan instance where crossing selections strictly help:")
# clients for views 1, 2 and 4 share a deep branch; view 3 sits near the
# root, so synthesizing 2 from (1, 4) beats the non-crossing pair (1, 3)
p = 3
parents = {}
prev = "root"
for i in range(p):
    parents[f"n{i}"] = prev
    prev = f"n{i}"
for leaf in ("g1", "g3", "g4"):
    parents[leaf] = prev
parents["g2"] = "root"
tree2 = ShortestPathTree("root", parents, ["g1", "g2", "g3", "g4"])
demand2 = DemandMap({"g1": 1, "g2": 3, "g3": 2, "g4": 4}, 4)
inst2 = Instance(tree2, demand2)
mm = solve_general(inst2, 3)
ext = solve_extended(inst2, 3)
print(f"  non-crossing: {mm.total}  theta={mm.theta}")
print(f"  crossing    : {ext.total}  theta={ext.theta}")

print("\n200 random instances, D in 2..5:")
rng = random.Random(0)
worst_gap = 0.0
for _ in range(200):
    n = rng.randint(4, 16)
    parents = {i: rng.randrange(i) for i in range(1, n)}
    terms = rng.sample(range(1, n), rng.randint(1, min(6, n - 1)))
    K = rng.randint(1, 8)
    t = ShortestPathTree(0, parents, terms)
    d = DemandMap({x: rng.randint(1, K) for x in terms}, K, t.terminals)
    D = rng.choice([2, 3, 4, 5])
    sample = Instance(t, d)
    base = omds(sample).total
    opt = solve_general(sample, D).total
    heur = h_solve(sample, D).total
    assert opt <= heur <= base
    if base:
        worst_gap = max(worst_gap, (heur - opt) / base)
print(f"  heuristic within bounds on all; worst gap {worst_gap:.1%} of baseline")
