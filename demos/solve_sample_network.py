"""Walk through solving the bundled 15-node sample network.

Eight clients ask for views 2, 3, 7, 8, 6, 7, 8 and 4 of a multi-view
stream.  Sending every desired view down its own multicast tree costs 45
(arc, view) units; allowing each client to synthesize its view from two
transmitted neighbours at most D=4 apart drops the total to 32.
"""

from mmds import (Instance, demo_instance, edge_view_loads, omds,
                  solve_general, transmitted_views)
from mmds.graphs import segment_views
from mmds.mmdea import solved_segment

tree, demand = demo_instance()
print(f"tree: {len(tree.arcs)} arcs, {len(tree.terminals)} clients, "
      f"root {tree.root}")
print("demand:", dict(sorted(demand.demand.items())))

inst = Instance(tree, demand)  # the view masks, built once for both solvers
baseline = omds(inst)
print(f"\ndirect delivery (omds): {baseline.total} units")

D = 4
result = solve_general(inst, D)
print(f"optimal with D={D}: {result.total} units "
      f"({1 - result.total / baseline.total:.0%} saved)")
print("transmitted views:", result.transmitted)
for v in sorted(result.theta):
    l, r = result.theta[v]
    how = "sent directly" if l == r else f"synthesized from ({l}, {r})"
    print(f"  view {v}: {how}")

# the per-column minima of the DP lattice, which the instance kept
seg = segment_views(demand, D)[0]
_, _, table = solved_segment(inst, seg, D)
print("\nDP column minima:",
      {k: table.minimum(k) for k in range(seg.lo, seg.hi + 1)})

print("\nper-arc view loads under the optimum:")
loads = edge_view_loads(tree, demand, result.theta)
for arc in sorted(loads, key=repr):
    print(f"  {arc[0]:>3} -> {arc[1]:<3} carries {sorted(loads[arc])}")
print("total =", sum(len(v) for v in loads.values()), "(matches the solver)")
