"""Solvers and simulation harness for bandwidth-minimal multicast of
multi-view video, where a client's desired view may be synthesized from
two transmitted neighbour views at most D indices apart."""

from .cost import (INFEASIBLE, SolveResult, SolverError, edge_view_loads,
                   evaluate_cost, two_view_fraction, view_masks, view_trees)
from .emmdea import StateSpaceError, solve_extended
from .graphs import (DemandMap, NetworkGraph, Segment, ShortestPathTree,
                     build_spt, check_quality, identity_selection,
                     segment_views, transmitted_views, validate_selection)
from .hmmdea import HeuristicResult, h_solve
from .instances import demo_graph, demo_instance
from .mmdea import (CostTable, backtrack, solve_d2, solve_d3, solve_general,
                    solve_segment)
from .oracle import (OracleGuardError, brute_force_emmds, brute_force_mmds,
                     omds)
from .workload import (DemandDistribution, generate_topology, parse_topology,
                       read_demand, sample_demand, write_demand, write_edges,
                       write_gml, zipf_pmf, zipf_rank_to_view)

__version__ = "0.1.0"
