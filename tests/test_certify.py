"""The certificate every solver and oracle result passes
(`cost.solve_by_segment`): the selection must be valid and its value must equal
the independent re-cost, except that literal and per_view prices may
overcharge; no value may fall below the re-cost."""

import pytest

from mmds import emmdea, hmmdea, mmdea, oracle
from mmds.cli import run_solver
from mmds.cost import SolverError, evaluate_cost
from mmds.instances import demo_instance

D = 4
SEARCH = {"mmdea": (mmdea, "solved_segment"),
          "emmdea": (emmdea, "_solve_segment")}


def misreport(monkeypatch, solver, delta):
    """Make `solver`'s per-segment search report the true cost of the
    selection it found (`evaluate_cost`) plus `delta`; the oracles get the
    shift from the `cost_of_parts` their enumeration prices candidates
    with."""
    tree, demand = demo_instance()
    if solver in SEARCH:
        module, name = SEARCH[solver]
        real = getattr(module, name)

        def search(*args):
            _, theta, *rest = real(*args)
            return (evaluate_cost(tree, demand, theta) + delta, theta, *rest)
    else:
        module, name, real = oracle, "cost_of_parts", oracle.cost_of_parts

        def search(*args):
            return real(*args) + delta
    monkeypatch.setattr(module, name, search)
    return tree, demand


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("solver", ["mmdea", "emmdea", "oracle", "oracle-ext"])
def test_an_exact_value_off_by_one_is_refused(monkeypatch, solver, delta):
    tree, demand = misreport(monkeypatch, solver, delta)
    with pytest.raises(SolverError, match=f"^{solver} value"):
        run_solver(solver, tree, demand, D, "exact")


@pytest.mark.parametrize("mode", ["literal", "per_view"])
@pytest.mark.parametrize("solver", ["mmdea", "emmdea"])
def test_a_closed_form_overcharge_passes(monkeypatch, solver, mode):
    tree, demand = misreport(monkeypatch, solver, 1)
    res = run_solver(solver, tree, demand, D, mode)
    assert res.total == res.evaluated + 1 == 33
    assert res.phi_mode == mode


@pytest.mark.parametrize("mode", ["literal", "per_view"])
@pytest.mark.parametrize("solver", ["mmdea", "emmdea"])
def test_a_closed_form_undercharge_is_refused(monkeypatch, solver, mode):
    tree, demand = misreport(monkeypatch, solver, -1)
    with pytest.raises(SolverError,
                       match=f"^{solver} value 31 below true cost 32"):
        run_solver(solver, tree, demand, D, mode)


def test_a_heuristic_value_off_the_recost_is_refused(monkeypatch):
    """h_solve checks its start and every round against the sample's
    masks, so only the certificate, which re-costs the joined selection
    through `cost_of_parts`, can see a segment value that is one too high.
    Make the greedy report its cost plus one."""
    real = hmmdea._improve

    def improve(*args):
        value, theta = real(*args)
        return value + 1, theta
    monkeypatch.setattr(hmmdea, "_improve", improve)
    tree, demand = demo_instance()
    with pytest.raises(SolverError,
                       match="^hmmdea value 39 != re-evaluated cost 38"):
        run_solver("hmmdea", tree, demand, D, "exact")


def test_an_invalid_selection_is_refused(monkeypatch):
    real = mmdea.solved_segment

    def search(*args):
        value, theta, table = real(*args)
        del theta[max(theta)]
        return value, theta, table
    monkeypatch.setattr(mmdea, "solved_segment", search)
    tree, demand = demo_instance()
    with pytest.raises(SolverError, match="^mmdea selection is invalid: "
                                          "desired view 8 has no selection"):
        run_solver("mmdea", tree, demand, D, "exact")
