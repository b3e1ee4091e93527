import csv
import io
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from mmds import cli, emmdea
from mmds.cli import (CSV_COLUMNS, ScenarioConfig, build_parser, main,
                      run_scenario, write_csv)
from mmds.cost import SolverError
from mmds.instances import DEMO_DEMAND, demo_graph
from mmds.workload import (generate_topology, parse_topology, write_edges,
                           zipf_pmf, zipf_rank_to_view)

KDL_PATH = str(files("mmds.data") / "kdl_754_895.gml")


@pytest.fixture
def demo_files(tmp_path):
    topo = tmp_path / "demo.edges"
    write_edges(demo_graph(), topo)
    dem = tmp_path / "demo.demand"
    dem.write_text("".join(f"{t} {v}\n" for t, v in sorted(DEMO_DEMAND.items())))
    return str(topo), str(dem)


def break_mmdea(monkeypatch, exc):
    """Make the mmdea solver raise `exc` whenever the CLI runs it."""
    real = cli.run_solver

    def run_solver(name, *args):
        if name == "mmdea":
            raise exc
        return real(name, *args)
    monkeypatch.setattr(cli, "run_solver", run_solver)


@pytest.fixture
def broken_mmdea(monkeypatch):
    """Make the mmdea solver fail its internal consistency check."""
    break_mmdea(monkeypatch, SolverError("table is corrupt"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_demo_csv(capsys, tmp_path):
    """`mmds run --preset demo` with omds and mmdea into a CSV file;
    returns the exit code, stderr and the sample row of each solver."""
    path = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "run", "--preset", "demo", "--d", "4",
                           "--solver", "omds,mmdea", "--out", str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return code, err, {r["solver"]: r for r in rows if r["sample"] == "0"}


class TestSolveCommand:
    def test_demo_mmdea(self, demo_files, capsys):
        topo, dem = demo_files
        code, out, _ = run_cli(capsys, "solve", "--topology", topo,
                               "--format", "edges", "--demand", dem,
                               "--d", "4", "--solver", "mmdea")
        assert code == 0
        assert "total bandwidth: 32" in out
        assert "transmitted: 2 4 8" in out
        assert "evaluate_cost check: 32" in out
        assert "3 -> (2, 4)" in out

    def test_omds_transmits_all_desired(self, demo_files, capsys):
        topo, dem = demo_files
        code, out, _ = run_cli(capsys, "solve", "--topology", topo,
                               "--format", "edges", "--demand", dem,
                               "--d", "4", "--solver", "omds")
        assert code == 0
        assert "transmitted: 2 3 4 6 7 8" in out

    def test_solver_error_exit_code(self, demo_files, broken_mmdea, capsys):
        topo, dem = demo_files
        code, out, err = run_cli(capsys, "solve", "--topology", topo,
                                 "--format", "edges", "--demand", dem,
                                 "--d", "4", "--solver", "mmdea")
        assert code == 3
        assert err.startswith("internal error: table is corrupt")
        assert out == ""

    def test_unexpected_exception_exit_code(self, demo_files, monkeypatch,
                                            capsys):
        break_mmdea(monkeypatch, KeyError("view 7"))
        topo, dem = demo_files
        code, out, err = run_cli(capsys, "solve", "--topology", topo,
                                 "--format", "edges", "--demand", dem,
                                 "--d", "4", "--solver", "mmdea")
        assert code == 3
        assert err == "internal error: KeyError: 'view 7'\n"
        assert out == ""

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.gml"
        bad.write_text("graph [ node [ ] ]")
        dem = tmp_path / "d.txt"
        dem.write_text("1 1\n")
        code, _, err = run_cli(capsys, "solve", "--topology", str(bad),
                               "--demand", str(dem), "--d", "2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("solver", ["omds", "mmdea"])
    def test_d_below_two_is_a_validation_error(self, demo_files, capsys,
                                                solver):
        topo, dem = demo_files
        code, out, err = run_cli(capsys, "solve", "--topology", topo,
                                 "--format", "edges", "--demand", dem,
                                 "--d", "1", "--solver", solver)
        assert code == 1
        assert out == "" and err == ("error: quality constraint D must be "
                                     "an integer >= 2, got 1\n")

    def test_missing_topology_path_with_a_space(self, tmp_path, capsys):
        dem = tmp_path / "d.txt"
        dem.write_text("1 1\n")
        missing = tmp_path / "no such dir" / "x.gml"
        code, out, err = run_cli(capsys, "solve", "--topology", str(missing),
                                 "--demand", str(dem), "--d", "2")
        assert code == 1
        assert out == "" and err.startswith("error: [Errno 2] ")


class TestRunCommand:
    def test_preset_demo_rows(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--preset", "demo",
                               "--d", "4", "--solver", "omds,mmdea")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_solver = {r["solver"]: r for r in rows if r["sample"] == "0"}
        assert by_solver["omds"]["total_bandwidth"] == "45"
        assert by_solver["mmdea"]["total_bandwidth"] == "32"

    def test_solver_error_becomes_error_row(self, tmp_path, broken_mmdea,
                                            capsys):
        code, _, by_solver = run_demo_csv(capsys, tmp_path)
        assert code == 3
        assert by_solver["omds"]["status"] == "ok"
        assert by_solver["omds"]["total_bandwidth"] == "45"
        assert by_solver["mmdea"]["status"] == "error"
        assert by_solver["mmdea"]["error"] == "SolverError: table is corrupt"

    def test_unexpected_exception_becomes_error_row(self, tmp_path,
                                                    monkeypatch, capsys):
        break_mmdea(monkeypatch, KeyError("view 7"))
        code, err, by_solver = run_demo_csv(capsys, tmp_path)
        assert code == 3 and err == ""
        assert by_solver["omds"]["total_bandwidth"] == "45"
        assert by_solver["mmdea"]["status"] == "error"
        assert by_solver["mmdea"]["error"] == "KeyError: 'view 7'"

    def test_unexpected_exception_in_a_worker_sample(self, monkeypatch):
        # _run_sample is what the caller and each forked child run
        break_mmdea(monkeypatch, KeyError("view 7"))
        cfg = ScenarioConfig(gen=(30, 40), views=5, clients=6, d=2,
                             solvers=("omds", "mmdea"), samples=1, seed=1)
        graph = generate_topology(30, 40, seed=1)
        rows = cli._run_sample(cfg, graph, cli._client_candidates(graph), 0)
        omds_row, mmdea_row = rows
        assert omds_row["status"] == "ok" and not omds_row.get("fault")
        assert mmdea_row["status"] == "error" and mmdea_row["fault"]
        assert mmdea_row["error"] == "KeyError: 'view 7'"

    def test_refusals_do_not_fail_the_run(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--gen", "40,50", "--views", "30",
                               "--clients", "35", "--d", "2", "--samples", "1",
                               "--seed", "3", "--solver", "oracle")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["status"] == "error" and row["error"].startswith("segment span")

    def test_zero_samples_prints_only_the_header(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--topology", KDL_PATH,
                               "--samples", "0")
        assert code == 0
        assert out.splitlines() == [",".join(CSV_COLUMNS)]

    def test_zero_clients_aborts_the_run(self, capsys):
        code, out, err = run_cli(capsys, "run", "--topology", KDL_PATH,
                                 "--clients", "0", "--samples", "2")
        assert code == 1
        assert out == "" and err == "error: no desired views\n"

    @pytest.mark.parametrize("source", [("--preset", "demo"),
                                        ("--topology", KDL_PATH)])
    def test_d_below_two_aborts_the_run(self, capsys, source):
        code, out, err = run_cli(capsys, "run", *source, "--d", "1",
                                 "--solver", "omds,mmdea", "--samples", "2")
        assert code == 1
        assert out == "" and err == ("error: quality constraint D must be "
                                     "an integer >= 2, got 1\n")

    def test_deterministic_modulo_runtime(self, tmp_path, capsys):
        args = ["run", "--gen", "60,80", "--views", "6", "--clients", "10",
                "--d", "3", "--samples", "1", "--seed", "9",
                "--solver", "omds,mmdea,hmmdea"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0

        def mask(text):
            rows = list(csv.DictReader(io.StringIO(text)))
            for r in rows:
                r["runtime_ms"] = "X"
            return rows
        assert mask(out1) == mask(out2)

    def test_csv_schema_and_roundtrip(self):
        cfg = ScenarioConfig(gen=(30, 40), views=5, clients=6, d=2,
                             solvers=("omds", "mmdea"), samples=3, seed=1)
        rows = run_scenario(cfg)
        buf = io.StringIO()
        write_csv(rows, buf)
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert list(parsed[0].keys()) == list(CSV_COLUMNS)
        assert len(parsed) == 3 * 2 + 2  # samples x solvers + mean rows
        means = [r for r in parsed if r["sample"] == "mean"]
        assert {m["solver"] for m in means} == {"omds", "mmdea"}
        for r in parsed:
            if r["sample"] != "mean":
                assert float(r["total_bandwidth"]) >= 0
                assert 0.0 <= float(r["two_view_fraction"]) <= 1.0

    def test_guard_refusals_become_error_rows(self):
        cfg = ScenarioConfig(gen=(40, 50), views=30, clients=35, d=2,
                             solvers=("oracle",), samples=2, seed=3)
        rows = run_scenario(cfg)
        errs = [r for r in rows if r["status"] == "error" and r["sample"] != "mean"]
        assert errs, "expected the oracle to refuse a 30-view uniform segment"
        assert "guard" in errs[0]["error"]

    def test_solver_cost_equals_evaluated_in_exact_mode(self):
        cfg = ScenarioConfig(gen=(50, 70), views=8, clients=12, d=3,
                             solvers=("mmdea", "emmdea", "hmmdea"),
                             samples=4, seed=5)
        for r in run_scenario(cfg):
            if r["sample"] != "mean" and r["status"] == "ok":
                assert r["total_bandwidth"] == r["evaluated_cost"]

    def test_unknown_solver_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "--preset", "demo",
                               "--solver", "magic")
        assert code == 1 and "unknown solver" in err

    def test_bad_gen_spec(self, capsys):
        code, _, err = run_cli(capsys, "run", "--gen", "abc")
        assert code == 1 and "--gen" in err

    @pytest.mark.parametrize("spec", ["٣0,40", "3_0,40", "+30,40"])
    def test_gen_takes_only_ascii_digits(self, capsys, spec):
        code, out, err = run_cli(capsys, "run", "--gen", spec, "--clients", "2",
                                 "--samples", "1")
        assert code == 1 and out == ""
        assert err == f"error: --gen expects N,E, got '{spec}'\n"

    def test_uniform_takes_no_parameter(self, capsys):
        code, out, err = run_cli(capsys, "run", "--topology", KDL_PATH,
                                 "--dist", "uniform:7", "--clients", "3",
                                 "--samples", "1")
        assert code == 1 and out == ""
        assert err == ("error: uniform demand takes no parameter, "
                       "got 'uniform:7'\n")

    @pytest.mark.parametrize("spec", ["bogus", "uniform:7", "zipf:1_0"])
    def test_preset_checks_dist(self, capsys, spec):
        code, out, err = run_cli(capsys, "run", "--preset", "demo", "--d", "4",
                                 "--dist", spec)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and spec in err

    @pytest.mark.parametrize("spec", ["gaussian:٣", "zipf:1_0", "gaussian:+2",
                                      "zipf:nan", "gaussian:1.5.0"])
    def test_dist_numbers_take_only_ascii_digits(self, capsys, spec):
        name = spec.partition(":")[0]
        code, out, err = run_cli(capsys, "run", "--gen", "30,40", "--clients",
                                 "3", "--samples", "1", "--dist", spec)
        assert code == 1 and out == ""
        assert err == f"error: {name} demand takes a decimal number, got '{spec}'\n"

    @pytest.mark.parametrize("spec", ["gaussian:.5", "gaussian:2.", "zipf:1.25",
                                      "zipf:", "gaussian:16"])
    def test_dist_numbers_in_decimal_notation_run(self, spec):
        rows = run_scenario(ScenarioConfig(gen=(30, 40), clients=3, samples=1,
                                           dist=spec, solvers=("omds",)))
        assert rows[0]["status"] == "ok" and rows[0]["dist"] == spec

    def test_negative_seed_fails_before_any_sample(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_run_sample", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "run", "--gen", "30,40", "--clients",
                                 "2", "--samples", "1", "--seed", "-3")
        assert calls == []
        assert code == 1 and out == ""
        assert err == "error: --seed must be >= 0, got -3\n"

    @pytest.fixture
    def topology_calls(self, monkeypatch):
        """The calls to the topology readers, which read nothing."""
        calls = []
        for name in ("parse_topology", "generate_topology"):
            monkeypatch.setattr(cli, name,
                                lambda *args, **kwargs: calls.append(args))
        return calls

    @pytest.mark.parametrize("source", [("--preset", "demo"),
                                        ("--gen", "30,40"),
                                        ("--topology", KDL_PATH)])
    @pytest.mark.parametrize("args, message", [
        (("--solver", ","), "no solver given"),
        (("--solver", "omds,omds"), "solver 'omds' given twice"),
        (("--solver", "omds, mmdea ,omds"), "solver 'omds' given twice"),
        (("--solver", "omds,magic"), "unknown solver 'magic'")])
    def test_solver_list_checked_before_the_topology(self, capsys,
                                                     topology_calls, source,
                                                     args, message):
        code, out, err = run_cli(capsys, "run", *source, "--d", "4", *args)
        assert topology_calls == []
        assert code == 1 and out == "" and err == f"error: {message}\n"

    def test_library_caller_gets_the_solver_check(self, topology_calls):
        config = ScenarioConfig(gen=(30, 40), solvers=("bogus",))
        with pytest.raises(ValueError) as raised:
            run_scenario(config)
        assert str(raised.value) == "unknown solver 'bogus'"
        assert topology_calls == []

    @pytest.mark.parametrize("source", [("--gen", "30,40"),
                                        ("--topology", KDL_PATH)])
    def test_zero_clients_abort_without_samples(self, capsys, topology_calls,
                                                source):
        code, out, err = run_cli(capsys, "run", *source, "--clients", "0",
                                 "--samples", "0")
        assert topology_calls == []
        assert code == 1 and out == "" and err == "error: no desired views\n"

    def test_too_many_clients_abort_without_samples(self):
        config = ScenarioConfig(gen=(30, 40), clients=30, samples=0)
        with pytest.raises(ValueError, match=r"^cannot place 30 clients on "
                                             r"29 non-server nodes$"):
            run_scenario(config)


def strip_runtimes(rows):
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


fork_only = pytest.mark.skipif(not hasattr(os, "fork"),
                               reason="samples run in forked children only "
                                      "where os.fork exists")


def run_with_cpus(monkeypatch, config, cpus):
    """run_scenario as on a machine with `cpus` usable cores: serial at 1,
    the caller plus min(cpus, samples) - 1 forked children above."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: cpus)
    return run_scenario(config)


class TestSerialAndPooledRuns:
    @pytest.mark.parametrize("shape", [
        dict(views=12, d=5, clients=400, solvers=("omds", "mmdea")),
        dict(views=24, d=4, clients=400, dist="zipf:1",
             solvers=("omds", "mmdea", "emmdea", "hmmdea")),
    ], ids=["headline", "relaxed"])
    def test_rows_agree_apart_from_runtime(self, monkeypatch, shape):
        cfg = ScenarioConfig(topology=KDL_PATH, samples=6, seed=2024, **shape)
        serial = run_with_cpus(monkeypatch, cfg, 1)
        pooled = run_with_cpus(monkeypatch, cfg, 2)
        assert len(serial) == 6 * len(shape["solvers"]) + len(shape["solvers"])
        assert all(r["status"].startswith("ok") for r in serial)
        assert strip_runtimes(pooled) == strip_runtimes(serial)

    @fork_only
    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("samples", [1, 2, 5, 7])
    def test_rows_come_back_in_sample_order(self, monkeypatch, samples, cpus):
        # fewer samples than cores, and sample counts the process count
        # does not divide
        cfg = ScenarioConfig(topology=KDL_PATH, clients=20, samples=samples,
                             seed=5)
        serial = run_with_cpus(monkeypatch, cfg, 1)
        assert [r["sample"] for r in serial[:-2]] == [
            i for i in range(samples) for _ in cfg.solvers]
        assert strip_runtimes(run_with_cpus(monkeypatch, cfg, cpus)) == \
            strip_runtimes(serial)


def reference_draw(config, candidates, index):
    """Client placement and demand draw of `_run_sample` written out over
    numpy scalars: `sorted` over the picks, `int` per drawn view and a
    fresh SeedSequence for the sample seed.  Returns (terminals, demand
    dict, sample seed)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(index,)))
    picks = rng.choice(len(candidates), size=config.clients, replace=False)
    terminals = [candidates[i] for i in sorted(picks)]
    dist = cli.parse_dist(config.dist, config.views)
    terms = sorted(terminals, key=repr)
    K = dist.view_count
    if dist.kind == "uniform":
        views = rng.integers(1, K + 1, size=len(terms))
    elif dist.kind == "gaussian":
        raw = rng.normal(0.5 * K, dist.variance ** 0.5, size=len(terms))
        views = np.clip(np.rint(raw), 1, K).astype(int)
    else:
        ranks = rng.choice(K, size=len(terms), p=zipf_pmf(dist))
        views = [zipf_rank_to_view(dist)[r] for r in ranks]
    demand = {t: int(v) for t, v in zip(terms, views)}
    return terminals, demand, cli.sample_seed_of(config.seed, index)


class TestSampleDraw:
    @pytest.mark.parametrize("dist", ["uniform", "gaussian:4", "zipf:1"])
    def test_draw_matches_reference(self, monkeypatch, dist):
        seen = []
        real_build_spt = cli.build_spt

        def build_spt(graph, terminals):
            seen.append(terminals)
            return real_build_spt(graph, terminals)
        monkeypatch.setattr(cli, "build_spt", build_spt)
        # the solver row is skipped: it hands back what the solvers get
        monkeypatch.setattr(cli, "_solver_row",
                            lambda base, solver, tree, demand, D, phi:
                            (base["sample_seed"], demand))
        graph = parse_topology(KDL_PATH)
        candidates = cli._client_candidates(graph)
        for clients in (1, 400, 753):
            for k in range(20):
                cfg = ScenarioConfig(topology=KDL_PATH, views=12, d=5,
                                     clients=clients, dist=dist,
                                     solvers=("omds",), seed=97 * k + 3)
                index = 13 * k
                [(sample_seed, demand)] = cli._run_sample(cfg, graph,
                                                          candidates, index)
                terminals, want, want_seed = reference_draw(cfg, candidates,
                                                            index)
                assert seen.pop() == terminals
                assert list(demand.demand.items()) == list(want.items())
                assert sample_seed == want_seed
                assert type(sample_seed) is int
                assert all(type(t) is int and type(v) is int
                           for t, v in demand.demand.items())

    def test_the_headline_draws_name_numpys_streams(self, monkeypatch):
        # every golden CSV rests on numpy's Generator streams, which NumPy's
        # policy (NEP 19) lets change between releases: this pins the raw
        # draws of the headline scenario's first sample at seed 2024, so a
        # changed stream names itself here
        rng = np.random.default_rng(np.random.SeedSequence(2024,
                                                           spawn_key=(0,)))
        picks = rng.choice(753, size=400, replace=False).tolist()
        views = rng.integers(1, 13, size=400).tolist()
        assert picks[:8] == [91, 355, 600, 311, 574, 46, 112, 469], \
            "numpy's Generator.choice stream changed"
        assert views[:8] == [8, 4, 7, 12, 4, 11, 1, 4], \
            "numpy's Generator.integers stream changed"
        # and they are the draws `mmds run` makes
        monkeypatch.setattr(cli, "_solver_row",
                            lambda base, solver, tree, demand, D, phi: demand)
        graph = parse_topology(KDL_PATH)
        candidates = cli._client_candidates(graph)
        cfg = ScenarioConfig(topology=KDL_PATH, views=12, d=5, clients=400,
                             dist="uniform", solvers=("omds",), seed=2024)
        [demand] = cli._run_sample(cfg, graph, candidates, 0)
        assert len(candidates) == 753
        assert list(demand.demand.items()) == \
            list(zip([candidates[i] for i in sorted(picks)], views))


ROOT = Path(__file__).resolve().parent.parent
# Each committed CSV is the output of `mmds GOLDEN_HEAD` with its arguments,
# runtime_ms (field 16) cut.  The first three were made at the parent of the
# change that added each, and the wide_* files at the parent of a rewrite of
# mmdea's DP, one per phi mode; emmdea_k12_d6.csv holds emmdea's smallest-
# chain tie rule, and its totals equal the unpruned sweep's;
# emmdea_k40_d5.csv, emmdea's largest benchmarked shape (about 90,000 states
# a solve), at the parent of the change that memoised its tree prices; the
# gapped_* files, whose samples hold 3-6 undesired views inside segments, at
# the parent of the change that stopped both exact solvers searching a
# selection twice across such a view, apart from gapped_zipf1_per_view.csv,
# made at the parent of the change that left emmdea one way to price a
# delivery tree.  On a machine with W usable cores a run of n samples forks
# min(W, n) - 1 children, so these runs also take the forked path.
GOLDEN_HEAD = "run --topology src/mmds/data/kdl_754_895.gml --seed 2024"
GOLDEN_RUNS = {
    "headline_uniform.csv": "--views 12 --d 5 --clients 400 --samples 20",
    "relaxed_zipf1.csv": "--views 24 --d 4 --clients 400 --dist zipf:1 "
                         "--solver omds,mmdea,emmdea,hmmdea --samples 4",
    "relaxed_zipf1_literal.csv":
        "--views 24 --d 4 --clients 400 --dist zipf:1 "
        "--solver omds,mmdea,emmdea,hmmdea --samples 4 --phi literal",
    "relaxed_zipf1_per_view.csv":
        "--views 24 --d 4 --clients 400 --dist zipf:1 "
        "--solver omds,mmdea,emmdea,hmmdea --samples 4 --phi per-view",
    "headline_gaussian4.csv": "--views 12 --d 5 --clients 400 "
                              "--dist gaussian:4 --samples 20",
    "emmdea_k12_d6.csv": "--views 12 --d 6 --clients 753 "
                         "--solver mmdea,emmdea --samples 2",
    "emmdea_k40_d5.csv": "--views 40 --d 5 --clients 400 "
                         "--solver mmdea,emmdea --samples 2",
    "wide_k100_d16.csv": "--views 100 --d 16 --clients 753 --samples 2",
    "wide_k100_d16_literal.csv": "--views 100 --d 16 --clients 753 "
                                 "--samples 2 --phi literal",
    "wide_k100_d16_per_view.csv": "--views 100 --d 16 --clients 753 "
                                  "--samples 2 --phi per-view",
    "gapped_zipf1.csv": "--views 24 --d 4 --clients 60 --dist zipf:1 "
                        "--solver omds,mmdea,emmdea,hmmdea --samples 8",
    "gapped_zipf1_literal.csv": "--views 24 --d 4 --clients 60 --dist zipf:1 "
                                "--solver omds,mmdea,emmdea,hmmdea "
                                "--samples 8 --phi literal",
    "gapped_zipf1_per_view.csv": "--views 24 --d 4 --clients 60 --dist zipf:1 "
                                 "--solver omds,mmdea,emmdea,hmmdea "
                                 "--samples 8 --phi per-view",
}


def cut_runtime(data):
    """CSV bytes with field 16 cut from each line, as `cut -d, -f1-15,17`."""
    lines = (line.split(b",") for line in data.split(b"\n"))
    return b"\n".join(b",".join(f[:15] + f[16:]) for f in lines)


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_output_matches_committed_csv(tmp_path, monkeypatch, name):
    monkeypatch.chdir(ROOT)  # the topology column is the path as given
    out = tmp_path / name
    argv = f"{GOLDEN_HEAD} {GOLDEN_RUNS[name]}".split()
    assert main([*argv, "--out", str(out)]) == 0
    assert cut_runtime(out.read_bytes()) == \
        (ROOT / "tests" / "data" / name).read_bytes()


@fork_only
def test_pooled_workers_inherit_the_graph_tree(monkeypatch):
    real = cli._run_sample

    def run_sample(config, graph, candidates, index):
        inherited = "spt" in vars(graph)  # before this sample's build_spt
        rows = real(config, graph, candidates, index)
        for row in rows:
            row.update(pid=os.getpid(), inherited=inherited)
        return rows
    monkeypatch.setattr(cli, "_run_sample", run_sample)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    rows = [r for r in run_scenario(ScenarioConfig(topology=KDL_PATH,
                                                   clients=20, samples=7))
            if r["sample"] != "mean"]
    assert len(rows) == 14 and all(r["status"] == "ok" for r in rows)
    assert all(r["inherited"] for r in rows)
    pids = [{r["pid"] for r in rows if r["sample"] % 3 == c} for c in range(3)]
    assert pids[0] == {os.getpid()}
    assert all(len(p) == 1 for p in pids[1:])
    assert len(set.union(*pids)) == 3


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sigkill_mid_pickle(obj, file, protocol):
    data = pickle.dumps(obj, protocol)
    file.write(data[:len(data) // 2])
    file.flush()
    os.kill(os.getpid(), signal.SIGKILL)


@fork_only
class TestDeadPoolWorker:
    ARGS = ("run", "--topology", KDL_PATH, "--clients", "20", "--samples", "6")

    def run_forked(self, monkeypatch, capfd):
        """Run with one forked child under `capfd`, which sees what the
        child writes to stdout and stderr."""
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        code, out, err = run_cli(capfd, *self.ARGS)
        assert_no_child_left()
        return code, out, err

    def test_worker_dying_mid_sample(self, monkeypatch, capfd):
        real = cli._run_sample

        def run_sample(config, graph, candidates, index):
            if index == 3:
                os._exit(1)
            return real(config, graph, candidates, index)
        monkeypatch.setattr(cli, "_run_sample", run_sample)
        code, out, err = self.run_forked(monkeypatch, capfd)
        assert code == 3 and out == ""
        assert err.startswith("error: worker pool failed: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("death", ["exit-before-writing",
                                       "sigkill-mid-sample",
                                       "sigkill-mid-pickle"])
    def test_child_dying(self, monkeypatch, capfd, death):
        real = cli._run_sample

        def run_sample(config, graph, candidates, index):
            if index == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, graph, candidates, index)
        if death == "exit-before-writing":
            monkeypatch.setattr(pickle, "dump", lambda *args: os._exit(1))
        elif death == "sigkill-mid-sample":
            monkeypatch.setattr(cli, "_run_sample", run_sample)
        else:
            monkeypatch.setattr(pickle, "dump", sigkill_mid_pickle)
        code, out, err = self.run_forked(monkeypatch, capfd)
        assert code == 3 and out == ""
        assert err.startswith("error: worker pool failed: ")
        assert "Traceback" not in err


@fork_only
def test_interrupt_in_the_callers_share_leaves_no_child(monkeypatch):
    def run_sample(config, graph, candidates, index):
        if index == 0:
            raise KeyboardInterrupt
        time.sleep(60)  # still running when the caller is interrupted
    monkeypatch.setattr(cli, "_run_sample", run_sample)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_scenario(ScenarioConfig(topology=KDL_PATH, clients=20, samples=6))
    assert_no_child_left()
    assert time.monotonic() - start < 30


# Runs a long scenario with one forked child and prints the child's pid.
FORK_ANNOUNCING = """
import os, signal, sys
from mmds import cli, emmdea
fork = os.fork
def announce():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announce
cli._usable_cores = lambda: 2
"""
ORPHAN_SCRIPT = FORK_ANNOUNCING + """
cli.run_scenario(cli.ScenarioConfig(topology=sys.argv[1], clients=20,
                                    samples=10 ** 6))
"""
# The same run through `main`, as the console script makes it, with SIGINT
# raising KeyboardInterrupt even where the test runner ignores it.
INTERRUPTED_SCRIPT = FORK_ANNOUNCING + """
signal.signal(signal.SIGINT, signal.default_int_handler)
sys.exit(cli.main(["run", "--topology", sys.argv[1], "--clients", "20",
                   "--samples", str(10 ** 6), "--out", os.devnull]))
"""


def running(pid):
    """Whether `pid` is a live process; a zombie has finished running."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@fork_only
@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads a process's state from /proc")
def test_child_leaves_once_its_caller_is_terminated():
    # SIGTERM ends the caller without its finally; the child, reparented,
    # must not compute the rest of its share
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT, KDL_PATH],
                            stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    child = int(proc.stdout.readline())
    try:
        time.sleep(0.5)  # both are mid-share
        assert running(child)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(10) == -signal.SIGTERM
        deadline = time.monotonic() + 2
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if running(child):
            os.kill(child, signal.SIGKILL)


@fork_only
@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads a process's state from /proc")
@pytest.mark.parametrize("to_group", [True, False], ids=["group", "caller"])
def test_interrupted_run_exits_130_in_one_line(to_group):
    # Ctrl-C signals the whole process group, the child included; a SIGINT
    # to the caller alone leaves the child to the caller's cleanup
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_SCRIPT, KDL_PATH],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env=dict(os.environ, PYTHONPATH=src))
    child = int(proc.stdout.readline())
    try:
        time.sleep(0.5)  # both are mid-share
        if to_group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        assert "Traceback" not in err
        assert (proc.returncode, err) == (130, "interrupted\n")
        assert not running(child)
    finally:
        proc.kill()
        proc.communicate()
        if running(child):
            os.kill(child, signal.SIGKILL)


@fork_only
def test_forked_run_prints_one_csv_header(monkeypatch, capfd):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    code, out, err = run_cli(capfd, "run", "--topology", KDL_PATH,
                             "--clients", "20", "--samples", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines.count(",".join(CSV_COLUMNS)) == 1
    assert len(lines) == 1 + 5 * 2 + 2


# The files the outcome cases read, written into the test's directory.  A
# '²' id is a name (str.isdigit() takes it, int() does not), so super.gml
# runs.  nested.gml (split by blanks) and labelled.gml (read by the regex:
# quoted brackets and blanks, a comment, a word a quote runs on from) each
# hold a nested graphics block, and run too.
OUTCOME_FILES = {
    "truncated.gml": "graph [\n  node [ id 1 ]\n  node [ id",
    "mixed.edges": "1 2\n2 a\n",
    "one.demand": "1 1\n",
    "star.edges": "".join(f"hub t{i}\n" for i in range(1, 41)),
    "star.demand": "".join(f"t{i} {i}\n" for i in range(1, 41)),
    "super.gml": "graph [\n node [ id a ]\n node [ id ² ]\n"
                 " edge [ source a target ² ]\n]\n",
    "labelled.gml": '# by hand\ngraph [\n node [ id 1 label "core [1] a" '
                    'graphics [ x 1 y 2 ] ]\n node [ id 2 label "] b [" '
                    'note a"b ]\n edge [ source 1 target 2 ]\n]\n',
    "nested.gml": "graph [\n node [ id 1 graphics [ x 1 y 2 ] ]\n"
                  " node [ id 2 ]\n edge [ source 1 target 2 ]\n]\n",
    "empty.gml": "# c\ngraph [\n]\n",
    "empty.edges": "# no edge\n\n",
    "pair.edges": "s a\ns b\n",
    "twice.demand": "b 1\na 2\nb 3\n",
    "loop.edges": "1 2\n1 1\n2 3\n",
    "split.edges": "1 2\n2 3\n4 5\n",
    "two.demand": "2 1\n3 2\n",
}
# (arguments, exit code, stderr prefix, parse_topology raises KeyError);
# {tmp} is the test's directory.  A prefix ending in a newline is the whole
# of stderr.  An exit-0 case writes {tmp}/rows.csv and leaves stderr empty;
# there the prefix is what each sample row's error starts with, and an
# empty one means every sample row is ok.
OUTCOME_CASES = {
    "solve-truncated-gml": (
        "solve --topology {tmp}/truncated.gml --demand {tmp}/one.demand --d 2",
        1, "error: line 3: ", False),
    "run-truncated-gml": ("run --topology {tmp}/truncated.gml",
                          1, "error: line 3: ", False),
    "run-empty-graph-block": ("run --topology {tmp}/empty.gml", 1,
                              "error: line 2: graph block holds no node\n",
                              False),
    "solve-mixed-ids": ("solve --topology {tmp}/mixed.edges --format edges "
                        "--demand {tmp}/one.demand --d 2",
                        1, "error: line 2: node ids 1 and 'a' mix ", False),
    "run-mixed-ids": ("run --topology {tmp}/mixed.edges --format edges",
                      1, "error: line 2: node ids 1 and 'a' mix ", False),
    "run-no-edge": ("run --topology {tmp}/empty.edges --format edges "
                    "--clients 1 --samples 1",
                    1, "error: edge list holds no edge\n", False),
    "solve-terminal-twice": (
        "solve --topology {tmp}/pair.edges --format edges "
        "--demand {tmp}/twice.demand --d 2",
        1, "error: line 3: terminal 'b' already given on line 1\n", False),
    "run-out-in-missing-dir": ("run --preset demo --d 4 --out {tmp}/nope/x.csv",
                               1, "error: [Errno 2] ", False),
    # the truncated topology would name line 3 if it were parsed first
    "run-negative-samples": ("run --topology {tmp}/truncated.gml --samples -1",
                             1, "error: sample count must be >= 0, got -1",
                             False),
    "run-preset-negative-samples": ("run --preset demo --d 4 --samples -3",
                                    1, "error: sample count must be >= 0, "
                                    "got -3", False),
    "solve-guard-refusal": (
        "solve --topology {tmp}/star.edges --format edges "
        "--demand {tmp}/star.demand --d 2 --solver oracle",
        2, "refused: ", False),
    "run-guard-refusal": (
        "run --gen 40,50 --views 30 --clients 35 --d 2 --samples 1 --seed 3 "
        "--solver oracle --out {tmp}/rows.csv", 0, "segment span", False),
    **{f"run-{name}-gml": (f"run --topology {{tmp}}/{name}.gml --clients 1 "
                           "--samples 1 --out {tmp}/rows.csv", 0, "", False)
       for name in ("super", "labelled", "nested")},
    "solve-unexpected-exception": (
        "solve --topology {tmp}/star.edges --demand {tmp}/one.demand --d 2",
        3, "internal error: KeyError: 'boom'", True),
    "run-unexpected-exception": ("run --topology {tmp}/star.edges",
                                 3, "internal error: KeyError: 'boom'", True),
}


@pytest.mark.parametrize("case", OUTCOME_CASES)
def test_every_input_ends_in_an_exit_code(tmp_path, monkeypatch, capsys, case):
    argv, want_code, prefix, broken = OUTCOME_CASES[case]
    for name, text in OUTCOME_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    if broken:
        def parse_topology(*args, **kwargs):
            raise KeyError("boom")
        monkeypatch.setattr(cli, "parse_topology", parse_topology)
    code, out, err = run_cli(capsys,
                             *(a.format(tmp=tmp_path) for a in argv.split()))
    assert code == want_code and out == ""
    assert "Traceback" not in err
    if want_code:
        assert err.startswith(prefix) and err.count("\n") == 1
    else:
        assert err == ""
        with open(tmp_path / "rows.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["sample"] != "mean"]
        assert rows and all(r["status"] == ("error" if prefix else "ok")
                            and r["error"].startswith(prefix) for r in rows)


@pytest.mark.parametrize("command", [
    "solve --demand {tmp}/two.demand --d 2",
    "run --clients 2 --samples 1 --out {tmp}/rows.csv"], ids=["solve", "run"])
@pytest.mark.parametrize("topology, warning", [
    ("loop.edges", "line 2: dropping self-loop on node 1"),
    ("split.edges --largest-component",
     "graph is disconnected; keeping largest component (3 of 5 nodes)")],
    ids=["self-loop", "largest-component"])
def test_each_warning_is_one_stderr_line(tmp_path, capsys, command, topology,
                                         warning):
    for name, text in OUTCOME_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = f"{command} --topology {{tmp}}/{topology} --format edges"
    code, _, err = run_cli(capsys,
                           *(a.format(tmp=tmp_path) for a in argv.split()))
    assert code == 0 and err == f"warning: {warning}\n"


def test_out_is_opened_before_any_sample(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_scenario", calls.append)
    code, out, err = run_cli(capsys, "run", "--topology", KDL_PATH,
                             "--out", str(tmp_path / "nope" / "x.csv"))
    assert calls == []
    assert code == 1 and out == ""
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1


def test_emmdea_refusal_in_a_run_is_an_error_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(emmdea, "STATE_CAP", 1)
    path = tmp_path / "rows.csv"
    code, out, err = run_cli(capsys, "run", "--topology", KDL_PATH,
                             "--views", "24", "--d", "4", "--clients", "40",
                             "--dist", "zipf:1", "--samples", "1",
                             "--solver", "omds,mmdea,emmdea,hmmdea",
                             "--out", str(path))
    assert code == 0 and out == "" and err == ""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = {r["solver"]: r for r in csv.DictReader(fh) if r["sample"] == "0"}
    # a refusal's row holds the bare StateSpaceError text, a fault's row
    # the class name first
    assert rows["emmdea"]["status"] == "error"
    assert re.fullmatch(r"\d+ states at column \d+ \(\d+ since column \d+\) "
                        r"exceed the cap 1 \(10 per segment\); use a smaller "
                        r"D", rows["emmdea"]["error"])
    for solver in ("omds", "mmdea", "hmmdea"):
        assert rows[solver]["status"] == "ok", solver


def test_output_does_not_follow_string_hashing(hash_seed_outputs):
    assert len(hash_seed_outputs) == 1


def test_importing_the_cli_loads_numpy_random():
    # a forked child starts after the import, so it need not import it again
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", "import sys, mmds.cli; "
                    "sys.exit('numpy.random' not in sys.modules)"],
                   env=dict(os.environ, PYTHONPATH=src), check=True)


def test_importing_the_cli_loads_no_process_pool():
    # the forked runner needs os.fork alone; an executor's import would pull
    # in multiprocessing and queue
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", "import sys, mmds.cli; sys.exit("
                    "sorted({'concurrent.futures', 'multiprocessing'}"
                    " & set(sys.modules)) or None)"],
                   env=dict(os.environ, PYTHONPATH=src), check=True)


@pytest.mark.parametrize("argv", [
    "run --preset demo --views ٣", "run --preset demo --clients 1_0",
    "run --preset demo --d +4", "run --preset demo --samples ٣",
    "run --preset demo --seed 1_0",
    "solve --topology x --demand y --d ٣",
    "solve --topology x --demand y --d 4 --views +8"])
def test_integer_flags_take_only_ascii_digits(capsys, argv):
    """Each integer flag fails as `--views abc` does: argparse's usage
    error, exit 2."""
    *args, flag, value = argv.split()
    with pytest.raises(SystemExit) as stop:
        main([*args, flag, value])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: invalid int value: "
                        f"'{value}'\n")


def test_one_solver_table(monkeypatch, capsys, demo_files):
    """`run_solver`, the `solve --solver` choices and `run --solver`'s
    check all read `cli.SOLVERS`."""
    monkeypatch.setitem(cli.SOLVERS, "direct", cli.SOLVERS["omds"])
    topo, dem = demo_files
    code, out, _ = run_cli(capsys, "solve", "--topology", topo, "--format",
                           "edges", "--demand", dem, "--d", "4",
                           "--solver", "direct")
    assert code == 0 and "total bandwidth: 45\n" in out
    rows = run_scenario(ScenarioConfig(preset="demo", d=4,
                                       solvers=("direct", "omds")))
    assert rows[0]["total_bandwidth"] == rows[1]["total_bandwidth"] == 45
    code, _, err = run_cli(capsys, "run", "--preset", "demo", "--d", "4",
                           "--solver", "direct,omds", "--out", "-")
    assert code == 0 and err == ""


class TestParser:
    def test_per_view_phi_spelling(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["solve", "--topology", "x", "--demand", "y",
                                  "--d", "3", "--phi", "per-view"])
        assert args.phi == "per-view"
