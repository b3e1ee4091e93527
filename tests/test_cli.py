import csv
import io
import multiprocessing
import os
from importlib.resources import files

import pytest

from mmds import cli
from mmds.cli import (CSV_COLUMNS, ScenarioConfig, build_parser, main,
                      run_scenario, write_csv)
from mmds.instances import DEMO_DEMAND, demo_graph
from mmds.mmdea import SolverError
from mmds.workload import generate_topology, write_edges

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

    def test_oracle_guard_exit_code(self, tmp_path, capsys):
        # a 40-view consecutive segment refuses enumeration
        topo = tmp_path / "star.edges"
        topo.write_text("".join(f"hub t{i}\n" for i in range(1, 41)))
        dem = tmp_path / "d.txt"
        dem.write_text("".join(f"t{i} {i}\n" for i in range(1, 41)))
        code, _, err = run_cli(capsys, "solve", "--topology", str(topo),
                               "--format", "edges", "--demand", str(dem),
                               "--d", "2", "--solver", "oracle")
        assert code == 2
        assert "refused" in err

    def test_solver_error_exit_code(self, demo_files, broken_mmdea, capsys):
        topo, dem = demo_files
        code, out, err = run_cli(capsys, "solve", "--topology", topo,
                                 "--format", "edges", "--demand", dem,
                                 "--d", "4", "--solver", "mmdea")
        assert code == 3
        assert err.startswith("internal error: table is corrupt")
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
        # _run_sample is what each pool worker runs
        break_mmdea(monkeypatch, KeyError("view 7"))
        cfg = ScenarioConfig(gen=(30, 40), views=5, clients=6, d=2,
                             solvers=("omds", "mmdea"), samples=1, seed=1)
        rows = cli._run_sample((cfg, generate_topology(30, 40, seed=1), 0))
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


def strip_runtimes(rows):
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


def run_with_cpus(monkeypatch, config, cpus):
    """run_scenario as on a machine with `cpus` cores: serial at 1, a
    process pool of `cpus` workers above."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
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


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched worker functions reach the pool only by fork")


@fork_only
class TestDeadPoolWorker:
    ARGS = ("run", "--topology", KDL_PATH, "--clients", "20", "--samples", "6")

    def run_pooled(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return run_cli(capsys, *self.ARGS)

    def test_worker_dying_mid_sample(self, monkeypatch, capsys):
        real = cli._run_sample

        def run_sample(args, candidates=None):
            if args[2] == 3:
                os._exit(1)
            return real(args, candidates)
        monkeypatch.setattr(cli, "_run_sample", run_sample)
        code, out, err = self.run_pooled(monkeypatch, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: worker pool failed: ")
        assert "Traceback" not in err

    def test_worker_dying_in_its_initializer(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_init_worker", lambda *args: os._exit(1))
        code, out, err = self.run_pooled(monkeypatch, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: worker pool failed: ")


class TestParser:
    def test_per_view_phi_spelling(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["solve", "--topology", "x", "--demand", "y",
                                  "--d", "3", "--phi", "per-view"])
        assert args.phi == "per-view"
