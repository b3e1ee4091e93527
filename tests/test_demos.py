"""Smoke test: every demo script that only prints runs to completion, and
`regenerate_standin_topology.py`, run on a copy of `src/`, writes the
bundled topology byte for byte.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("solve_sample_network.py", "compare_solvers.py",
         "workload_sampling.py", "run_benchmark.py")
BUNDLED = Path("src", "mmds", "data", "kdl_754_895.gml")


def run_demo(script, cwd):
    src = str(Path(cwd) / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    run_demo(script, ROOT)


def test_standin_topology_is_what_its_generator_writes(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / BUNDLED).unlink()
    run_demo("regenerate_standin_topology.py", tmp_path)
    assert (tmp_path / BUNDLED).read_bytes() == (ROOT / BUNDLED).read_bytes()
