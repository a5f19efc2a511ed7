"""Demo smoke test: demos 01-04 each run to completion in a fresh
interpreter, write no file into the repository (the benchmark's own
bench/out/ aside) and leave nothing in the temporary directory. Demo 05
runs a whole campaign (about 15 s) and is left out to keep Tier-1 short."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/0[1-4]_*.py"))
# bench/run.py rewrites its own output directory on every run, so a
# benchmark running in the same checkout would move those mtimes; no demo
# reads or writes there
BENCH_OUT = ROOT / "bench" / "out"


def repo_files() -> dict:
    return {
        p: p.stat().st_mtime_ns
        for p in ROOT.rglob("*")
        if p.is_file() and ".git" not in p.parts and not p.is_relative_to(BENCH_OUT)
    }


def test_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_writes_nothing_into_the_repo(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # temporary files go to tmp_path; the working directory is the repo, so
    # a write to a relative path would show up below
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp_path))
    before = repo_files()
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert repo_files() == before
    assert sorted(tmp_path.iterdir()) == []
