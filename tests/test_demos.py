import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import anodens

ROOT = Path(__file__).resolve().parent.parent

# 04_benchmark trains full sweeps for about 11 s, so its test below runs it
# in process with every training run cut to 2 epochs
FAST_DEMOS = [
    "01_density_model.py",
    "02_supervised_objective.py",
    "03_score_profiles.py",
    "05_data_pipeline.py",
]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_demo(monkeypatch, capsys):
    run_seed = anodens.run_seed

    def capped(ds, seed, **options):
        options["max_epochs"] = min(options.get("max_epochs", 2), 2)
        return run_seed(ds, seed, **options)

    monkeypatch.setattr(anodens, "run_seed", capped)
    runpy.run_path(str(ROOT / "demos" / "04_benchmark.py"), run_name="__main__")
    out = capsys.readouterr().out
    seeds = re.findall(r"^seed (\d+): chose lambda=", out, re.MULTILINE)
    assert seeds == ["0", "1", "2", "3", "4"]
    table = out.split("mean test AUC over seeds\n", 1)[1]
    for name in ("swept", "lambda0", "gaussian", "knn"):
        assert re.search(rf"^  {name} +[01]\.\d{{3}} \+- \d\.\d{{3}}$", table, re.MULTILINE), name
