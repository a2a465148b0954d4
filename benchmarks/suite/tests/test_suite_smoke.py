"""End-to-end smoke of the benchmark command on tiny graphs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from suite import metrics, workloads

RUN = Path(__file__).resolve().parents[1] / "run.py"


def run(*args, **env_overrides):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_DISABLE_")}
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, env=env
    )


def test_all_workloads_run_clean_at_small_scale(tmp_path):
    out = tmp_path / "report.json"
    done = run("--all", "--scale", "0.02", "--seconds", "0.1", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = json.loads(out.read_text())["results"]
    assert [(r["workload"], r["traced"]) for r in results] == [
        (name, traced) for name in workloads.WORKLOADS for traced in (False, True)
    ]
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = metrics.PER_LAYER if result["traced"] else metrics.END_TO_END
        assert list(result["metrics"]) == list(wanted)
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        if not result["traced"]:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_non_default_engine_configuration():
    done = run("--workload", "point_lookup", REPRO_DISABLE_COLUMNAR="1")
    assert done.returncode == 2 and "REPRO_DISABLE_COLUMNAR" in done.stderr
    assert done.stdout == ""
