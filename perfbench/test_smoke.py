"""Smoke test of the benchmark at tiny sizes: every metric named in
BENCHMARK.json is emitted with its unit, and every output check fires.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from leostream import harness, simcore  # noqa: E402
from leostream.multiuser import ShareEvent  # noqa: E402

SMOKE = ["--seed", "5", "--seconds", "1", "--smoke"]


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace), *SMOKE],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_missing_sources_exit_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "realtime", "--trace", "0", *SMOKE],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_offline_dominance_fires():
    rows = [SimpleNamespace(seed=1, controller=c, qoe_total=q)
            for c, q in (("offline-optimal", 100.0), ("joint:dual", 101.9), ("separate:mb", 90.0))]
    assert all(ok for _, ok, _ in workloads.offline_dominance(rows))
    rows[1].qoe_total = 102.1
    assert not any(ok for _, ok, _ in workloads.offline_dominance(rows))
    assert not workloads.offline_dominance(rows[1:])[0][1]


def test_capacity_conservation_fires():
    fair = ShareEvent(0.0, 0, (0, 1), {0: 3.0, 1: 3.0}, 10.0, 0.4)
    greedy = ShareEvent(1.0, 0, (0, 1), {0: 3.0, 1: 3.5}, 10.0, 0.4)
    assert workloads.capacity_conserved([fair])[1]
    assert not workloads.capacity_conserved([fair, greedy])[1]
    assert not workloads.capacity_conserved([])[1]


def run_main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--trace", str(trace), *SMOKE])
    return code, last_json(capsys.readouterr().out)


@pytest.mark.parametrize("trace", [0, 1])
def test_nondeterministic_payload_fires(monkeypatch, capsys, trace):
    calls = itertools.count()
    original = workloads.Realtime.result

    def unstable(self, unit, raw):
        res = original(self, unit, raw)
        res.payload += str(next(calls)).encode()
        return res

    monkeypatch.setattr(workloads.Realtime, "result", unstable)
    code, result = run_main(capsys, "realtime", trace)
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_unrepeatable_counts_fire(monkeypatch, capsys):
    calls = itertools.count()
    original = workloads.Realtime.run

    def extra_downloads(self, unit):
        for _ in range(next(calls)):
            simcore.piecewise_download(simcore.RateSeries.constant(1.0), 0.0, 1.0, 0.0)
        return original(self, unit)

    monkeypatch.setattr(workloads.Realtime, "run", extra_downloads)
    code, result = run_main(capsys, "realtime", 1)
    assert code == 1 and result["failed"] == 1


def test_failed_cell_fires(monkeypatch, capsys):
    original = harness.run_cell

    def failing(exp, trace, trace_id, seed, controller_name, n_users):
        if controller_name == "joint:dual":
            raise RuntimeError("injected")
        return original(exp, trace, trace_id, seed, controller_name, n_users)

    monkeypatch.setattr(harness, "run_cell", failing)
    code, result = run_main(capsys, "sweep", 0)
    assert code == 1 and result["failed"] >= 2
