"""Self-test of the benchmark harness, collected by the tier-1 command.

Runs every workload at a tiny size (``run.py --selftest``) and checks
the harness against BENCHMARK.json. It asserts nothing about speed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_stays_within_the_contract_limits():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_selftest_reports_every_workload_and_metric(tmp_path):
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--selftest", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    results = json.loads((out / "results.json").read_text())
    for key in ("nproc", "python", "numpy", "blas", "thread_pins", "git_sha",
                "loadavg_1m_start", "loadavg_1m_end", "noisy"):
        assert key in results["environment"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    expected.update({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
    for workload in BENCHMARK["workloads"]:
        record = results["workloads"][workload["name"]]
        assert f"== {workload['name']}" in run.stdout
        assert record["trace0"]["correct"] and record["trace1"]["correct"]
        assert len(record["trace0"]["details"]["plan_digest"]) == 40
        reported = {name: m["unit"] for name, m in record["metrics"].items()}
        assert reported == expected
        for spec in BENCHMARK["end_to_end"]:
            assert record["metrics"][spec["name"]]["value"] > 0
    for name in expected:
        assert f"  {name} " in run.stdout

    compare = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(out / "results.json"), str(out / "results.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert compare.returncode == 0, compare.stdout + compare.stderr
    rows = compare.stdout.strip().splitlines()[1:]
    assert len(rows) == len(BENCHMARK["workloads"]) * len(BENCHMARK["end_to_end"])
    assert all(row.split()[-1] == "ok" for row in rows)
