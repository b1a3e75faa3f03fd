"""Tests of the benchmark itself, on smoke-sized panels.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
from benchenv import BENCH_DIR, ROOT  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_covered_child_intervals():
    s = [
        {"id": 0, "parent": None, "name": "cli.fit", "start_ns": 0, "end_ns": 100},
        {"id": 1, "parent": 0, "name": "hmm.em_fit", "start_ns": 10, "end_ns": 60},
        {"id": 2, "parent": 1, "name": "panel.volatility_norm", "start_ns": 20, "end_ns": 30},
        {"id": 3, "parent": 0, "name": "hmm.save_model", "start_ns": 50, "end_ns": 70},
    ]
    got = spans.self_times(s)
    assert got["cli"] == pytest.approx(40e-9)  # 100 minus the union [10, 70)
    assert got["hmm"] == pytest.approx(60e-9)  # (50 - 10) + 20
    assert got["panel"] == pytest.approx(10e-9)
    assert spans.self_times(s, root=0) == {"hmm": got["hmm"], "panel": got["panel"]}
    assert spans.total_by_name(s, root=1) == {"panel.volatility_norm": 10e-9}


def test_adopt_nests_foreign_spans_under_parent():
    tr = spans.Tracer()
    with tr.span("cli.granger") as sp:
        pass
    child = [{"id": 0, "parent": None, "name": "cli.import", "start_ns": 1, "end_ns": 2},
             {"id": 1, "parent": 0, "name": "panel.x", "start_ns": 1, "end_ns": 2}]
    tr.adopt(child, sp["id"])
    assert [(s["id"], s["parent"]) for s in tr.spans] == [(0, None), (1, 0), (2, 1)]


def test_replay_runs_the_cli_and_keeps_its_exit_code(tmp_path):
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "replay.py"), str(spans_out),
         "granger", "--panel", str(tmp_path / "missing.csv"),
         "--labels", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "g.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2  # the CLI's code for unreadable input
    assert proc.stderr.startswith("error: ")
    names = [s["name"] for s in spans.load(spans_out)]
    assert names == ["cli.import", "panel.read_panel_csv"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_smoke_traced_run_reports_every_per_layer_metric():
    res = result_of(bench("--workload", "pipeline_kselect", "--seed", "3",
                          "--seconds", "1", "--trace", "1", "--smoke"))
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    # every layer the pipeline touches shows up with work in it
    for name in ("cli.ingest_s", "hmm.self_s", "hmm.select_k_s", "granger.self_s",
                 "robustness.self_s", "hmm.em_iters.k4", "granger.design_rows"):
        assert res["metrics"][name]["value"] > 0, name


def test_same_seed_gives_same_inputs_and_artifacts():
    first, second = (bench("--workload", "causality_paper", "--seed", "5", "--seconds",
                           "1", "--trace", "0", "--smoke") for _ in range(2))
    detail = [json.loads(p.stdout.splitlines()[-2][len("detail: "):])
              for p in (first, second)]
    assert detail[0]["digests"] == detail[1]["digests"]
    assert result_of(second)["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fit_paper", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
