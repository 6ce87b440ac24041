"""Self-tests for the benchmark, on small worlds.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import world  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke_args(workload, trace=0):
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, kind):
    got = bench(*smoke_args(workload, trace))
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, owner, attr, wrong",
    [
        ("meet", world.Oracle, "distance", lambda self, a, b: 99),
        ("refresh", world.Oracle, "friend_ids", lambda self, uid: ["-1"]),
        ("refresh", world, "input_set_size", lambda r_u, by_degree, d_max: -1),
        ("enroll", world.Oracle, "friend_ids", lambda self, uid: ["-1"]),
        ("coverage", world, "guaranteed_coverage", lambda length, ersatz: 0.5),
    ],
)
def test_wrong_oracle_answer_fails_the_run(workload, owner, attr, wrong, monkeypatch, capsys):
    monkeypatch.setattr(owner, attr, wrong)
    code = run.main(smoke_args(workload))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0


def test_run_aborts_when_server_world_differs(monkeypatch):
    monkeypatch.setattr(world.World, "digest", "not-the-server-digest")
    with pytest.raises(RuntimeError, match="digest"):
        run.main(smoke_args("refresh"))


def test_world_is_the_same_under_every_hash_seed():
    code = "import sys; sys.path[:0] = sys.argv[1:]; import world; print(world.make_world(True).digest)"
    digests = {
        subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = bench(*smoke_args("meet"), cwd=tmp_path)
    assert got.returncode != 0
    assert not got.stdout.strip()


def test_self_time_excludes_child_spans_and_hot_calls():
    tracer = Tracer()
    hot = tracer.timed("crypto.hot", time.sleep)
    with tracer.span("op.x", op=7):
        time.sleep(0.02)
        with tracer.span("psi.step"):
            hot(0.03)
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["psi.step"]["parent"] == spans["op.x"]["id"]
    assert spans["psi.step"]["op"] == 7
    t = tracer.totals
    assert t["crypto.hot.calls"] == 1
    assert t["psi.step.self_s"] == pytest.approx(t["psi.step.s"] - t["crypto.hot.s"])
    assert t["op.x.self_s"] == pytest.approx(t["op.x.s"] - t["psi.step.s"])
    assert 0.015 < t["op.x.self_s"] < 0.1
