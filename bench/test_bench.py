"""Self-tests of the benchmark: python3 -m pytest bench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_library()
import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _jobs(name, seed, blocks=3):
    stream = workloads.JobStream(workloads.WORKLOADS[name], seed, workloads.Context(workloads.Corpora()))
    return [stream.block() for _ in range(blocks)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    assert _jobs(name, 7) == _jobs(name, 7)
    assert _jobs(name, 7) != _jobs(name, 8)
    # A longer list extends a shorter one.
    assert _jobs(name, 7, blocks=4)[:3] == _jobs(name, 7)


def test_random_sentences_are_unique_across_jobs():
    texts = [
        job["text"] for block in _jobs("first_order", 3, blocks=20) for job in block
        if "text" in job and job["text"] not in workloads.Corpora().translation_text
        and job["text"] != workloads.PRIME_ABOVE
    ]
    assert len(texts) == len(set(texts)) > 100


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_oracle_agrees_with_the_library(name):
    workload = workloads.WORKLOADS[name]
    ctx, _, blocks = run.setup(workload, seed=5, seconds=1)
    rows, _, failures, _ = run.run_jobs(workload, blocks[:1], ctx, seconds=0, min_jobs=1)
    assert failures == []
    assert {row[0] for row in rows} == set(workload.kinds())
    assert all(row[2] for row in rows)


def test_planted_wrong_expectation_counts_as_failed(monkeypatch):
    monkeypatch.setattr(oracles, "sum_product_possible", lambda world, h: world <= h)
    workload = workloads.WORKLOADS["translation"]
    ctx, _, blocks = run.setup(workload, seed=5, seconds=1)
    rows, _, failures, _ = run.run_jobs(workload, blocks[:1], ctx, seconds=0, min_jobs=1)
    bad = [row[0] for row in rows if not row[2]]
    assert bad and set(bad) == {"modal_eval"}
    assert failures and "disagrees" in failures[0]
    assert len(rows) == sum(count for _, _, count in workload.block)


def test_raising_job_counts_as_failed(monkeypatch):
    def boom(api, job, inputs):
        raise RuntimeError("planted")

    monkeypatch.setitem(workloads.KINDS, "tower", workloads.KINDS["tower"]._replace(run=boom))
    workload = workloads.WORKLOADS["digits"]
    ctx, _, blocks = run.setup(workload, seed=5, seconds=1)
    rows, _, failures, _ = run.run_jobs(workload, blocks[:1], ctx, seconds=0, min_jobs=1)
    assert sorted(row[0] for row in rows if not row[2]) == ["tower", "tower"]
    assert "planted" in failures[0]


def test_definitional_evaluator_matches_known_facts():
    prime_above = oracles.parse(workloads.PRIME_ABOVE)
    # A prime lies in (a, h] for every a < h exactly when h itself is prime.
    assert [h for h in range(8, 20) if oracles.fo_holds(prime_above, oracles.truncation(h))] == [11, 13, 17, 19]
    succ = oracles.parse("A a. E b. b = a + 1")
    assert oracles.quantifier_trace(succ, oracles.truncation(10)) == [
        {"kind": "counterexample", "value": 10, "var": "a"}
    ]
    assert oracles.frame_class(oracles.fork_frame()) == (False, False)
    assert oracles.frame_class(oracles.subsets_frame(2)) == (True, False)
    assert oracles.frame_class(oracles.aristotelian_frame(5)) == (True, True)
    assert oracles.falsifies("Dot3", "Def(0) & !Def(1)", "Def(1) & !Def(0)", oracles.subsets_frame(1), "empty")


def test_printer_round_trips_through_the_parser():
    import random

    rng = random.Random(0)
    for _ in range(200):
        f = workloads.random_sentence(rng, rng.choice((1, 2, 3)))
        assert oracles.parse(oracles.show(f)) == f


def test_metric_names_match_benchmark_json():
    workload = workloads.WORKLOADS["digits"]
    ctx, _, blocks = run.setup(workload, seed=1, seconds=1)
    rows, tracer, _, _ = run.run_jobs(workload, blocks[:1], ctx, seconds=0, min_jobs=1, traced=True)
    layer = run.per_layer(rows, tracer, blocks, ctx)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    e2e = run.end_to_end(rows, setup_s=0.5)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    # The exact ground-operation count repeats for a given seed.
    assert layer["interp.ground_ops_per_op"][0] == run.ground_ops_per_op(blocks, ctx) > 0


def test_each_job_is_scaled_by_the_loop_times_nearest_to_it():
    slow, fast = 2 * run.REFERENCE_S, run.REFERENCE_S / 2
    # Loop timed before job 0 and after every tenth job; the host speeds up
    # fourfold after job 50.
    refs = [(pos, slow if pos <= 50 else fast) for pos in range(0, 101, 10)]
    scales = run.local_scales(refs, 100)
    assert scales[:30] == [0.5] * 30
    assert scales[-30:] == [2.0] * 30
    assert run.local_scales([(0, run.REFERENCE_S)], 3) == [1.0] * 3


def _record(workload, seed, values):
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]} for m in SPEC["end_to_end"]}
    facts = {"workload": workload, "seed": seed, "trace": 0}
    return json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics, "facts": facts})


def test_compare_reports_win_regression_and_unresolved(tmp_path, capsys):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.5, 1.5, 0.6, 1.4]
    old.write_text("\n".join(
        _record("digits", s, {"jobs_per_s": v, "job_p50_ms": v, "job_p90_ms": n})
        for s, (v, n) in enumerate(zip(steady, noisy))
    ) + "\n")
    new.write_text("\n".join(
        _record("digits", s, {"jobs_per_s": 1.5 * v, "job_p50_ms": 1.5 * v, "job_p90_ms": n})
        for s, (v, n) in enumerate(zip(steady, noisy))
    ) + "\n")
    run.compare(old, new)
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["jobs_per_s"].endswith("win")
    assert rows["job_p50_ms"].endswith("regression")
    assert rows["job_p90_ms"].endswith("unresolved")
    assert rows["setup_s"].endswith("no change beyond bound")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "digits", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_prints_the_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "translation", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
