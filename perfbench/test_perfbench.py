"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer
from workloads import ROOT, WORKLOADS, Job, Workload, q2_hierarchy, q2_verify

RUN = Path(run.__file__)


@pytest.fixture(scope="module")
def setups():
    """One set-up per workload; the last one imported is shared by all."""
    return {name: run.set_up(w)[1:] for name, w in WORKLOADS.items()}


def test_pinned_q2_counters_per_verify_job(setups, tmp_path):
    prog, points = setups["q2-sweep"]
    tracer = Tracer(prog)
    _, out, error = run.execute(q2_verify(None, points), prog, tmp_path, tracer, 0)
    assert error is None
    counts = tracer.counts[0]
    assert counts["puncturing.subsets_evaluated"] == 247
    assert counts["puncturing.qualifying"] == 31
    assert counts["puncturing.covering_edges"] == 60
    assert counts["hermitian.oracle.calls"] == 93
    assert counts["gf.field_build.calls"] == 342


def corrupt(job: Job, damage) -> Job:
    """The same job with its result or written files altered after the run."""
    def damaged_run(prog, tmp):
        return damage(job.run(prog, tmp), tmp)
    return Job(job.kind, job.inputs, damaged_run, job.check, job.files)


def edit_stdout(old, new):
    return lambda res, tmp: (res[0], res[1].replace(old, new, 1), res[2])


def drop_last_edge(res, tmp):
    path = tmp / "hierarchy.json"
    graph = json.loads(path.read_text())
    graph["edges"].pop()
    path.write_text(json.dumps(graph))
    return res


def flip_inclusion(res, tmp):
    path = tmp / "compare.json"
    doc = json.loads(path.read_text())
    doc["inclusion"]["size_difference"] = not doc["inclusion"]["size_difference"]
    path.write_text(json.dumps(doc))
    return res


DAMAGE = {
    "verify-q2": edit_stdout("PASS inheritance", "FAIL inheritance"),
    "hierarchy": drop_last_edge,
    "wstar": lambda res, tmp: (res[0], res[1][:-1] + (10**6,)),
    "isometry": edit_stdout("W*: 0 ", "W*: 1 "),
    "semigroup": flip_inclusion,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_fails_its_check(name, setups, tmp_path):
    prog, points = setups[name]
    workload = WORKLOADS[name]
    for i in range(len(workload.cycle)):
        job = workload.job(0, i, points)
        damage = next(d for prefix, d in DAMAGE.items() if job.kind.startswith(prefix))
        assert run.execute(job, prog, tmp_path)[2] is None, job.kind
        assert run.execute(corrupt(job, damage), prog, tmp_path)[2] is not None, job.kind
        if job.kind.startswith("wstar"):  # one large job is enough
            break


def test_a_run_counts_failed_jobs_and_goes_on(setups):
    prog, points = setups["q2-sweep"]
    damaged = lambda rng, pts: corrupt(q2_hierarchy(rng, pts), drop_last_edge)
    workload = Workload("q2-sweep", (2,), (q2_verify, damaged), 95.0)
    summary = run.run(workload, seed=0, seconds=0.5, trace=False)
    assert summary["jobs"] >= 2
    assert summary["failed"] == summary["jobs"] // 2
    assert summary["metrics"]["ok_frac"] == 1 - summary["failed"] / summary["jobs"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_and_files_identical_with_tracing_on_and_off(name, setups, tmp_path):
    prog, points = setups[name]
    tracer = Tracer(prog)
    for i in range(3):
        job = WORKLOADS[name].job(1, i, points)
        _, _, out, error = run.execute_both(job, prog, tmp_path, tracer, i)
        assert error is None and out is not None, job.kind
    assert all(span[5] in range(3) for span in tracer.spans)


def test_generation_is_seeded(setups):
    for name, workload in WORKLOADS.items():
        points = setups[name][1]
        inputs = lambda seed: [workload.job(seed, i, points).inputs for i in range(30)]
        assert inputs(7) == inputs(7)
        assert inputs(7) != inputs(8), name


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    proc = bench("--workload", "q2-sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in RUN.parent.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    proc = bench("--workload", "q2-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "no sparse_duals package" in proc.stderr
