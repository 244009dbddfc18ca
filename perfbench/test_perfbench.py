"""Tests of the benchmark harness: span arithmetic, the traced split, the
result line's contract, and refusal without the program's sources."""

import json
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import harness, run, spans

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(sid, parent, start, end, name="f", thread=1):
    return spans.Span(sid, parent, name, start, end, thread, 0, "ops")


def test_self_time_subtracts_union_of_overlapping_children():
    trace = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, thread=2),
        _span(3, 1, 3.0, 6.0, thread=3),
        _span(4, 1, 8.0, 9.0),
        _span(5, 4, 8.5, 9.5),  # runs past its parent: only the overlap counts
    ]
    selfs = spans.self_times(trace)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_pool_thread_spans_attach_to_the_adopting_span():
    tracer = spans.Tracer()
    tracer.phase, tracer.op = "ops", 7
    inner = tracer.wrap("inner", lambda x: x * 2)

    def outer_fn(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, xs))

    outer = tracer.wrap("outer", outer_fn, adopts=True)
    assert outer([1, 2, 3]) == [2, 4, 6]
    (top,) = [s for s in tracer.spans if s.name == "outer"]
    kids = [s for s in tracer.spans if s.name == "inner"]
    assert len(kids) == 3
    assert all(s.parent == top.id and s.op == 7 for s in kids)
    assert all(s.thread != threading.get_ident() for s in kids)


@pytest.mark.parametrize(
    "workload, busy, idle",
    [
        ("grid", "propagator.block_expm.calls", "coeff.dd_exp_batch.calls"),
        ("matrix", "propagator.block_expm.calls", "coeff.dd_exp_batch.calls"),
        ("decompose", "coeff.dd_exp_batch.calls", "propagator.block_expm.calls"),
        ("improved", "improved.revision_energies.calls", "propagator.block_expm.calls"),
    ],
)
def test_smoke_traced_run(tmp_path, workload, busy, idle):
    from divexp import cli, propagator

    main, evolve = cli.main, propagator.evolve
    rec = harness.measure(workload, 3, 0.0, True, str(tmp_path), smoke_ops=2)
    assert rec["failed"] == 0, rec["errors"]
    assert rec["err_over_tol_max"] <= 1.0
    layers = rec["layers"]
    assert set(layers) == {m["name"] for m in _benchmark()["per_layer"]}
    assert layers[busy] > 0 and layers[idle] == 0
    assert (cli.main, propagator.evolve) == (main, evolve), "wrappers left installed"


def _benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_smoke_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "matrix",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in _benchmark()["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
