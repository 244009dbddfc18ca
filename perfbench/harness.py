"""One workload process: set up, run a closed loop of ops, check, report.

Started by ``run.py`` with BLAS pinned to one thread.  The client sends the
next op only after the previous one returned; each op is timed alone and
checked right after, outside its timing.  The timed phase lasts until the
summed op time reaches ``--seconds`` and at least 100 ops ran, in whole
cycles of the workload's op list.
With ``--trace 1`` the process first runs whole cycles of ops untraced for
half the time, then replays the same ops with spans recorded, and reports
per-layer metrics from the replay.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

from . import spans
from .workloads import WORKLOADS

MIN_OPS = 100  # at least ten op times beyond the 90th percentile


class Client:
    """Closed-loop client over one cycle of ops."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times: list[float] = []
        self.check_s: list[float] = []
        self.out_bytes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.worst: dict[str, float] = {}

    def _phase(self, name, op=None):
        if self.tracer is not None:
            self.tracer.phase, self.tracer.op = name, op

    def step(self, i: int, timed: bool = True) -> float:
        """Run op ``i`` of the cycle, then check it; return its wall time."""
        op = self.ops[i % len(self.ops)]
        self.attempted += 1
        self._phase("ops", i)
        result, error = None, None
        start = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:  # an op that raises counts as failed
            error = f"op {i} ({op.kind}) raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self._phase("check", i)
        c0 = time.perf_counter()
        if error is None:
            try:
                ratio = float(op.check(result))
                self.worst[op.kind] = max(self.worst.get(op.kind, 0.0), ratio)
                if not ratio <= 1.0:
                    error = f"op {i} ({op.kind}) error {ratio:.3g} x its promised accuracy"
            except Exception as exc:
                error = f"op {i} ({op.kind}) check failed: {type(exc).__name__}: {exc}"
        self.check_s.append(time.perf_counter() - c0)
        has_out = op.out is not None and os.path.exists(op.out)
        self.out_bytes.append(os.path.getsize(op.out) if has_out else 0)
        self._phase("idle")
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        if timed:
            self.times.append(wall)
        return wall


def _environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DIVEXP_THREADS")
        },
    }


def _run_until(client, seconds, min_ops, cycle) -> int:
    """Run ops until both limits are met, in whole ``cycle``s; return the count."""
    i, spent = 0, 0.0
    while spent < seconds or i < min_ops or i % cycle:
        spent += client.step(i)
        i += 1
    return i


def layer_metrics(trace: list, n_ops: int, client: Client, overhead: float) -> dict:
    """Per-op layer metrics from the spans of the traced replay."""
    ops_spans = [s for s in trace if s.phase == "ops"]
    selfs = spans.self_times(ops_spans)
    by = defaultdict(list)
    for s in ops_spans:
        by[s.name].append(s)
    setup = defaultdict(float)
    for s in trace:
        if s.phase == "setup":
            setup[s.name] += s.dur

    def calls(name):
        return len(by[name]) / n_ops

    def total(name):
        return sum(s.dur for s in by[name]) / n_ops

    def self_s(name):
        return sum(selfs[s.id] for s in by[name]) / n_ops

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by[name])

    evolve_ids = {s.id for s in by["propagator.evolve"]}
    evolve_wall = sum(s.dur for s in by["propagator.evolve"])
    pool_busy = sum(s.dur for s in by["propagator.truncated_propagator"] if s.parent in evolve_ids)
    rows = info_sum("coeff.dd_exp_batch", "rows")
    orders = [s.info["L"] for s in by["propagator.truncated_propagator"] if "L" in s.info]
    sides = [s.info["side"] for s in by["propagator.block_expm"] if "side" in s.info]
    n = len(client.check_s)
    return {
        "model.load_model_path.s": total("model.load_model_path"),
        "model.redivide.s": total("model.redivide"),
        "setup.model.load_model_path.s": setup["model.load_model_path"],
        "setup.model.redivide.s": setup["model.redivide"],
        "coeff.dd_exp_batch.calls": calls("coeff.dd_exp_batch"),
        "coeff.dd_exp_batch.rows": rows / n_ops,
        "coeff.dd_exp_batch.s": total("coeff.dd_exp_batch"),
        "coeff.dd_exp_batch.clustered_frac":
            info_sum("coeff.dd_exp_batch", "clustered") / rows if rows else 0.0,
        "propagator.evolve.calls": calls("propagator.evolve"),
        "propagator.evolve.s": total("propagator.evolve"),
        "propagator.evolve.parallelism": pool_busy / evolve_wall if evolve_wall else 0.0,
        "propagator.truncated_propagator.calls": calls("propagator.truncated_propagator"),
        "propagator.truncated_propagator.self_s": self_s("propagator.truncated_propagator"),
        "propagator.block_expm.calls": calls("propagator.block_expm"),
        "propagator.block_expm.s": total("propagator.block_expm"),
        "propagator.block_expm.side_max": float(max(sides, default=0)),
        "propagator.series_order_matrix.calls": calls("propagator.series_order_matrix"),
        "propagator.series_order_matrix.s": total("propagator.series_order_matrix"),
        "propagator.coupling_strength.calls": calls("propagator.coupling_strength"),
        "propagator.coupling_strength.s": total("propagator.coupling_strength"),
        "propagator.order_used": sum(orders) / len(orders) if orders else 0.0,
        "contraction.pattern_piece_matrix.calls": calls("contraction.pattern_piece_matrix"),
        "contraction.pattern_piece_matrix.self_s": self_s("contraction.pattern_piece_matrix"),
        "contraction.secular_aggregate_coefficients.self_s":
            self_s("contraction.secular_aggregate_coefficients"),
        "contraction.extract_secular_coefficients.calls":
            calls("contraction.extract_secular_coefficients"),
        "contraction.extract_secular_coefficients.self_s":
            self_s("contraction.extract_secular_coefficients"),
        "improved.revision_energies.calls": calls("improved.revision_energies"),
        "improved.revision_energies.s": total("improved.revision_energies"),
        "improved.improved_kernel.calls": calls("improved.improved_kernel"),
        "improved.improved_kernel.s": total("improved.improved_kernel"),
        "improved.improved_solution.self_s": self_s("improved.improved_solution"),
        "improved.revised_golden_rule.s": total("improved.revised_golden_rule"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.out_bytes": sum(client.out_bytes[-n_ops:]) / n_ops,
        "check.s": sum(client.check_s[n - n_ops :]) / n_ops,
        "trace.busy_s": sum(selfs.values()) / n_ops,
        "trace.overhead_frac": overhead,
    }


def write_spans(path, trace) -> None:
    """Write every recorded span as one JSON line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for s in trace:
            fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.thread,
                                 s.op, s.phase, s.info]) + "\n")


def measure(workload, seed, seconds, trace, workdir, t_spawn=None,
            setup_only=False, smoke_ops=None, spans_out=None):
    """Run one workload in this process and return its result record.

    ``t_spawn`` is the ``time.monotonic()`` reading taken just before this
    process was started; set-up time runs from it to the first timed op.
    ``smoke_ops`` replaces the time limit by that many ops per phase.
    ``spans_out`` names the file the traced run's spans are written to.
    """
    import divexp  # noqa: F401  (import cost belongs to set-up)

    if t_spawn is None:
        t_spawn = time.monotonic()
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)
    try:
        ops = WORKLOADS[workload](np.random.default_rng(seed), workdir)
    finally:
        if tracer is not None:
            tracer.restore()
    client = Client(ops, tracer)
    client.step(0, timed=False)  # warm-up
    setup_s = time.monotonic() - t_spawn
    record = {"setup_s": setup_s, "cycle": len(ops)}
    if setup_only:
        return record

    if smoke_ops:
        seconds, min_ops, cycle = 0.0, smoke_ops, 1
    else:
        min_ops, cycle = (1 if trace else MIN_OPS), len(ops)
    n = _run_until(client, seconds / 2.0 if trace else seconds, min_ops, cycle)
    if trace:
        untraced = sum(client.times[:n])
        spans.install(tracer)
        try:
            for i in range(n):
                client.step(i)
        finally:
            tracer.restore()
        overhead = sum(client.times[n:]) / untraced - 1.0
        record["layers"] = layer_metrics(tracer.spans, n, client, overhead)
        if spans_out is not None:
            write_spans(spans_out, tracer.spans)

    times = np.array(client.times[:n])
    kinds = defaultdict(float)
    for i, t in enumerate(times):
        kinds[ops[i % len(ops)].kind] += float(t)
    record.update(
        kind_share={k: v / times.sum() for k, v in sorted(kinds.items())},
        kind_err=client.worst,
        attempted=client.attempted,
        failed=client.failed,
        errors=client.errors,
        ops=n,
        op_time_s=float(times.sum()),
        op_p50_s=float(np.median(times)),
        op_p90_s=float(np.percentile(times, 90)),
        beyond_p90=int(np.sum(times > np.percentile(times, 90))),
        err_over_tol_max=max(client.worst.values(), default=math.nan),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(),
    )
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke-ops", type=int, default=None)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
        args.t_spawn, args.setup_only, args.smoke_ops, args.spans_out,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
