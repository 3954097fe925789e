"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload batch-solve --seed 1 --seconds 26 --trace 0

Builds every input from ``--seed``, measures the workload for
``--seconds`` of host wall-clock with tracing off, checks every answer
outside the timed region, and prints the end-to-end metrics. With
``--trace 1`` it then repeats the workload with span recording on and
prints the per-layer metrics instead, plus the untraced run's p99
latencies (not gated, see ``common.TAIL_UNITS``), the traced-minus-
untraced difference of every end-to-end metric and a check that both
runs gave the same answers and model time. The last line of standard
output is one JSON object; the lines before it are for people.

Exit status: 0 when a result line was printed (its ``correct`` field
says whether the checks passed), 2 when the checkout holds no program
source, 1 on any other failure.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    E2E_UNITS,
    TAIL_UNITS,
    ROOT,
    CheckFailed,
    Stack,
    cpu_steal_ticks,
    ensure_program,
    percentile,
    result_line,
)

WORKLOADS = ("batch-solve", "wire-solve", "stream-mutate")
PIPELINE_STAGES = ("csr_upload", "preprocess", "heuristic", "setup", "bfs", "windowed")
#: span names whose self time counts toward the layer shares printed
#: for people (the dominant-layer check); ``service.batch`` is left out
#: because under the threaded executor its self time is the coordinator
#: waiting for the worker threads
SHARE_SPANS = (
    "graph.lookup", "graph.csr_build", "graph.fingerprint", "engine.count_pass",
    "engine.output_pass", "engine.scan", "engine.level_loop",
    *(f"pipeline.{s}" for s in PIPELINE_STAGES),
    "server.decode_graph", "server.decode_frame", "server.encode_frame",
    "server.solve_request", "stream.materialize", "stream.apply", "stream.incremental",
)


def load_workload(name: str):
    if name == "batch-solve":
        import batch_solve as mod
    elif name == "wire-solve":
        import wire_solve as mod
    else:
        import stream_mutate as mod
    return mod.Workload


def error_rate(failed: int, attempted: int) -> float:
    """failed/attempted over a workload's fixed set of operations, with
    half a failure added so a clean run reads a small nonzero floor.

    The set's size does not depend on the program's speed, so the
    figure moves only when failures do.
    """
    return (failed + 0.5) / max(attempted, 1)


def end_to_end(run, out) -> dict:
    op, upd = out["op_ms"], out["update_ms"]
    values = {
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "error_rate": error_rate(*out["window"]),
        "batch.edges_per_s": out["edges_per_s"],
        "wire.p50_ms": percentile(op, 50),
        "wire.p99_ms": out.get("op_p99_ms", percentile(op, 99)),
        "wire.goodput_rps": out["goodput_rps"],
        "stream.mutations_per_s": out["ops_per_s"],
        "stream.update_p50_ms": percentile(upd, 50),
        "stream.update_p99_ms": out.get("update_p99_ms", percentile(upd, 99)),
    }
    units = {**E2E_UNITS, **TAIL_UNITS}
    return {name: (values[name], unit) for name, unit in units.items()}


def per_layer(workload, run, out) -> dict:
    """Every per-layer metric from the traced run (0 where a layer idles).

    Self times and counts are per operation (a graph job, a wire
    request or a mutation) so runs that complete different amounts of
    work compare directly.
    """
    from tracing import merged, self_times, span_stats, windows_in

    dumps = run["traces"]
    selfs = self_times(dumps)
    counts = merged(dumps, "counts")
    samples = merged(dumps, "samples")
    ops = max(out["ok"], 1)
    records = workload.records(run)
    backend = run.get("backend_stats", {})
    router = run.get("router_stats", {})
    service = backend.get("service", {})
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    # graph
    put("graph.lookup.queries", counts.get("graph.lookup.queries", 0) / ops, "count")
    put("graph.lookup.self_s", selfs.get("graph.lookup", 0.0) / ops, "s")
    put("graph.lookup.hit_ratio", ratio(counts.get("graph.lookup.hits", 0),
                                        counts.get("graph.lookup.queries", 0)), "ratio")
    put("graph.csr_build.calls", span_stats(dumps, "graph.csr_build")[0] / ops, "count")
    put("graph.csr_build.self_s", selfs.get("graph.csr_build", 0.0) / ops, "s")
    put("graph.fingerprint.self_s", selfs.get("graph.fingerprint", 0.0) / ops, "s")
    # gpusim: guards, per operation over a fixed set of operations
    launches, model_s, fixed_ops = workload.fixed_set(run)
    put("gpusim.launches", ratio(launches, fixed_ops), "count")
    put("gpusim.model_time_s", ratio(model_s, fixed_ops), "s")
    # engine
    put("engine.count_pass.self_s", selfs.get("engine.count_pass", 0.0) / ops, "s")
    put("engine.output_pass.self_s", selfs.get("engine.output_pass", 0.0) / ops, "s")
    put("engine.scan.self_s", selfs.get("engine.scan", 0.0) / ops, "s")
    put("engine.levels", span_stats(dumps, "engine.count_pass")[0] / ops, "count")
    put("engine.windows",
        windows_in(dumps, "engine.level_loop", "pipeline.windowed") / ops, "count")
    put("engine.prune_ratio", ratio(counts.get("engine.pruned", 0),
                                    counts.get("engine.generated", 0)), "ratio")
    # pipeline
    for stage in PIPELINE_STAGES:
        put(f"pipeline.{stage}.self_s", selfs.get(f"pipeline.{stage}", 0.0) / ops, "s")
    # service
    n_batches, batch_wall = span_stats(dumps, "service.batch")
    job_walls = [r.get("wall_time_s", 0.0) for r in records]
    jobs = len(records) or service.get("jobs", {}).get("total", 0)
    attempts = (sum(r.get("attempts", 0) for r in records)
                or service.get("jobs", {}).get("attempts", 0))
    hits = (sum(1 for r in records if r.get("cache_hit"))
            or service.get("jobs", {}).get("cache_hits", 0))
    put("service.batch.wall_s", ratio(batch_wall, n_batches), "s")
    put("service.job.wall_s", ratio(sum(job_walls), len(job_walls)), "s")
    put("service.parallelism", ratio(sum(job_walls), batch_wall), "ratio")
    put("service.attempts_per_job", ratio(attempts, jobs), "ratio")
    put("service.cache.hit_ratio", ratio(hits, jobs), "ratio")
    put("service.admission.windowed",
        ratio(sum(1 for r in records if r.get("admission") == "windowed"), len(records)),
        "ratio")
    # server
    put("server.decode_graph.self_s", selfs.get("server.decode_graph", 0.0) / ops, "s")
    put("server.decode_frame.self_s", selfs.get("server.decode_frame", 0.0) / ops, "s")
    put("server.encode_frame.self_s", selfs.get("server.encode_frame", 0.0) / ops, "s")
    put("server.frame_bytes.in", counts.get("server.frame_bytes.in", 0) / ops, "B")
    put("server.frame_bytes.out", counts.get("server.frame_bytes.out", 0) / ops, "B")
    waits = samples.get("server.bridge.wait_s", [])
    put("server.bridge.wait_p50_s", percentile(waits, 50), "s")
    put("server.bridge.wait_p99_s", percentile(waits, 99), "s")
    sizes = samples.get("server.bridge.batch_size", [])
    put("server.bridge.batch_size", ratio(sum(sizes), len(sizes)), "count")
    server_p50 = backend.get("server", {}).get("latency", {}).get("p50_ms", 0.0)
    put("server.solve_p50_ms", server_p50, "ms")
    put("server.rejects", sum(
        v for k, v in backend.get("server", {}).items() if k.startswith("rejects.")
    ), "count")
    # cluster
    hop = percentile(out["op_ms"], 50) - server_p50 if server_p50 else 0.0
    put("router.hop_p50_ms", hop, "ms")
    put("router.resubmits", router.get("router", {}).get("resubmits.total", 0), "count")
    # stream
    put("stream.materialize.calls", span_stats(dumps, "stream.materialize")[0] / ops, "count")
    put("stream.materialize.self_s", selfs.get("stream.materialize", 0.0) / ops, "s")
    put("stream.incremental.self_s", selfs.get("stream.incremental", 0.0) / ops, "s")
    put("stream.localized_solves", counts.get("stream.localized_solves", 0) / ops, "count")
    put("stream.full_solves", counts.get("stream.full_solves", 0) / ops, "count")
    put("stream.incremental_ratio", ratio(counts.get("stream.incremental_batches", 0),
                                          counts.get("stream.batches", 0)), "ratio")
    put("stream.delivered_ratio", out.get("delivered_ratio", 0.0), "ratio")
    return m


def layer_shares(run) -> list:
    from tracing import self_times

    selfs = self_times(run["traces"])
    total = sum(selfs.get(n, 0.0) for n in SHARE_SPANS)
    return sorted(
        ((n, selfs.get(n, 0.0) / total if total else 0.0) for n in SHARE_SPANS),
        key=lambda kv: -kv[1],
    )


def same(a: tuple, b: tuple) -> bool:
    """Two answer tuples agree: every field exactly, except that a float
    field may differ by floating-point rounding (1e-9 relative).

    Workloads put a value in as a float only where the program's own
    arithmetic cannot pin it to the bit; everything else is compared
    byte for byte.
    """
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=1e-9)
        if isinstance(x, float) and isinstance(y, float) else x == y
        for x, y in zip(a, b)
    )


def one_pass(workload, trace: bool):
    run = workload.measure(trace)
    out = workload.outcome(run)
    answers = workload.answers(run)
    problem = None
    try:
        workload.verify(run)
    except CheckFailed as exc:
        problem = str(exc)
    return run, out, answers, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (inputs a fraction of the real ones)")
    args = parser.parse_args(argv)
    ensure_program()
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    workload = load_workload(args.workload)(args.seed, args.seconds, args.tiny, workdir)
    workload.prepare()
    steal0 = cpu_steal_ticks()
    run, out, answers, problem = one_pass(workload, trace=False)
    steal = cpu_steal_ticks() - steal0
    problems = [problem] if problem else []
    if args.workload == "wire-solve":
        import wire_solve

        if out["send_lag_max_ms"] > wire_solve.MAX_SEND_LAG_MS:
            problems.append(
                f"invalid run: the sender ran {out['send_lag_max_ms']:.1f} ms late "
                f"(bound {wire_solve.MAX_SEND_LAG_MS:.0f} ms)"
            )
    metrics = end_to_end(run, out)
    report = {"workload": args.workload, "seed": args.seed, "samples": len(out["op_ms"]),
              "update_samples": len(out["update_ms"]), "checks": workload.checks,
              "cpu_steal_ticks": steal}
    if args.workload == "wire-solve":
        report["steps"] = out["steps"]
        report["send_lag_p50_ms"] = out["send_lag_p50_ms"]
        report["send_lag_max_ms"] = out["send_lag_max_ms"]
    attempted, failed = out["attempted"], out["failed"]

    if args.trace:
        from tracing import coverage

        t_run, t_out, t_answers, t_problem = one_pass(workload, trace=True)
        if t_problem:
            problems.append(f"traced run: {t_problem}")
        common = set(answers) & set(t_answers)
        if not common or any(not same(answers[k], t_answers[k]) for k in common):
            problems.append("traced run's answers or model time differ from the untraced run")
        report["answers_compared"] = len(common)
        traced_e2e = end_to_end(t_run, t_out)
        layers = per_layer(workload, t_run, t_out)
        for name, (value, unit) in metrics.items():
            layers[f"overhead.{name}"] = (traced_e2e[name][0] - value, unit)
        for name in TAIL_UNITS:
            layers[name] = metrics[name]
        layers["trace.coverage"] = (coverage(t_out["windows"], t_run["traces"]), "ratio")
        # the open-loop sender's lag (zeros on the closed-loop workloads);
        # the per-rung counts are in the report above the result line
        layers["wire.send_lag_p50_ms"] = (out.get("send_lag_p50_ms", 0.0), "ms")
        layers["wire.send_lag_max_ms"] = (out.get("send_lag_max_ms", 0.0), "ms")
        report["layer_shares"] = [(n, round(s, 4)) for n, s in layer_shares(t_run) if s]
        report["missing_targets"] = sorted({m for d in t_run["traces"] for m in d["missing"]})
        metrics = layers
    else:
        metrics = {name: metrics[name] for name in E2E_UNITS}

    report["problems"] = problems
    print(json.dumps(report, indent=1, default=str))
    print(result_line(not problems, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = main()
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        Stack.kill_all()
    sys.exit(code)
