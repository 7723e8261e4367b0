#!/usr/bin/env python3
"""DiCE end-to-end benchmark: one run of one workload.

    python3 perfbench/run.py --workload fig1-explore --seed 1 --seconds 20 --trace 0

Run from the root of a dice checkout. It builds perfbench/ (the dice
library from ../src plus the dice_perfbench driver) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, runs the driver once, checks its
outputs and prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics and a per-layer table.
Build logs and the driver's diagnostics go to stderr. Exits nonzero when a
correctness check fails or nothing can be built (no dice sources).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
import stats  # noqa: E402

WORKLOADS = ("fig1-explore", "matrix-concolic", "internet500-restart")
WORKERS = 2  # exploration workers in every workload

# Per-layer metrics taken as the median duration of one span name:
# (span name, factor from microseconds, unit).
SPAN_METRICS = {
    "dice.snapshot.take_ms": ("dice.snapshot.take", 1e-3, "ms"),
    "dice.snapshot.prepare_ms": ("dice.snapshot.prepare", 1e-3, "ms"),
    "dice.clone.reset_us": ("dice.clone.reset", 1.0, "us"),
    "dice.clone.converge_us": ("dice.clone.converge", 1.0, "us"),
    "dice.clone.check_us": ("dice.clone.check", 1.0, "us"),
    "bgp.restore_raw_ms": ("bgp.restore_raw", 1e-3, "ms"),
    "svc.construct_ms": ("svc.construct", 1e-3, "ms"),
    "svc.store.decode_ms": ("svc.store.decode", 1e-3, "ms"),
    "svc.round_ms": ("svc.round", 1e-3, "ms"),
    "svc.persist_ms": ("svc.persist", 1e-3, "ms"),
}
# Per-layer metrics the driver reports as a sample list (the median is
# taken here) or as one value.
SAMPLE_METRICS = {
    "dice.bootstrap_ms": "ms",
    "snapshot.cut_bytes": "bytes",
    "svc.resume_ms": "ms",
    "concolic.queries": "count",
    "concolic.unsat_ratio": "ratio",
}
VALUE_METRICS = {
    "dice.clone.events": "count",
    "snapshot.delta_node_ratio": "ratio",
    "snapshot.decodes_per_clone": "count",
    "explore.pool.steals_per_op": "count",
    "explore.arena.rebuilds_per_op": "count",
    "explore.live_cache.hit_ratio": "ratio",
    "explore.solver_cache.hit_ratio": "ratio",
    "concolic.input_gen_ms": "ms",
    "bgp2.differential_checks": "count",
    "bgp.handler_crashes": "count",
    "svc.store.bytes": "bytes",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(repo_root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(repo_root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "dice_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dice_perfbench")


def traced_ops(raw):
    """{op id: {span id: (parent, start, end)}} for the timed traced ops, and
    the names and workers of their spans."""
    kinds = dict(raw["ops"])
    ops, names, workers = {}, {}, {}
    for op, span_id, parent, name, worker, start, end in raw["spans"]:
        if kinds.get(op) != "op":
            continue
        ops.setdefault(op, {})[span_id] = (parent, start, end)
        names[span_id] = name
        workers[span_id] = worker
    return ops, names, workers


def layer_table(raw):
    """Per-layer time per traced op. Rows are span names plus 'other' (the
    op span's own time); returns [(name, wall ms/op, share of op wall,
    busy ms/op)] and the mean op wall in ms. The wall column sums to the
    op wall."""
    ops, names, workers = traced_ops(raw)
    wall, busy, op_wall = {}, {}, 0.0
    for spans in ops.values():
        roots = [s for s, (parent, _, _) in spans.items() if parent == 0]
        if len(roots) != 1:
            raise ValueError("a traced op has %d root spans" % len(roots))
        root = roots[0]
        op_names = {s: ("other" if s == root else names[s]) for s in spans}
        for name, value in stats.wall_by_name(spans, op_names, root).items():
            wall[name] = wall.get(name, 0.0) + value
        for name, value in stats.busy_by_name(
                spans, op_names, {s: workers[s] for s in spans}).items():
            busy[name] = busy.get(name, 0.0) + value
        op_wall += spans[root][2] - spans[root][1]
    if not ops:
        return [], 0.0
    count = len(ops)
    rows = [(name, wall[name] / count / 1e3, wall[name] / op_wall, busy[name] / count / 1e3)
            for name in sorted(wall, key=lambda n: (n == "other", -wall[n]))]
    return rows, op_wall / count / 1e3


def per_layer_metrics(raw, rows):
    metrics = {}
    for metric, (span, scale, unit) in SPAN_METRICS.items():
        durations = [end - start for _, _, _, name, _, start, end in raw["spans"]
                     if name == span]
        metrics[metric] = (stats.median(durations) * scale if durations else 0.0, unit)
    for metric, unit in SAMPLE_METRICS.items():
        values = raw["samples"].get(metric)
        metrics[metric] = (stats.median(values) if values else 0.0, unit)
    for metric, unit in VALUE_METRICS.items():
        metrics[metric] = (raw["values"].get(metric, 0.0), unit)

    ops, names, _ = traced_ops(raw)
    traced_wall = sum(end - start for spans in ops.values()
                      for parent, start, end in spans.values() if parent == 0)
    clone_busy = sum(end - start for spans in ops.values()
                     for span_id, (_, start, end) in spans.items()
                     if names[span_id] == "dice.clone")
    cells = raw["samples"].get("explore.cell_ms", [])
    untraced, traced = raw["op_ms"], raw["traced_op_ms"]
    tail = stats.tail(untraced)
    other = {name: share for name, _, share, _ in rows}.get("other", 0.0)
    metrics.update({
        "explore.worker_busy_ratio": (clone_busy / (WORKERS * traced_wall)
                                      if traced_wall else 0.0, "ratio"),
        "explore.cell_ms_p50": (stats.median(cells) if cells else 0.0, "ms"),
        "explore.cell_ms_max": (max(cells) if cells else 0.0, "ms"),
        "obs.trace_overhead": (stats.median(traced) / stats.median(untraced) - 1.0
                               if traced and untraced else 0.0, "ratio"),
        "op.tail_ms": (tail[1] if tail else 0.0, "ms"),
        "op.tail_pct": (tail[0] if tail else 0.0, "pct"),
        "op.samples": (float(len(untraced)), "count"),
        "trace.other_share": (other, "ratio"),
        "traced.op_ms_p50": (stats.median(traced) if traced else 0.0, "ms"),
    })
    return metrics


def end_to_end_metrics(raw):
    return {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "op_ms_p50": (stats.median(raw["op_ms"]), "ms"),
        "clones_per_s": (raw["timed_clones"] / raw["timed_wall_s"], "1/s"),
        "cpu_ms_per_op": (raw["timed_cpu_s"] * 1e3 / len(raw["op_ms"]), "ms"),
        "peak_rss_mb": (stats.parse_vmhwm_kb(raw["vmhwm"]) / 1024.0, "MB"),
    }


def print_summary(raw, metrics, rows, op_wall_ms):
    print("workload %s seed %d trace %d: fault hash %s, %d set-ups, %d untraced ops, "
          "%d traced ops" % (raw["workload"], raw["seed"], raw["trace"], raw["fault_hash"],
                             len(raw["setup_s"]), len(raw["op_ms"]), len(raw["traced_op_ms"])))
    for check in raw["checks"]:
        print("  check %-34s %s %s" % (check["name"], "ok" if check["ok"] else "FAILED",
                                       check["detail"]))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    if rows:
        print("\nper-layer time per traced op (wall: the op's wall time split among the")
        print("innermost active spans, summing to the op; busy: self time summed over workers)")
        print("  %-26s %12s %8s %12s" % ("span", "wall ms/op", "share", "busy ms/op"))
        for name, wall_ms, share, busy_ms in rows:
            print("  %-26s %12.3f %7.1f%% %12.3f" % (name, wall_ms, share * 100, busy_ms))
        print("  %-26s %12.3f %7.1f%%" % ("op wall", op_wall_ms, 100 * sum(r[2] for r in rows)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(repo_root, "src")):
        log("perfbench: no dice sources beside %s; nothing to build" % repo_root)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(repo_root, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(repo_root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2

    # Stores and the raw output live in a temporary directory inside the
    # build directory and are removed whatever happens.
    tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        out = os.path.join(tmp, "raw.json")
        subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--tmp", tmp, "--out", out],
                       check=True, stdout=sys.stderr, timeout=170)
        with open(out) as raw_file:
            raw = json.load(raw_file)
    except (OSError, ValueError, subprocess.SubprocessError) as error:
        log("perfbench: workload run failed: %s" % error)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows, op_wall_ms = layer_table(raw) if args.trace else ([], 0.0)
    metrics = per_layer_metrics(raw, rows) if args.trace else end_to_end_metrics(raw)
    failed_checks = sum(1 for check in raw["checks"] if not check["ok"])
    attempted = len(raw["op_ms"]) + len(raw["traced_op_ms"]) + len(raw["checks"])
    failed = raw["ops_failed"] + failed_checks
    print_summary(raw, metrics, rows, op_wall_ms)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
