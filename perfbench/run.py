#!/usr/bin/env python3
"""unravel_ray benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bulk_extract --seed 1 --seconds 20 --trace 0

The run starts its own Ray session on at most four CPUs of the process's
affinity mask and imports the engine in the driver and in every worker
(that is ``setup_s``). It then has ``prepare.py`` make the workload's
inputs from the seed in a separate process, and repeats whole rounds of
the workload's engine calls until ``--seconds`` have passed. Every round's
outputs are checked; the first round's outputs also feed the checkers'
self-tests. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced rounds, reports the difference as its
overhead and writes its spans to ``perfbench/_traces/``.

Without the engine package next to this directory the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK = BENCH / "_work"
TRACES = BENCH / "_traces"
MAX_CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
PREPARE_TIMEOUT_S = 150
# Ray keeps unix sockets under its temp dir; AF_UNIX paths stop at 107 bytes
SOCKET_PATH_MAX = 107
SESSION_SOCKET = "/session_2026-01-01_00-00-00_000000_1234567/sockets/plasma_store"
ENGINE_MODULES = ("unravel_ray.pipeline", "unravel_ray.checkpoint", "unravel_ray.stages",
                  "unravel_ray.html_extract", "unravel_ray.relational", "unravel_ray.dedup")


def _import_engine(batch=None):
    import importlib

    for m in ENGINE_MODULES:
        importlib.import_module(m)
    return batch


def seconds_since_process_start() -> float:
    """Wall time since this process started (Linux: start tick in
    /proc/self/stat against the boot-time clock, 10 ms resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _exit_on_signal(signum, frame):
    sys.exit(128 + signum)


class Bench:
    """Times the engine calls of a round and counts the failed ones."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.timings: dict[str, float] = {}
        self._reported: set[str] = set()

    def op(self, name: str, fn, *needs):
        """Run one engine call; a call whose input failed counts as failed."""
        self.attempted += 1
        if any(n is None for n in needs):
            self.failed += 1
            return None
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name):
                result = fn()
        except Exception:  # noqa: BLE001 — a raising engine is a failed operation
            self.failed += 1
            if name not in self._reported:
                self._reported.add(name)
                print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            self.timings[name] = time.perf_counter() - t0
        return result


def start_ray() -> int:
    """Ray session on at most MAX_CPUS CPUs; workers import the engine
    through PYTHONPATH, whatever directory the run was started from."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO), os.environ.get("PYTHONPATH", "")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # no background thread may start a second session after shutdown
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path.insert(0, str(REPO))
    import ray

    n_cpus = min(MAX_CPUS, len(os.sched_getaffinity(0)))
    kwargs = {}
    temp_dir = WORK / "ray"
    if len(str(temp_dir)) + len(SESSION_SOCKET) <= SOCKET_PATH_MAX:
        kwargs["_temp_dir"] = str(temp_dir)
    else:
        print(f"{temp_dir} is too long for Ray's sockets; Ray uses its default "
              "temp dir", file=sys.stderr)
    ray.init(num_cpus=n_cpus, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return n_cpus


def warm_up(n_cpus: int) -> None:
    """Import the engine in the driver and in every worker."""
    import ray.data

    try:
        n = 4 * n_cpus
        ray.data.range(n, override_num_blocks=n).map_batches(
            _import_engine, batch_format="pyarrow").materialize()
        _import_engine()
    except Exception:  # noqa: BLE001 — the timed calls will fail and be counted
        print(f"engine warm-up failed:\n{traceback.format_exc()}", file=sys.stderr)


def prepare(workload: str, seed: int) -> str:
    inputs = WORK / "inputs"
    subprocess.run([sys.executable, str(BENCH / "prepare.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(inputs)],
                   check=True, timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr)
    return str(inputs)


def measure(bench: Bench, workload, seconds: float, traced_mode: bool) -> dict:
    """Whole rounds until ``seconds`` have passed (a traced run makes at
    least one untraced and one traced round, alternating)."""
    rounds, errors, missed = [], [], []
    t0 = time.monotonic()
    while True:
        n = len(rounds)
        traced = traced_mode and n % 2 == 1
        bench.tracer.active = traced
        bench.timings = {}
        failed_before = bench.failed
        out_dir = str(WORK / "out" / f"round-{n}")
        with bench.tracer.span("bench.round", round=n):
            outputs = workload.round(bench, out_dir)
        bench.tracer.active = False
        found, not_caught = workload.check(outputs, selftest=(n == 0))
        errors += [f"round {n}: {e}" for e in found]
        missed += not_caught
        rec = {"timings": dict(bench.timings), "traced": traced}
        if bench.failed == failed_before:
            rec["details"] = workload.details(outputs, bench.timings)
        rounds.append(rec)
        del outputs
        shutil.rmtree(out_dir, ignore_errors=True)
        if time.monotonic() - t0 >= seconds and (not traced_mode or len(rounds) >= 2):
            break
    return {"rounds": rounds, "errors": errors, "missed": missed}


def _medians(dicts: list[dict]) -> dict:
    keys = dict.fromkeys(k for d in dicts for k in d)
    return {k: statistics.median([d[k] for d in dicts if k in d]) for k in keys}


def end_to_end(rounds: list[dict], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median([sum(r["timings"].values()) for r in rounds]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def probe_stages(block) -> dict:
    """Single-process kernel timings on one block (median of three)."""
    from workloads import engine

    stages = engine("unravel_ray.stages")
    html = engine("unravel_ray.html_extract")

    def timed(fn):
        times, out = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), out

    n = block.num_rows
    t_explode, units = timed(lambda: stages.explode_extract(block))
    t_ocr, ocred = timed(lambda: stages.ocr_task(units, "fake", ("fake",), 3))
    t_finalize, _ = timed(lambda: stages.finalize_block(ocred))
    htmls = [s["text"] for spans in block["spans"].to_pylist() for s in spans or []
             if s["kind"] == "html" and s["text"]]
    t_html, _ = timed(lambda: [html.extract_html_spans(h) for h in htmls])
    return {
        "stages.explode_s_per_kdoc": (t_explode * 1000 / n, "s"),
        "stages.ocr_s_per_kdoc": (t_ocr * 1000 / n, "s"),
        "stages.finalize_s_per_kdoc": (t_finalize * 1000 / n, "s"),
        "stages.workunits_per_doc": (units.num_rows / n, "count"),
        "html_extract.s_per_mb": (t_html / (sum(len(h.encode()) for h in htmls) / 1e6), "s/MB"),
    }


def per_layer(tracer, rounds: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds' spans -> (metrics, detail)."""
    per_round, operators, self_times = [], [], []
    for rnd in (s for s in tracer.spans if s["name"] == "bench.round"):
        calls = tracer.children(rnd["id"])
        execs = [(c["name"], e) for c in calls for e in tracer.children(c["id"])]
        by_op: dict[str, dict] = {}
        for call, e in execs:
            for op in e["operators"]:
                agg = by_op.setdefault(f"raydata.{call}.{op['operator']}",
                                       {"wall_s": 0.0, "cpu_s": 0.0, "rows_out": 0,
                                        "bytes_out": 0})
                for k in agg:
                    agg[k] += op[k]
        operators.append(by_op)
        layers: dict[str, float] = {}
        for s in tracer.spans:
            if rnd["start"] <= s["start"] and s["end"] <= rnd["end"]:
                layer = s["name"].split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + tracer.self_time(s)
        self_times.append(layers)
        per_round.append({
            "raydata.executions": len(execs),
            "raydata.exec_wall_s": sum(e["end"] - e["start"] for _, e in execs),
            "raydata.op_wall_s": sum(o["wall_s"] for o in by_op.values()),
            "raydata.op_cpu_s": sum(o["cpu_s"] for o in by_op.values()),
            "raydata.rows_out": sum(o["rows_out"] for o in by_op.values()),
            "raydata.mb_out": sum(o["bytes_out"] for o in by_op.values()) / 1e6,
            "raydata.top_op_wall_s": max((o["wall_s"] for o in by_op.values()), default=0.0),
            "engine.driver_self_s": sum(tracer.self_time(c) for c in calls),
            "trace.spans_per_round": 1 + len(calls) + len(execs),
        })
    traced = [sum(r["timings"].values()) for r in rounds if r["traced"]]
    untraced = [sum(r["timings"].values()) for r in rounds if not r["traced"]]
    units = {"raydata.executions": "count", "raydata.rows_out": "count",
             "raydata.mb_out": "MB", "trace.spans_per_round": "count"}
    metrics = {k: (v, units.get(k, "s")) for k, v in _medians(per_round).items()}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")
    op_medians = {name: _medians([o[name] for o in operators if name in o])
                  for name in dict.fromkeys(k for o in operators for k in o)}
    detail = {"raydata_operators": op_medians, "self_time_s_by_layer": _medians(self_times),
              "traced_round_s": traced, "untraced_round_s": untraced}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="unravel_ray benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (REPO / "unravel_ray" / "__init__.py").is_file():
        print(f"engine package not found: {REPO / 'unravel_ray'}", file=sys.stderr)
        return 2
    from spans import Tracer, install_raydata_hook
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    tracer = Tracer()
    bench = Bench(tracer)
    try:
        n_cpus = start_ray()
        # after ray.init, which installs its own handler
        signal.signal(signal.SIGTERM, _exit_on_signal)
        warm_up(n_cpus)
        setup_s = seconds_since_process_start()
        workload = WORKLOADS[args.workload](prepare(args.workload, args.seed))
        if args.trace:
            remove_hook = install_raydata_hook(tracer)
        result = measure(bench, workload, args.seconds, bool(args.trace))
        rounds = result["rounds"]
        details = _medians([r["details"] for r in rounds if "details" in r])
        if args.trace:
            remove_hook()
            metrics, detail = per_layer(tracer, rounds)
            metrics.update(probe_stages(workload.probe_block()))
            TRACES.mkdir(exist_ok=True)
            trace_path = TRACES / f"{args.workload}-seed{args.seed}.json"
            tracer.write(str(trace_path), {
                "workload": args.workload, "seed": args.seed, "cpus": n_cpus,
                "per_layer": {k: v for k, (v, _) in metrics.items()},
                "details": details, **detail})
            print(f"trace written to {trace_path}", file=sys.stderr)
        else:
            metrics = end_to_end(rounds, setup_s)
    finally:
        import ray

        ray.shutdown()
        shutil.rmtree(WORK, ignore_errors=True)
    for e in result["errors"][:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for m in result["missed"]:
        print(f"SELF-TEST: a checker accepted the corruption '{m}'", file=sys.stderr)
    print(json.dumps({"cpus": n_cpus, "rounds": len(rounds), "details": details}),
          file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"] and not result["missed"],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
