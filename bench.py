"""Benchmark harness — headline pipelines over $GRAFT_SF_DIR.

Plain run: one fresh Ray session at $RAY_GRAFT_CPUS (default: the CPUs
this process may run on), times each headline pipeline, prints ONE JSON
line.

--scaling: runs this script in two fresh subprocesses (default
num_cpus=4 then 16 over the 480k-doc corpus; GRAFT_SCALE_LO/HI override)
on the same input and reports both throughputs + scaling efficiency
E = (T_lo/T_hi)/4 (1.0 = linear). See BASELINE.md §C for the protocol
(min-of-2, warmed pool, T_lo >= 60 s corpus sizing).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _headline_queries():
    import __ray_entry__ as e

    q = e.queries()
    names = [
        "flagship_extract",
        "flagship_rollup",
        "lineitem_pricing",
        "user_event_totals",
        "word_counts_by_lang",
        "dedup_exact",
        "minhash_pairs",
        "ann_topk",
        "event_hourly_windows",
        "search_content",
        "orders_customer_join",
    ]
    return {n: q[n] for n in names}


def _consume(result) -> int:
    """Consume a result fully (streamed), return row count."""
    import ray.data

    if isinstance(result, ray.data.Dataset):
        n = 0
        for batch in result.iter_batches(batch_size=8192, batch_format="pyarrow"):
            n += batch.num_rows
        return n
    return len(result)


_PROBE_SRC = """
import time, numpy as np
a = np.random.rand(2000, 2000)
best = float("inf")
for _ in range(3):
    t0 = time.perf_counter(); a @ a
    best = min(best, time.perf_counter() - t0)
print(round(best, 3))
"""


def _host_probe() -> float:
    """Engine-independent memory-bandwidth weather probe: best-of-3
    2000x2000 matmul seconds at a PINNED 8 BLAS threads. ~0.15-0.3 s on
    healthy hardware; >0.5 s means a degraded co-tenant window where ALL
    wall times inflate (BASELINE.md §D3) — interpret absolute numbers
    accordingly. Pinning matters: the harness environment sets
    OMP_NUM_THREADS=1, under which the same matmul reads ~1.2 s on a
    perfectly quiet host (this skewed the r3/r4 recorded probes); running
    in a subprocess with the thread count forced makes the number measure
    host contention, not inherited env."""
    env = dict(os.environ, OMP_NUM_THREADS="8", OPENBLAS_NUM_THREADS="8",
               MKL_NUM_THREADS="8")
    try:
        out = subprocess.run([sys.executable, "-c", _PROBE_SRC], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        return float(out.stdout.strip())
    except Exception:
        return -1.0  # probe unavailable; absolute times uninterpretable


def _num_cpus() -> int:
    """$RAY_GRAFT_CPUS, else the host's usable CPU count — a Ray session
    sized above the real cores measures oversubscription, not the engine."""
    return int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))


def run_bench() -> dict:
    import ray

    num_cpus = _num_cpus()
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    # warm page cache (untimed) so we measure compute+shuffle, not cold disk
    import pyarrow.parquet as pq

    for t in ("documents", "lineitem", "events", "embeddings"):
        pq.read_table(f"{sf_dir}/{t}.parquet")

    # warm the full worker pool (untimed): spawn num_cpus workers and import
    # the engine in each, so both scaling levels measure steady-state
    # compute rather than process-spawn ramp (a long-running cluster job's
    # regime). This is the single biggest fixed cost at small wall times.
    @ray.remote(num_cpus=1)
    def _warm() -> int:
        import unravel_ray.stages  # noqa: F401
        time.sleep(0.3)
        return 0

    ray.get([_warm.remote() for _ in range(num_cpus)])

    # warm the extraction code path itself (untimed): one tiny synth
    # extraction touches every hot module (synth bridge, html walk, OCR
    # providers, finalize, parquet write) in the worker processes, so the
    # first TIMED query measures steady-state compute, not first-call
    # import/plan ramp (2-4 s of the first query's wall otherwise).
    import shutil
    import tempfile

    from unravel_ray.config import PipelineConfig
    from unravel_ray.pipeline import extract_publish
    from unravel_ray.synth import corpus_dataset

    warm_dir = tempfile.mkdtemp(prefix="unravel-bench-warm-")
    extract_publish(corpus_dataset(4000, block_size=250),
                    PipelineConfig(), warm_dir)
    shutil.rmtree(warm_dir, ignore_errors=True)

    from unravel_ray.pipeline import flagship_publish_dir

    def _clear_flagship_cache():
        # the keyed publish cache survives across processes under /tmp;
        # without this, a prior bench/test run makes "flagship_extract"
        # silently measure a warm readback instead of the cold publish it
        # claims to be
        shutil.rmtree(flagship_publish_dir(sf_dir, PipelineConfig()),
                      ignore_errors=True)

    timings: dict[str, float] = {}
    n_docs = 0
    only_synth = bool(os.environ.get("GRAFT_ONLY_SYNTH"))
    for name, fn in ({} if only_synth else _headline_queries()).items():
        if name == "flagship_extract":
            _clear_flagship_cache()
        t0 = time.perf_counter()
        n = _consume(fn(sf_dir))
        timings[name] = round(time.perf_counter() - t0, 3)
        if name == "flagship_extract":
            # COLD publish by design: the timed call IS the durable
            # commit. min-of-2 like every other query, but
            # clearing the keyed cache between runs so BOTH are true cold
            # publishes; the second run leaves the committed extraction
            # in place for the downstream flagship-derived queries.
            n_docs = n
            _clear_flagship_cache()
            t0 = time.perf_counter()
            _consume(fn(sf_dir))
            timings[name] = min(timings[name],
                                round(time.perf_counter() - t0, 3))
        else:
            # min-of-2 de-noises the co-tenant window swings documented
            # in BASELINE.md §D3 without changing any metric's semantics
            t0 = time.perf_counter()
            _consume(fn(sf_dir))
            timings[name] = min(timings[name],
                                round(time.perf_counter() - t0, 3))

    # the north-rule throughput metric: flagship extraction over the
    # deterministic interleaved synth corpus, generated shard-locally in
    # the read tasks (identical bytes at any parallelism — per-doc RNG is
    # hash(seed, doc_id)).
    synth_docs = int(os.environ.get("GRAFT_SYNTH_DOCS", "120000"))
    cfg = PipelineConfig(ocr_concurrency=(max(1, num_cpus // 4), num_cpus))
    # the shipped path: extract_publish. The job boundary is the
    # DURABLE COMMIT (workers' streaming write to parquet + split-doc
    # recompute + rename + manifest) — the same boundary as a production
    # batch run; the row count comes from the committed manifest. The lazy
    # read-back is the consumer's (already persisted) side and is timed
    # separately below as publish_readback.
    t_synth = float("inf")
    t_read = float("inf")
    n_synth = 0
    # min-of-2 in the plain run; the --scaling subprocesses already take
    # a min across two fresh processes, so only_synth runs once
    for _ in range(1 if only_synth else 2):
        pub_dir = tempfile.mkdtemp(prefix="unravel-bench-pub-")
        t0 = time.perf_counter()
        published = extract_publish(
            corpus_dataset(synth_docs, block_size=1250), cfg, pub_dir)
        t_synth = min(t_synth, round(time.perf_counter() - t0, 3))
        with open(os.path.join(pub_dir, "PUBLISHED.json")) as f:
            n_synth = json.load(f)["n_rows"]
        t0 = time.perf_counter()
        n_read = _consume(published)
        t_read = min(t_read, round(time.perf_counter() - t0, 3))
        assert n_read == n_synth, (n_read, n_synth)
        shutil.rmtree(pub_dir, ignore_errors=True)
    timings["flagship_synth"] = t_synth
    timings["publish_readback"] = t_read

    total = round(sum(timings.values()), 3)
    out = {
        "metric": "headline pipeline wall time (sum of stages)",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "host_probe_matmul_sec": _host_probe(),
        "flagship_docs": n_docs,
        "flagship_docs_per_sec": round(n_docs / timings["flagship_extract"], 2)
        if timings.get("flagship_extract") else None,
        "synth_docs": n_synth,
        "synth_docs_per_sec": round(n_synth / t_synth, 2),
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    if "GRAFT_SYNTH_DOCS" not in os.environ:
        os.environ["GRAFT_SYNTH_DOCS"] = "480000"  # scaling corpus (BASELINE.md §C: T_lo >= 60 s)

    def one(ncpu: int, only_synth: bool = False) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        if only_synth:
            env["GRAFT_ONLY_SYNTH"] = "1"
        res = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                             capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(res.stdout.strip().splitlines()[-1])

    # Defaults = the headline protocol recorded in BASELINE.md §D: 4 -> 16
    # CPUs (the honest N -> 4N *node* proxy on this DRAM-shared host; see
    # §C/§D discussion — 8 -> 32 is also measured there) over the 480k-doc
    # corpus (T_lo >= 60 s amortizes startup).
    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))
    r_lo, r_hi = one(lo), one(hi)
    # efficiency is measured on the flagship synth pipeline — the headline
    # job; the small sf-table queries are fixed-overhead-bound at this
    # scale. Each level runs twice (full bench + synth-only) and the MIN is
    # used: this single-tenant-equivalent number is robust to the CPU-steal
    # noise observed on this shared host (see BASELINE.md §C).
    t_lo = min(r_lo["queries"]["flagship_synth"],
               one(lo, only_synth=True)["queries"]["flagship_synth"])
    t_hi = min(r_hi["queries"]["flagship_synth"],
               one(hi, only_synth=True)["queries"]["flagship_synth"])
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling efficiency N->4N CPUs (single host)",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "total_sec_lo": r_lo["value"],
        "total_sec_hi": r_hi["value"],
        "docs_per_sec_lo": r_lo.get("synth_docs_per_sec"),
        "docs_per_sec_hi": r_hi.get("synth_docs_per_sec"),
        "scaling_efficiency": round(eff, 3),
        "queries_lo": r_lo["queries"],
        "queries_hi": r_hi["queries"],
        "sf": r_lo["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
