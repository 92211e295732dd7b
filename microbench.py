"""Single-thread hot-loop microbenchmark — the host-weather-independent
regression check (BASELINE.md §D3).

This host shows multi-hour degraded memory-bandwidth windows where
wall-clock benches are meaningless; the flagship's per-block stage
kernels, run single-threaded on one deterministic 1500-doc synth block,
move far less (scalar CPU stays normal) and pin code regressions:

    round-3 best: explode 0.169  ocr 0.03  finalize 0.119  (total 0.32 s)
    round-5 best: explode 0.145  ocr 0.03  finalize 0.119  (total ~0.29 s)

The MinHash signature block signs the same block's documents (span
texts joined per doc): word shingling per doc (the scalar
``_shingle_hashes`` reference) against the batch kernel, and the whole
``MinHashStage`` (batch shingling + the K x S permutation kernel + band
hashes). The worker word-hash cache is warm in both shingling timings.

The keyed-aggregate kernels run on a deterministic lineitem-shaped block
(100k rows, 4 keys — two strings, two ints — x 4 int value columns):
``_keyed_partial`` over the whole block, and ``_keyed_merge`` over the
partials of the same rows cut into 8 blocks, as one reduce partition
receives them. ``_keyed_blk`` — the placement kernel every keyed
exchange pays — runs over the same 100k rows with one string key
(returnflag) and one int key (suppkey).

``join_partition_sec`` is the kernel ``hash_join`` runs once per reduce
partition: one Arrow left-outer ``Table.join`` on an int64 key over the
share of ``orders_customer_join`` one of 4 partitions gets at sf0.1,
37.5k orders rows (key, order key, price) against 3.75k customer rows
(key, segment string), on Arrow's default thread pool as in the engine.

Usage: ``python microbench.py`` — prints one JSON line. No Ray session
(pure local kernels), safe to run any time.
"""
import json
import time


def _best(fn, arg, n=5):
    best = 9e9
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _lineitem_block(n: int = 100_000):
    """Deterministic lineitem-shaped table: 4 keys x 4 int columns."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(0)
    return pa.table({
        "returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n)]),
        "linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n)]),
        "shipmode": pa.array(rng.integers(0, 7, n), pa.int64()),
        "suppkey": pa.array(rng.integers(0, 1000, n), pa.int64()),
        "qty": pa.array(rng.integers(1, 51, n), pa.int64()),
        "price_cents": pa.array(rng.integers(90_000, 10_000_000, n), pa.int64()),
        "disc_bp": pa.array(rng.integers(0, 11, n), pa.int64()),
        "tax_bp": pa.array(rng.integers(0, 9, n), pa.int64()),
    })


def _join_partition(n_left: int = 37_500, n_right: int = 3_750):
    """Deterministic orders/customer partition pair: every order's key is
    one of the partition's customer keys."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(1)
    ckeys = np.sort(rng.choice(150_000, n_right, replace=False)).astype(np.int64)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_left, dtype=np.int64) * 4 + 1),
        "custkey": pa.array(ckeys[rng.integers(0, n_right, n_left)]),
        "price_cents": pa.array(rng.integers(90_000, 50_000_000, n_left),
                                pa.int64()),
    })
    cust = pa.table({
        "custkey": pa.array(ckeys),
        "c_mktsegment": pa.array(np.array(
            ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
        )[rng.integers(0, 5, n_right)]),
    })
    return orders, cust


def main() -> None:
    from unravel_ray.stages import explode_extract, finalize_block, ocr_task
    from unravel_ray.synth import make_corpus_range

    # host-weather probe alongside, so a recorded number is interpretable;
    # shared with bench.py (pinned BLAS threads — the harness env sets
    # OMP_NUM_THREADS=1, under which an in-process probe reads ~1.2 s on a
    # quiet host)
    from bench import _host_probe

    probe = _host_probe()

    blk = make_corpus_range(0, 1500)
    explode_extract(blk)  # warm imports/regex caches untimed
    t_explode, wu = _best(explode_extract, blk)
    t_ocr, oc = _best(lambda b: ocr_task(b, "fake", ("fake",)), wu)
    t_fin, done = _best(finalize_block, oc)

    import pyarrow as pa
    import pyarrow.compute as pc

    from unravel_ray.dedup import (MinHashStage, _shingle_hashes,
                                   _shingle_hashes_batch)

    spans = blk["spans"].combine_chunks()
    text = pc.binary_join(pa.ListArray.from_arrays(
        spans.offsets, pc.fill_null(spans.values.field("text"), "")), " ")
    docs = pa.table({"doc_id": pa.array(range(blk.num_rows), pa.int64()),
                     "text": text})
    texts = text.to_pylist()
    t_sh_doc, _ = _best(lambda ts: [_shingle_hashes(t) for t in ts], texts)
    t_sh_batch, (_, counts) = _best(_shingle_hashes_batch, text)
    t_sign, banded = _best(MinHashStage(), docs)

    from unravel_ray.relational import _keyed_blk, _keyed_merge, _keyed_partial

    li = _lineitem_block()
    keys = ["returnflag", "linestatus", "shipmode", "suppkey"]
    aggs = [("n", None, "count_all"), ("qty", "qty", "sum"),
            ("price_cents", "price_cents", "sum"),
            ("disc_lo", "disc_bp", "min"), ("tax_hi", "tax_bp", "max")]
    t_kpart, part = _best(lambda b: _keyed_partial(b, keys, aggs), li)
    step = li.num_rows // 8
    merge_in = pa.concat_tables([_keyed_partial(li.slice(i, step), keys, aggs)
                                 for i in range(0, li.num_rows, step)])
    t_kmerge, merged = _best(lambda p: _keyed_merge(p, keys, aggs), merge_in)
    t_kblk, _ = _best(lambda b: _keyed_blk(b, ["returnflag", "suppkey"]), li)
    orders, cust = _join_partition()
    t_join, joined = _best(lambda o: o.join(
        cust, keys="custkey", join_type="left outer", right_suffix="_r",
        coalesce_keys=True), orders)
    print(json.dumps({
        "metric": "single-thread hot-loop sec per 1500-doc synth block",
        "explode_sec": round(t_explode, 4),
        "ocr_sec": round(t_ocr, 4),
        "finalize_sec": round(t_fin, 4),
        "total_sec": round(t_explode + t_ocr + t_fin, 4),
        "workunits": wu.num_rows,
        "docs_out": done.num_rows,
        "minhash_shingle_per_doc_sec": round(t_sh_doc, 4),
        "minhash_shingle_batch_sec": round(t_sh_batch, 4),
        "minhash_sign_sec": round(t_sign, 4),
        "minhash_shingles": int(counts.sum()),
        "minhash_band_rows": banded.num_rows,
        "keyed_partial_sec": round(t_kpart, 4),
        "keyed_merge_sec": round(t_kmerge, 4),
        "keyed_blk_sec": round(t_kblk, 4),
        "keyed_partial_rows": part.num_rows,
        "keyed_merge_rows_in": merge_in.num_rows,
        "keyed_groups": merged.num_rows,
        "join_partition_sec": round(t_join, 4),
        "join_partition_rows": joined.num_rows,
        "host_probe_matmul_sec": probe,
    }))


if __name__ == "__main__":
    main()
