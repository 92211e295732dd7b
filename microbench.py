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
        "host_probe_matmul_sec": probe,
    }))


if __name__ == "__main__":
    main()
