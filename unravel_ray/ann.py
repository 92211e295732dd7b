"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — a numpy matmul per batch against a
broadcast query matrix (ray.put once; never re-shipped per batch).
Scale paths: LSH (random-hyperplane) bucketing so each query only scans
its probed buckets, and an inverted-file (IVF) index whose cells come
from an integer-exact k-means (same plumbing; streamed or persisted as
cell-partitioned parquet).

No reference analog (search there is Elasticsearch text search,
DocumentSearchService.java); this is the training-data extension.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


def vectors_to_matrix(col: pa.Array | pa.ChunkedArray,
                      dtype=np.float64) -> np.ndarray:
    """(n, dim) matrix from an Arrow list<float> column with NO per-element
    Python: flatten the list values buffer (zero-copy for non-null float
    storage) and reshape. Every embedding batch in ann/dedup rides this
    instead of ``np.stack([... for v in col.to_pylist()])``, which
    materialized each float through a Python object. Raises on ragged or
    null rows — embeddings are fixed-dim by contract."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype)
    flat = col.flatten().to_numpy(zero_copy_only=False)
    if flat.size % n:
        raise ValueError("vectors_to_matrix: ragged or null embedding rows")
    dim = flat.size // n
    offs = col.offsets.to_numpy(zero_copy_only=False)
    if not (np.diff(offs) == dim).all():
        raise ValueError("vectors_to_matrix: ragged or null embedding rows")
    return flat.reshape(n, dim).astype(dtype, copy=False)


def brute_force_topk(ds: Dataset, queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id") -> pa.Table:
    """Exact cosine top-k for each query row.

    Per batch: one matmul (B x D) @ (D x Q) then per-query partial top-k;
    partials merge on the driver (Q*k rows per batch — tiny). Cosines are
    rounded to 6 dp; ties broken by id ascending for determinism.
    Returns a pa.Table (query_idx, rank, vec_id, cos).
    """
    q = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q.T)  # D x Q

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_idx": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        qt = ray.get(q_ref)
        ids = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        mat = _normalize(vectors_to_matrix(batch[vec_col]))
        sims = mat @ qt  # B x Q
        n_q = sims.shape[1]
        kk = min(k, ids.shape[0])
        # per-query partial top-k in one argpartition over the batch axis
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # kk x Q
        qidx = np.repeat(np.arange(n_q, dtype=np.int64), kk)
        rows_i = top.ravel(order="F")  # query-major flattening
        return pa.table({
            "query_idx": pa.array(qidx, pa.int64()),
            id_col: pa.array(ids[rows_i], pa.int64()),
            "cos": pa.array(
                sims[rows_i, qidx].astype(np.float64), pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    out = {"query_idx": [], "rank": [], id_col: [], "cos": []}
    by_q: dict[int, list] = {}
    for r in partials:
        by_q.setdefault(r["query_idx"], []).append((r["cos"], r[id_col]))
    for qi in sorted(by_q):
        cand = sorted(by_q[qi], key=lambda t: (-t[0], t[1]))[:k]
        for rank, (cos, vid) in enumerate(cand):
            out["query_idx"].append(qi)
            out["rank"].append(rank)
            out[id_col].append(vid)
            out["cos"].append(round(cos, 6))
    return pa.table({
        "query_idx": pa.array(out["query_idx"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int64()),
        id_col: pa.array(out[id_col], pa.int64()),
        "cos": pa.array(out["cos"], pa.float64()),
    })


class LshIndexStage:
    """Random-hyperplane signature stage; planes generated once per actor
    from a fixed seed (identical across actors — deterministic bucketing)."""

    def __init__(self, dim: int, n_bits: int = 12, seed: int = 42,
                 vec_col: str = "embedding"):
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(dim, n_bits))
        self.vec_col = vec_col
        self.weights = (1 << np.arange(n_bits)).astype(np.int64)

    def signature(self, mat: np.ndarray) -> np.ndarray:
        return ((mat @ self.planes) > 0).astype(np.int64) @ self.weights

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signature(_normalize(vectors_to_matrix(batch[self.vec_col])))
        return batch.append_column("lsh_bucket", pa.array(sig, pa.int64()))


def lsh_topk(ds: Dataset, queries: np.ndarray, k: int = 10, n_bits: int = 12,
             seed: int = 42, vec_col: str = "embedding", id_col: str = "vec_id",
             concurrency=(1, 2)) -> pa.Table:
    """Approximate top-k: scan only rows whose LSH bucket matches a query's
    bucket (single-probe). Recall grows with fewer bits / multiprobe; this
    is the 100 TB path — each bucket is a partition-local scan.
    """
    q = np.asarray(queries, dtype=np.float64)
    dim = q.shape[1]
    stage = LshIndexStage(dim, n_bits, seed, vec_col)
    q_sigs = stage.signature(_normalize(q))
    wanted_ref = ray.put(pa.array(sorted(set(int(s) for s in q_sigs)),
                                  pa.int64()))

    indexed = ds.map_batches(
        LshIndexStage,
        fn_constructor_kwargs=dict(dim=dim, n_bits=n_bits, seed=seed, vec_col=vec_col),
        batch_format="pyarrow", concurrency=concurrency,
    )

    def keep(batch: pa.Table) -> pa.Table:
        w = ray.get(wanted_ref)
        return batch.filter(pc.is_in(batch["lsh_bucket"], value_set=w))

    candidates = indexed.map_batches(keep, batch_format="pyarrow")
    return brute_force_topk(candidates, queries, k, vec_col, id_col)


# ---------------------------------------------------------------------------
# IVF (inverted-file) index — integer-exact k-means (SQL-reproducible)
# ---------------------------------------------------------------------------
#
# A float cosine k-means has argmax boundaries and float means that are
# engine-specific — no SQL oracle can reproduce them bit-for-bit. The fit
# here is defined in EXACT integer arithmetic so the whole index is
# reproducible verbatim by a DuckDB oracle (unrolled CTE iterations in
# __ray_entry__):
#   * vectors quantized to int64 micros: floor(float64(v) * 1e6) — the
#     same IEEE multiply+floor in numpy and SQL;
#   * init = the vectors of the n_centroids smallest ids (deterministic,
#     SQL-selectable — no RNG);
#   * assignment = argmin squared L2 distance in int64 (exact; ties to
#     the lowest cell id);
#   * update = elementwise FLOOR division of the int sums (floor, not
#     truncation — DuckDB's // truncates toward zero on negatives, so the
#     oracle uses the portable (s - ((s%n)+n)%n) // n form);
#   * final ranking = exact float cosine over the probed candidates (the
#     ann_topk discipline: rank-only output, ties by id).
# At 100 TB the cells map to partition directories and the probe is a
# partition-pruned read (build_ivf_index_quantized); the streamed form
# prunes by a broadcast filter.

MICROS = 1_000_000


def _quantize_micros(mat: np.ndarray) -> np.ndarray:
    """floor(x * 1e6) via float64 — bit-identical to DuckDB's
    CAST(floor(CAST(v AS DOUBLE) * 1000000) AS BIGINT)."""
    return np.floor(np.asarray(mat, dtype=np.float64) * MICROS).astype(np.int64)


def _quant_dists(xq: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Squared L2 distances (B x C), exact in int64 (diffs < 2^22 per dim,
    64 dims -> sums < 2^50)."""
    d = xq[:, None, :] - cents[None, :, :]
    return np.einsum("bcd,bcd->bc", d, d)


def kmeans_fit_quantized(ds: Dataset, n_centroids: int = 8, n_iters: int = 4,
                         vec_col: str = "embedding", id_col: str = "vec_id",
                         sample_mod: int = 1) -> np.ndarray:
    """Distributed integer k-means: each iteration is one map_batches pass
    emitting per-cell partial (count, dim-sums) — only n_centroids x
    (dim + 2) ints per block reach the driver, never vectors. Returns
    int64 micros centroids (n_centroids x dim).

    ``sample_mod``: fit over the deterministic id-sample
    ``id % sample_mod == 0`` instead of the full corpus — the 100 TB
    shape (choose sample_mod so the sample is ~10-100k rows; the fit's
    n_iters passes then scan only the sample while assignment stays one
    full pass). Deterministic and SQL-expressible, unlike an RNG sample,
    so oracles reproduce it verbatim. 1 = fit on everything."""
    if sample_mod > 1:
        def pick(b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(ids % sample_mod == 0))
        fit_ds = ds.map_batches(pick, batch_format="pyarrow")
    else:
        fit_ds = ds
    init_rows = sorted(
        (r for r in fit_ds.map_batches(
            lambda b: b.filter(pc.less(b[id_col], n_centroids * max(1, sample_mod))),
            batch_format="pyarrow").take_all()),
        key=lambda r: r[id_col])[:n_centroids]
    cents = _quantize_micros(np.stack(
        [np.asarray(r[vec_col], dtype=np.float64) for r in init_rows]))
    n_c, dim = cents.shape

    for _ in range(n_iters):
        cents_ref = ray.put(cents)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cents_ref)
            xq = _quantize_micros(vectors_to_matrix(batch[vec_col]))
            assign = np.argmin(_quant_dists(xq, c), axis=1)
            counts = np.bincount(assign, minlength=n_c).astype(np.int64)
            sums = np.zeros((n_c, dim), dtype=np.int64)
            np.add.at(sums, assign, xq)
            return pa.table({
                "cell": pa.array(np.arange(n_c), pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "s": pa.array([row.tobytes() for row in sums], pa.binary()),
            })

        sums = np.zeros((n_c, dim), dtype=np.int64)
        counts = np.zeros(n_c, dtype=np.int64)
        for r in fit_ds.map_batches(partials, batch_format="pyarrow").take_all():
            counts[r["cell"]] += r["n"]
            sums[r["cell"]] += np.frombuffer(r["s"], dtype=np.int64)
        nonempty = counts > 0
        cents = cents.copy()
        cents[nonempty] = np.floor_divide(sums[nonempty], counts[nonempty, None])
    return cents


class IvfQuantAssignStage:
    """Assign rows to the nearest quantized centroid (exact int argmin)."""

    def __init__(self, centroids_ref, vec_col: str = "embedding"):
        self.centroids = ray.get(centroids_ref)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        xq = _quantize_micros(vectors_to_matrix(batch[self.vec_col]))
        assign = np.argmin(_quant_dists(xq, self.centroids), axis=1).astype(np.int64)
        return batch.append_column("ivf_cell", pa.array(assign, pa.int64()))


def _quant_probe_cells(queries: np.ndarray, cents: np.ndarray, n_probe: int) -> set:
    """Union of each query's n_probe nearest cells by integer distance
    (ties to the lowest cell — stable argsort)."""
    qd = _quant_dists(_quantize_micros(queries), cents)
    probe = np.argsort(qd, axis=1, kind="stable")[:, :n_probe]
    return set(int(c) for c in probe.ravel())


def ivf_topk_quantized(ds: Dataset, queries: np.ndarray, k: int = 5,
                       n_centroids: int = 8, n_iters: int = 4, n_probe: int = 2,
                       vec_col: str = "embedding", id_col: str = "vec_id",
                       sample_mod: int = 1) -> pa.Table:
    """IVF top-k with the quantized fit: candidates = rows in the UNION of
    the queries' probed cells (a broadcast wanted-set filter over the
    streamed rows), exact float-cosine re-rank, rank-only output
    (query_idx, rank, id)."""
    q = np.asarray(queries, dtype=np.float64)
    cents = kmeans_fit_quantized(ds, n_centroids, n_iters, vec_col, id_col,
                                 sample_mod=sample_mod)
    wanted_ref = ray.put(pa.array(sorted(_quant_probe_cells(q, cents, n_probe)),
                                  pa.int64()))
    cents_ref = ray.put(cents)

    indexed = ds.map_batches(
        IvfQuantAssignStage,
        fn_constructor_kwargs=dict(centroids_ref=cents_ref, vec_col=vec_col),
        batch_format="pyarrow", concurrency=(1, 2),
    )

    def keep(batch: pa.Table) -> pa.Table:
        w = ray.get(wanted_ref)
        return batch.filter(pc.is_in(batch["ivf_cell"], value_set=w))

    candidates = indexed.map_batches(keep, batch_format="pyarrow")
    return brute_force_topk(candidates, q, k, vec_col, id_col).select(
        ["query_idx", "rank", id_col])


def build_ivf_index_quantized(ds: Dataset, index_dir: str, n_centroids: int = 8,
                              n_iters: int = 4, vec_col: str = "embedding",
                              id_col: str = "vec_id", sample_mod: int = 1) -> dict:
    """Materialize the quantized IVF index on disk: rows written as
    parquet PARTITIONED BY cell (``ivf_cell=N/`` directories), int64
    centroids + a manifest committed alongside, fully reproducible.
    Queries (ivf_query_index_quantized) then touch only the probed cells'
    files — a genuine partition-pruned read.

    Layout:
        index_dir/cells/ivf_cell=<c>/*.parquet   (vec rows of cell c)
        index_dir/centroids.npy                  (n_centroids x dim, int64)
        index_dir/INDEX.json                     (commit manifest)
    """
    import json
    import os
    import shutil

    cents = kmeans_fit_quantized(ds, n_centroids, n_iters, vec_col, id_col,
                                 sample_mod=sample_mod)
    cents_ref = ray.put(cents)

    cells_dir = os.path.join(index_dir, "cells")
    manifest = os.path.join(index_dir, "INDEX.json")
    shutil.rmtree(index_dir, ignore_errors=True)
    os.makedirs(index_dir, exist_ok=True)
    indexed = ds.map_batches(
        IvfQuantAssignStage,
        fn_constructor_kwargs=dict(centroids_ref=cents_ref, vec_col=vec_col),
        batch_format="pyarrow", concurrency=(1, 2),
    )
    indexed.write_parquet(cells_dir, partition_cols=["ivf_cell"])
    np.save(os.path.join(index_dir, "centroids.npy"), cents)
    meta = {"n_centroids": int(cents.shape[0]), "dim": int(cents.shape[1]),
            "vec_col": vec_col, "id_col": id_col, "quantized": True}
    tmp = manifest + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, manifest)  # commit point
    return meta


def ivf_query_index_quantized(index_dir: str, queries: np.ndarray, k: int = 5,
                              n_probe: int = 2) -> pa.Table:
    """Query a quantized persisted index: integer-distance probe, read ONLY
    the probed cells' partition directories, exact cosine re-rank,
    rank-only output."""
    import json
    import os

    with open(os.path.join(index_dir, "INDEX.json")) as f:
        meta = json.load(f)
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    q = np.asarray(queries, dtype=np.float64)
    wanted = sorted(_quant_probe_cells(q, cents, n_probe))
    dirs = [os.path.join(index_dir, "cells", f"ivf_cell={c}") for c in wanted]
    paths = [
        os.path.join(d, f)
        for d in dirs if os.path.isdir(d)
        for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]
    if not paths:
        return pa.table({"query_idx": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         meta["id_col"]: pa.array([], pa.int64())})
    cells = ray.data.read_parquet(paths)
    return brute_force_topk(cells, q, k, meta["vec_col"], meta["id_col"]).select(
        ["query_idx", "rank", meta["id_col"]])
