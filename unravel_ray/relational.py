"""Relational operators over the driver testdata — the SQL-checkable surface.

Each function takes ``sf_dir`` and returns a ``ray.data.Dataset`` (or small
``pyarrow.Table``). Every query here has a matching DuckDB oracle in
``__ray_entry__.oracle_sql()``; column names match exactly.

Numeric-equality discipline: the driver value-hashes results, so float
aggregates must be bit-reproducible across engines. Money/value columns are
summed as integer cents (``round(x*100)`` per row is deterministic; integer
sums are order-independent), and averages are computed as exact-integer
ratios so both engines perform the identical single division.

Scale notes per operator in docstrings. Reads always prune columns.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset


def _pq(sf_dir: str, table: str, columns: list[str] | None = None) -> Dataset:
    return read_parquet_sized(f"{sf_dir}/{table}.parquet", columns)


def _fold_tokens(query: str) -> list[str]:
    """Whitespace tokens of ``query`` lowered with the simple Unicode
    mapping (Arrow utf8_lower == DuckDB lower()), the same fold the
    corpus side gets. str.lower() full-folds U+0130 to 'i' + U+0307, which
    never matches a simple-folded corpus."""
    return pc.utf8_lower(pa.scalar(query, pa.string())).as_py().split()


def _cents(batch: pa.Table, src: str, dst: str) -> pa.Table:
    # half_towards_infinity matches DuckDB ROUND() (half away from zero);
    # pyarrow's default half_to_even would diverge on exact .5-cent inputs
    c = pc.cast(
        pc.round(pc.multiply(batch[src], pa.scalar(100.0)),
                 round_mode="half_towards_infinity"),
        pa.int64(),
    )
    return batch.append_column(dst, c)


# ---------------------------------------------------------------------------
# G1/G7 — grouped counts & sums (documents by source)
# ---------------------------------------------------------------------------

def source_stats(sf_dir: str) -> Dataset:
    """Per-source doc count + char total (G1 upload-size sum, G7 grouped KPIs;
    reference DocumentUploadImpl.java:81-82, DashboardMetricsCacheService.java:98-124).

    Scale: tiny shuffle — ``keyed_aggregate`` pre-aggregates each block,
    so only (source, partial) rows move.
    """
    return keyed_aggregate(
        _pq(sf_dir, "documents", ["source", "n_chars"]), ["source"],
        [("n_docs", None, "count_all"), ("total_chars", "n_chars", "sum")])


# ---------------------------------------------------------------------------
# TPC-H-Q1-style pricing summary (G2/G5/G8 aggregate showcase)
# ---------------------------------------------------------------------------

def lineitem_pricing(sf_dir: str) -> Dataset:
    """Grouped pricing summary with exact integer cents.

    The projection derives integer quantity and cents per lineitem;
    ``keyed_aggregate`` collapses each block to ~6 partial rows per
    (returnflag, linestatus) before the exchange, so a few hundred
    partial rows move, not the table. (The pre-combiner version moved
    every row: 3.2-6.6 s -> 2.2-2.5 s same-window A/B at sf0.1/32 CPUs.)
    """
    ds = _pq(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def derive(batch: pa.Table) -> pa.Table:
        rm = {"round_mode": "half_towards_infinity"}  # DuckDB ROUND parity
        qty = pc.cast(pc.round(batch["l_quantity"], **rm), pa.int64())
        price_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], pa.scalar(100.0)), **rm), pa.int64())
        disc_bp = pc.cast(pc.round(pc.multiply(batch["l_discount"], pa.scalar(100.0)), **rm), pa.int64())
        # disc_price_cents = price_cents * (100 - disc_basis_points) — exact ints
        disc_price_c = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_bp))
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": qty,
                "price_cents": price_c,
                "disc_price_c100": disc_price_c,
            }
        )

    agg = keyed_aggregate(
        ds.map_batches(derive, batch_format="pyarrow", batch_size=None),
        ["l_returnflag", "l_linestatus"],
        [("sum_qty", "qty", "sum"), ("sum_base_cents", "price_cents", "sum"),
         ("sum_disc_cents100", "disc_price_c100", "sum"),
         ("n_rows", None, "count_all")])

    def finalize(batch: pa.Table) -> pa.Table:
        # exact integer micro-average: (sum*1e6)//n — identical in any engine
        avg_qty_micros = pc.divide(
            pc.multiply(batch["sum_qty"], pa.scalar(1_000_000, pa.int64())),
            batch["n_rows"],
        )
        return batch.append_column("avg_qty_micros", pc.cast(avg_qty_micros, pa.int64()))

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# the fixed-block exchange under hash_exchange
# ---------------------------------------------------------------------------

def _session_cpus() -> int:
    """CPUs of the Ray session (``ray.cluster_resources`` reads, it never
    starts Ray); the host's CPU count when no session is up."""
    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return os.cpu_count() or 1


def exchange_partitions(n_ids: int) -> int:
    """Reduce partitions for an exchange over ``n_ids`` block ids: one
    per CPU of the session, never more than there are block ids."""
    return max(1, min(n_ids, _session_cpus()))


def read_parquet_sized(path: str, columns: list[str] | None = None) -> Dataset:
    """Read one parquet file as ``max(session CPUs, ceil(bytes / target))``
    blocks, where bytes is the footer's uncompressed size of the selected
    columns and target is ``DataContext.target_max_block_size``.

    Ray's default split depends on neither the CPU count nor the bytes
    read; on a small host its extra read blocks each become one more task
    of every fused map and exchange after the read. One block per CPU
    keeps every CPU busy with one task, and the byte bound keeps blocks
    at the target size as the table grows."""
    import pyarrow.parquet as pq
    from ray.data import DataContext

    md = pq.read_metadata(path)
    keep = None if columns is None else set(columns)
    nbytes = sum(
        rg.column(j).total_uncompressed_size
        for rg in map(md.row_group, range(md.num_row_groups))
        for j in range(rg.num_columns)
        if keep is None or rg.column(j).path_in_schema.split(".")[0] in keep)
    target = DataContext.get_current().target_max_block_size
    n = _session_cpus()
    if target:
        n = max(n, -(-nbytes // target))
    return ray.data.read_parquet(path, columns=columns, override_num_blocks=n)


def _estimated_rows(ds: Dataset) -> int | None:
    """Metadata row count when the plan knows it (file-backed reads and
    row-preserving chains) — never executes the plan."""
    try:
        n = ds._meta_count()
        return int(n) if n is not None else None
    except Exception:
        return None


def _block_exchange(ds: Dataset, key: str, n_ids: int, fn) -> Dataset:
    """Co-locate the rows of each int block id in ``key`` (values in
    ``[0, n_ids)``) and run ``fn`` once per reduce partition. Private to
    ``hash_exchange``.

    One sort exchange with explicit cut points: nothing is sampled, the
    block ids split into ``exchange_partitions(n_ids)`` contiguous
    ranges, a sort reduce emits one block per range and
    ``batch_size=None`` hands that block to ``fn`` whole — so ``fn`` sees
    whole block-id groups, several of them per call, and must treat its
    input as a union of groups (every kernel here sorts or groups by its
    own key). Empty partitions (Ray emits them without a schema) never
    reach ``fn``; they produce no output block."""
    n = exchange_partitions(n_ids)
    # an empty cut list makes Ray sample boundaries, so a single partition
    # cuts at n_ids: every id falls below it
    cuts = [i * n_ids // n for i in range(1, n)] or [n_ids]

    def run(part: pa.Table):
        if part.num_rows:
            yield fn(part)

    run.__name__ = getattr(fn, "__name__", "block_exchange")
    return ds.sort(key, boundaries=cuts).map_batches(
        run, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# the one keyed exchange: every keyed shuffle in the engine
# ---------------------------------------------------------------------------

AGG_BLOCKS = 64  # fixed block-id space of every keyed exchange
_MERGE_FN = {"count_all": "sum", "sum": "sum", "min": "min", "max": "max"}


def _key_hash(arr) -> np.ndarray:
    """uint64 placement hash of one key column: ints, bools and
    timestamps through their int64 image (nulls as 0) and a
    multiply-shift; strings and binaries by value
    (``hashing.hash_strings``), and every other type (floats, dates,
    decimals) by value through its string form."""
    from .hashing import hash_strings

    t = arr.type
    if not (pa.types.is_integer(t) or pa.types.is_boolean(t)
            or pa.types.is_timestamp(t)):
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            arr = pc.cast(arr, pa.string())
        return hash_strings(arr)
    k = pc.fill_null(pc.cast(arr, pa.int64()), 0)
    if isinstance(k, pa.ChunkedArray):
        k = k.combine_chunks()
    h = k.to_numpy(zero_copy_only=False).astype(np.uint64) \
        * np.uint64(0x9E3779B97F4A7C15)
    return h >> np.uint64(33)


def _keyed_blk(t: pa.Table, keys: list[str]) -> pa.Array:
    """Block id of each row: a hash over ALL key columns mod
    ``AGG_BLOCKS``, so groups that share a first key still spread over
    the partitions. No keys put every row in block 0."""
    from .hashing import _P, _splitmix

    h = np.zeros(t.num_rows, np.uint64)
    for k in keys:
        h = h * _P + _key_hash(t[k])
    return pa.array((_splitmix(h) % np.uint64(AGG_BLOCKS)).astype(np.int32))


def hash_exchange(ds: Dataset | list[tuple[Dataset, pa.Schema]],
                  keys: list[str], fn) -> Dataset:
    """Co-locate the rows of each distinct ``keys`` tuple and run ``fn``
    once per reduce partition, on a table of whole key groups (several
    per call; the block id is dropped). ``keys=[]`` sends every row to
    one partition, so ``fn`` runs once over the whole input.

    Co-group: ``ds`` may be a list of ``(dataset, schema)`` inputs, each
    with its own columns; the Arrow ``schema`` names the columns the
    input contributes and their types, and every input carries ``keys``. ``fn`` then gets one table per input, ``fn(t0, t1, ...)``,
    holding that input's rows of the same key groups under its own
    column names and types; an input with no rows in a partition comes
    as an empty table of its schema. The exchange runs over one union
    schema built here from the inputs' schemas (a column of the same
    name and type shares a slot, a ``__in`` column tags the input, the
    other inputs' slots are null): Ray's sort reduce would pad unequal
    schemas itself, but it warns that the reduce sees a changed schema,
    and it drops an input's columns from a partition that got none of
    its rows.

    Rows are placed by ``_keyed_blk`` into the fixed ``AGG_BLOCKS``
    block-id space (a ``batch_size=None`` map per input, so it fuses with
    a caller's whole-block map; a placement after a union would run as
    one more task per block) and moved by ``_block_exchange`` into
    ``exchange_partitions(AGG_BLOCKS)`` reduce partitions."""
    if not isinstance(ds, list):
        def place(t: pa.Table) -> pa.Table:
            return t.append_column("__blk", _keyed_blk(t, keys))

        def run(part: pa.Table) -> pa.Table:
            return fn(part.drop_columns(["__blk"]))

        run.__name__ = getattr(fn, "__name__", "hash_exchange")
        placed = ds.map_batches(place, batch_format="pyarrow", batch_size=None)
        return _block_exchange(placed, "__blk", AGG_BLOCKS, run)

    schemas = [s for _, s in ds]
    fields = {"__blk": pa.int32(), "__in": pa.int8()}
    slots = []  # per input: the union column that holds each of its columns
    for i, schema in enumerate(schemas):
        slots.append([])
        for f in schema:
            slot = f.name if fields.setdefault(f.name, f.type) == f.type \
                else f"__{i}.{f.name}"
            fields[slot] = f.type
            slots[-1].append(slot)
    union = pa.schema(list(fields.items()))

    def placer(i: int):
        def place(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = dict(zip(slots[i], (t[c] for c in schemas[i].names)))
            cols["__blk"] = _keyed_blk(t, keys)
            cols["__in"] = pa.array(np.full(n, i, np.int8))
            return pa.Table.from_arrays(
                [cols.get(f.name, pa.nulls(n, f.type)) for f in union],
                schema=union)
        return place

    def cogroup(part: pa.Table) -> pa.Table:
        tag = part["__in"]
        return fn(*(part.filter(pc.equal(tag, i)).select(slots[i])
                    .rename_columns(schema.names)
                    for i, schema in enumerate(schemas)))

    cogroup.__name__ = getattr(fn, "__name__", "hash_exchange")
    first, *rest = [d.map_batches(placer(i), batch_format="pyarrow",
                                  batch_size=None)
                    for i, (d, _) in enumerate(ds)]
    return _block_exchange(first.union(*rest) if rest else first,
                           "__blk", AGG_BLOCKS, cogroup)


def _run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Start index of each equal-``keys`` run of a table sorted by
    ``keys``; nulls compare equal, so null keys form one run."""
    n = t.num_rows
    change = np.zeros(n, bool)
    if n:
        change[0] = True
    for k in keys:
        codes = pc.dictionary_encode(t[k].combine_chunks(),
                                     null_encoding="encode").indices.to_numpy()
        change[1:] |= codes[1:] != codes[:-1]
    return np.flatnonzero(change)


def map_groups(ds: Dataset, keys: list[str], fn) -> Dataset:
    """``fn`` applied to every group of rows with equal ``keys`` (null
    keys form one group), the per-group UDF of Ray's grouped map_groups:
    ``hash_exchange`` on ``keys``, then each reduce partition is sorted
    by ``keys`` and ``fn`` runs once per key run. The outputs of one
    partition are concatenated (schemas promoted). Rows come in no
    particular order."""
    def groups(part: pa.Table) -> pa.Table:
        t = part.sort_by([(k, "ascending") for k in keys]) if keys else part
        starts = _run_starts(t, keys)
        ends = np.append(starts[1:], t.num_rows)
        return pa.concat_tables(
            [fn(t.slice(s, e - s)) for s, e in zip(starts, ends)],
            promote_options="default")

    groups.__name__ = getattr(fn, "__name__", "map_groups")
    return hash_exchange(ds, keys, groups)


def _agg_named(g: pa.Table, keys: list[str], aggs) -> pa.Table:
    """Keys, then each aggregate renamed to its ``out_name``; sums as
    int64 (Arrow sums booleans to uint64)."""
    vals = [c for n, c in zip(g.column_names, g.columns) if n not in keys]
    cols = {k: g[k] for k in keys}
    for (name, _, fn), col in zip(aggs, vals):
        cols[name] = pc.cast(col, pa.int64()) if fn in ("sum", "count_all") else col
    return pa.table(cols)


def _keyed_partial(batch: pa.Table, keys: list[str], aggs) -> pa.Table:
    """Per-block partial of ``keyed_aggregate``: one Arrow group_by."""
    spec = [([], "count_all") if fn == "count_all" else (col, fn)
            for _, col, fn in aggs]
    cols = list(dict.fromkeys(
        keys + [col for _, col, fn in aggs if fn != "count_all"]))
    return _agg_named(pa.TableGroupBy(batch.select(cols), keys).aggregate(spec),
                      keys, aggs)


def _keyed_merge(part: pa.Table, keys: list[str], aggs) -> pa.Table:
    """Merge of ``keyed_aggregate``: one Arrow group_by over the partials
    of one reduce partition (count_all and sum partials sum, min and max
    partials take min and max)."""
    spec = [(name, _MERGE_FN[fn]) for name, _, fn in aggs]
    return _agg_named(pa.TableGroupBy(part, keys).aggregate(spec), keys, aggs)


def keyed_aggregate(ds: Dataset, keys, aggs) -> Dataset:
    """Grouped aggregate: one output row per distinct ``keys`` tuple with
    columns keys, then each ``out_name`` of ``aggs``, a list of
    ``(out_name, column, fn)`` with ``fn`` one of ``count_all`` (column
    None: rows, nulls included) | ``sum`` | ``min`` | ``max`` (nulls
    skipped; a group with no value gives null). Sums are int64 (of
    integer or boolean columns); min and max keep the column's type.
    Rows come in no particular order.

    Combiner-first through ``hash_exchange``: each block collapses to
    one partial row per local group with an Arrow group_by
    (``_keyed_partial``, ``batch_size=None`` so it fuses with a caller's
    whole-block projection and with the exchange's placement map), and
    one Arrow group_by per reduce partition merges the partials
    (``_keyed_merge``). Only partial rows cross the exchange, and no Ray
    group is made per key. Per-group kernels that are not aggregates
    use ``map_groups``."""
    def keyed_merge(part: pa.Table) -> pa.Table:
        return _keyed_merge(part, keys, aggs)

    parts = ds.map_batches(_keyed_partial, fn_kwargs={"keys": keys, "aggs": aggs},
                           batch_format="pyarrow", batch_size=None)
    return hash_exchange(parts, keys, keyed_merge)


# ---------------------------------------------------------------------------
# G4 — per-user accounting (events)
# ---------------------------------------------------------------------------

def user_event_totals(sf_dir: str) -> Dataset:
    """Per-user event count + value cents (G4 storage accounting analog,
    DocumentUploadImpl.java:150-161).

    ``keyed_aggregate`` over the cents projection: the exchange moves one
    partial row per (user, block) instead of one per event, by a fixed
    hash block of the user rather than a Ray range-sort on user_id —
    2.8-3.3 s -> 2.0-2.1 s same-window A/B at sf0.1/32 CPUs."""
    ds = _pq(sf_dir, "events", ["user_id", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        return _cents(batch, "value", "value_cents").select(["user_id", "value_cents"])

    # count_all (row count) matches the oracle's COUNT(*) even with NULL
    # values; a count of value_cents would skip them
    return keyed_aggregate(
        ds.map_batches(cents, batch_format="pyarrow", batch_size=None),
        ["user_id"],
        [("n_events", None, "count_all"), ("value_cents", "value_cents", "sum")])


# ---------------------------------------------------------------------------
# O2 — sort + pagination
# ---------------------------------------------------------------------------

def top_documents(sf_dir: str, k: int = 20) -> Dataset:
    """Largest documents (O2 search sort + page,
    DocumentSearchService.java:174-186). Deterministic tiebreak on doc_id.

    Scale: Ray's sort is a distributed range-partition sort; limit(k)
    short-circuits consumption.
    """
    return (
        _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(k)
    )


# ---------------------------------------------------------------------------
# content search — tokenized match + rank + pagination
# ---------------------------------------------------------------------------

# filename field boost, mirroring the reference's multi-field match where
# fileName carries a higher weight than body content
# (DocumentSearchIndex.java:45-48 fileName fields + :78-79 extractedText)
FILENAME_WEIGHT = 3


def search_content(sf_dir: str, query: str = "hash merge src3",
                   lang: str = "en", page: int = 1,
                   page_size: int = 20) -> "pa.Table":
    """Multi-field full-text search with deterministic relevance ranking
    and Page-object metadata.

    Mirrors DocumentSearchService.searchByContent (reference
    elasticsearch/service/DocumentSearchService.java:83-101: match query
    over fileName AND extractedText; DocumentSearchIndex.java:45-48,78-79)
    and the Page result carrying total hits
    (DocumentSearchService.java:174-186). Elasticsearch BM25 is
    engine-specific, so the deterministic analog is weighted integer term
    frequency: score = content occurrences + FILENAME_WEIGHT x
    display-name occurrences (display name derived as
    ``doc_<doc_id>_<source>.txt`` — SQL-reconstructible). Filter:
    score > 0 AND lang. Order: score DESC, doc_id ASC; page k of size n =
    OFFSET (k-1)*n LIMIT n. ``total_matches`` = full match count.

    Scale shape: one vectorized scoring scan (Arrow RE2 kernels); each
    batch keeps its local top page*page_size candidates plus ONE marker
    row carrying the batch's match count (combiner-first total), so the
    driver merge sees at most (#batches x (page*page_size + 1)) slim
    rows, never the corpus.
    """
    import re as _re

    tokens = _fold_tokens(query)
    keep = page * page_size
    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    schema = pa.schema([("doc_id", pa.int64()), ("score", pa.int64()),
                        ("lang", pa.string())])

    def score_batch(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["lang"], lang))
        if batch.num_rows == 0:
            return schema.empty_table()
        low = pc.utf8_lower(batch["text"])
        name = pc.utf8_lower(pc.binary_join_element_wise(
            pa.array(["doc_"] * batch.num_rows),
            pc.cast(batch["doc_id"], pa.string()),
            pa.array(["_"] * batch.num_rows), batch["source"],
            pa.array([".txt"] * batch.num_rows), ""))
        s = None
        for tok in tokens:
            pat = rf"\b{_re.escape(tok)}\b"
            c = pc.add(pc.count_substring_regex(low, pat),
                       pc.multiply(pc.count_substring_regex(name, pat),
                                   FILENAME_WEIGHT))
            s = c if s is None else pc.add(s, c)
        t = pa.table({
            "doc_id": batch["doc_id"],
            "score": pc.cast(s, pa.int64()),
            "lang": batch["lang"],
        }).filter(pc.greater(pc.cast(s, pa.int64()), 0))
        idx = pc.sort_indices(
            t, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
        )
        # marker row (doc_id = -1) carries this batch's total match count
        marker = pa.table({"doc_id": pa.array([-1], pa.int64()),
                           "score": pa.array([t.num_rows], pa.int64()),
                           "lang": pa.array([None], pa.string())})
        return pa.concat_tables([t.take(idx[:keep]), marker])

    candidates = ds.map_batches(score_batch, batch_format="pyarrow").take_all()
    merged = pa.Table.from_pylist(candidates, schema=schema)
    is_marker = pc.equal(merged["doc_id"], -1)
    total = pc.sum(merged.filter(is_marker)["score"]).as_py() or 0
    merged = merged.filter(pc.invert(is_marker))
    idx = pc.sort_indices(
        merged, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
    )
    lo = (page - 1) * page_size
    out = merged.take(idx[lo:lo + page_size])
    return out.append_column(
        "total_matches", pa.array([total] * out.num_rows, pa.int64()))


def search_highlights(sf_dir: str, query: str = "hash merge src3",
                      lang: str = "en", page_size: int = 20,
                      window: int = 30) -> "pa.Table":
    """Highlighted snippets for the top search hits — the reference's
    includeHighlights=true result surface (DocumentSearchResult.java:62-65,
    SearchRequest.java:72-75; ES fragments with <em> wrapping). The
    deterministic analog: one row per (hit doc, query token) whose first
    substring occurrence p yields snippet
    ``replace(text[max(0,p-window) : p+len(tok)+window], tok,
    '<em>'+tok+'</em>')`` — pure substring arithmetic, identical in
    DuckDB (strpos/substr/replace).

    Scale shape: same per-batch candidate top-k as search_content, but
    candidates also carry their text — payload bounded by
    page_size x #batches rows, never the corpus; snippets build with
    Arrow kernels on the <= page_size merged rows.
    """
    import re as _re

    tokens = _fold_tokens(query)
    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    schema = pa.schema([("doc_id", pa.int64()), ("score", pa.int64()),
                        ("text", pa.string())])

    def score_batch(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["lang"], lang))
        if batch.num_rows == 0:
            return schema.empty_table()
        low = pc.utf8_lower(batch["text"])
        name = pc.utf8_lower(pc.binary_join_element_wise(
            pa.array(["doc_"] * batch.num_rows),
            pc.cast(batch["doc_id"], pa.string()),
            pa.array(["_"] * batch.num_rows), batch["source"],
            pa.array([".txt"] * batch.num_rows), ""))
        s = None
        for tok in tokens:
            pat = rf"\b{_re.escape(tok)}\b"
            c = pc.add(pc.count_substring_regex(low, pat),
                       pc.multiply(pc.count_substring_regex(name, pat),
                                   FILENAME_WEIGHT))
            s = c if s is None else pc.add(s, c)
        t = pa.table({
            "doc_id": batch["doc_id"],
            "score": pc.cast(s, pa.int64()),
            "text": batch["text"],
        }).filter(pc.greater(pc.cast(s, pa.int64()), 0))
        idx = pc.sort_indices(
            t, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
        )
        return t.take(idx[:page_size])

    candidates = ds.map_batches(score_batch, batch_format="pyarrow").take_all()
    merged = pa.Table.from_pylist(candidates, schema=schema)
    idx = pc.sort_indices(
        merged, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
    )
    top = merged.take(idx[:page_size])

    # snippet assembly over the <= page_size merged rows (bounded driver
    # work; per-row start offsets vary so there is no Arrow slice kernel)
    out_doc, out_tok, out_snip = [], [], []
    ids = top["doc_id"].to_pylist()
    texts = top["text"].to_pylist()
    for did, text in zip(ids, texts):
        # simple-mapping lower (Arrow kernel == DuckDB lower()), NOT
        # str.lower(): full case folding would shift find() offsets on
        # codepoints like U+0130 (see the contract note in dedup.py)
        low = pc.utf8_lower(pa.scalar(text or "", pa.string())).as_py()
        for tok in tokens:
            p = low.find(tok)
            if p < 0:
                continue
            frag = text[max(0, p - window):p + len(tok) + window]
            out_doc.append(did)
            out_tok.append(tok)
            out_snip.append(frag.replace(tok, f"<em>{tok}</em>"))
    return pa.table({
        "doc_id": pa.array(out_doc, pa.int64()),
        "token": pa.array(out_tok, pa.string()),
        "snippet": pa.array(out_snip, pa.string()),
    })


def _lev1_pattern(tok: str) -> str:
    """RE2 whole-word pattern matching exactly the strings at Levenshtein
    distance <= 1 from ``tok`` over [a-z]: exact + one substitution +
    one deletion + one insertion. O(len) alternatives, no backtracking
    blowup — the deterministic analog of Elasticsearch match fuzziness
    (DocumentSearchService.java:83-101 relevance semantics)."""
    if not tok.isalpha() or not tok.islower():
        raise ValueError(f"fuzzy token must be lowercase alpha: {tok!r}")
    alts = {tok}
    for i in range(len(tok)):
        alts.add(tok[:i] + "[a-z]" + tok[i + 1:])  # substitution (incl exact)
        if len(tok) > 1:
            alts.add(tok[:i] + tok[i + 1:])        # deletion
    for i in range(len(tok) + 1):
        alts.add(tok[:i] + "[a-z]" + tok[i:])      # insertion
    return r"\b(?:" + "|".join(sorted(alts)) + r")\b"


def search_fuzzy(sf_dir: str, query: str = "hashe mergee",
                 lang: str = "en", k: int = 20) -> "pa.Table":
    """Typo-tolerant content search: a document word counts when it is
    within edit distance 1 of a query token.

    Both engines agree exactly: words are the maximal [a-z]+ runs of
    lower(text) (Ray pre-cleans non-letters to spaces so RE2 ``\\b``
    equals those run edges), and the lev<=1 language is enumerated as an
    O(len) RE2 alternation (``_lev1_pattern``) — DuckDB verifies with its
    native ``levenshtein`` over the extracted word list. Same per-batch
    top-k + marker-count shape as search_content.
    """
    tokens = _fold_tokens(query)
    pats = [_lev1_pattern(t) for t in tokens]
    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])
    schema = pa.schema([("doc_id", pa.int64()), ("score", pa.int64()),
                        ("lang", pa.string())])

    def score_batch(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["lang"], lang))
        if batch.num_rows == 0:
            return schema.empty_table()
        clean = pc.replace_substring_regex(
            pc.utf8_lower(batch["text"]), "[^a-z]+", " ")
        s = None
        for pat in pats:
            c = pc.count_substring_regex(clean, pat)
            s = c if s is None else pc.add(s, c)
        t = pa.table({
            "doc_id": batch["doc_id"],
            "score": pc.cast(s, pa.int64()),
            "lang": batch["lang"],
        }).filter(pc.greater(pc.cast(s, pa.int64()), 0))
        idx = pc.sort_indices(
            t, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
        )
        return t.take(idx[:k])

    candidates = ds.map_batches(score_batch, batch_format="pyarrow").take_all()
    merged = pa.Table.from_pylist(candidates, schema=schema)
    idx = pc.sort_indices(
        merged, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
    )
    return merged.take(idx[:k])


def tfidf_rank(sf_dir: str, terms: tuple[str, ...] = ("query", "stream", "window"),
               k: int = 20) -> "pa.Table":
    """TF-IDF ranked retrieval: corpus-statistics-weighted term scoring,
    the step up from search_content's raw term frequency.

    Deterministic integer contract (no log, no floats — both engines run
    the identical arithmetic): idf_micros(t) = N * 1_000_000 // df(t)
    (0 when df = 0), score_micros(d) = sum_t tf(t, d) * idf_micros(t),
    where tf is the RE2 word-boundary occurrence count in lower(text).
    Top-k by (score DESC, doc_id ASC).

    Scale shape: pass 1 computes (N, df per term) as ONE slim partial row
    per batch (driver sees #batches rows for a fixed term set); the idf
    weights are plain closure constants in pass 2 (a broadcast-once
    lookup, not a join); pass 2 is a vectorized scoring scan with
    per-batch partial top-k — the driver merge sees <= #batches x k rows.
    """
    import re as _re

    pats = [rf"\b{_re.escape(t)}\b" for t in terms]
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        cols = {"n": pa.array([batch.num_rows], pa.int64())}
        for i, pat in enumerate(pats):
            hit = pc.greater(pc.count_substring_regex(low, pat), 0)
            cols[f"df{i}"] = pa.array(
                [pc.sum(pc.cast(hit, pa.int64())).as_py() or 0], pa.int64())
        return pa.table(cols)

    parts = pa.Table.from_pylist(
        ds.map_batches(df_partial, batch_format="pyarrow").take_all())
    n_docs = pc.sum(parts["n"]).as_py() or 0
    idf = []
    for i in range(len(terms)):
        df = pc.sum(parts[f"df{i}"]).as_py() or 0
        idf.append(n_docs * 1_000_000 // df if df else 0)

    def score_batch(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        s = None
        for pat, w in zip(pats, idf):
            c = pc.multiply(
                pc.cast(pc.count_substring_regex(low, pat), pa.int64()),
                pa.scalar(w, pa.int64()))
            s = c if s is None else pc.add(s, c)
        t = pa.table({"doc_id": batch["doc_id"], "score_micros": s}).filter(
            pc.greater(s, 0))
        idx = pc.sort_indices(t, sort_keys=[
            ("score_micros", "descending"), ("doc_id", "ascending")])
        return t.take(idx[:k])

    merged = pa.Table.from_pylist(
        ds.map_batches(score_batch, batch_format="pyarrow").take_all(),
        schema=pa.schema([("doc_id", pa.int64()),
                          ("score_micros", pa.int64())]))
    idx = pc.sort_indices(merged, sort_keys=[
        ("score_micros", "descending"), ("doc_id", "ascending")])
    return merged.take(idx[:k])


# ---------------------------------------------------------------------------
# filtered listing — filter params + sort + page
# ---------------------------------------------------------------------------

def documents_filtered(sf_dir: str, lang: str = "en",
                       min_chars: int = 200, max_chars: int = 2000,
                       k: int = 25) -> "pa.Table":
    """Filtered document listing with Page-object metadata: the
    reference's findByUserId + filter params path
    (DocumentSearchService.java:174-186 — filter by fileType/status/date,
    sort, page; the Page result carries total hits). Filters push down as
    a vectorized Arrow mask; each batch keeps its local top-k plus one
    marker row carrying the batch's match count, so ``total`` is computed
    combiner-first in the SAME pass and the driver merge sees at most
    (#batches x (k+1)) slim rows."""
    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("source", pa.string()), ("n_chars", pa.int64())])

    def filt(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch["lang"], lang),
            pc.and_(pc.greater_equal(batch["n_chars"], min_chars),
                    pc.less_equal(batch["n_chars"], max_chars)),
        )
        t = batch.filter(mask)
        idx = pc.sort_indices(
            t, sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")]
        )
        marker = pa.table({"doc_id": pa.array([-1], pa.int64()),
                           "lang": pa.array([None], pa.string()),
                           "source": pa.array([None], pa.string()),
                           "n_chars": pa.array([t.num_rows], pa.int64())})
        return pa.concat_tables([t.take(idx[:k]), marker])

    candidates = ds.map_batches(filt, batch_format="pyarrow").take_all()
    merged = pa.Table.from_pylist(candidates, schema=schema)
    is_marker = pc.equal(merged["doc_id"], -1)
    total = pc.sum(merged.filter(is_marker)["n_chars"]).as_py() or 0
    merged = merged.filter(pc.invert(is_marker))
    idx = pc.sort_indices(
        merged, sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")]
    )
    out = merged.take(idx[:k])
    return out.append_column("total", pa.array([total] * out.num_rows,
                                               pa.int64()))


# ---------------------------------------------------------------------------
# M15 — preview projection
# ---------------------------------------------------------------------------

def document_previews(sf_dir: str) -> Dataset:
    """200-char preview + '...' suffix when truncated
    (DocumentSearchService.java:38,188-209). Pure pyarrow kernels."""
    ds = _pq(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def project(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        longer = pc.greater(pc.utf8_length(text), 200)
        prefix = pc.utf8_slice_codeunits(text, 0, 200)
        preview = pc.if_else(
            longer,
            pc.binary_join_element_wise(prefix, pa.scalar("..."), ""),
            text,
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "preview": preview, "n_chars": batch["n_chars"]}
        )

    return ds.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# J5 — broadcast dimension join (customer x nation x region)
# ---------------------------------------------------------------------------

def customers_by_region(sf_dir: str) -> Dataset:
    """Region-level customer rollup via BROADCAST join — the dims (region,
    nation) are read once on the driver, shipped via ray.put, and probed
    inside map_batches. No shuffle join for small sides (J5 pattern,
    OcrProcessingService.java:113-133 user-plan lookup).
    """
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])
    n2r = dict(zip(nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()))
    r2name = dict(zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()))
    # broadcast parallel (key, name) arrays: the probe is a vectorized
    # index_in + take, missing keys fall out as nulls — dict semantics
    # with no per-row Python
    lookup_ref = ray.put((
        pa.array(list(n2r.keys()), pa.int64()),
        pa.array([r2name[v] for v in n2r.values()], pa.string())))

    def attach(batch: pa.Table) -> pa.Table:
        key_arr, name_arr = ray.get(lookup_ref)
        idx = pc.index_in(batch["c_nationkey"], value_set=key_arr)
        names = pc.take(name_arr, idx)
        b = _cents(batch, "c_acctbal", "acctbal_cents")
        return b.append_column("r_name", names)

    return keyed_aggregate(
        _pq(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
        .map_batches(attach, batch_format="pyarrow"),
        ["r_name"],
        [("n_customers", None, "count_all"),
         ("acctbal_cents", "acctbal_cents", "sum")])


# ---------------------------------------------------------------------------
# J1 — left join orders x customer, then segment rollup
# ---------------------------------------------------------------------------

def orders_by_segment(sf_dir: str) -> Dataset:
    """Orders joined to customer market segment, rolled up per segment
    (J1 files x ocr_data hash join, GetCollectionResultImpl.java:36-59).

    The build side (customer) is broadcast as a dict — at 100 TB the
    equivalent is a broadcast of the small dimension or the co-grouped
    ``hash_join``; documented trade-off.
    """
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    # broadcast parallel (key, segment) arrays; the probe is index_in +
    # take with missing keys null-filled to UNKNOWN — no per-row Python
    seg_ref = ray.put((cust["c_custkey"].combine_chunks(),
                       cust["c_mktsegment"].combine_chunks()))

    def attach(batch: pa.Table) -> pa.Table:
        key_arr, seg_arr = ray.get(seg_ref)
        idx = pc.index_in(batch["o_custkey"], value_set=key_arr)
        segs = pc.fill_null(pc.take(seg_arr, idx), "UNKNOWN")
        b = _cents(batch, "o_totalprice", "price_cents")
        return b.append_column("c_mktsegment", segs)

    return keyed_aggregate(
        _pq(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(attach, batch_format="pyarrow"),
        ["c_mktsegment"],
        [("n_orders", None, "count_all"), ("price_cents", "price_cents", "sum")])


# ---------------------------------------------------------------------------
# Bloom-filter semi-join prefilter (the at-scale map-side join optimizer)
# ---------------------------------------------------------------------------

BLOOM_BITS = 1 << 16
BLOOM_HASHES = 3


def _bloom_pos(key: str, j: int) -> int:
    import hashlib

    return int(hashlib.sha256(f"bloom{j}:{key}".encode()).hexdigest()[:4], 16)


def bloom_build(keys_ds: Dataset, key_col: str) -> np.ndarray:
    """Distributed Bloom-filter build: per-batch partial bitsets (one
    8 KiB binary row per batch) OR-merged on the driver. The merge is
    associative, so at 10^12 rows the same partials fold per node before
    the driver sees them; the driver never sees keys, only fixed-size
    bitsets."""

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(BLOOM_BITS // 8, np.uint8)
        for k in pc.unique(pc.cast(batch[key_col], pa.string())).to_pylist():
            for j in range(BLOOM_HASHES):
                p = _bloom_pos(k, j)
                bits[p >> 3] |= np.uint8(1 << (p & 7))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    out = np.zeros(BLOOM_BITS // 8, np.uint8)
    for row in keys_ds.map_batches(partial, batch_format="pyarrow").take_all():
        out |= np.frombuffer(row["bits"], np.uint8)
    return out


def bloom_prefilter(ds: Dataset, key_col: str, bits: np.ndarray) -> Dataset:
    """Map-side semi-join prefilter: keep rows whose key passes the Bloom
    test (all BLOOM_HASHES positions set). Broadcast-once via ray.put;
    the big side never shuffles — the point of the operator: at 100 TB a
    semi join against a modest build side costs one scan plus an 8 KiB
    broadcast instead of an all-to-all exchange. False positives (bounded
    by the m/n ratio) are for the consumer to resolve exactly."""
    bits_ref = ray.put(bits)

    def filt(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        keys = pc.cast(batch[key_col], pa.string())
        # sha256 positions are the oracle contract, so the hash loop runs
        # per UNIQUE key only; the per-row mask is a vectorized
        # index_in + take over the unique verdicts
        uniq = pc.unique(keys)
        ok = pa.array(
            [all(b[(p := _bloom_pos(k, j)) >> 3] & (1 << (p & 7))
                 for j in range(BLOOM_HASHES))
             for k in uniq.to_pylist()], pa.bool_())
        mask = pc.take(ok, pc.index_in(keys, value_set=uniq))
        return batch.filter(mask)

    return ds.map_batches(filt, batch_format="pyarrow")


def bloom_semijoin_stats(sf_dir: str, segment: str = "BUILDING") -> "pa.Table":
    """Accounting for the Bloom prefilter on orders ⋉ customer(segment):
    one row (n_probe, n_pass_bloom, n_true_match, n_false_positive,
    bits_set). Every number is a deterministic integer function of the
    sha256 bloom contract, so DuckDB reproduces the filter — including
    its false positives — bit for bit."""
    def seg_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["c_mktsegment"], segment))

    build = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        seg_only, batch_format="pyarrow")
    bits = bloom_build(build, "c_custkey")
    bits_set = int(np.unpackbits(bits).sum())

    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    true_keys = cust.filter(
        pc.equal(cust["c_mktsegment"], segment))["c_custkey"].combine_chunks()
    keys_ref = ray.put(true_keys)
    bits_ref = ray.put(bits)

    def probe_partial(batch: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        tk = ray.get(keys_ref)
        ks = pc.cast(batch["o_custkey"], pa.string())
        # sha256 bloom test per UNIQUE key (the oracle contract); per-row
        # expansion and true-match count are vectorized kernels
        uniq = pc.unique(ks)
        passed = pa.array(
            [all(b[(p := _bloom_pos(k, j)) >> 3] & (1 << (p & 7))
                 for j in range(BLOOM_HASHES))
             for k in uniq.to_pylist()], pa.bool_())
        mask = pc.take(passed, pc.index_in(ks, value_set=uniq))
        n_pass = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
        n_true = pc.sum(pc.cast(
            pc.is_in(batch["o_custkey"], value_set=tk),
            pa.int64())).as_py() or 0
        return pa.table({"n_probe": pa.array([batch.num_rows], pa.int64()),
                         "n_pass": pa.array([n_pass], pa.int64()),
                         "n_true": pa.array([n_true], pa.int64())})

    parts = pa.Table.from_pylist(
        _pq(sf_dir, "orders", ["o_custkey"])
        .map_batches(probe_partial, batch_format="pyarrow").take_all())
    n_probe = pc.sum(parts["n_probe"]).as_py() or 0
    n_pass = pc.sum(parts["n_pass"]).as_py() or 0
    n_true = pc.sum(parts["n_true"]).as_py() or 0
    return pa.table({
        "n_probe": pa.array([n_probe], pa.int64()),
        "n_pass_bloom": pa.array([n_pass], pa.int64()),
        "n_true_match": pa.array([n_true], pa.int64()),
        "n_false_positive": pa.array([n_pass - n_true], pa.int64()),
        "bits_set": pa.array([bits_set], pa.int64()),
    })


# ---------------------------------------------------------------------------
# O3/D1 — first event per user
# ---------------------------------------------------------------------------

def _group_head_indices(sorted_tbl: pa.Table, group_col: str, k: int) -> np.ndarray:
    """Indices of the first k rows of each group-run in an already-sorted
    table (vectorized run detection, ``_run_starts``)."""
    n = sorted_tbl.num_rows
    starts = _run_starts(sorted_tbl, [group_col])
    counts = np.diff(np.append(starts, n))
    rank = np.arange(n) - np.repeat(starts, counts)
    return np.flatnonzero(rank < k)


def _partial_group_head(batch: pa.Table, group_col: str,
                        sort_keys: list[tuple[str, str]], k: int) -> pa.Table:
    """Combiner: keep only each group's local top-k rows in this batch, so
    the exchange moves at most k rows per (group, batch) instead of
    every row (classic pre-aggregation; see ray_guide 'Aggregation at
    scale')."""
    g = batch.sort_by([(group_col, "ascending"), *sort_keys])
    return g.take(pa.array(_group_head_indices(g, group_col, k)))


def first_event_per_user(sf_dir: str) -> Dataset:
    """Per-user earliest event (first-match pick O3, ProcessOcr.java:62-65;
    dedup-by-key D1). Combiner-first: each batch pre-reduces to one row
    per local user, THEN the slim survivors move by ``hash_exchange`` on
    the user into the same sorted run-head pick per reduce partition
    (one partition holds many users; never one Ray group per user).
    """
    ds = _pq(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])
    keys = [("ts", "ascending"), ("event_id", "ascending")]

    def head1(t: pa.Table) -> pa.Table:
        return _partial_group_head(t, group_col="user_id", sort_keys=keys, k=1)

    return hash_exchange(ds.map_batches(head1, batch_format="pyarrow"),
                         ["user_id"], head1)


# ---------------------------------------------------------------------------
# §2.9 — tumbling-window aggregate over the events stream
# ---------------------------------------------------------------------------

def event_hourly_windows(sf_dir: str) -> Dataset:
    """Per-(user, hour) tumbling-window event counts + value cents.

    Ray Data has no watermarks; stream-shaped semantics are expressed as a
    derived window column + keyed aggregate (ordering restored by the
    window key — the Kafka-partition-ordering analog,
    OcrEventPublisher.java:24-27). pc.floor_temporal is the vectorized
    window assigner.

    Shuffle shape: ``keyed_aggregate`` — per-block Arrow partials first
    (at 100 TB each (user, hour) pair repeats many times per block, so
    partials collapse the stream), then a FIXED block count, so the
    exchange sorts one small int key instead of range-partitioning on
    (user, timestamp). Measured at sf0.1/32 CPUs: 4.6 s (Ray key-sort
    aggregate) -> 1.9 s in the same window.
    """
    ds = _pq(sf_dir, "events", ["user_id", "ts", "value"])

    def windowize(batch: pa.Table) -> pa.Table:
        b = _cents(batch, "value", "value_cents")
        return pa.table({
            "user_id": b["user_id"],
            "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
            "value_cents": b["value_cents"],
        })

    return keyed_aggregate(
        ds.map_batches(windowize, batch_format="pyarrow", batch_size=None),
        ["user_id", "window_start"],
        [("n_events", None, "count_all"),  # COUNT(*) parity
         ("value_cents", "value_cents", "sum")])


# ---------------------------------------------------------------------------
# G6 — char/word counts
# ---------------------------------------------------------------------------

def word_counts_by_lang(sf_dir: str) -> Dataset:
    """Word/char counts per doc aggregated per lang (G6,
    OcrResult.java:76-88 getCharacterCount/getWordCount).

    Word = whitespace-separated token (Java split("\\\\s+") semantics);
    vectorized via pyarrow regex count: words = count(\\S+). The
    per-lang count, sums, min and max run through ``keyed_aggregate``.
    """
    ds = _pq(sf_dir, "documents", ["lang", "text", "n_chars"])

    def words(batch: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(batch["text"], pattern=r"\S+"), pa.int64())
        return pa.table({"lang": batch["lang"], "words": n,
                         "chars": batch["n_chars"]})

    return keyed_aggregate(
        ds.map_batches(words, batch_format="pyarrow", batch_size=None),
        ["lang"],
        [("n_docs", None, "count_all"), ("total_words", "words", "sum"),
         ("total_chars", "chars", "sum"), ("min_words", "words", "min"),
         ("max_words", "words", "max")])


# ---------------------------------------------------------------------------
# M7/G3 — validation accounting over derived upload metadata
# ---------------------------------------------------------------------------

# deterministic source -> mime mapping (cycle of 6, two invalid)
_MIME_CYCLE = (
    "image/png", "application/pdf", "text/html",
    "video/mp4", "image/jpeg", "audio/ogg",
)
_ALLOWED = {"image/png", "application/pdf", "text/html", "image/jpeg"}


def validation_accounting(sf_dir: str) -> Dataset:
    """Upload validation tally (M7 allowlist + G3 outcome counts;
    ValidateFileCheck.java:10-23, DocumentUploadImpl.java:133-144).

    MIME is derived deterministically from the source id (cycle of 6,
    two disallowed) and size from n_chars*20000 (so some docs exceed the
    10 MB cap); counts grouped by derived status.
    """
    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def derive(batch: pa.Table) -> pa.Table:
        src_num = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3, 99), pa.int64())
        mime_idx = pc.cast(pc.subtract(src_num, pc.multiply(pc.divide(src_num, 6), 6)), pa.int32())
        # dictionary take instead of a per-row list comp
        mimes = pc.take(pa.array(_MIME_CYCLE, pa.string()), mime_idx)
        size = pc.multiply(batch["n_chars"], pa.scalar(20_000, pa.int64()))
        mime_ok = pc.is_in(mimes, value_set=pa.array(sorted(_ALLOWED), pa.string()))
        size_ok = pc.less_equal(size, pa.scalar(10 * 1024 * 1024))
        status = pc.if_else(
            pc.invert(mime_ok), pa.scalar("invalid_mime"),
            pc.if_else(pc.invert(size_ok), pa.scalar("oversize"), pa.scalar("ok")),
        )
        return pa.table({"upload_status": status})

    return keyed_aggregate(ds.map_batches(derive, batch_format="pyarrow"),
                           ["upload_status"], [("n_files", None, "count_all")])


# ---------------------------------------------------------------------------
# G2 — collection rollup over the documents table (SQL-checkable variant)
# ---------------------------------------------------------------------------

def collection_rollup(sf_dir: str) -> Dataset:
    """Collection status rollup (G2 truth table, ProcessOcr.java:185-217)
    over deterministic per-doc statuses derived from the documents table:
    collection = doc_id // 8; status: n_chars % 10 in {0,1} -> 'failed',
    % 10 == 2 -> 'pending', else 'completed'.
    """
    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])

    def derive(batch: pa.Table) -> pa.Table:
        mod = pc.subtract(
            batch["n_chars"], pc.multiply(pc.divide(batch["n_chars"], 10), 10)
        )
        completed = pc.cast(pc.greater_equal(mod, 3), pa.int64())
        failed = pc.cast(pc.less_equal(mod, 1), pa.int64())
        pending = pc.cast(pc.equal(mod, 2), pa.int64())
        coll = pc.divide(batch["doc_id"], 8)
        return pa.table(
            {
                "collection_id": coll,
                "completed": completed,
                "failed": failed,
                "pending": pending,
            }
        )

    agg = keyed_aggregate(
        ds.map_batches(derive, batch_format="pyarrow"), ["collection_id"],
        [("n_docs", None, "count_all"), ("n_completed", "completed", "sum"),
         ("n_failed", "failed", "sum"), ("n_pending", "pending", "sum")])

    def decide(batch: pa.Table) -> pa.Table:
        n, comp, fail = batch["n_docs"], batch["n_completed"], batch["n_failed"]
        status = pc.if_else(
            pc.equal(comp, n), pa.scalar("processed"),
            pc.if_else(pc.equal(pc.add(comp, fail), n), pa.scalar("failed_ocr"),
                       pa.scalar("processing")),
        )
        return batch.append_column("collection_status", status)

    return agg.map_batches(decide, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# J1 — files x ocr_data LEFT JOIN with missing -> 'pending'
# ---------------------------------------------------------------------------

def docs_with_ocr_status(sf_dir: str) -> Dataset:
    """The reference J1 join exactly (GetCollectionResultImpl.java:36-59):
    load file entries, bulk-fetch their OCR rows, left-join in memory,
    missing rows surface as status='pending'.

    The "ocr_data" side is derived deterministically from the documents
    table (docs with n_chars % 3 == 0 have no OCR row yet; the rest split
    completed/failed on n_chars % 7) — a pure function of the probed row,
    so the build side is computed MAP-SIDE inside the batch (vectorized
    if_else), with no driver-side table read and no broadcast at all. The
    genuine small-side broadcast join lives in customers_by_region /
    orders_by_segment; the co-grouped shape is ``hash_join``.
    """

    def _mod(col, m: int):
        # integer modulo via x - (x // m) * m (non-negative inputs)
        return pc.subtract(col, pc.multiply(pc.divide(col, m), m))

    def probe(batch: pa.Table) -> pa.Table:
        nch = batch["n_chars"]
        m3 = pc.equal(_mod(nch, 3), pa.scalar(0, pa.int64()))
        m7 = pc.not_equal(_mod(nch, 7), pa.scalar(0, pa.int64()))
        status = pc.if_else(
            m3, pa.scalar("pending"),
            pc.if_else(m7, pa.scalar("completed"), pa.scalar("failed")),
        )
        return pa.table(
            {"doc_id": batch["doc_id"], "n_chars": batch["n_chars"],
             "ocr_status": status}
        )

    return _pq(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        probe, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# O2 — offset pagination (page 2 of the search sort)
# ---------------------------------------------------------------------------

def documents_page2(sf_dir: str, page_size: int = 20) -> "pa.Table":
    """Second page of the O2 sort (DocumentSearchService.java:174-186
    page/size windows): sort desc, skip page_size, take page_size.

    Ray Data has no OFFSET; the idiom is limit(2*size) then slice the
    (tiny) head client-side — the sort itself stays distributed.
    """
    top2 = (
        _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(2 * page_size)
        .take_all()
    )
    page = top2[page_size:2 * page_size]
    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in page], pa.int64()),
        "source": pa.array([r["source"] for r in page], pa.string()),
        "n_chars": pa.array([r["n_chars"] for r in page], pa.int64()),
    })


# ---------------------------------------------------------------------------
# G5 — mean confidence per provider (exact integer ratio)
# ---------------------------------------------------------------------------

def mean_confidence_by_provider(sf_dir: str) -> Dataset:
    """Mean OCR confidence per provider (G5 block-confidence average,
    GoogleVisionOcrProvider.java:283-295). Confidence is derived
    deterministically in basis points (n_chars * 37 % 10000); provider =
    'vision' when doc_id % 5 == 0 else 'tesseract'. The mean is an exact
    integer ratio rounded at 6 dp — hash-stable across engines."""
    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])

    def derive(batch: pa.Table) -> pa.Table:
        conf_bp = pc.subtract(
            pc.multiply(batch["n_chars"], pa.scalar(37, pa.int64())),
            pc.multiply(
                pc.divide(pc.multiply(batch["n_chars"], pa.scalar(37, pa.int64())),
                          pa.scalar(10_000, pa.int64())),
                pa.scalar(10_000, pa.int64()),
            ),
        )
        five = pa.scalar(5, pa.int64())
        is_vision = pc.equal(
            pc.subtract(batch["doc_id"], pc.multiply(pc.divide(batch["doc_id"], five), five)),
            pa.scalar(0, pa.int64()),
        )
        provider = pc.if_else(is_vision, pa.scalar("vision"), pa.scalar("tesseract"))
        return pa.table({"provider": provider, "conf_bp": conf_bp})

    agg = keyed_aggregate(
        ds.map_batches(derive, batch_format="pyarrow"), ["provider"],
        [("n_docs", None, "count_all"), ("sum_conf_bp", "conf_bp", "sum")])

    def finalize(batch: pa.Table) -> pa.Table:
        # exact integer micros: (sum_bp * 100) // n == mean * 1e6
        mean_micros = pc.divide(
            pc.multiply(batch["sum_conf_bp"], pa.scalar(100, pa.int64())),
            batch["n_docs"],
        )
        return batch.append_column(
            "mean_confidence_micros", pc.cast(mean_micros, pa.int64())
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# G7 — distinct counts
# ---------------------------------------------------------------------------

def distinct_counts(sf_dir: str) -> "pa.Table":
    """Global distinct-count KPIs (G7 dashboard metrics,
    DashboardMetricsCacheService.java:40-58): distinct langs / sources /
    users. Each is a Dataset.unique (shuffle on one slim column)."""
    n_langs = len(_pq(sf_dir, "documents", ["lang"]).unique("lang"))
    n_sources = len(_pq(sf_dir, "documents", ["source"]).unique("source"))
    n_users = len(_pq(sf_dir, "events", ["user_id"]).unique("user_id"))
    return pa.table({
        "n_langs": pa.array([n_langs], pa.int64()),
        "n_sources": pa.array([n_sources], pa.int64()),
        "n_users": pa.array([n_users], pa.int64()),
    })


# ---------------------------------------------------------------------------
# O2/O3 — per-group top-k (window-function shape)
# ---------------------------------------------------------------------------

def top_docs_per_lang(sf_dir: str, k: int = 3) -> Dataset:
    """Top-k largest docs per language — the window-function
    (row_number over partition) shape. Combiner-first: each batch keeps
    only its local per-lang top-k, so the shuffle moves ≤ k rows per
    (lang, batch); ``hash_exchange`` on lang runs the same top-k pick
    over each reduce partition."""
    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    keys = [("n_chars", "descending"), ("doc_id", "ascending")]

    def head_k(t: pa.Table) -> pa.Table:
        return _partial_group_head(t, group_col="lang", sort_keys=keys, k=k)

    return hash_exchange(ds.map_batches(head_k, batch_format="pyarrow"),
                         ["lang"], head_k)


# ---------------------------------------------------------------------------
# G7 — event-type histogram
# ---------------------------------------------------------------------------

def event_type_counts(sf_dir: str) -> Dataset:
    """Event-type histogram with per-type value cents (grouped KPI)."""
    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return keyed_aggregate(
        ds.map_batches(lambda b: _cents(b, "value", "value_cents").drop_columns(["value"]),
                       batch_format="pyarrow"),
        ["event_type"],
        [("n_events", None, "count_all"), ("value_cents", "value_cents", "sum")])


# ---------------------------------------------------------------------------
# G1 — collection total-size gate (SQL-checkable variant)
# ---------------------------------------------------------------------------

def collection_size_gate(sf_dir: str) -> Dataset:
    """Total-upload cap per collection (FileSize.MULTIPLE_FILE_SIZE 50 MB,
    BulkDocumentUploadExtractionImpl.java:76-77) over derived sizes
    (n_chars * 20000; collection = doc_id // 8). Combiner-first grouped sum."""
    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])

    def derive(batch: pa.Table) -> pa.Table:
        eight = pa.scalar(8, pa.int64())
        return pa.table({
            "collection_id": pc.divide(batch["doc_id"], eight),
            "fsize": pc.multiply(batch["n_chars"], pa.scalar(20_000, pa.int64())),
        })

    agg = keyed_aggregate(ds.map_batches(derive, batch_format="pyarrow"),
                          ["collection_id"], [("total_bytes", "fsize", "sum")])

    def gate(batch: pa.Table) -> pa.Table:
        status = pc.if_else(
            pc.greater(batch["total_bytes"], pa.scalar(50 * 1024 * 1024)),
            pa.scalar("rejected_total_size"), pa.scalar("accepted"),
        )
        return batch.append_column("gate", status)

    return agg.map_batches(gate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# §2.9 — session windows (gaps-and-islands)
# ---------------------------------------------------------------------------

def event_sessions(sf_dir: str, gap_minutes: int = 30) -> Dataset:
    """Per-user session windows: consecutive events with inter-event gaps
    < ``gap_minutes`` form one session (the classic gaps-and-islands
    sessionization a streaming engine does with session windows).

    Ray shape: ``hash_exchange`` on the user (many users per reduce
    partition), then ONE vectorized pass per reduce partition: sort by
    (user, ts, event_id), flag session starts where the user changes OR
    the gap is >= the threshold, and read per-session first/last/count off
    the boundary index arrays (ray_guide 'Streaming-shaped workloads'
    pattern). Output: one row per session with start, n_events and
    duration_us (exact integers — hash-stable).
    """
    ds = _pq(sf_dir, "events", ["user_id", "event_id", "ts"])
    gap_us = gap_minutes * 60 * 1_000_000

    def sessions(group: pa.Table) -> pa.Table:
        g = group.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                           ("event_id", "ascending")])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        n = ts.shape[0]
        # session starts: first row, user change, or gap >= threshold —
        # one vectorized flag array covering every user in the block
        new_session = np.ones(n, dtype=bool)
        if n > 1:
            new_session[1:] = (uid[1:] != uid[:-1]) | (np.diff(ts) >= gap_us)
        bounds = np.flatnonzero(new_session)          # first event per session
        n_sessions = bounds.size
        if n_sessions:
            ends = np.empty(n_sessions, dtype=np.int64)  # last event index
            ends[:-1] = bounds[1:] - 1
            ends[-1] = n - 1
            counts = np.empty(n_sessions, dtype=np.int64)
            counts[:-1] = np.diff(bounds)
            counts[-1] = n - bounds[-1]
            starts = ts[bounds]
            durs = ts[ends] - starts
            users = uid[bounds]
        else:
            starts = counts = durs = users = np.empty(0, dtype=np.int64)
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "session_start": pa.array(starts).cast(pa.timestamp("us")),
            "n_events": pa.array(counts, pa.int64()),
            "duration_us": pa.array(durs, pa.int64()),
        })

    return hash_exchange(ds, ["user_id"], sessions)


# ---------------------------------------------------------------------------
# co-grouped hash join — the non-broadcast join shape
# ---------------------------------------------------------------------------

_ARROW_HOW = {"inner": "inner", "left": "left outer", "semi": "left semi",
              "anti": "left anti", "right": "right outer",
              "full": "full outer"}


def hash_join(left: Dataset, right: Dataset, on: str, how: str = "inner",
              right_suffix: str = "_r", hot_keys=None, n_salts: int = 16,
              schemas: tuple[pa.Schema, pa.Schema] | None = None) -> Dataset:
    """Distributed hash join with no driver or broadcast state: the two
    sides co-grouped on ``on`` by ``hash_exchange``, then one Arrow
    ``Table.join`` per reduce partition (the shape the broadcast joins
    in customers_by_region / orders_by_segment degrade to when the build
    side stops being small).

    ``how``: inner / left / semi / anti / right / full, through Arrow's
    inner / left outer / left semi / left anti / right outer / full
    outer; duplicate keys give the cartesian of their matches. A key
    value lands in one partition on both sides, so a row unmatched in
    its partition is unmatched globally and every mode composes per
    partition. Null keys never match (SQL semantics); they surface
    unmatched from whichever partition their placement hash chose.
    right/full coalesce the key column. Semi and anti ship only the key
    of the right side and return the left columns.

    The partition count is ``hash_exchange``'s, one per session CPU up
    to ``AGG_BLOCKS``; ROADMAP item 8 adds a byte floor there. Only the
    joined columns ride the exchange — prune with select_columns before
    calling. Right-side columns colliding with left names get
    ``right_suffix``. ``schemas=(left, right)`` passes the sides' Arrow
    schemas when the caller knows them; otherwise each side's
    ``Dataset.schema()`` runs a ``limit=1`` execution of its plan.

    Evaluated against Ray 2.49's native ``Dataset.join`` (hash-shuffle
    aggregator actors) on the bench join (150k x 15k at 32 CPUs): the
    native operator ran 1.3-2x SLOWER (6.3-7.5 s vs 3.7-5.8 s same
    window) — its per-partition aggregator actor pool costs more than
    this operator's single small-int sort exchange at these scales, and
    it offers no skew salting. Re-evaluate if Ray's hash shuffle
    matures.

    Skew: pass ``hot_keys`` (any iterable of key values — e.g. from
    ``detect_hot_keys`` or table_stats frequency estimates) to SALT them
    with a ``__salt`` key column on both sides: probe-side (left) rows of
    a hot key are sprayed over ``n_salts`` salt values and the matching
    build-side (right) rows are replicated once per salt, and the join
    keys are ``[on, "__salt"]``. No partition then holds a hot key's
    full probe mass, and the output is row-identical to the unsalted
    join (each left row meets exactly one copy of each matching right
    row). Without ``hot_keys`` a hot key still lands in one partition.
    """
    if how not in _ARROW_HOW:
        raise ValueError(f"unsupported how={how!r}")
    hot_list = list(hot_keys) if hot_keys is not None else []
    if hot_list and how in ("right", "full"):
        # build-side salting replicates hot right rows once per salt; a
        # replica with no probe match in its salt would surface n_salts
        # times as an unmatched right row under right/full outer. An
        # EMPTY hot set is a no-op and stays valid (detect_hot_keys
        # composes: it normally returns []).
        raise ValueError(f"hot_keys salting is not valid with how={how!r}")
    # pa.Schema or ray.data.Schema: both have .names + .types (arrow)
    lschema, rschema = (pa.schema(list(zip(s.names, s.types)))
                        for s in (schemas or (left.schema(), right.schema())))
    if how in ("semi", "anti"):
        rschema = pa.schema([rschema.field(on)])
    lcols = lschema.names
    out = lcols + [c + right_suffix if c in lcols else c
                   for c in rschema.names if c != on]
    keys = [on]
    if hot_list:
        hot_arr = pa.array(hot_list).cast(lschema.field(on).type)

        def salt(t: pa.Table, build: bool) -> pa.Table:
            hot = pc.is_in(t[on], value_set=hot_arr) \
                .to_numpy(zero_copy_only=False).astype(bool)
            if not build:  # probe: spray hot rows over the salt range
                salts = np.where(hot, np.arange(t.num_rows) % n_salts, 0)
            else:  # build: one copy of each hot row per salt
                idx_hot, idx_cold = np.flatnonzero(hot), np.flatnonzero(~hot)
                t = t.take(np.concatenate([idx_cold, np.tile(idx_hot, n_salts)]))
                salts = np.concatenate([np.zeros(idx_cold.size, np.int64),
                                        np.repeat(np.arange(n_salts),
                                                  idx_hot.size)])
            return t.append_column("__salt", pa.array(salts, pa.int64()))

        left, right = (d.map_batches(salt, fn_kwargs={"build": build},
                                     batch_format="pyarrow", batch_size=None)
                       for d, build in ((left, False), (right, True)))
        lschema, rschema = (s.append(pa.field("__salt", pa.int64()))
                            for s in (lschema, rschema))
        keys = [on, "__salt"]

    def join_partition(ltbl: pa.Table, rtbl: pa.Table) -> pa.Table:
        return ltbl.join(rtbl, keys=keys, join_type=_ARROW_HOW[how],
                         right_suffix=right_suffix,
                         coalesce_keys=True).select(out)

    return hash_exchange([(left, lschema), (right, rschema)], keys,
                         join_partition)


def detect_hot_keys(ds: Dataset, on: str, min_rows: int = 250_000) -> list:
    """Exact per-key row counts above ``min_rows`` — the salting input for
    hash_join. A slim ``keyed_aggregate`` row count per key, filtered
    BEFORE collecting — the driver only ever holds the hot set (few keys
    by definition; a key must exceed min_rows to surface). Pair with
    table_stats NDV/row estimates to pick min_rows near the rows one
    reduce task of the join should hold."""
    agg = keyed_aggregate(ds.select_columns([on]), [on],
                          [("cnt", None, "count_all")])
    hot = agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], min_rows)),
        batch_format="pyarrow")
    return [r[on] for r in hot.take_all()]


def _orders_cust_sides(sf_dir: str, priority: str | None = None,
                       segment: str | None = None):
    """Shared side-builder for the orders x customer join family: pruned
    reads, money->cents, join-key rename to ``custkey``; optional literal
    per-side filters (applied BEFORE the cents cast so dropped rows never
    pay it). Also returns both sides' Arrow schemas for
    ``hash_join(schemas=)``, derived by running the same prep and rename
    over each file's empty table (footer only, no Ray execution), so the
    join runs no ``limit=1`` schema probe."""
    import pyarrow.parquet as pq

    ocols = ["o_orderkey", "o_custkey", "o_totalprice"]
    if priority is not None:
        ocols = ocols + ["o_orderpriority"]

    def prep_orders(b: pa.Table) -> pa.Table:
        if priority is not None:
            b = b.filter(pc.equal(b["o_orderpriority"], priority)) \
                 .drop_columns(["o_orderpriority"])
        return _cents(b, "o_totalprice", "price_cents") \
            .drop_columns(["o_totalprice"])

    def prep_cust(t: pa.Table) -> pa.Table:
        if segment is not None:
            t = t.filter(pc.equal(t["c_mktsegment"], segment))
        return t

    def to_custkey(key: str):
        def rename(t: pa.Table) -> pa.Table:
            return t.rename_columns(
                "custkey" if c == key else c for c in t.column_names)
        return rename

    sides, schemas = [], []
    for table, cols, key, prep in (
            ("orders", ocols, "o_custkey", prep_orders),
            ("customer", ["c_custkey", "c_mktsegment"], "c_custkey", prep_cust)):
        rename = to_custkey(key)
        sides.append(_pq(sf_dir, table, cols)
                     .map_batches(prep, batch_format="pyarrow")
                     .map_batches(rename, batch_format="pyarrow"))
        empty = pq.read_schema(f"{sf_dir}/{table}.parquet").empty_table()
        schemas.append(rename(prep(empty.select(cols))).schema)
    return sides[0], sides[1], tuple(schemas)


def orders_customer_join(sf_dir: str) -> Dataset:
    """Orders LEFT-joined to customer via the generic co-group hash_join
    (no broadcast): the reference's files x ocr_data join at a scale where
    neither side is broadcastable. Slim projected columns only."""
    orders, cust, schemas = _orders_cust_sides(sf_dir)
    return hash_join(orders, cust, on="custkey", how="left", schemas=schemas)


def orders_customer_full_join(sf_dir: str) -> Dataset:
    """FULL OUTER variant of the join above, with both sides filtered so
    each carries unmatched rows: urgent orders x BUILDING customers.
    Exercises hash_join(how="full") — unmatched rows of EITHER side
    survive with the other side's columns null and the key coalesced
    (the reconciliation shape: which orders lack a tracked customer,
    which tracked customers placed no urgent order)."""
    orders, cust, schemas = _orders_cust_sides(sf_dir, priority="1-URGENT",
                                               segment="BUILDING")
    return hash_join(orders, cust, on="custkey", how="full", schemas=schemas)


# ---------------------------------------------------------------------------
# hopping (sliding) window aggregate — §2.9 extension beyond tumbling/session
# ---------------------------------------------------------------------------

def event_hopping_windows(sf_dir: str, size_min: int = 60,
                          hop_min: int = 30) -> Dataset:
    """Per-(user, window) aggregates over HOPPING windows (size 60 min,
    hop 30 min by default): each event lands in size/hop overlapping
    windows. Window starts are hop-aligned epoch-microsecond int64 (no
    engine-specific timestamp arithmetic).

    Shape: vectorized expansion (each batch row repeated size/hop times
    with arithmetic window starts — no per-row Python), then the same
    ``keyed_aggregate`` as the tumbling windows.
    """
    size_us = size_min * 60 * 1_000_000
    hop_us = hop_min * 60 * 1_000_000
    if size_us % hop_us:
        raise ValueError("size must be a multiple of hop")
    reps = size_us // hop_us
    ds = _pq(sf_dir, "events", ["user_id", "ts", "value"])

    def expand(batch: pa.Table) -> pa.Table:
        b = _cents(batch, "value", "value_cents")
        us = pc.cast(pc.cast(batch["ts"], pa.int64()), pa.int64())
        base = pc.multiply(pc.divide(us, hop_us), pa.scalar(hop_us, pa.int64()))
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n), reps))
        offs = pa.array(np.tile(np.arange(reps) * hop_us, n))
        starts = pc.subtract(pc.take(base, idx), offs)
        # every event is in exactly `reps` windows: start <= ts < start+size
        # holds for all j in [0, reps) by hop alignment — no filter needed
        return pa.table({
            "user_id": pc.take(b["user_id"], idx),
            "window_start_us": starts,
            "value_cents": pc.take(b["value_cents"], idx),
        })

    return keyed_aggregate(
        ds.map_batches(expand, batch_format="pyarrow"),
        ["user_id", "window_start_us"],
        [("n_events", None, "count_all"), ("value_cents", "value_cents", "sum")])


# ---------------------------------------------------------------------------
# deterministic sampling — hash-gated, engine-independent
# ---------------------------------------------------------------------------

def sample_documents(sf_dir: str, pct: int = 10) -> Dataset:
    """Deterministic corpus sample: keep rows whose sha256('sample:'+id)
    first-two-byte value falls under pct% of 65536. Unlike random_sample,
    the SAME rows are selected by any engine at any parallelism — the
    reproducible-subset operator a training-data pipeline needs for
    held-out splits and debugging slices."""
    import hashlib as _h

    cut = (65536 * pct) // 100
    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        mask = pa.array(
            [int(_h.sha256(f"sample:{d}".encode()).hexdigest()[:4], 16) < cut
             for d in ids], pa.bool_())
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# as-of join — the time-series operator Ray Data lacks
# ---------------------------------------------------------------------------

def asof_join(left: Dataset, right: Dataset, by: str, on: str,
              right_keep: list[str], right_suffix: str = "_r",
              schemas: tuple[pa.Schema, pa.Schema] | None = None) -> Dataset:
    """Backward as-of join: for each left row, the LAST right row of the
    same ``by`` key with right.on <= left.on (nulls when none precedes).

    Composition (north-rule custom-operator path (a)): the two sides
    co-grouped by ``hash_exchange`` on ``by`` (the right side ships only
    ``by``, ``on`` and ``right_keep``) — never one Ray group per key —
    then ONE vectorized segmented scan per reduce partition (a union of
    whole key groups): sort both sides' (key, time) by (key, time,
    right-before-left), forward-fill the last right-row index with
    np.maximum.accumulate, and invalidate fills that cross a key-run
    boundary (fill < run_start). No per-key Python anywhere. Left rows
    keep their order within the partition.
    Partitioning assumption: rows hash-balance across the reduce
    partitions; a single hot key cannot straddle partitions (the scan is
    order-exact within its run regardless of run length).
    ``schemas=(left, right)`` passes the sides' Arrow schemas when the
    caller knows them, as in ``hash_join``; otherwise each side's
    ``Dataset.schema()`` runs a ``limit=1`` execution of its plan.
    """
    lschema, rschema = (pa.schema(list(zip(s.names, s.types)))
                        for s in (schemas or (left.schema(), right.schema())))
    lcols = lschema.names
    rout = [c + right_suffix if c in lcols else c for c in right_keep]
    rschema = pa.schema([rschema.field(c)
                         for c in dict.fromkeys([by, on] + right_keep)])
    result_schema = pa.schema(list(lschema) + [
        pa.field(o, rschema.field(c).type) for c, o in zip(right_keep, rout)])

    def block_asof(ltbl: pa.Table, rtbl: pa.Table) -> pa.Table:
        # right rows sort BEFORE left rows at equal (key, t): a right row
        # at exactly left.on is eligible (<=); the stable sort keeps the
        # original order among equal right timestamps, so
        # maximum.accumulate picks the last one — same tie rule as a
        # searchsorted(side="right")
        nl = ltbl.num_rows
        if nl == 0:
            return result_schema.empty_table()
        side = np.repeat(np.array([0, 1], np.int8), [nl, rtbl.num_rows])
        both = pa.table({
            "k": pa.chunked_array(ltbl[by].chunks + rtbl[by].chunks,
                                  lschema.field(by).type),
            "t": pa.chunked_array(pc.cast(ltbl[on], pa.int64()).chunks
                                  + pc.cast(rtbl[on], pa.int64()).chunks,
                                  pa.int64()),
            "side": side})
        order = pc.sort_indices(both, [("k", "ascending"), ("t", "ascending"),
                                       ("side", "descending")]).to_numpy()
        n = order.size
        keycol = both["k"].take(order).combine_chunks()
        if pa.types.is_integer(keycol.type):
            codes = keycol.to_numpy(zero_copy_only=False)
        else:
            codes = pc.dictionary_encode(keycol).indices.to_numpy(
                zero_copy_only=False)
        change = np.empty(n, bool)
        change[0] = True
        np.not_equal(codes[1:], codes[:-1], out=change[1:])
        run_start = np.maximum.accumulate(
            np.where(change, np.arange(n, dtype=np.int64), 0))
        sorted_side = side[order]
        filled = np.maximum.accumulate(
            np.where(sorted_side == 1, np.arange(n, dtype=np.int64), -1))
        l_rows = np.flatnonzero(sorted_side == 0)
        valid = filled[l_rows] >= run_start[l_rows]  # fill from an earlier run is void
        # the right row each left row (in its own order) takes; -1: none
        match = np.full(nl, -1, np.int64)
        match[order[l_rows]] = np.where(valid, order[filled[l_rows]] - nl, -1)
        take = pa.array(match, mask=match < 0)
        return pa.Table.from_arrays(
            ltbl.columns + [rtbl[c].take(take) for c in right_keep],
            schema=result_schema)

    return hash_exchange([(left, lschema), (right, rschema)], [by], block_asof)


def _purchase_click_sides(sf_dir: str):
    """Both sides of ``purchases_with_last_click`` and their Arrow
    schemas for ``asof_join(schemas=)``: purchases, and clicks deduped to
    one row per (user, ts) by max event_id so the match is total-order
    deterministic. The schemas come from running the same per-batch
    kernels over the events file's empty table (footer only, no Ray
    execution), so the right side's all-to-all dedup never runs as a
    ``limit=1`` probe."""
    import pyarrow.parquet as pq

    cols = ["event_id", "ts", "user_id", "event_type"]

    def pick(event_type: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], event_type)) \
                .select(["event_id", "user_id", "ts"])
        return fn

    ev = _pq(sf_dir, "events", cols)
    purchases = ev.map_batches(pick("purchase"), batch_format="pyarrow")
    # one click per (user, ts): the max event_id
    clicks_u = keyed_aggregate(
        ev.map_batches(pick("click"), batch_format="pyarrow"),
        ["user_id", "ts"], [("event_id", "event_id", "max")])
    empty = pq.read_schema(f"{sf_dir}/events.parquet").empty_table().select(cols)
    schemas = (pick("purchase")(empty).schema,
               pick("click")(empty).select(["user_id", "ts", "event_id"]).schema)
    return purchases, clicks_u, schemas


def purchases_with_last_click(sf_dir: str) -> Dataset:
    """For every purchase event, the user's most recent click at-or-before
    it (backward as-of; clicks deduped as in `_purchase_click_sides`);
    nulls encoded as -1 for engine-stable hashing."""
    purchases, clicks_u, schemas = _purchase_click_sides(sf_dir)
    joined = asof_join(purchases, clicks_u, by="user_id", on="ts",
                       right_keep=["event_id", "ts"], schemas=schemas)

    def finish(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(t["ts"], pa.int64())
        click_ts = pc.cast(t["ts_r"], pa.int64())
        gap = pc.subtract(ts_us, click_ts)
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "ts_us": ts_us,
            "click_event_id": pc.fill_null(t["event_id_r"], -1),
            "gap_us": pc.fill_null(gap, -1),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# range (non-equi interval) join — broadcast band table + searchsorted
# ---------------------------------------------------------------------------

def range_join(ds: Dataset, bands: "pa.Table", value_col: str,
               lo_col: str = "lo", hi_col: str = "hi") -> Dataset:
    """Non-equi join: attach to each row the band whose
    [lo, hi) interval contains row[value_col] (bands must be disjoint and
    sorted; rows outside every band get nulls).

    The band table is small by construction (it is a dimension), so this
    is a BROADCAST non-equi join: ray.put once, one vectorized
    np.searchsorted per batch — no shuffle, no per-row predicate loop.
    """
    lows = np.asarray(bands[lo_col].to_pylist(), dtype=np.float64)
    his = np.asarray(bands[hi_col].to_pylist(), dtype=np.float64)
    if not (np.all(np.diff(lows) > 0) and np.all(lows < his)
            and np.all(his[:-1] <= lows[1:])):
        raise ValueError("bands must be sorted and disjoint with lo < hi")
    band_cols = {c: bands[c] for c in bands.column_names
                 if c not in (lo_col, hi_col)}
    ref = ray.put((lows, his, {c: a.to_pylist() for c, a in band_cols.items()},
                   {c: bands.schema.field(c).type for c in band_cols}))

    def attach(batch: pa.Table) -> pa.Table:
        lo, hi, cols, types = ray.get(ref)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        pos = np.searchsorted(lo, v, side="right") - 1
        inside = (pos >= 0) & (v < hi[np.maximum(pos, 0)])
        take = np.maximum(pos, 0)
        for c, values in cols.items():
            col = pa.array(
                [values[take[i]] if inside[i] else None for i in range(len(v))],
                types[c],
            )
            batch = batch.append_column(c, col)
        return batch

    return ds.map_batches(attach, batch_format="pyarrow")


PRICE_BANDS = pa.table({
    "lo": pa.array([0.0, 20_000.0, 100_000.0, 250_000.0], pa.float64()),
    "hi": pa.array([20_000.0, 100_000.0, 250_000.0, 1e18], pa.float64()),
    "price_band": pa.array(["small", "medium", "large", "jumbo"], pa.string()),
})


def orders_price_bands(sf_dir: str) -> Dataset:
    """Orders bucketed into static price bands via the range join, rolled
    up per band — the interval-dimension join shape (rate tables, SLA
    tiers, size classes)."""
    ds = _pq(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    joined = range_join(ds, PRICE_BANDS, value_col="o_totalprice")

    def cents(batch: pa.Table) -> pa.Table:
        return _cents(batch, "o_totalprice", "price_cents") \
            .select(["price_band", "price_cents"])

    return keyed_aggregate(
        joined.map_batches(cents, batch_format="pyarrow"), ["price_band"],
        [("n_orders", None, "count_all"), ("price_cents", "price_cents", "sum")])


# ---------------------------------------------------------------------------
# G8 — exact grouped percentiles (SQL-checkable variant)
# ---------------------------------------------------------------------------

def doc_size_percentiles(sf_dir: str) -> Dataset:
    """Exact discrete percentiles of n_chars per language: p50/p90 as the
    element at index ceil(q*n)-1 of the sorted values — DuckDB's
    quantile_disc convention, computed with INTEGER index arithmetic (no
    float ceil hazards).

    Shape: only the slim (lang, n_chars) columns ride the shuffle; exact
    percentiles inherently need the group's values co-located (the
    mergeable APPROXIMATE sketch for corpus-scale is
    sketch.quantile_sketch)."""
    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])
    # q as integer fractions: ceil(num*n/den) - 1
    qs = [("p50_chars", 1, 2), ("p90_chars", 9, 10)]

    def pick(group: pa.Table) -> pa.Table:
        vals = np.sort(group["n_chars"].to_numpy(zero_copy_only=False))
        n = vals.shape[0]
        out = {"lang": [group["lang"][0].as_py()],
               "n_docs": pa.array([n], pa.int64())}
        for name, num, den in qs:
            k = (num * n + den - 1) // den - 1
            out[name] = pa.array([int(vals[max(k, 0)])], pa.int64())
        return pa.table(out)

    return map_groups(ds, ["lang"], pick)


def customers_without_orders(sf_dir: str, status: str = "P") -> Dataset:
    """Customers with no order in the given status — the ANTI-join shape
    (tombstone/GC scans, orphan detection) via the co-grouped hash_join
    with Arrow's left-anti kernel per partition. (The testdata's FKs are
    fully covered, so the unfiltered variant would be empty; the status
    filter makes the result non-trivial at every scale.)"""
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _pq(sf_dir, "orders", ["o_custkey", "o_orderstatus"]) \
        .map_batches(
            lambda t: t.filter(pc.equal(t["o_orderstatus"], status))
            .select(["o_custkey"]).rename_columns(["c_custkey"]),
            batch_format="pyarrow")
    return hash_join(cust, orders, on="c_custkey", how="anti")


# ---------------------------------------------------------------------------
# running (cumulative) window function — SUM() OVER (PARTITION ... ORDER ...)
# ---------------------------------------------------------------------------

def _user_block_runs(group: pa.Table):
    """Shared keyed-exchange window kernel prologue: sort ONE reduce
    partition of many users by (user_id, ts, event_id), return the
    sorted table, its cents cumsum, and each row's key-run start index —
    everything the segmented window kernels need, all vectorized."""
    g = _cents(group, "value", "vc").sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    uid = g["user_id"].to_numpy(zero_copy_only=False)
    n = uid.shape[0]
    if n == 0:  # empty group guard (ADVICE r4), matching _group_head_indices
        return g, np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.empty(n, bool)
    change[0] = True
    np.not_equal(uid[1:], uid[:-1], out=change[1:])
    run_start = np.maximum.accumulate(
        np.where(change, np.arange(n, dtype=np.int64), 0))
    csum = np.cumsum(g["vc"].to_numpy(zero_copy_only=False))
    return g, csum, run_start


def user_running_totals(sf_dir: str) -> Dataset:
    """Per-user running value total in (ts, event_id) order — the
    window-function shape (SUM() OVER (PARTITION BY user ORDER BY ts)).
    Exchanges by the user (``hash_exchange``) — never one Ray group per
    user — then one segmented cumsum per reduce partition: global cumsum
    minus the prefix before each row's key-run start. Only the slim
    (user, ts, event_id, cents) columns shuffle; no per-user Python."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def running(group: pa.Table) -> pa.Table:
        g, csum, run_start = _user_block_runs(group)
        base = np.where(run_start > 0, csum[run_start - 1], 0)
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "ts_us": pc.cast(g["ts"], pa.int64()),
            "running_cents": pa.array(csum - base, pa.int64()),
        })

    return hash_exchange(ds, ["user_id"], running)


def user_sliding_window(sf_dir: str, w: int = 4) -> Dataset:
    """Per-user SLIDING window sum — the last ``w`` events' value cents
    including the current one, in (ts, event_id) order: SUM() OVER
    (PARTITION BY user ORDER BY ts, event_id ROWS BETWEEN w-1 PRECEDING
    AND CURRENT ROW). Completes the window family (tumbling / hopping /
    session / cumulative / sliding). Same keyed-exchange shape as
    user_running_totals; the window difference subtracts the cumsum at
    max(i - w, run_start - 1), clipping every window at its key-run
    boundary — fully vectorized across all users in the block."""
    ds = _pq(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def sliding(group: pa.Table) -> pa.Table:
        g, csum, run_start = _user_block_runs(group)
        n = csum.shape[0]
        j = np.maximum(np.arange(n, dtype=np.int64) - w, run_start - 1)
        out = csum - np.where(j >= 0, csum[np.maximum(j, 0)], 0)
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "sliding_sum_cents": pa.array(out, pa.int64()),
        })

    return hash_exchange(ds, ["user_id"], sliding)


# ---------------------------------------------------------------------------
# §2.8 — JSON scalar extraction over a properties column
# ---------------------------------------------------------------------------

def event_props_stats(sf_dir: str) -> Dataset:
    """Extract the integer 'k' field from the events props JSON column and
    aggregate per event type — the metadata-map scalar-function shape
    (OcrRequest.metadata analog; SURVEY §2.8 json functions). pyarrow has
    no JSON kernel, but the planted props grammar '{"k": N}' is
    regex-extractable, so the hot path is one RE2 pc.extract_regex pass
    (VERDICT r4 item 7); rows the regex misses (arbitrary JSON) fall back
    to per-row json.loads — zero rows on well-formed corpora. The
    ``keyed_aggregate`` moves only (type, partial) rows."""
    import json as _json

    ds = _pq(sf_dir, "events", ["event_type", "props"])

    def parse_k(batch: pa.Table) -> pa.Table:
        props = pc.fill_null(batch["props"], "")
        # integer grammar matches JSON exactly (no leading zeros): a
        # '{"k": 007}' row must fall through to json.loads and be
        # REJECTED like the oracle's TRY_CAST(json_extract(...)) does
        ext = pc.extract_regex(props,
                               pattern=r'^\{"k": (?P<k>-?(?:0|[1-9]\d*))\}$')
        k = pc.cast(pc.struct_field(ext, "k"), pa.int64())
        miss = pc.and_(pc.is_null(k), pc.not_equal(props, ""))
        if pc.sum(pc.cast(miss, pa.int64())).as_py():
            kl = k.to_pylist()
            pl = props.to_pylist()
            for i in np.flatnonzero(
                    miss.combine_chunks().to_numpy(zero_copy_only=False)):
                try:
                    v = _json.loads(pl[i])
                    v = v.get("k") if isinstance(v, dict) else None
                except (ValueError, TypeError):
                    v = None
                kl[int(i)] = v if isinstance(v, int) else None
            k = pa.array(kl, pa.int64())
        t = pa.table({"event_type": batch["event_type"], "k": k})
        return t.filter(pc.is_valid(t["k"]))

    return keyed_aggregate(
        ds.map_batches(parse_k, batch_format="pyarrow"), ["event_type"],
        [("n_events", None, "count_all"), ("k_total", "k", "sum"),
         ("k_max", "k", "max")])


# ---------------------------------------------------------------------------
# PII scrub over the corpus (training-data hygiene, SQL-checkable)
# ---------------------------------------------------------------------------

def pii_scrub_stats(sf_dir: str) -> Dataset:
    """Plant deterministic contact strings per doc, scrub them with the
    RE2 PII operator, return per-doc counts + scrubbed text. The planted
    suffix is SQL-reconstructible, so DuckDB re-derives the exact
    scrubbed output (regexp_replace, same RE2 engine)."""
    from .textstats import scrub_pii

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        did = pc.cast(batch["doc_id"], pa.string())
        suffix = pc.binary_join_element_wise(
            pa.array([" contact user"] * batch.num_rows), did,
            pa.array(["@example.com or +1 555-010-"] * batch.num_rows),
            # slice to EXACTLY 4 digits: lpad alone leaves 5+-digit ids
            # unpadded while SQL lpad truncates — parity requires both sides
            # to truncate (ADVICE r2; latent at doc_id >= 10000)
            pc.utf8_slice_codeunits(pc.utf8_lpad(did, 4, "0"), 0, 4),
            pa.array([" now"] * batch.num_rows),
            "")
        text = pc.binary_join_element_wise(
            pc.fill_null(batch["text"], ""), suffix, "")
        return pa.table({"doc_id": batch["doc_id"], "text": text})

    scrubbed = scrub_pii(ds.map_batches(plant, batch_format="pyarrow"))
    # full scrubbed text is the comparison payload
    return scrubbed.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "scrubbed": t["text"],
                            "n_emails": t["n_emails"],
                            "n_phones": t["n_phones"]}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# storage reconciliation — recompute-vs-ledger backfill with drift counts
# ---------------------------------------------------------------------------

def storage_reconcile(sf_dir: str, team_region: str = "ASIA") -> Dataset:
    """Storage-accounting reconciliation: recompute each user's usage
    from their SUCCESS-state rows, compare against the stale stored
    ledger, and roll team members' usage into per-team totals — the
    batch backfill of the reference's storage migration job
    (storage/service/StorageDataMigrationService.java:47-120: per-user
    recompute over SUCCESS files :122-131, zero for empty users :65-72,
    team members routed into a team map :77-85, teams folded after
    :99-114; usersUpdated counts only CHANGED rows, teamsUpdated counts
    every team :112).

    Deterministic stand-ins on the TPC-H-ish corpus: user = customer,
    file rows = orders (o_orderstatus = 'F' is the SUCCESS analog,
    o_totalprice cents the byte size), ledger = c_acctbal cents, team
    membership = customer's nation sits in ``team_region`` (the
    conditional routing the reference reads from team_members), team id
    = nation name.

    Scale shape: orders reduce to one slim ``keyed_aggregate`` sum per
    custkey; the customer side joins through the co-grouped
    ``hash_join`` (no broadcast of the big side); nation->region routing
    is a genuinely tiny dimension broadcast via ``ray.put``. Output:
    (scope, entity, storage_used_cents, n_members, drifted).
    """
    import ray
    import pyarrow.parquet as pq

    orders = _pq(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_totalprice"])

    def success_cents(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        b = _cents(b, "o_totalprice", "cents")
        return pa.table({"c_custkey": b["o_custkey"], "cents": b["cents"]})

    recomputed = keyed_aggregate(
        orders.map_batches(success_cents, batch_format="pyarrow"),
        ["c_custkey"], [("used_cents", "cents", "sum")])

    customers = _pq(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_nationkey"])

    def ledger(batch: pa.Table) -> pa.Table:
        b = _cents(batch, "c_acctbal", "ledger_cents")
        return b.select(["c_custkey", "ledger_cents", "c_nationkey"])

    joined = hash_join(
        customers.map_batches(ledger, batch_format="pyarrow"),
        recomputed, on="c_custkey", how="left")

    # nation -> (team name, in team region): inherently tiny dimension
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    rmap = dict(zip(region["r_regionkey"].to_pylist(),
                    region["r_name"].to_pylist()))
    # broadcast parallel (key, name, in_team) arrays: the probe is one
    # vectorized index_in + take/fancy-index, no per-row dict lookups
    route_ref = ray.put((
        nation["n_nationkey"].combine_chunks(),
        nation["n_name"].combine_chunks(),
        np.array([rmap[rk] == team_region
                  for rk in nation["n_regionkey"].to_pylist()], bool)))

    def reconcile(batch: pa.Table) -> pa.Table:
        key_arr, name_arr, inteam_np = ray.get(route_ref)
        used = pc.fill_null(batch["used_cents"], 0)
        idx_arr = pc.index_in(batch["c_nationkey"], value_set=key_arr)
        if idx_arr.null_count:  # unmapped key would NaN->garbage-index (ADVICE r4)
            missing = pc.unique(batch["c_nationkey"].filter(
                pc.is_null(idx_arr))).to_pylist()
            raise ValueError(
                f"storage_reconcile: c_nationkey values {missing[:5]} missing "
                f"from the nation broadcast lookup")
        idx = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        teams_arr = pc.take(name_arr, pa.array(idx))
        in_team = inteam_np[idx]
        drift = pc.not_equal(batch["ledger_cents"], used).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_users = int((~in_team).sum())
        users = pa.table({
            "scope": pa.array(["user"] * n_users, pa.string()),
            "entity": pc.cast(batch["c_custkey"], pa.string()).filter(
                pa.array(~in_team)),
            "storage_used_cents": pc.cast(used.filter(pa.array(~in_team)),
                                          pa.int64()),
            "drifted": pa.array(drift[~in_team], pa.int64()),
        })
        # one row per team member; drifted=1 mirrors teamsUpdated
        # counting every team (:112)
        n_team = int(in_team.sum())
        tm = pa.table({
            "scope": pa.array(["team"] * n_team, pa.string()),
            "entity": teams_arr.filter(pa.array(in_team)),
            "storage_used_cents": pc.cast(used.filter(pa.array(in_team)),
                                          pa.int64()),
            "drifted": pa.array(np.ones(n_team, np.int64)),
        })
        return pa.concat_tables([users, tm])

    # one keyed aggregate finishes both scopes: user rows have unique
    # (scope, entity) so the sums are identity; team members sum up and
    # max keeps drifted at 1 — no scope ever co-locates in one task
    return keyed_aggregate(
        joined.map_batches(reconcile, batch_format="pyarrow"),
        ["scope", "entity"],
        [("storage_used_cents", "storage_used_cents", "sum"),
         ("n_members", None, "count_all"), ("drifted", "drifted", "max")])


# ---------------------------------------------------------------------------
# table statistics collection — the ANALYZE pass a query planner needs
# ---------------------------------------------------------------------------

def table_stats(sf_dir: str, table: str = "orders",
                int_cols: tuple[str, ...] = ("o_orderkey", "o_custkey")) -> Dataset:
    """Catalog statistics per integer column: (column, min_v, max_v,
    n_nulls, n_distinct) — the ANALYZE pass that feeds join planning
    (e.g. detect_hot_keys thresholds and broadcast-vs-exchange
    decisions).

    One projection melts the table to slim (column, v) rows; three
    ``keyed_aggregate`` calls fold them: per column min, max and nulls,
    the distinct (column, v) pairs — the unavoidable exact-NDV shuffle,
    which at corpus scale degrades to the mergeable HLL register sketch
    (sketch.hll_registers, same output contract, ±6.5%) — and the pair
    count per column. Each block moves one partial row per distinct
    (column, value), never raw rows.

    Contract note (ADVICE r3): the NDV branch executes EAGERLY at
    graph-construction time (take_all over one row per column — bounded
    by table WIDTH, never data) so the result can ride a broadcast dict;
    the returned per-column stats Dataset itself stays lazy.
    """
    ds = _pq(sf_dir, table, list(int_cols))

    def melt(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([pa.table({
            "column": pa.array([c] * batch.num_rows, pa.string()),
            "v": pc.cast(batch[c], pa.int64()),
            "is_null": pc.is_null(batch[c]),
        }) for c in int_cols])

    melted = ds.map_batches(melt, batch_format="pyarrow")
    agg = keyed_aggregate(
        melted, ["column"],
        [("min_v", "v", "min"), ("max_v", "v", "max"),
         ("n_nulls", "is_null", "sum")])
    valued = melted.map_batches(lambda t: t.filter(pc.is_valid(t["v"])),
                                batch_format="pyarrow")
    pairs = keyed_aggregate(valued, ["column", "v"], [("n", None, "count_all")])
    ndv = keyed_aggregate(pairs, ["column"], [("n_distinct", None, "count_all")])

    # final merge: both sides have exactly one row per column — bounded
    # by the TABLE WIDTH, not the data — so a broadcast dict beats a
    # bucketed shuffle here
    import ray

    ndv_map = ray.put({r["column"]: r["n_distinct"] for r in ndv.take_all()})

    def finish(t: pa.Table) -> pa.Table:
        m = ray.get(ndv_map)
        return t.append_column(
            "n_distinct",
            pa.array([m.get(c, 0) for c in t["column"].to_pylist()],
                     pa.int64()),
        )

    return agg.map_batches(finish, batch_format="pyarrow")
