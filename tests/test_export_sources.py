"""Export rendering (S9/M9 consumer) + sinks/set-ops (S7, D3, D4, J3)."""

import pyarrow as pa

import ray.data

from unravel_ray.export import export_documents, render_spans
from unravel_ray.sources import (
    apply_tombstones,
    move_documents,
    point_lookup,
    search_projection,
)

SPANS = [
    {"kind": "heading", "text": "Title", "media_ref": None, "offset": 0},
    {"kind": "text", "text": "Para.", "media_ref": None, "offset": 1},
    {"kind": "list_item", "text": "item", "media_ref": None, "offset": 2},
]


def _extracted_ds():
    rows = [
        {"doc_id": "d1", "collection_id": "c1", "spans": SPANS, "status": "completed",
         "error_message": None, "provider": "direct", "n_spans": 3, "n_chars": 15},
        {"doc_id": "d2", "collection_id": "c2", "spans": [], "status": "failed",
         "error_message": "boom", "provider": "fake", "n_spans": 0, "n_chars": 0},
    ]
    from unravel_ray.schema import EXTRACTED_SCHEMA

    return ray.data.from_arrow(pa.Table.from_pylist(rows, schema=EXTRACTED_SCHEMA))


def test_render_spans_order_and_formats():
    shuffled = [SPANS[2], SPANS[0], SPANS[1]]
    assert render_spans(shuffled) == "Title\nPara.\nitem"
    assert render_spans(shuffled, "markdown") == "# Title\n\nPara.\n\n- item"


def test_export_documents_gates_on_completed(ray_session):
    out = {r["doc_id"]: r for r in export_documents(_extracted_ds()).take_all()}
    assert out["d1"]["content"] == "Title\nPara.\nitem"
    assert out["d1"]["file_name"] == "d1.docx"
    assert out["d2"]["content"] == ""
    assert out["d2"]["status"] == "failed"


def test_search_projection_preview(ray_session):
    rows = {r["doc_id"]: r for r in search_projection(_extracted_ds()).take_all()}
    assert rows["d1"]["preview"] == "Title\nPara.\nitem"
    assert rows["d1"]["status"] == "completed"
    assert set(rows) == {"d1", "d2"}


def test_tombstones_and_move(ray_session):
    ds = _extracted_ds()
    kept = apply_tombstones(ds, {"c2"}).take_all()
    assert [r["doc_id"] for r in kept] == ["d1"]
    moved = {r["doc_id"]: r["collection_id"]
             for r in move_documents(ds, {"d1": "c9"}).take_all()}
    assert moved == {"d1": "c9", "d2": "c2"}


def test_point_lookup(ray_session):
    rows = point_lookup(_extracted_ds(), "d2")
    assert len(rows) == 1 and rows[0]["status"] == "failed"


def test_encrypted_blob_roundtrip_pipeline(ray_session):
    """S-pipeline for encrypted storage (FileEntry.java:46-51): encrypt ->
    (simulated store) -> decrypt recovers exact bytes; clear rows pass
    through; a wrong key yields decrypt_error rows, not an exception."""
    import pyarrow as pa

    import ray.data
    from unravel_ray.sources import decrypt_blobs, encrypt_blobs

    key = bytes(range(32))
    blobs = pa.table({
        "doc_id": ["d0", "d1", "d2"],
        "blob": [b"alpha-bytes", b"", b"\x00\xff binary \x01"],
        "is_encrypted": [False, False, False],
        "encryption_iv": pa.array([None, None, None], pa.string()),
    })
    enc = encrypt_blobs(ray.data.from_arrow(blobs), key).materialize()
    enc_rows = {r["doc_id"]: r for r in enc.take_all()}
    assert all(r["is_encrypted"] for r in enc_rows.values())
    assert enc_rows["d0"]["blob"] != b"alpha-bytes"  # actually encrypted
    # deterministic per-doc IV -> re-running encryption is idempotent bytes
    enc2 = {r["doc_id"]: r["blob"]
            for r in encrypt_blobs(ray.data.from_arrow(blobs), key).take_all()}
    assert enc2 == {d: r["blob"] for d, r in enc_rows.items()}

    dec = {r["doc_id"]: r for r in decrypt_blobs(enc, key).take_all()}
    assert dec["d0"]["blob"] == b"alpha-bytes"
    assert dec["d1"]["blob"] == b""
    assert dec["d2"]["blob"] == b"\x00\xff binary \x01"
    assert all(r["decrypt_error"] is None for r in dec.values())
    assert all(not r["is_encrypted"] for r in dec.values())

    # wrong key -> failure-as-result, batch survives
    bad = {r["doc_id"]: r for r in decrypt_blobs(enc, bytes(32)).take_all()}
    assert all(r["blob"] is None for r in bad.values())
    assert all(r["decrypt_error"] for r in bad.values())

    # already-encrypted rows pass through encrypt_blobs untouched
    re_enc = {r["doc_id"]: r["blob"] for r in encrypt_blobs(enc, key).take_all()}
    assert re_enc == {d: r["blob"] for d, r in enc_rows.items()}


def test_hash_join_semantics(ray_session):
    """Generic co-group hash join: inner vs left, duplicate-key cartesian,
    right-column suffixing on collision — no broadcast state anywhere."""
    import pyarrow as pa

    import ray.data
    from unravel_ray.relational import hash_join

    left = ray.data.from_arrow(pa.table({
        "k": [1, 1, 2, 3], "v": ["a", "b", "c", "d"]}))
    right = ray.data.from_arrow(pa.table({
        "k": [1, 2, 2, 9], "v": ["X", "Y", "Z", "W"], "extra": [10, 20, 30, 40]}))

    inner = sorted(
        ((r["k"], r["v"], r["v_r"], r["extra"])
         for r in hash_join(left, right, on="k", how="inner").take_all())
    )
    # k=1: 2 left x 1 right; k=2: 1 left x 2 right; k=3/9: no match
    assert inner == [
        (1, "a", "X", 10), (1, "b", "X", 10),
        (2, "c", "Y", 20), (2, "c", "Z", 30),
    ]

    lj = sorted(
        ((r["k"], r["v"], r["v_r"], r["extra"])
         for r in hash_join(left, right, on="k", how="left").take_all()),
        key=lambda t: (t[0], t[1], t[2] or ""),
    )
    assert (3, "d", None, None) in lj
    assert len(lj) == 5  # 4 inner rows + 1 null-padded left row
    assert not any(r[0] == 9 for r in lj)  # right-only keys never appear


def test_hash_join_full_right_outer(ray_session):
    """right/full outer compose per-bucket: a key value hashes to exactly
    one bucket on both sides, so bucket-local unmatched rows are globally
    unmatched, and null keys never match (SQL semantics) — they surface
    unmatched from whatever bucket their placement hash chose.
    Differential vs DuckDB on randomized duplicate-key + null-key
    tables, for all six modes, with probed and caller-given schemas."""
    import duckdb
    import numpy as np
    import pytest

    from unravel_ray.relational import hash_join

    rng = np.random.default_rng(11)
    n_l, n_r = 700, 400

    def keys(n, lo, hi):
        k = rng.integers(lo, hi, n).astype(object)
        k[rng.random(n) < 0.05] = None  # null join keys on both sides
        return pa.array(list(k), pa.int64())

    # key ranges overlap only partially -> unmatched rows on both sides
    ltab = pa.table({"k": keys(n_l, 0, 60), "v": np.arange(n_l)})
    rtab = pa.table({"k": keys(n_r, 30, 90), "w": np.arange(n_r)})
    con = duckdb.connect()
    con.register("l", ltab)
    con.register("r", rtab)

    def canon(rows):
        return sorted((-1 if k is None else k, -1 if v is None else v,
                       -1 if w is None else w) for k, v, w in rows)

    # every mode, with the side schemas probed from the plan and passed
    # in by the caller (schemas=): both must equal DuckDB
    modes = {"inner": "SELECT l.k, l.v, r.w FROM l JOIN r",
             "left": "SELECT l.k, l.v, r.w FROM l LEFT JOIN r",
             "semi": "SELECT l.k, l.v, NULL FROM l SEMI JOIN r",
             "anti": "SELECT l.k, l.v, NULL FROM l ANTI JOIN r",
             "right": "SELECT COALESCE(l.k, r.k) AS k, l.v, r.w "
                      "FROM l RIGHT JOIN r",
             "full": "SELECT COALESCE(l.k, r.k) AS k, l.v, r.w "
                     "FROM l FULL OUTER JOIN r"}
    for how, sql in modes.items():
        want = canon(con.execute(f"{sql} ON l.k = r.k").fetchall())
        for schemas in (None, (ltab.schema, rtab.schema)):
            got = hash_join(ray.data.from_arrow(ltab),
                            ray.data.from_arrow(rtab), on="k", how=how,
                            schemas=schemas).take_all()
            assert canon((g["k"], g["v"], g.get("w")) for g in got) == want, \
                (how, schemas is not None)

    # build-side salting replicates hot rows -> invalid under right/full
    with pytest.raises(ValueError):
        hash_join(ray.data.from_arrow(ltab), ray.data.from_arrow(rtab),
                  on="k", how="full", hot_keys=[40])

    # string keys: '' and null hash to the same placement bucket
    # (hash_strings folds both to the finalized-zero constant) — within
    # the bucket Arrow must still MATCH ''=='' and never match nulls
    sl = pa.table({"k": pa.array(["", None, "a"]), "v": [1, 2, 3]})
    sr = pa.table({"k": pa.array(["", None, "b"]), "w": [10, 20, 30]})
    got = hash_join(ray.data.from_arrow(sl), ray.data.from_arrow(sr),
                    on="k", how="full").take_all()
    rows = sorted(((r["k"], r["v"], r["w"]) for r in got),
                  key=lambda t: (str(t[0]), t[1] or -1, t[2] or -1))
    assert ("", 1, 10) in rows          # empty matches empty
    assert len(rows) == 5               # 1 match + 2 null-key + a/b unmatched
    assert all(not (v and w) for k, v, w in rows if k is None)


def _block_table(keys, n_blocks):
    """(k, v, blk) rows: blk = k % n_blocks, v a distinct value per row."""
    import numpy as np

    k = np.asarray(keys, np.int64)
    return pa.table({"k": k, "v": np.arange(k.size, dtype=np.int64) * 7,
                     "blk": (k % n_blocks).astype(np.int32)})


def _keyed_sums():
    """A union-safe kernel (groups by its own key). It refuses empty or
    schema-less input, which _block_exchange must never hand it. Built in
    a function so Ray ships it by value, not as a test-module import."""
    def keyed_sums(t: pa.Table) -> pa.Table:
        assert t.num_rows and "blk" in t.column_names
        return pa.TableGroupBy(t, "k").aggregate(
            [("v", "sum"), ([], "count_all")])
    return keyed_sums


def _rows(ds) -> list:
    return sorted(tuple(r.values()) for r in ds.take_all())


def test_block_exchange_matches_per_group_plan(ray_session):
    """_block_exchange returns, row for row, what the groupby(key) +
    map_groups plan it replaced returns: with more partitions than block
    ids present (empty partitions never reach the kernel), with n_blocks
    below the session's 4 CPUs, and with several block ids per
    partition."""
    import numpy as np

    from unravel_ray.relational import _block_exchange, exchange_partitions

    rng = np.random.default_rng(5)
    cases = {
        # 64 block ids over 4 partitions; only ids 0 and 1 carry rows
        "empty_partitions": (64, rng.choice([0, 1, 64, 65, 129], 300)),
        "fewer_blocks_than_cpus": (2, rng.integers(0, 50, 300)),
        "several_ids_per_partition": (64, rng.integers(0, 500, 2000)),
    }
    assert exchange_partitions(64) == 4 and exchange_partitions(2) == 2
    for name, (n_blocks, keys) in cases.items():
        tbl = _block_table(keys, n_blocks)
        ds = ray.data.from_arrow([tbl.slice(0, 100), tbl.slice(100)])
        want = ds.groupby("blk").map_groups(_keyed_sums(),
                                            batch_format="pyarrow")
        got = _block_exchange(ds, "blk", n_blocks, _keyed_sums())
        assert _rows(got) == _rows(want), name

    def ids_seen(t: pa.Table) -> pa.Table:
        return pa.table({"n_ids": [len(set(t["blk"].to_pylist()))],
                         "n_rows": [t.num_rows]})

    tbl = _block_table(cases["several_ids_per_partition"][1], 64)
    calls = _block_exchange(ray.data.from_arrow(tbl), "blk", 64,
                            ids_seen).take_all()
    # one call per non-empty partition, each with whole block-id groups
    assert len(calls) == 4
    assert sum(c["n_rows"] for c in calls) == tbl.num_rows
    assert sum(c["n_ids"] for c in calls) == len(set(tbl["blk"].to_pylist()))
    assert all(c["n_ids"] > 1 for c in calls)
    # a single block id gives one partition, which still runs one
    # exchange, unsampled
    tbl = _block_table(cases["several_ids_per_partition"][1], 1)
    one = _block_exchange(ray.data.from_arrow(tbl), "blk", 1,
                          ids_seen).take_all()
    assert exchange_partitions(1) == 1
    assert [c["n_rows"] for c in one] == [tbl.num_rows]


def test_block_exchange_empty_input(ray_session):
    """An input with no rows gives no kernel call and no rows."""
    from unravel_ray.relational import _block_exchange

    empty = _block_table([], 8)
    assert _block_exchange(ray.data.from_arrow(empty), "blk", 8,
                           _keyed_sums()).take_all() == []


def test_orders_cust_side_schemas_match_probe(ray_session, tmp_path):
    """The side schemas _orders_cust_sides derives from the parquet
    footers (no Ray execution) equal what a schema() probe of each side's
    plan returns, for the plain and the filtered variant."""
    import pyarrow.parquet as pq

    from unravel_ray.relational import _orders_cust_sides

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 11, 10], pa.int64()),
        "o_orderstatus": ["O", "F", "P"],
        "o_totalprice": [1.5, 2.25, 3.0],
        "o_orderpriority": ["1-URGENT", "2-HIGH", "1-URGENT"],
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 11], pa.int64()),
        "c_name": ["a", "b"],
        "c_mktsegment": ["BUILDING", "MACHINERY"],
    }), tmp_path / "customer.parquet")
    for kw in ({}, {"priority": "1-URGENT", "segment": "BUILDING"}):
        orders, cust, schemas = _orders_cust_sides(str(tmp_path), **kw)
        probed = [d.schema().base_schema for d in (orders, cust)]
        assert [s.remove_metadata() for s in schemas] == \
            [s.remove_metadata() for s in probed], kw


def test_purchase_click_side_schemas_match_probe(ray_session):
    """The side schemas _purchase_click_sides derives from the events
    footer (no Ray execution) equal what a schema() probe of each side's
    plan returns — the click side's probe runs its whole dedup
    aggregate."""
    from unravel_ray.relational import _purchase_click_sides

    purchases, clicks, schemas = _purchase_click_sides("/root/testdata/sf0.001")
    probed = [d.schema().base_schema for d in (purchases, clicks)]
    assert [s.remove_metadata() for s in schemas] == \
        [s.remove_metadata() for s in probed]


def test_asof_join_semantics(ray_session):
    """Backward as-of: last right row with ts <= left ts per key; nulls
    when nothing precedes; keys missing from right entirely -> nulls."""
    import pyarrow as pa

    import ray.data
    from unravel_ray.relational import asof_join

    left = ray.data.from_arrow(pa.table({
        "lid": [1, 2, 3, 4],
        "k": ["a", "a", "a", "b"],
        "t": pa.array([10, 25, 5, 50], pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": ["a", "a", "a", "c"],
        "t": pa.array([8, 20, 30, 1], pa.int64()),
        "rv": ["r8", "r20", "r30", "rc"],
    }))
    out = {r["lid"]: r for r in asof_join(
        left, right, by="k", on="t", right_keep=["rv", "t"]).take_all()}
    assert out[1]["rv"] == "r8"     # t=10 -> last right at 8
    assert out[2]["rv"] == "r20"    # t=25 -> 20 (not 30)
    assert out[3]["rv"] is None     # t=5 precedes everything
    assert out[4]["rv"] is None     # key 'b' absent from right
    assert out[2]["t_r"] == 20      # right timestamp carried, suffixed
    # exact-tie matches inclusively (right.t <= left.t)
    left2 = ray.data.from_arrow(pa.table({
        "lid": [9], "k": ["a"], "t": pa.array([20], pa.int64())}))
    tie = asof_join(left2, right, by="k", on="t",
                    right_keep=["rv"]).take_all()[0]
    assert tie["rv"] == "r20"
    # caller-given schemas: the same as the probed ones, the same output
    given = (pa.schema([("lid", pa.int64()), ("k", pa.string()),
                        ("t", pa.int64())]),
             pa.schema([("k", pa.string()), ("t", pa.int64()),
                        ("rv", pa.string())]))
    assert [d.schema().base_schema.remove_metadata() for d in (left, right)] \
        == list(given)
    with_given = {r["lid"]: r for r in asof_join(
        left, right, by="k", on="t", right_keep=["rv", "t"],
        schemas=given).take_all()}
    assert with_given == out


def test_asof_join_blocked_matches_bruteforce(ray_session):
    """Randomized differential: the keyed-exchange segmented-scan asof
    must equal the per-row brute-force model, with more keys than reduce
    partitions so many keys co-locate in one partition (runs, boundary
    fills, and equal timestamps all exercised)."""
    import random

    import pyarrow as pa

    import ray
    import ray.data
    from unravel_ray.relational import AGG_BLOCKS, asof_join, exchange_partitions

    rng = random.Random(1234)
    keys = [f"k{i}" for i in range(17)]
    lrows = [(i, rng.choice(keys), rng.randrange(0, 40))
             for i in range(300)]
    # some keys have no right rows at all; duplicate right timestamps OK
    rrows = [(rng.choice(keys[:12]), rng.randrange(0, 40), i)
             for i in range(200)]
    left = ray.data.from_arrow(pa.table({
        "lid": pa.array([r[0] for r in lrows], pa.int64()),
        "k": pa.array([r[1] for r in lrows], pa.string()),
        "t": pa.array([r[2] for r in lrows], pa.int64()),
    })).repartition(7)
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([r[0] for r in rrows], pa.string()),
        "t": pa.array([r[1] for r in rrows], pa.int64()),
        "rid": pa.array([r[2] for r in rrows], pa.int64()),
    })).repartition(5)
    parts = [t for t in ray.get(asof_join(
        left, right, by="k", on="t", right_keep=["t"]).to_arrow_refs())
        if t.num_rows]
    assert exchange_partitions(AGG_BLOCKS) < len(keys)
    assert max(len(set(t["k"].to_pylist())) for t in parts) > 1
    out = {r["lid"]: r for t in parts for r in t.to_pylist()}
    assert len(out) == len(lrows)
    given = tuple(d.schema().base_schema for d in (left, right))
    assert {r["lid"]: r for r in asof_join(
        left, right, by="k", on="t", right_keep=["t"],
        schemas=given).take_all()} == out
    for lid, k, t in lrows:
        prior = [rt for rk, rt, _ in rrows if rk == k and rt <= t]
        want = max(prior) if prior else None
        assert out[lid]["t_r"] == want, (lid, k, t)


def test_range_join_semantics(ray_session):
    """Interval containment: [lo, hi) bands, outside rows get nulls,
    bands validated sorted/disjoint."""
    import pyarrow as pa
    import pytest as _pt

    import ray.data
    from unravel_ray.relational import range_join

    bands = pa.table({
        "lo": pa.array([0.0, 10.0], pa.float64()),
        "hi": pa.array([10.0, 20.0], pa.float64()),
        "label": ["low", "high"],
    })
    ds = ray.data.from_arrow(pa.table({"v": pa.array([-1.0, 0.0, 9.999, 10.0, 25.0])}))
    out = [r["label"] for r in range_join(ds, bands, value_col="v").take_all()]
    assert out == [None, "low", "low", "high", None]

    bad = pa.table({"lo": pa.array([0.0, 5.0]), "hi": pa.array([6.0, 9.0]),
                    "label": ["a", "b"]})  # overlapping
    with _pt.raises(ValueError, match="disjoint"):
        range_join(ds, bad, value_col="v")


def test_hash_join_semi_anti(ray_session):
    import pyarrow as pa

    import ray.data
    from unravel_ray.relational import hash_join

    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3, 4], "v": list("abcd")}))
    right = ray.data.from_arrow(pa.table({"k": [2, 2, 4], "w": [9, 9, 9]}))
    semi = sorted(r["k"] for r in hash_join(left, right, on="k", how="semi").take_all())
    anti = sorted(r["k"] for r in hash_join(left, right, on="k", how="anti").take_all())
    assert semi == [2, 4]  # existence only — no duplication from dup right keys
    assert anti == [1, 3]
    # semi/anti outputs carry ONLY left columns
    cols = set(hash_join(left, right, on="k", how="semi").take_all()[0])
    assert cols == {"k", "v"}


def test_docx_export_is_valid_ooxml(ray_session, tmp_path):
    """S9 completed: real .docx bytes — a well-formed OOXML zip whose
    document.xml carries the spans as styled paragraphs in span order."""
    import io
    import zipfile
    import xml.etree.ElementTree as ET

    import ray.data
    from unravel_ray.export import docx_bytes, export_docx
    from unravel_ray.pipeline import extract_publish
    from unravel_ray.config import PipelineConfig
    from unravel_ray.synth import make_corpus

    spans = [
        {"kind": "heading", "text": "Title", "media_ref": None, "offset": 0},
        {"kind": "text", "text": "line one\nline two", "media_ref": None, "offset": 1},
        {"kind": "list_item", "text": "item <a&b>", "media_ref": None, "offset": 2},
    ]
    blob = docx_bytes(spans)
    z = zipfile.ZipFile(io.BytesIO(blob))
    assert set(z.namelist()) == {"[Content_Types].xml", "_rels/.rels",
                                 "word/document.xml"}
    W = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
    root = ET.fromstring(z.read("word/document.xml"))
    texts = [t.text for t in root.iter(f"{W}t")]
    assert texts == ["Title", "line one", "line two", "- item <a&b>"]
    styles = [s.get(f"{W}val") for s in root.iter(f"{W}pStyle")]
    assert styles == ["Heading1", "ListParagraph"]

    out = export_docx(extract_publish(
        ray.data.from_arrow(make_corpus(12)),
        PipelineConfig(ocr_concurrency=1), str(tmp_path / "pub"))).take_all()
    assert len(out) == 12
    for r in out:
        if r["status"] == "completed":
            zipfile.ZipFile(io.BytesIO(r["docx"]))  # every blob is a valid zip
            assert r["file_name"].endswith(".docx")
        else:
            assert r["docx"] == b""


def test_render_spans_column_equals_row_form():
    """Vectorized column render must match per-row render_spans for both
    formats on offset-ordered spans (the finalize contract), including
    null/empty spans lists and null texts."""
    import pyarrow as pa

    from unravel_ray.export import render_spans, render_spans_column

    spans_type = pa.list_(pa.struct([
        ("kind", pa.string()), ("text", pa.string()),
        ("media_ref", pa.string()), ("offset", pa.int32())]))
    docs = [
        [{"kind": "heading", "text": "Title", "media_ref": None, "offset": 0},
         {"kind": "text", "text": "body one", "media_ref": None, "offset": 1},
         {"kind": "list_item", "text": "item", "media_ref": None, "offset": 2}],
        [],
        None,
        [{"kind": "text", "text": None, "media_ref": None, "offset": 0},
         {"kind": "text", "text": "", "media_ref": None, "offset": 1},
         {"kind": "text", "text": "kept", "media_ref": None, "offset": 2}],
    ]
    col = pa.array(docs, spans_type)
    for fmt in ("text", "markdown"):
        got = render_spans_column(col, fmt).to_pylist()
        want = [render_spans(d or [], fmt) for d in docs]
        assert got == want, (fmt, got, want)


def test_hash_join_string_keys_salted_equals_unsalted(ray_session):
    """Round-4 skew work: string keys ride the vectorized value-hash (no
    per-row Python), and hot-key salting (probe spray + build replicate)
    is row-identical to the unsalted join for every join type — including
    duplicate build rows under the hot key, where each probe row must
    meet each replica-set copy exactly once."""
    import numpy as np

    from unravel_ray.relational import hash_join

    rng = np.random.default_rng(7)
    n = 4000
    # skewed probe: key "hot" carries ~half the rows — the shape that
    # would pile into one bucket unsalted
    keys = np.where(rng.random(n) < 0.5, "hot",
                    rng.integers(0, 50, n).astype(str)).astype(object)
    left = ray.data.from_arrow(pa.table(
        {"k": pa.array(keys, pa.string()), "v": np.arange(n)}))
    right_keys = ["hot", "hot"] + [str(i) for i in range(0, 50, 2)]
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(right_keys, pa.string()),
        "w": list(range(len(right_keys)))}))

    for how in ("inner", "left", "semi", "anti"):
        plain = hash_join(left, right, on="k", how=how).take_all()
        salted = hash_join(left, right, on="k", how=how,
                           hot_keys=["hot"], n_salts=8).take_all()
        key = (lambda r: (r["k"], r["v"], r.get("w"))) \
            if how in ("inner", "left") else (lambda r: (r["k"], r["v"]))
        assert sorted(map(key, plain)) == sorted(map(key, salted)), how
    # the hot key's 8 salted bucket slots actually spread (>1 bucket at
    # the derive_join_buckets floor of 32)
    from unravel_ray.hashing import hash_strings

    h = hash_strings(pa.array(["hot"]))
    salts = np.arange(8, dtype=np.uint64)
    spread = set((((h + salts * np.uint64(0xD1B54A32D192ED03))
                   >> np.uint64(33)) % 32).tolist())
    assert len(spread) > 1


def test_detect_hot_keys(ray_session):
    from unravel_ray.relational import detect_hot_keys

    ds = ray.data.from_arrow(pa.table(
        {"k": ["a"] * 500 + ["b"] * 3 + ["c"] * 499}))
    assert set(detect_hot_keys(ds, "k", min_rows=499)) == {"a", "c"}
    assert detect_hot_keys(ds, "k", min_rows=501) == []
