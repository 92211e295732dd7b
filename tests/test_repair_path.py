"""The split-doc repair net.

Round-2 design: split detection is BLOCK-LOCAL — every work unit carries
its doc's total unit count (n_units), so finalize_block emits a slim
SPLIT_MARKER_STATUS row for any incomplete fragment instead of a wrong
partial doc. Repair (_repair_split_docs in-memory, extract_publish on the
write-audit-publish path) recomputes exactly the marked docs from source
and splices them in. No groupby verification pass, no full-output pin on
the default flagship path.
"""

import pyarrow as pa

import ray.data

from oracle.pyref import extract_doc
from unravel_ray.config import PipelineConfig
from unravel_ray.pipeline import (
    _repair_split_docs,
    build_extraction,
    extract_publish,
)
from unravel_ray.schema import EXTRACTED_SCHEMA, SPLIT_MARKER_STATUS
from unravel_ray.stages import explode_extract, finalize_block, ocr_task
from unravel_ray.synth import make_corpus


def _marker_row(r):
    return dict(r, spans=[], status=SPLIT_MARKER_STATUS, error_message=None,
                provider=None, n_spans=0, n_chars=0)


def test_finalize_block_emits_marker_for_incomplete_fragment(ray_session):
    """A block holding fewer rows than n_units for a doc must yield a
    marker row, never a silently-truncated doc."""
    corpus = make_corpus(12)
    units = explode_extract(corpus)
    ocred = ocr_task(units, preferred="fake", fallback_chain=("fake",))
    # pick a completed multi-unit doc and truncate its rows mid-doc
    ids = ocred["doc_id"].to_pylist()
    from collections import Counter

    counts = Counter(ids)
    victim = next(d for d, c in counts.items() if c >= 3)
    keep = []
    dropped = 0
    for i, d in enumerate(ids):
        if d == victim and dropped < 1:
            dropped += 1
            continue  # drop one of the victim's rows -> incomplete
        keep.append(i)
    fragment = ocred.take(keep)
    out = finalize_block(fragment)
    by_id = {r["doc_id"]: r for r in out.to_pylist()}
    assert by_id[victim]["status"] == SPLIT_MARKER_STATUS
    assert by_id[victim]["spans"] == []
    # every complete doc unaffected
    complete = [r for r in out.to_pylist() if r["doc_id"] != victim]
    assert all(r["status"] != SPLIT_MARKER_STATUS for r in complete)


def test_partition_tag_passthrough_is_invisible_to_other_callers():
    """Without the PARTITION_TAG column explode_extract / finalize_block
    return exactly WORKUNIT_SCHEMA / EXTRACTED_SCHEMA; with it they return
    the same rows plus the tag, doc-constant, as the last column."""
    from unravel_ray.schema import PARTITION_TAG, WORKUNIT_SCHEMA

    corpus = make_corpus(12)
    tags = pa.array([i % 3 for i in range(corpus.num_rows)], pa.int32())
    tag_of = dict(zip(corpus["doc_id"].to_pylist(), tags.to_pylist()))
    tagged = corpus.append_column(PARTITION_TAG, tags)

    units = explode_extract(corpus)
    units_t = explode_extract(tagged)
    assert units.schema == WORKUNIT_SCHEMA
    assert units_t.schema == WORKUNIT_SCHEMA.append(
        pa.field(PARTITION_TAG, pa.int32()))
    assert units_t.drop_columns([PARTITION_TAG]).equals(units)
    assert units_t[PARTITION_TAG].to_pylist() == [
        tag_of[d] for d in units_t["doc_id"].to_pylist()]

    ocr = dict(preferred="fake", fallback_chain=("fake",))
    out = finalize_block(ocr_task(units, **ocr))
    out_t = finalize_block(ocr_task(units_t, **ocr))
    assert out.schema == EXTRACTED_SCHEMA
    assert out_t.schema == EXTRACTED_SCHEMA.append(
        pa.field(PARTITION_TAG, pa.int32()))
    assert out_t.drop_columns([PARTITION_TAG]).equals(out)
    assert out_t[PARTITION_TAG].to_pylist() == [
        tag_of[d] for d in out_t["doc_id"].to_pylist()]

    empty = finalize_block(ocr_task(units_t.slice(0, 0), **ocr))
    assert empty.num_rows == 0 and PARTITION_TAG in empty.column_names


def test_repair_merges_split_doc(ray_session):
    corpus = make_corpus(40)
    docs = ray.data.from_arrow(corpus)
    cfg = PipelineConfig(ocr_concurrency=1)

    good = build_extraction(docs, cfg).take_all()
    victim = next(r for r in good if r["status"] == "completed" and r["n_spans"] >= 2)

    # fabricate a split: the victim appears only as two fragment markers
    # (the shape finalize_block now emits for an incomplete doc)
    doctored = []
    for r in good:
        if r["doc_id"] == victim["doc_id"]:
            doctored.extend([_marker_row(r), _marker_row(r)])
        else:
            doctored.append(r)
    broken = ray.data.from_arrow(pa.Table.from_pylist(doctored, schema=EXTRACTED_SCHEMA))

    repaired = _repair_split_docs(docs, broken, cfg).take_all()
    assert len(repaired) == 40
    by_id = {r["doc_id"]: r for r in repaired}
    fixed = by_id[victim["doc_id"]]
    want = extract_doc(next(d for d in corpus.to_pylist() if d["doc_id"] == victim["doc_id"]))
    assert [(s["kind"], s["text"], s["media_ref"]) for s in fixed["spans"]] == [
        (s["kind"], s["text"], s["media_ref"]) for s in want["spans"]
    ]
    assert fixed["status"] == want["status"]


def test_no_dup_passthrough(ray_session):
    docs = ray.data.from_arrow(make_corpus(30))
    cfg = PipelineConfig(ocr_concurrency=1)
    out = build_extraction(docs, cfg).take_all()
    ids = [r["doc_id"] for r in out]
    assert len(ids) == len(set(ids)) == 30
    assert all(r["status"] != SPLIT_MARKER_STATUS for r in out)


def test_extract_publish_roundtrip_and_cache(ray_session, tmp_path):
    """Write-audit-publish: committed parquet output matches the in-memory
    path exactly; a second call with the same out_dir reuses the committed
    result (PUBLISHED.json) without re-running extraction."""
    corpus = make_corpus(50)
    cfg = PipelineConfig(ocr_concurrency=1)
    out_dir = str(tmp_path / "pub")

    pub = extract_publish(ray.data.from_arrow(corpus), cfg, out_dir).take_all()
    mem = build_extraction(ray.data.from_arrow(corpus), cfg).take_all()
    key = lambda r: r["doc_id"]  # noqa: E731
    s_pub = sorted(pub, key=key)
    s_mem = sorted(mem, key=key)
    assert [r["doc_id"] for r in s_pub] == [r["doc_id"] for r in s_mem]
    for a, b in zip(s_pub, s_mem):
        assert a["status"] == b["status"]
        assert [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in a["spans"]] \
            == [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in b["spans"]]

    # cache hit: poison the source — committed output must be served as-is
    import os

    assert os.path.exists(os.path.join(out_dir, "PUBLISHED.json"))
    empty = ray.data.from_arrow(make_corpus(0))
    again = extract_publish(empty, cfg, out_dir).take_all()
    assert len(again) == 50


def test_extract_publish_repairs_marked_docs(ray_session, tmp_path, monkeypatch):
    """Force the audit's repair branch: make the core emit fragment markers
    for one doc and verify publish replaces it with an exact recompute."""
    corpus = make_corpus(25)
    cfg = PipelineConfig(ocr_concurrency=1)
    want = build_extraction(ray.data.from_arrow(corpus), cfg).take_all()
    victim = next(r for r in want if r["status"] == "completed" and r["n_spans"] >= 2)

    import unravel_ray.pipeline as P

    real_core = P._build_extraction_core

    def broken_core(docs, cfg):
        ds = real_core(docs, cfg)

        victim_id = victim["doc_id"]

        def sabotage(t: pa.Table) -> pa.Table:
            # self-contained closure (no test-module references — Ray
            # workers can't import the test module)
            from unravel_ray.schema import EXTRACTED_SCHEMA as ES
            from unravel_ray.schema import SPLIT_MARKER_STATUS as SMS

            rows = []
            for r in t.to_pylist():
                if r["doc_id"] == victim_id:
                    m = dict(r, spans=[], status=SMS, error_message=None,
                             provider=None, n_spans=0, n_chars=0)
                    rows.extend([m, dict(m)])
                else:
                    rows.append(r)
            return pa.Table.from_pylist(rows, schema=ES)

        return ds.map_batches(sabotage, batch_format="pyarrow")

    monkeypatch.setattr(P, "_build_extraction_core", broken_core)
    pub = extract_publish(ray.data.from_arrow(corpus), cfg, str(tmp_path / "p2")).take_all()
    assert len(pub) == 25
    fixed = next(r for r in pub if r["doc_id"] == victim["doc_id"])
    assert fixed["status"] == "completed"
    assert [(s["kind"], s["text"]) for s in fixed["spans"]] == [
        (s["kind"], s["text"]) for s in victim["spans"]
    ]


def test_extract_publish_recovers_from_interrupted_write(ray_session, tmp_path):
    """A crash mid-write leaves a raw dir WITHOUT PUBLISHED.json; the rerun
    must discard the partial output and produce a complete committed
    result (write-audit-publish is all-or-nothing on the manifest)."""
    import json
    import os

    corpus = make_corpus(30)
    cfg = PipelineConfig(ocr_concurrency=1)
    out_dir = str(tmp_path / "crashpub")
    raw = os.path.join(out_dir, "raw")
    os.makedirs(raw)
    # simulate torn state: a bogus partial file, no manifest
    with open(os.path.join(raw, "part-garbage.parquet"), "wb") as f:
        f.write(b"not parquet")

    pub = extract_publish(ray.data.from_arrow(corpus), cfg, out_dir).take_all()
    assert len(pub) == 30
    assert os.path.exists(os.path.join(out_dir, "PUBLISHED.json"))
    with open(os.path.join(out_dir, "PUBLISHED.json")) as f:
        assert json.load(f)["n_rows"] == 30
    want = build_extraction(ray.data.from_arrow(corpus), cfg).take_all()
    assert {r["doc_id"] for r in pub} == {r["doc_id"] for r in want}


def test_flagship_core_plan_has_no_shuffle(ray_session):
    """The scale property the engine is built around: the default
    extraction plan is ONE fused task chain — no AllToAll (sort/shuffle/
    aggregate) operator anywhere between read and write. Regression-pins
    the r1 finding that reassembly via groupby/sort moves payload at
    ~16 MB/s."""
    from unravel_ray.config import PipelineConfig
    from unravel_ray.pipeline import _build_extraction_core
    from unravel_ray.synth import corpus_dataset

    ds = _build_extraction_core(corpus_dataset(200, block_size=50),
                                PipelineConfig())
    n = 0
    for batch in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        n += batch.num_rows
    assert n == 200
    stats = ds.stats()
    assert "AllToAll" not in stats, stats
