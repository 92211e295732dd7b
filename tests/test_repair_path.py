"""The split-doc repair net.

Split detection is BLOCK-LOCAL — every work unit carries its doc's total
unit count (n_units), so finalize_block emits a slim SPLIT_MARKER_STATUS
row for any incomplete fragment instead of a wrong partial doc. The one
commit protocol (checkpoint._extract_commit, behind extract_publish and
run_with_checkpoint_files) never writes marker rows: it recomputes
exactly the marked docs from source into the partition's attempt dir
before the commit. No groupby verification pass, no full-output pin.
"""

import json
import os

import pyarrow as pa

import ray.data

from oracle.pyref import extract_doc
from unravel_ray.config import PipelineConfig
from unravel_ray.pipeline import extract_publish
from unravel_ray.schema import EXTRACTED_SCHEMA, SPLIT_MARKER_STATUS
from unravel_ray.stages import explode_extract, finalize_block, ocr_task
from unravel_ray.synth import make_corpus


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


def _spans(r):
    return [(s["kind"], s["text"], s["media_ref"]) for s in r["spans"]]


def test_no_dup_passthrough(ray_session, tmp_path):
    docs = ray.data.from_arrow(make_corpus(30))
    cfg = PipelineConfig(ocr_concurrency=1)
    out = extract_publish(docs, cfg, str(tmp_path / "pub")).take_all()
    ids = [r["doc_id"] for r in out]
    assert len(ids) == len(set(ids)) == 30
    assert all(r["status"] != SPLIT_MARKER_STATUS for r in out)


def test_extract_publish_roundtrip_and_cache(ray_session, tmp_path):
    """The committed parquet output matches the sequential oracle doc for
    doc; a second call with the same out_dir reuses the committed result
    (PUBLISHED.json) without re-running extraction."""
    corpus = make_corpus(50)
    cfg = PipelineConfig(ocr_concurrency=1)
    out_dir = str(tmp_path / "pub")

    pub = {r["doc_id"]: r for r in
           extract_publish(ray.data.from_arrow(corpus), cfg, out_dir).take_all()}
    want = {d["doc_id"]: extract_doc(d) for d in corpus.to_pylist()}
    assert set(pub) == set(want)
    for doc_id, w in want.items():
        assert pub[doc_id]["status"] == w["status"], doc_id
        assert _spans(pub[doc_id]) == _spans(w), doc_id
    assert sorted(os.listdir(out_dir)) == ["PUBLISHED.json", "part-0"]

    # cache hit: poison the source — committed output must be served as-is
    empty = ray.data.from_arrow(make_corpus(0))
    again = extract_publish(empty, cfg, out_dir).take_all()
    assert len(again) == 50


def test_extract_publish_repairs_marked_docs(ray_session, tmp_path, split_victims):
    """Make the extraction emit fragment markers for one doc and verify
    publish replaces it with an exact recompute."""
    corpus = make_corpus(25)
    cfg = PipelineConfig(ocr_concurrency=1)
    want = extract_publish(ray.data.from_arrow(corpus), cfg,
                           str(tmp_path / "clean")).take_all()
    victim = next(r for r in want if r["status"] == "completed" and r["n_spans"] >= 2)

    split_victims({victim["doc_id"]})
    pub = extract_publish(ray.data.from_arrow(corpus), cfg, str(tmp_path / "p2")).take_all()
    assert len(pub) == 25
    fixed = next(r for r in pub if r["doc_id"] == victim["doc_id"])
    assert fixed["status"] == "completed"
    assert _spans(fixed) == _spans(victim)


def test_split_docs_repaired_counts_in_both_manifests(ray_session, tmp_path,
                                                      split_victims):
    """A publish and a checkpoint run over the same victims: each
    manifest's n_split_repaired is the victim count and its n_rows the
    number of rows load_extracted returns."""
    import pyarrow.parquet as pq

    from unravel_ray.checkpoint import load_extracted, read_manifest, \
        run_with_checkpoint_files

    corpus = make_corpus(24)
    cfg = PipelineConfig(ocr_concurrency=1)
    victims = {"doc-00000003", "doc-00000007", "doc-00000016"}
    split_victims(victims)

    pub_dir = str(tmp_path / "pub")
    n_pub = extract_publish(ray.data.from_arrow(corpus), cfg, pub_dir).count()
    with open(os.path.join(pub_dir, "PUBLISHED.json")) as f:
        pub = json.load(f)
    assert pub["n_split_repaired"] == len(victims)
    assert pub["n_rows"] == n_pub == load_extracted(pub_dir).count() == 24

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(corpus, str(src / "all.parquet"))
    ckpt = str(tmp_path / "ckpt")
    run_with_checkpoint_files([str(src / "all.parquet")], ckpt, cfg=cfg)
    (row,) = read_manifest(ckpt).values()
    assert row["n_split_repaired"] == len(victims)
    assert row["n_rows"] == load_extracted(ckpt).count() == 24


def test_recompute_that_still_splits_raises(ray_session, tmp_path, split_victims):
    """A recompute that emits a marker again raises before anything is
    committed: no part-* dir, no manifest, no attempt dir is left."""
    import pyarrow.parquet as pq
    import pytest

    from unravel_ray.checkpoint import run_with_checkpoint_files

    corpus = make_corpus(12)
    cfg = PipelineConfig(ocr_concurrency=1)
    split_victims({"doc-00000004"}, break_recompute=True)

    pub_dir = str(tmp_path / "pub")
    with pytest.raises(RuntimeError, match="recompute still split"):
        extract_publish(ray.data.from_arrow(corpus), cfg, pub_dir)
    assert os.listdir(pub_dir) == []

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(corpus, str(src / "all.parquet"))
    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="recompute still split"):
        run_with_checkpoint_files([str(src / "all.parquet")], ckpt, cfg=cfg)
    assert os.listdir(ckpt) == []


def test_extract_publish_recovers_from_interrupted_write(ray_session, tmp_path):
    """A crash mid-write leaves an attempt dir WITHOUT PUBLISHED.json; the
    rerun never reads it, commits a complete result and removes it."""
    corpus = make_corpus(30)
    cfg = PipelineConfig(ocr_concurrency=1)
    out_dir = str(tmp_path / "crashpub")
    torn = os.path.join(out_dir, ".tmp-part-0.deadbeef0000")
    os.makedirs(torn)
    with open(os.path.join(torn, "garbage.parquet"), "wb") as f:
        f.write(b"not parquet")

    pub = extract_publish(ray.data.from_arrow(corpus), cfg, out_dir).take_all()
    assert sorted(r["doc_id"] for r in pub) == sorted(corpus["doc_id"].to_pylist())
    with open(os.path.join(out_dir, "PUBLISHED.json")) as f:
        assert json.load(f)["n_rows"] == 30
    assert not os.path.exists(torn)


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
