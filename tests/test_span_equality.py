"""Span-sequence equality: distributed pipeline vs sequential oracle.

The BASELINE.json per-row invariant: for every doc_id, the sequence of
(kind, text, media_ref) ordered by offset must be identical between the
Ray pipeline and oracle/pyref.py — plus status/error/provider accounting.
This is the proof that explode → actor-pool OCR → block-local reassembly
(+ split-doc repair) loses nothing and reorders nothing.
"""

import pyarrow as pa
import pytest

import ray.data

from oracle.pyref import extract_corpus, rollup_collections
from unravel_ray.config import PipelineConfig
from unravel_ray.pipeline import build_rollup, extract_publish
from unravel_ray.synth import make_corpus

N_DOCS = 300  # covers every archetype incl. whales, poison, invalid


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    return make_corpus(N_DOCS)


@pytest.fixture(scope="module")
def pipeline_out(ray_session, corpus, tmp_path_factory):
    cfg = PipelineConfig(ocr_concurrency=2)
    ds = ray.data.from_arrow(corpus).repartition(8)
    out = extract_publish(ds, cfg, str(tmp_path_factory.mktemp("pub")))
    rows = out.take_all()
    return {r["doc_id"]: r for r in rows}


@pytest.fixture(scope="module")
def oracle_out(corpus):
    return {r["doc_id"]: r for r in extract_corpus(corpus.to_pylist())}


def test_no_docs_lost_or_duplicated(pipeline_out, oracle_out):
    assert len(pipeline_out) == N_DOCS
    assert set(pipeline_out) == set(oracle_out)


def test_span_sequence_equality(pipeline_out, oracle_out):
    mismatches = []
    for doc_id, oracle_row in oracle_out.items():
        got = pipeline_out[doc_id]
        got_seq = [(s["kind"], s["text"], s["media_ref"]) for s in
                   sorted(got["spans"] or [], key=lambda s: s["offset"])]
        want_seq = [(s["kind"], s["text"], s["media_ref"]) for s in oracle_row["spans"]]
        if got_seq != want_seq:
            mismatches.append((doc_id, want_seq[:3], got_seq[:3]))
    assert not mismatches, f"{len(mismatches)} docs mismatch; first: {mismatches[0]}"


def test_offsets_dense_and_ordered(pipeline_out):
    for r in pipeline_out.values():
        offs = [s["offset"] for s in r["spans"] or []]
        assert offs == list(range(len(offs))), r["doc_id"]


def test_status_error_provider_accounting(pipeline_out, oracle_out):
    for doc_id, want in oracle_out.items():
        got = pipeline_out[doc_id]
        assert got["status"] == want["status"], doc_id
        assert got["error_message"] == want["error_message"], doc_id
        assert got["provider"] == want["provider"], doc_id
        assert got["n_spans"] == want["n_spans"], doc_id
        assert got["n_chars"] == want["n_chars"], doc_id
        # OCR metadata threading (OcrResult.java:34-41): exact integer
        # micro-mean confidence + detected language, null when no OCR ran
        assert got["confidence_micros"] == want["confidence_micros"], doc_id
        assert got["language_detected"] == want["language_detected"], doc_id
        # request-metadata JSON passthrough (OcrRequest.java:61-62)
        assert got["metadata"] == want["metadata"], doc_id


def test_metadata_passthrough_populated(pipeline_out):
    metas = [r["metadata"] for r in pipeline_out.values()]
    assert any(m is not None for m in metas)  # subset carries metadata
    assert any(m is None for m in metas)
    import json

    for m in metas:
        if m is not None:
            assert json.loads(m)["channel"] == "bulk"


def test_confidence_populated_for_ocr_docs(pipeline_out):
    ocr_docs = [r for r in pipeline_out.values()
                if r["status"] == "completed" and r["provider"] == "fake"]
    direct_docs = [r for r in pipeline_out.values()
                   if r["status"] == "completed" and r["provider"] == "direct"]
    assert ocr_docs and direct_docs
    for r in ocr_docs:
        assert r["confidence_micros"] is not None
        assert 900_000 <= r["confidence_micros"] <= 1_000_000
        assert r["language_detected"] == "eng"
    for r in direct_docs:
        assert r["confidence_micros"] is None
        assert r["language_detected"] is None


def test_corpus_exercises_all_paths(oracle_out):
    statuses = {r["status"] for r in oracle_out.values()}
    assert statuses == {"completed", "failed", "failed_validation", "failed_storage"}
    kinds = {s["kind"] for r in oracle_out.values() for s in r["spans"]}
    assert {"heading", "text", "list_item", "pdf_text", "ocr_text"} <= kinds
    # whales present
    assert any(len(r["spans"]) >= 1 and r["n_chars"] > 20_000 for r in oracle_out.values())


def test_rollup_matches_oracle(ray_session, corpus, oracle_out, tmp_path):
    cfg = PipelineConfig(ocr_concurrency=2)
    ds = ray.data.from_arrow(corpus).repartition(8)
    rollup = build_rollup(extract_publish(ds, cfg, str(tmp_path / "pub"))).take_all()
    want = rollup_collections(list(oracle_out.values()))
    got = {r["collection_id"]: r for r in rollup}
    assert set(got) == set(want)
    for cid, w in want.items():
        g = got[cid]
        for k in ("n_docs", "n_completed", "n_failed", "n_pending", "collection_status"):
            assert g[k] == w[k], (cid, k, g, w)


def test_whale_docs_explode_into_parallel_units(corpus):
    """Skew story (SURVEY §4): a 100-400-page PDF must become one work
    unit per page so map_batches spreads it across the pool."""
    from unravel_ray.stages import explode_extract

    whales = [d for d in corpus.to_pylist()
              if sum(1 for s in d["spans"] if s["kind"] == "pdf_page") >= 100]
    assert whales, "corpus should contain whales"
    import pyarrow as pa

    from unravel_ray.schema import DOCS_SCHEMA

    units = explode_extract(pa.Table.from_pylist(whales[:1], schema=DOCS_SCHEMA))
    assert units.num_rows >= 100  # one row per page, not one blob
    subs = units["sub"].to_pylist()
    assert subs == sorted(subs)


def test_mixed_content_doc_with_page_selection(ray_session, tmp_path):
    """A doc interleaving html + pdf pages + image + text (a shape the
    synth corpus never generates) with a discrete page selection: pipeline
    must equal oracle span-for-span."""
    from oracle.pyref import extract_doc
    from unravel_ray.schema import DOCS_SCHEMA

    doc = {
        "doc_id": "mixed-1", "collection_id": "cmix",
        "mime_type": "application/pdf", "file_size": 1234, "lang": "eng",
        "start_page": None, "end_page": None, "pages": [3, 1, 3],
        "spans": [
            {"kind": "html", "text": "<h1>Head</h1><p>Intro</p>", "media_ref": None, "offset": 0},
            {"kind": "pdf_page", "text": "page one", "media_ref": "s3://m/p1.pdf", "offset": 1},
            {"kind": "pdf_page", "text": "", "media_ref": "s3://m/p2.pdf", "offset": 2},
            {"kind": "pdf_page", "text": "page three", "media_ref": "s3://m/p3.pdf", "offset": 3},
            {"kind": "image", "text": None, "media_ref": "s3://m/img.png", "offset": 4},
            {"kind": "text", "text": "tail line A\ntail line B", "media_ref": None, "offset": 5},
        ],
    }
    t = pa.Table.from_pylist([doc], schema=DOCS_SCHEMA)
    got = extract_publish(ray.data.from_arrow(t), PipelineConfig(ocr_concurrency=1),
                          str(tmp_path / "pub")).take_all()[0]
    want = extract_doc(doc)
    assert [(s["kind"], s["text"], s["media_ref"]) for s in got["spans"]] == [
        (s["kind"], s["text"], s["media_ref"]) for s in want["spans"]
    ]
    assert got["status"] == want["status"] == "completed"
    # selection {1,3} dedupes + sorts: pdf text joins pages 1 and 3 only
    pdf = [s for s in got["spans"] if s["kind"] == "pdf_text"][0]
    assert pdf["text"] == "page one\n--- Page 3 ---\npage three"
    # pdf block sits at the position of the FIRST pdf span, between html and image
    kinds = [s["kind"] for s in got["spans"]]
    assert kinds == ["heading", "text", "pdf_text", "ocr_text", "text", "text"]


def test_actor_pool_ocr_matches_task_mode(ray_session, corpus, pipeline_out, tmp_path):
    """ocr_compute='actors' (the warm-engine path real providers use) must
    produce identical output to the default worker-cached task mode."""
    cfg = PipelineConfig(ocr_compute="actors", ocr_concurrency=2)
    ds = ray.data.from_arrow(corpus).repartition(8)
    rows = extract_publish(ds, cfg, str(tmp_path / "pub")).take_all()
    actor_out = {r["doc_id"]: r for r in rows}
    assert set(actor_out) == set(pipeline_out)
    for doc_id, a in pipeline_out.items():
        b = actor_out[doc_id]
        assert a["spans"] == b["spans"], doc_id
        assert a["status"] == b["status"], doc_id
        assert a["provider"] == b["provider"], doc_id


def test_explode_rejected_doc_with_null_offset_does_not_poison_batch():
    """Partial-success contract (r5 review): a null span offset is fatal
    only for docs that PASS validation — the old per-doc sorted() raised
    on None only when span order was actually consulted. A rejected doc
    (bad mime) whose spans carry a null offset must still produce its
    single failed_validation placeholder while the REST OF THE BATCH
    explodes normally; a validated doc with a null offset must raise."""
    import pyarrow as pa
    import pytest

    from unravel_ray.schema import DOCS_SCHEMA
    from unravel_ray.stages import explode_extract

    good = {
        "doc_id": "good-1", "collection_id": "c", "mime_type": "text/html",
        "file_size": 10, "lang": "eng", "start_page": None, "end_page": None,
        "pages": None, "storage_error": None, "metadata": None,
        "spans": [{"kind": "html", "text": "<p>ok fine</p>",
                   "media_ref": None, "offset": 0}],
    }
    bad_mime = dict(good, doc_id="bad-1", mime_type="application/x-evil",
                    spans=[{"kind": "html", "text": "<p>x</p>",
                            "media_ref": None, "offset": None}])
    units = explode_extract(
        pa.Table.from_pylist([bad_mime, good], schema=DOCS_SCHEMA))
    rows = units.to_pylist()
    bad_rows = [r for r in rows if r["doc_id"] == "bad-1"]
    good_rows = [r for r in rows if r["doc_id"] == "good-1"]
    assert len(bad_rows) == 1
    assert bad_rows[0]["doc_status"] == "failed_validation"
    assert good_rows and all(r["doc_status"] == "ok" for r in good_rows)

    validated_bad = dict(good, doc_id="vbad-1",
                         spans=[{"kind": "html", "text": "<p>x</p>",
                                 "media_ref": None, "offset": None}])
    with pytest.raises(ValueError, match="null offsets"):
        explode_extract(
            pa.Table.from_pylist([validated_bad, good], schema=DOCS_SCHEMA))
