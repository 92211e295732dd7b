"""Randomized span-structure equality: hypothesis-generated docs (shapes
the synth corpus never produces — duplicate offsets, nulls, unknown kinds,
adversarial selections) must still match the sequential oracle exactly."""

import tempfile

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data

from oracle.pyref import extract_doc
from unravel_ray.config import PipelineConfig
from unravel_ray.pipeline import extract_publish
from unravel_ray.schema import DOCS_SCHEMA

KINDS = st.sampled_from(["html", "text", "pdf_page", "image", "heading",
                         "list_item", "mystery"])
TEXTS = st.one_of(
    st.none(),
    st.sampled_from(["", "  ", "plain words here", "<p>para</p><h2>h</h2>",
                     "line1\nline2", "a <b>b</b> c"]),
)
MEDIA = st.one_of(st.none(), st.sampled_from(
    ["s3://m/x.png", "s3://m/y.pdf", "s3://corpus/POISON"]))


@st.composite
def doc(draw, idx):
    n = draw(st.integers(0, 6))
    spans = []
    for j in range(n):
        spans.append({
            "kind": draw(KINDS),
            "text": draw(TEXTS),
            "media_ref": draw(MEDIA),
            # duplicate + non-dense offsets on purpose
            "offset": draw(st.integers(0, 3)),
        })
    n_pdf = sum(1 for s in spans if s["kind"] == "pdf_page")
    sel = draw(st.sampled_from(["none", "range", "discrete", "invalid"]))
    start = end = None
    pages = None
    if sel == "range" and n_pdf:
        start = draw(st.integers(1, n_pdf))
        end = draw(st.integers(start, n_pdf))
    elif sel == "discrete" and n_pdf:
        pages = draw(st.lists(st.integers(1, n_pdf), min_size=1, max_size=4))
    elif sel == "invalid":
        start, end = 98, 99
    return {
        "doc_id": f"fz-{idx:04d}",
        "collection_id": "cfz",
        "spans": spans,
        "mime_type": draw(st.sampled_from(
            ["application/pdf", "text/html", "image/png", "video/mp4"])),
        "file_size": draw(st.sampled_from([10, 5_000_000, 20 * 1024 * 1024])),
        "lang": "eng",
        "start_page": start,
        "end_page": end,
        "pages": pages,
        "storage_error": draw(st.sampled_from(
            [None, None, None, "Failed to upload file to storage."])),
    }


@st.composite
def corpus(draw):
    n = draw(st.integers(1, 25))
    return [draw(doc(i)) for i in range(n)]


@given(corpus())
@settings(max_examples=12, deadline=None)
def test_fuzzed_docs_match_oracle(ray_session, docs):
    t = pa.Table.from_pylist(docs, schema=DOCS_SCHEMA)
    cfg = PipelineConfig(ocr_concurrency=1, explode_batch_size=7)
    with tempfile.TemporaryDirectory() as out_dir:
        rows = extract_publish(ray.data.from_arrow(t).repartition(3), cfg,
                               out_dir).take_all()
    got = {r["doc_id"]: r for r in rows}
    assert len(got) == len(docs)
    for d in docs:
        want = extract_doc(d)
        g = got[d["doc_id"]]
        gs = [(s["kind"], s["text"], s["media_ref"])
              for s in sorted(g["spans"] or [], key=lambda s: s["offset"])]
        ws = [(s["kind"], s["text"], s["media_ref"]) for s in want["spans"]]
        assert gs == ws, (d["doc_id"], d["spans"], gs, ws)
        assert g["status"] == want["status"], (d["doc_id"], d)
        assert g["error_message"] == want["error_message"], (d["doc_id"], d)
        assert g["provider"] == want["provider"], (d["doc_id"], d)
