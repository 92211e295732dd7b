"""Content-edit flow (UpdateOcrContentImpl semantics), quarantine table,
and the collection total-size cap — pins the reference test scenarios
(UpdateOcrContentImplTest.java:132-154 script strip, :218- original
preserved; BulkDocumentUploadExtractionImplTest total-size cap)."""

import pyarrow as pa
import pytest

import ray.data

from unravel_ray.config import PipelineConfig
from unravel_ray.edits import (
    EditRejected,
    apply_edits,
    build_quarantine,
    enforce_total_size_cap,
    sanitize_content,
    sanitize_html,
)
from unravel_ray.pipeline import extract_publish
from unravel_ray.schema import EXTRACTED_SCHEMA
from unravel_ray.synth import make_corpus


def _extracted():
    rows = [
        {"doc_id": "d1", "collection_id": "c1",
         "spans": [{"kind": "text", "text": "original", "media_ref": None, "offset": 0}],
         "status": "completed", "error_message": None, "provider": "direct",
         "n_spans": 1, "n_chars": 8},
        {"doc_id": "d2", "collection_id": "c1", "spans": [], "status": "failed",
         "error_message": "OcrError: provider cannot read media: 'x'",
         "provider": "fake", "n_spans": 0, "n_chars": 0},
    ]
    return ray.data.from_arrow(pa.Table.from_pylist(rows, schema=EXTRACTED_SCHEMA))


def test_sanitize_strips_scripts_and_handlers():
    dirty = '<p onclick="steal()">Hi <b>there</b></p><script>evil()</script>'
    clean = sanitize_html(dirty)
    assert "<script>" not in clean and "onclick" not in clean and "evil" not in clean
    assert "<p>Hi <b>there</b></p>" == clean


def test_sanitize_keeps_safe_links_drops_bad_protocols():
    assert sanitize_html('<a href="https://x.test/a">ok</a>') == '<a href="https://x.test/a">ok</a>'
    assert sanitize_html('<a href="javascript:evil()">x</a>') == "<a>x</a>"


def test_markdown_passes_through():
    md = "# heading\n<script>not sanitized because markdown</script>"
    assert sanitize_content(md, "MARKDOWN") == md


def test_apply_edits_preserves_original_and_gates_status(ray_session):
    out = {r["doc_id"]: r for r in apply_edits(
        _extracted(), {"d1": ("<p>new <script>x</script>content</p>", "HTML")}
    ).take_all()}
    d1 = out["d1"]
    assert d1["edited_content"] == "<p>new content</p>"
    assert d1["content_format"] == "HTML"
    # original extracted spans untouched (UpdateOcrContentImplTest.java:218-)
    assert d1["spans"][0]["text"] == "original"
    assert out["d2"]["edited_content"] is None

    with pytest.raises((EditRejected, Exception)):
        apply_edits(_extracted(), {"d2": ("x", "MARKDOWN")}).take_all()


def test_quarantine_projection(ray_session):
    rows = build_quarantine(_extracted()).take_all()
    assert len(rows) == 1
    q = rows[0]
    assert q["doc_id"] == "d2"
    assert q["stage"] == "extract"
    assert q["error_class"] == "OcrError"
    assert "cannot read media" in q["error_message"]


def test_total_size_cap_marks_whole_collection(ray_session, tmp_path):
    corpus = make_corpus(32).to_pylist()
    # inflate every file in collection col-000001 so its total exceeds 50 MB
    for r in corpus:
        if r["collection_id"] == "col-000001":
            r["file_size"] = 9 * 1024 * 1024  # each under the 10 MB single cap
    from unravel_ray.schema import DOCS_SCHEMA

    docs = ray.data.from_arrow(pa.Table.from_pylist(corpus, schema=DOCS_SCHEMA))
    gated = enforce_total_size_cap(docs)
    out = extract_publish(gated, PipelineConfig(ocr_concurrency=1),
                          str(tmp_path / "pub")).take_all()
    by_col: dict = {}
    for r in out:
        by_col.setdefault(r["collection_id"], []).append(r)
    for r in by_col["col-000001"]:
        assert r["status"] == "failed_validation"
        assert "must not exceed 50 MB" in r["error_message"]
    # other collections unaffected
    assert any(r["status"] == "completed"
               for c, rows in by_col.items() if c != "col-000001" for r in rows)


def test_apply_edits_preflight_unknown_and_incomplete(ray_session):
    with pytest.raises(EditRejected, match="not found"):
        apply_edits(_extracted(), {"nope": ("x", "MARKDOWN")})
    with pytest.raises(EditRejected, match="not completed"):
        apply_edits(_extracted(), {"d2": ("x", "MARKDOWN")})


def test_sanitize_escaping_not_bypassable():
    # escaped markup in TEXT must stay inert after re-serialization
    out = sanitize_html("<p>&lt;script&gt;alert(1)&lt;/script&gt;</p>")
    assert "<script>" not in out
    assert "&lt;script&gt;" in out
    # quotes in href cannot break out into new attributes
    out2 = sanitize_html('<a href=\'https://x/" onclick="evil()\'>x</a>')
    assert "onclick" not in out2.replace("&quot;", "")or 'href="https://x/&quot;' in out2
    assert 'onclick="' not in out2
