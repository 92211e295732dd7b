"""Pure-Python sequential reference extractor — the span-equality oracle.

Processes one interleaved doc at a time, single-threaded, with no Ray
involvement. The distributed pipeline (unravel_ray.pipeline) must produce
span-for-span identical output: equal multiset AND order of
``(kind, text, media_ref)`` by ascending offset per doc_id
(BASELINE.json per-row invariant).

This module shares the *leaf* kernels (html walk, pdf join, page
resolution) with the engine — those leaves are pinned independently by
hand-written golden tests in tests/test_html.py / test_pdf_join.py /
test_pages.py — so what the equality suite actually proves is the
distributed plumbing: explode, OCR actor batching, the block-local
merge + sort(offset, sub) reassembly with split-doc repair, and status
accounting.

Per-doc semantics (documented engine contract; reference citations in the
leaf modules):

1. Validation (M7): bad MIME or size > 10 MB -> status='failed_validation',
   no spans, error message; row retained.
2. storage_error set -> status='failed_storage' (upload failed; row
   retained — DocumentUploadImplTest storage-failure matrix).
3. Page selection (M3) applies to the doc's pdf_page span sequence
   (1-indexed by position in that sequence); invalid selection ->
   'failed_validation'.
4. Span walk in input-offset order:
   * html  -> boilerplate-stripped ordered runs (heading/text/list_item)
   * text  -> one 'text' span per non-empty line
   * image -> one 'ocr_text' span (provider output, media_ref preserved)
   * pdf_page group -> ONE 'pdf_text' span at the first pdf_page position:
     direct join if any selected page has text, else OCR join over every
     selected page (M1/M2 exact separator semantics).
5. Any provider failure (poison rows) -> status='failed', error recorded,
   no spans emitted (mirrors OcrData-on-failure holding no extractedText,
   reference ocrprocessing/service/ProcessOcr.java:174-183).
6. Output offsets re-densified 0..n-1 in emission order.
"""

from __future__ import annotations

from unravel_ray.html_extract import extract_html_spans, split_plain_text
from unravel_ray.pages import PageSelectionError, resolve_pages
from unravel_ray.pdftext import join_direct, join_ocr, needs_ocr_mode
from unravel_ray.providers import FakeOcrProvider, OcrError, fake_confidence_bp
from unravel_ray.validate import ALLOWED_MIMES, SINGLE_FILE_MAX_BYTES

_PROVIDER = FakeOcrProvider()


def extract_doc(doc: dict) -> dict:
    """Sequential reference extraction of one DOCS_SCHEMA row."""
    doc_id = doc["doc_id"]
    collection_id = doc.get("collection_id")

    out = {
        "doc_id": doc_id,
        "collection_id": collection_id,
        "spans": [],
        "status": "completed",
        "error_message": None,
        "provider": "direct",
        "n_spans": 0,
        "n_chars": 0,
        "confidence_micros": None,
        "language_detected": None,
        "metadata": doc.get("metadata"),
    }

    mime = doc.get("mime_type")
    size = doc.get("file_size") or 0
    if mime not in ALLOWED_MIMES:
        out["status"] = "failed_validation"
        out["error_message"] = f"Invalid file type: {mime}"
        out["provider"] = None
        return out
    if size > SINGLE_FILE_MAX_BYTES:
        out["status"] = "failed_validation"
        out["error_message"] = (
            f"The file size must not exceed {SINGLE_FILE_MAX_BYTES // (1024 * 1024)} MB."
        )
        out["provider"] = None
        return out

    if doc.get("storage_error"):
        out["status"] = "failed_storage"
        out["error_message"] = doc["storage_error"]
        out["provider"] = None
        return out

    spans_in = sorted(doc.get("spans") or [], key=lambda s: s["offset"])
    pdf_pages = [s for s in spans_in if s["kind"] == "pdf_page"]

    selected: list[int] = []
    if pdf_pages:
        try:
            selected = resolve_pages(
                len(pdf_pages),
                doc.get("start_page"),
                doc.get("end_page"),
                list(doc.get("pages") or []) or None,
            )
        except PageSelectionError as exc:
            out["status"] = "failed_validation"
            out["error_message"] = str(exc)
            out["provider"] = None
            return out

    used_ocr = False
    ocr_bps: list[int] = []   # per-OCR-unit confidence in basis points,
    # in document (offset) order — the doc mean is exact integer micros
    emitted: list[tuple[str, str | None, str | None]] = []
    try:
        pdf_done = False
        for s in spans_in:
            kind = s["kind"]
            if kind == "html":
                for k, t in extract_html_spans(s["text"] or ""):
                    emitted.append((k, t, None))
            elif kind == "text":
                for line in split_plain_text(s["text"]):
                    if line:
                        emitted.append(("text", line, None))
            elif kind == "image":
                text = _PROVIDER.extract(s["media_ref"], doc.get("lang"))
                used_ocr = True
                ocr_bps.append(fake_confidence_bp(s["media_ref"]))
                emitted.append(("ocr_text", text, s["media_ref"]))
            elif kind == "pdf_page":
                if pdf_done:
                    continue
                pdf_done = True
                sel_pages = [(i + 1, pdf_pages[i]["text"]) for i in selected]
                if needs_ocr_mode(sel_pages):
                    ocr_pages = []
                    for i in selected:
                        text = _PROVIDER.extract(pdf_pages[i]["media_ref"], doc.get("lang"))
                        used_ocr = True
                        ocr_bps.append(fake_confidence_bp(pdf_pages[i]["media_ref"]))
                        ocr_pages.append((i + 1, text))
                    joined = join_ocr(ocr_pages)
                else:
                    joined = join_direct(sel_pages)
                if joined:
                    emitted.append(("pdf_text", joined, None))
            # unknown kinds pass through untouched
            elif s.get("text") or s.get("media_ref"):
                emitted.append((kind, s.get("text"), s.get("media_ref")))
    except OcrError as exc:
        out["status"] = "failed"
        out["error_message"] = f"OcrError: {exc}"
        out["provider"] = _PROVIDER.name
        return out

    out["spans"] = [
        {"kind": k, "text": t, "media_ref": m, "offset": i}
        for i, (k, t, m) in enumerate(emitted)
    ]
    out["provider"] = _PROVIDER.name if used_ocr else "direct"
    out["n_spans"] = len(emitted)
    out["n_chars"] = sum(len(t) for _, t, _ in emitted if t)
    if ocr_bps:
        out["confidence_micros"] = (sum(ocr_bps) * 100) // len(ocr_bps)
        out["language_detected"] = doc.get("lang") or "eng"
    return out


def extract_corpus(docs: list[dict]) -> list[dict]:
    return [extract_doc(d) for d in docs]


def rollup_collections(extracted: list[dict]) -> dict[str, dict]:
    """Collection status roll-up truth (G2, ProcessOcr.java:185-217).

    failed_validation counts as failed for roll-up purposes (a terminal
    non-success, like FAILED OcrData).
    """
    by_col: dict[str, dict] = {}
    for row in extracted:
        c = by_col.setdefault(
            row["collection_id"],
            {"n_docs": 0, "n_completed": 0, "n_failed": 0, "n_pending": 0},
        )
        c["n_docs"] += 1
        if row["status"] == "completed":
            c["n_completed"] += 1
        elif row["status"] in ("failed", "failed_validation", "failed_storage"):
            c["n_failed"] += 1
        else:
            c["n_pending"] += 1
    for c in by_col.values():
        if c["n_completed"] == c["n_docs"]:
            c["collection_status"] = "processed"
        elif c["n_completed"] + c["n_failed"] == c["n_docs"]:
            c["collection_status"] = "failed_ocr"
        else:
            c["collection_status"] = "processing"
    return by_col
