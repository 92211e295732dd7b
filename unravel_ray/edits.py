"""Post-extraction content editing + quarantine (UpdateOcrContent flow and
the DLQ analog).

Edit semantics (reference ocrprocessing/impl/UpdateOcrContentImpl.java):

* Only COMPLETED documents may be edited (:66-70 -> BadRequest otherwise).
* HTML content is sanitized before storage (:98-103 Jsoup.clean with the
  relaxed+extras safelist); markdown is stored as-is (no executable
  content).
* The edit is stored alongside — the original extracted spans are
  preserved untouched (pinned by UpdateOcrContentImplTest.java:218-).

Quarantine (SURVEY.md §2.9 DLQ analog): failed rows are projected into a
dedicated table carrying the reference's DLQ header fields
(KafkaErrorHandler.java:243-266 — original stage, exception class,
message) so poison documents are auditable without scanning the corpus.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .html_extract import extract_html_spans, is_html, parse_fragment, strip_boilerplate
from .schema import QUARANTINE_SCHEMA


class EditRejected(ValueError):
    """Edit attempted on a document that has not completed extraction."""


def sanitize_html(content: str) -> str:
    """Safelist-style sanitize: parse, strip boilerplate/scripts/handlers,
    re-serialize surviving structure (M8). Text-level equivalent of
    Jsoup.clean with the reference safelist."""

    import html as _html

    def render(node) -> str:
        if isinstance(node, str):
            # re-escape text: the parser decoded charrefs, so '&lt;script&gt;'
            # became '<script>' as TEXT — serializing it raw would turn inert
            # escaped content back into live markup
            return _html.escape(node, quote=False)
        inner = "".join(render(c) for c in node.children)
        if node.tag == "#root":
            return inner
        if node.tag in {"br", "hr"}:
            return f"<{node.tag}>"
        attrs = ""
        if node.tag == "a" and "href" in node.attrs:
            href = node.attrs["href"]
            if href.split(":", 1)[0].lower() in {"http", "https", "mailto"} or ":" not in href:
                attrs = f' href="{_html.escape(href, quote=True)}"'
        return f"<{node.tag}{attrs}>{inner}</{node.tag}>"

    return render(strip_boilerplate(parse_fragment(content)))


def sanitize_content(content: str, content_format: str) -> str:
    """HTML is sanitized; markdown passes through
    (UpdateOcrContentImpl.java:95-104)."""
    if content_format.upper() == "HTML":
        return sanitize_html(content)
    return content


def apply_edits(extracted: Dataset, edits: dict[str, tuple[str, str]]) -> Dataset:
    """Apply {doc_id: (edited_content, format)} to the extracted table.

    Pre-flight (driver-side, before any distributed work): every target
    doc must exist and be COMPLETED — EditRejected otherwise (the
    reference 404s unknown documents and 400s non-completed ones,
    UpdateOcrContentImpl.java:61-70). The attach pass then never raises in
    workers. Original spans are never modified.
    """
    import ray

    target_ids = set(edits)
    id_ref = ray.put(pa.array(sorted(target_ids), pa.string()))

    def pick_status(batch: pa.Table) -> pa.Table:
        wanted = ray.get(id_ref)
        mask = pc.is_in(batch["doc_id"], value_set=wanted)
        return batch.filter(mask).select(["doc_id", "status"])

    found = {r["doc_id"]: r["status"]
             for r in extracted.map_batches(pick_status, batch_format="pyarrow").take_all()}
    missing = target_ids - set(found)
    if missing:
        raise EditRejected(f"OCR data not found for document ID: {sorted(missing)[0]}")
    for d, s in found.items():
        if s != "completed":
            raise EditRejected(
                f"Cannot edit content for a document that has not completed "
                f"OCR processing. Current status: {s}"
            )

    sanitized = {
        d: (sanitize_content(c, f), f.upper()) for d, (c, f) in edits.items()
    }
    ref = ray.put(sanitized)

    def attach(batch: pa.Table) -> pa.Table:
        table_edits = ray.get(ref)
        ids = batch["doc_id"].to_pylist()
        contents, formats = [], []
        for d in ids:
            if d in table_edits:
                c, f = table_edits[d]
                contents.append(c)
                formats.append(f)
            else:
                contents.append(None)
                formats.append(None)
        return batch.append_column(
            "edited_content", pa.array(contents, pa.string())
        ).append_column("content_format", pa.array(formats, pa.string()))

    return extracted.map_batches(attach, batch_format="pyarrow")


def build_quarantine(extracted: Dataset, stage: str = "extract") -> Dataset:
    """Project failed rows into the quarantine table (DLQ analog)."""

    def project(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["status"], value_set=pa.array(["failed"]))
        bad = batch.filter(mask)
        n = bad.num_rows
        err = bad["error_message"].to_pylist() if n else []
        classes = [(e.split(":", 1)[0] if e and ":" in e else "Error") for e in err]
        return pa.table({
            "doc_id": bad["doc_id"],
            "collection_id": bad["collection_id"],
            "stage": pa.array([stage] * n, pa.string()),
            "error_class": pa.array(classes, pa.string()),
            "error_message": pa.array(err, pa.string()),
            "media_ref": pa.array([None] * n, pa.string()),
        }).cast(QUARANTINE_SCHEMA)

    return extracted.map_batches(project, batch_format="pyarrow")


def enforce_total_size_cap(docs: Dataset, cap_bytes: int = 50 * 1024 * 1024) -> Dataset:
    """Collection-level total-upload cap (FileSize.MULTIPLE_FILE_SIZE,
    reference FileSize.java:6-9; applied before processing,
    BulkDocumentUploadExtractionImpl.java:76-77).

    Slim pre-pass: a keyed sum of file_size per collection_id — only
    partial rows shuffle — then the over-cap collection set is broadcast and
    every doc in an over-cap collection is marked failed_validation (rows
    retained; partial-success semantics).
    """
    from .relational import keyed_aggregate

    totals = keyed_aggregate(
        docs.select_columns(["collection_id", "file_size"]), ["collection_id"],
        [("total_bytes", "file_size", "sum")])
    over = {
        r["collection_id"]
        for r in totals.map_batches(
            lambda t: t.filter(pc.greater(t["total_bytes"], cap_bytes)),
            batch_format="pyarrow",
        ).take_all()
    }
    if not over:
        return docs
    import ray

    ref = ray.put(pa.array(sorted(over), pa.string()))
    msg = (f"The total size of all files must not exceed "
           f"{cap_bytes // (1024 * 1024)} MB.")

    def mark(batch: pa.Table) -> pa.Table:
        bad = ray.get(ref)
        errs = pc.if_else(
            pc.is_in(batch["collection_id"], value_set=bad),
            pa.scalar(msg, pa.string()), pa.scalar(None, pa.string()))
        if "precheck_error" in batch.column_names:
            # new message wins; rows not over-cap keep any earlier error
            errs = pc.coalesce(errs, batch["precheck_error"])
            batch = batch.drop_columns(["precheck_error"])
        return batch.append_column("precheck_error", pc.cast(errs, pa.string()))

    return docs.map_batches(mark, batch_format="pyarrow")
