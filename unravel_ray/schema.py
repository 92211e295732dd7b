"""Arrow schemas for every table the engine reads or writes.

The logical input is the *interleaved-span document table* from
BASELINE.json's ``input_hint`` — the Arrow-native generalization of the
reference's ``FileEntry`` + ``OcrData`` pair
(reference: documents/model/FileEntry.java:17-62,
ocrprocessing/model/OcrData.java:17-66; see SURVEY.md §1.3).

Schemas are declared explicitly and checked at stage boundaries — the Ray
analog of the reference's JPA-fixed schema + Flyway migrations
(``spring.jpa.hibernate.ddl-auto=validate``, reference README.md:388).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# span struct — the unit of interleaved content
# ---------------------------------------------------------------------------

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),        # html|text|pdf_page|image|heading|list_item|...
        pa.field("text", pa.string()),        # payload for text-bearing kinds (nullable)
        pa.field("media_ref", pa.string()),   # storage pointer for media kinds (nullable)
        pa.field("offset", pa.int32()),       # dense document order, 0-based
    ]
)

# Input table: one row per document.
# Optional per-doc page selection mirrors OcrRequest.startPage/endPage/pages
# (reference ocrprocessing/provider/OcrRequest.java:87-99): 1-indexed.
DOCS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("collection_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
        pa.field("mime_type", pa.string()),
        pa.field("file_size", pa.int64()),
        pa.field("lang", pa.string()),
        pa.field("start_page", pa.int32()),   # nullable
        pa.field("end_page", pa.int32()),     # nullable
        pa.field("pages", pa.list_(pa.int32())),  # nullable discrete selection
        # set when the upload/storage step failed for this file; the doc is
        # retained with status='failed_storage' (partial-success matrix,
        # reference DocumentUploadImplTest storage-failure rows)
        pa.field("storage_error", pa.string()),
        # free-form request metadata as a JSON string (OcrRequest.metadata
        # map, OcrRequest.java:61-62; SURVEY.md §1.3 prescribes the
        # JSON-string encoding for map payloads), carried through to the
        # extracted row untouched
        pa.field("metadata", pa.string()),
    ]
)

# Output table: one row per document, spans restored in document order.
# Mirrors OcrData (ocrprocessing/model/OcrData.java:17-66): status enum,
# extracted payload, error message — plus provider/fallback columns from
# OcrResult (ocrprocessing/provider/OcrResult.java:16-128).
EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("collection_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
        pa.field("status", pa.string()),          # completed|failed|failed_validation|failed_storage
        pa.field("error_message", pa.string()),   # nullable
        pa.field("provider", pa.string()),        # which OCR provider served this doc
        pa.field("n_spans", pa.int32()),
        pa.field("n_chars", pa.int64()),
        # mean OCR confidence over the doc's OCR'd units, exact integer
        # micros ((sum_bp*100)//n); null when nothing was OCR'd. Mirrors
        # OcrResult.confidence (OcrResult.java:34-41).
        pa.field("confidence_micros", pa.int32()),
        # first OCR'd unit's detected language in document order; null when
        # nothing was OCR'd. Mirrors OcrResult.languageDetected.
        pa.field("language_detected", pa.string()),
        # request metadata JSON passed through from the input row
        # (OcrResult.metadata, OcrRequest.java:61-62)
        pa.field("metadata", pa.string()),
    ]
)

# Intermediate exploded representation: one row per *work unit* (span) so a
# 400-page scanned PDF parallelizes across blocks instead of straggling one
# task (SURVEY.md §4 skew note). `sub` orders spans emitted from one input
# span (e.g. an html fragment expanding to many runs).
WORKUNIT_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("collection_id", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
        pa.field("sub", pa.int32()),
        pa.field("page_no", pa.int32()),       # 1-indexed pdf page, nullable
        pa.field("needs_ocr", pa.bool_()),
        pa.field("pdf_mode", pa.string()),     # direct|ocr|null
        pa.field("doc_status", pa.string()),   # validation status carried per row
        pa.field("error_message", pa.string()),
        pa.field("lang", pa.string()),
        pa.field("size_bucket", pa.int32()),
        # total work units this doc exploded into — lets reassembly detect a
        # doc split across blocks LOCALLY (rows seen != n_units), with no
        # groupby/shuffle and no full-output materialization
        pa.field("n_units", pa.int32()),
        # request metadata JSON, doc-constant passthrough
        pa.field("metadata", pa.string()),
    ]
)

# Internal status marker emitted by finalize_block for an incomplete doc
# fragment (its block holds fewer rows than n_units). Never appears in
# published output: the repair/publish paths replace marker docs with an
# exact recompute from source.
SPLIT_MARKER_STATUS = "__split__"

# Reserved int32 column a caller may add to DOCS rows (the checkpointed
# files variant tags each doc with its partition id). explode_extract and
# finalize_block carry it through as a doc-constant passthrough, appended
# after the schema's own columns and only when the input has it.
PARTITION_TAG = "__partition_id"

# Quarantine table — the DLQ analog (SURVEY.md §2.9): rows that a stage
# failed on, with the DLQ-header fields the reference attaches
# (brokers/kafka/handler/KafkaErrorHandler.java:243-266).
QUARANTINE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("collection_id", pa.string()),
        pa.field("stage", pa.string()),
        pa.field("error_class", pa.string()),
        pa.field("error_message", pa.string()),
        pa.field("media_ref", pa.string()),
    ]
)

# Collection roll-up (G2: ProcessOcr.java:185-217).
ROLLUP_SCHEMA = pa.schema(
    [
        pa.field("collection_id", pa.string()),
        pa.field("n_docs", pa.int64()),
        pa.field("n_completed", pa.int64()),
        pa.field("n_failed", pa.int64()),
        pa.field("n_pending", pa.int64()),
        pa.field("collection_status", pa.string()),
    ]
)
