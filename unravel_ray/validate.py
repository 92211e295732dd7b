"""Upload/record validation limits (operator M7, SURVEY.md §2.2), applied
per work unit by ``stages.explode_extract``.

Behavioral contract:

* MIME must be non-empty and in the FILE allowlist — images + PDF + Office
  (reference utils/imageupload/FileType.java:6-27 FILE enum;
  documents/utils/ValidateFileCheck.java:10-23).
* Single-file size cap 10 MB (utils/imageupload/FileSize.java:6-9).
* Invalid rows are RETAINED with status='failed_validation' and an error
  message — partial-success semantics, not a filter
  (DocumentUploadImpl.java:111-120).
"""

from __future__ import annotations

SINGLE_FILE_MAX_BYTES = 10 * 1024 * 1024

ALLOWED_MIMES = (
    "image/gif", "image/jpeg", "image/png", "image/jpg",
    "application/pdf", "application/msword",
    "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
    "application/vnd.ms-excel",
    "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
    "application/vnd.ms-powerpoint",
    "application/vnd.openxmlformats-officedocument.presentationml.presentation",
    # engine-native logical types for interleaved docs
    "text/html", "text/plain",
)

