"""PDF page-selection resolution (operator M3, SURVEY.md §2.2).

Behavioral contract (reference ocrprocessing/dto/request/PdfPageRange.java:60-132):

* All page numbers are 1-indexed.
* Discrete ``pages`` list takes priority over ``start_page``/``end_page``.
* Discrete pages are validated (1 <= p <= total), then converted to
  0-indexed, deduplicated and sorted ascending.
* Range mode: ``start_page`` defaults to 1, ``end_page`` to ``total``;
  both inclusive; start <= end required; both must be within 1..total.
* No selection -> all pages.

Pure Python; runs inside batch functions (one call per doc, cheap).
"""

from __future__ import annotations

from typing import Sequence


class PageSelectionError(ValueError):
    """Invalid page selection — surfaces as status='failed_validation'."""


def resolve_pages(
    total_pages: int,
    start_page: int | None = None,
    end_page: int | None = None,
    pages: Sequence[int] | None = None,
) -> list[int]:
    """Return the sorted list of 0-indexed pages to process.

    Raises PageSelectionError with a human-readable message on invalid
    selections (same conditions as PdfPageRange.validate,
    reference PdfPageRange.java:77-110).
    """
    if pages:
        for p in pages:
            if p < 1:
                raise PageSelectionError(f"Page numbers must be >= 1, got: {p}")
            if p > total_pages:
                raise PageSelectionError(
                    f"Page {p} exceeds total pages ({total_pages})"
                )
        return sorted({p - 1 for p in pages})

    if start_page is not None and start_page < 1:
        raise PageSelectionError(f"startPage must be >= 1, got: {start_page}")
    if end_page is not None and end_page < 1:
        raise PageSelectionError(f"endPage must be >= 1, got: {end_page}")
    if start_page is not None and end_page is not None and start_page > end_page:
        raise PageSelectionError(
            f"startPage ({start_page}) must be <= endPage ({end_page})"
        )
    if start_page is not None and start_page > total_pages:
        raise PageSelectionError(
            f"startPage ({start_page}) exceeds total pages ({total_pages})"
        )
    if end_page is not None and end_page > total_pages:
        raise PageSelectionError(
            f"endPage ({end_page}) exceeds total pages ({total_pages})"
        )

    start = (start_page if start_page is not None else 1) - 1
    end = end_page if end_page is not None else total_pages
    return list(range(start, end))
