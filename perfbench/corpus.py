"""Seeded interleaved-document corpora with closed-form expected outputs.

The generator writes rows in the engine's input shape (``DOCS_SCHEMA``:
doc_id, collection_id, spans<kind, text, media_ref, offset>, mime_type,
file_size, lang, start_page, end_page, pages, storage_error, metadata)
without importing the engine. Every document is built from the runs it
should extract to, so the expected ``status``, ``provider``, ``n_spans``
and ``n_chars`` of each document follow in closed form from the
extraction rules (FIXTURES.md §1-2):

* html: ``<script>``/``<style>``/``<nav>`` subtrees are dropped; each
  heading, paragraph and list item becomes one run; inline ``<b>`` text
  joins its paragraph;
* text: one run per line;
* image: one ``ocr_text`` run of ``ocr(<12 hex>)`` (17 characters);
* pdf: one ``pdf_text`` run joining the selected pages with
  ``"\\n--- Page N ---\\n"`` between contributing pages; blank pages are
  skipped, an all-blank document is OCR'd page by page;
* invalid MIME, oversize file or out-of-range page selection ->
  ``failed_validation``; a storage error -> ``failed_storage``; the
  poison media ref -> ``failed`` (provider ``fake``); none carry runs.

The archetype counts are exact shares of each file and the size of each
document depends only on its archetype ordinal within its file, so every
seed yields the same amount of work, spread evenly over the files; the
seed orders the archetypes within each file and draws the words.
"""

from __future__ import annotations

import random

import pyarrow as pa

VOCAB = (
    "data pipeline ray arrow span batch block shuffle stream actor table "
    "column row vector hash sort merge scan filter group index page text "
    "image media corpus extract parse layout heading list anchor token "
    "window offset order partition manifest lineage checkpoint resume"
).split()

POISON_REF = "s3://corpus/POISON"
OCR_RUN_CHARS = len("ocr(") + 12 + len(")")
OVERSIZE_BYTES = 20 * 1024 * 1024

# archetype -> share of the corpus in per mille (FIXTURES.md §1 mix)
BULK_MIX = {
    "html": 400, "text_pdf": 250, "scanned_pdf": 120, "image": 150,
    "whale": 40, "invalid": 20, "poison": 10, "storage_error": 10,
}
# PDF/scan-heavy, whales included
CHECKPOINT_MIX = {
    "text_pdf": 330, "scanned_pdf": 300, "whale": 60, "image": 150,
    "html": 100, "invalid": 30, "poison": 20, "storage_error": 10,
}

_SPAN_TYPE = pa.struct([
    pa.field("kind", pa.string()), pa.field("text", pa.string()),
    pa.field("media_ref", pa.string()), pa.field("offset", pa.int32()),
])
DOCS_SCHEMA = pa.schema([
    pa.field("doc_id", pa.string()),
    pa.field("collection_id", pa.string()),
    pa.field("spans", pa.list_(_SPAN_TYPE)),
    pa.field("mime_type", pa.string()),
    pa.field("file_size", pa.int64()),
    pa.field("lang", pa.string()),
    pa.field("start_page", pa.int32()),
    pa.field("end_page", pa.int32()),
    pa.field("pages", pa.list_(pa.int32())),
    pa.field("storage_error", pa.string()),
    pa.field("metadata", pa.string()),
])
EXPECTED_SCHEMA = pa.schema([
    pa.field("doc_id", pa.string()),
    pa.field("collection_id", pa.string()),
    pa.field("archetype", pa.string()),
    pa.field("status", pa.string()),
    pa.field("provider", pa.string()),
    pa.field("n_spans", pa.int32()),
    pa.field("n_chars", pa.int64()),
])


def _words(r: random.Random, lo: int, hi: int) -> str:
    return " ".join(r.choices(VOCAB, k=r.randint(lo, hi)))


def _page_sep_chars(page_no: int) -> int:
    return len(f"\n--- Page {page_no} ---\n")


class _Doc:
    """One document under construction plus its expected extraction."""

    def __init__(self, i: int) -> None:
        self.doc_id = f"doc-{i:08d}"
        self.row = {
            "doc_id": self.doc_id, "collection_id": f"col-{i // 8:06d}",
            "spans": [], "mime_type": "text/html", "file_size": 4096 + i % 997,
            "lang": "eng", "start_page": None, "end_page": None, "pages": None,
            "storage_error": None,
            "metadata": f'{{"channel":"bulk","priority":{i % 3}}}' if i % 5 == 0 else None,
        }
        self.status = "completed"
        self.provider = "direct"
        self.n_spans = 0
        self.n_chars = 0

    def span(self, kind: str, text: str | None = None, media_ref: str | None = None) -> None:
        spans = self.row["spans"]
        spans.append({"kind": kind, "text": text, "media_ref": media_ref,
                      "offset": len(spans)})

    def runs(self, texts) -> None:
        for t in texts:
            self.n_spans += 1
            self.n_chars += len(t)

    def ocr_runs(self, n: int) -> None:
        self.provider = "fake"
        self.n_spans += n
        self.n_chars += n * OCR_RUN_CHARS

    def fail(self, status: str, provider: str | None) -> None:
        self.status, self.provider = status, provider
        self.n_spans = self.n_chars = 0


def _html(d: _Doc, r: random.Random) -> None:
    parts: list[str] = []
    runs: list[str] = []
    if r.random() < 0.5:
        parts.append("<script>window.track('pv');</script>")
    if r.random() < 0.4:
        links = "".join(f'<a href="https://x.test/{j}">{r.choice(VOCAB)}</a> '
                        for j in range(r.randint(3, 6)))
        parts.append(f"<nav>{links}</nav>")
    level = r.randint(1, 3)
    heading = _words(r, 2, 5).title()
    parts.append(f"<h{level}>{heading}</h{level}>")
    runs.append(heading)
    for _ in range(r.randint(1, 3)):
        text = _words(r, 4, 12)
        markup = text
        if r.random() < 0.5:
            bold, tail = r.choice(VOCAB), _words(r, 2, 6)
            markup = f"{text} <b>{bold}</b> {tail}"
            text = f"{text} {bold} {tail}"
        attrs = ' onclick="steal()"' if r.random() < 0.2 else ""
        parts.append(f"<p{attrs}>{markup}</p>")
        runs.append(text)
    if r.random() < 0.4:
        items = [_words(r, 2, 6) for _ in range(r.randint(2, 4))]
        tag = r.choice(("ul", "ol"))
        parts.append(f"<{tag}>" + "".join(f"<li>{x}</li>" for x in items) + f"</{tag}>")
        runs.extend(items)
    if r.random() < 0.3:
        parts.append("<style>.x{color:red}</style>")
    d.span("html", "".join(parts))
    d.runs(runs)


def _text(d: _Doc, r: random.Random, n_lines: int) -> None:
    lines = [_words(r, 5, 14) for _ in range(n_lines)]
    d.span("text", "\n".join(lines))
    d.runs(lines)


def _images(d: _Doc, n: int) -> None:
    for j in range(n):
        d.span("image", media_ref=f"s3://corpus/{d.doc_id}/img-{j}.png")
    d.ocr_runs(n)


def _text_pdf(d: _Doc, r: random.Random, n_pages: int, select: int) -> None:
    """Direct-text PDF; page 1 always has text so the document never falls
    back to OCR. ``select``: 0 all pages, 1 a range, 2 a discrete list."""
    d.row["mime_type"] = "application/pdf"
    texts = ["" if p > 1 and r.random() < 0.15 else _words(r, 6, 20)
             for p in range(1, n_pages + 1)]
    for p, t in enumerate(texts, start=1):
        d.span("pdf_page", t, f"s3://corpus/{d.doc_id}/page-{p}.pdf")
    selected = list(range(1, n_pages + 1))
    if select == 1 and n_pages > 2:
        d.row["start_page"], d.row["end_page"] = 1, n_pages - 1
        selected = selected[:-1]
    elif select == 2 and n_pages > 2:
        chosen = sorted({1, *r.sample(range(2, n_pages + 1), 2)})
        d.row["pages"] = chosen[::-1] + chosen[:1]  # unsorted + duplicate
        selected = chosen
    contributing = [p for p in selected if texts[p - 1]]
    d.n_spans += 1
    d.n_chars += (sum(len(texts[p - 1]) for p in contributing)
                  + sum(_page_sep_chars(p) for p in contributing[1:]))


def _scanned_pdf(d: _Doc, n_pages: int) -> None:
    d.row["mime_type"] = "application/pdf"
    for p in range(1, n_pages + 1):
        d.span("pdf_page", "", f"s3://corpus/{d.doc_id}/page-{p}.pdf")
    d.provider = "fake"
    d.n_spans += 1
    d.n_chars += (n_pages * OCR_RUN_CHARS
                  + sum(_page_sep_chars(p) for p in range(2, n_pages + 1)))


def _build(archetype: str, k: int, n_kind: int, d: _Doc, r: random.Random) -> None:
    """Fill document ``d``: the ``k``-th of ``n_kind`` documents of its
    archetype. Sizes depend on ``k`` only; words come from ``r``."""
    if archetype == "html":
        for _ in range(1 + k % 3):
            _html(d, r)
        if k % 4 == 1:
            _text(d, r, 2)
        if k % 5 == 2:
            _images(d, 1)
    elif archetype == "text_pdf":
        _text_pdf(d, r, 3 + k % 10, k % 6 if k % 6 < 3 else 0)
    elif archetype == "scanned_pdf":
        _scanned_pdf(d, 2 + k % 5)
    elif archetype == "image":
        d.row["mime_type"] = "image/png"
        _images(d, 1 + k % 5)
        if k % 3 == 0:
            _text(d, r, 1)
    elif archetype == "whale":
        n_pages = 100 + (300 * k) // max(1, n_kind - 1)
        if k % 2:
            _scanned_pdf(d, n_pages)
        else:
            _text_pdf(d, r, n_pages, 0)
    elif archetype == "invalid":
        kind = k % 3
        if kind == 0:
            d.row["mime_type"] = "video/mp4"
            _html(d, r)
        elif kind == 1:
            d.row["file_size"] = OVERSIZE_BYTES
            _html(d, r)
        else:
            _text_pdf(d, r, 4, 0)
            d.row["start_page"], d.row["end_page"] = 7, 9  # out of range
        d.fail("failed_validation", None)
    elif archetype == "poison":
        d.row["mime_type"] = "image/png"
        d.span("image", media_ref=POISON_REF)
        if k % 2:
            d.span("image", media_ref=f"s3://corpus/{d.doc_id}/img-1.png")
        d.fail("failed", "fake")
    elif archetype == "storage_error":
        d.row["mime_type"] = "image/png"
        _images(d, 1)
        d.row["storage_error"] = "Failed to upload file to storage."
        d.fail("failed_storage", None)
    else:
        raise ValueError(f"unknown archetype {archetype!r}")


def archetype_plan(n_docs: int, mix: dict[str, int], seed: int) -> list[str]:
    """Exact archetype counts (``mix`` in per mille of ``n_docs``), shuffled
    by ``seed``; rounding slack goes to the largest archetype."""
    counts = {a: n_docs * share // 1000 for a, share in mix.items()}
    counts[max(mix, key=mix.get)] += n_docs - sum(counts.values())
    plan = [a for a, c in counts.items() for _ in range(c)]
    random.Random(seed).shuffle(plan)
    return plan


def make_corpus(n_docs: int, mix: dict[str, int], seed: int,
                n_files: int) -> tuple[pa.Table, pa.Table]:
    """-> (docs table in DOCS_SCHEMA, expected table in EXPECTED_SCHEMA).

    The corpus is ``n_files`` consecutive slices of ``n_docs // n_files``
    documents. Every slice holds the same archetype counts and document
    sizes in its own seeded order, so no file carries more work than
    another, whatever the seed."""
    per_file = n_docs // n_files
    docs, expected = [], []
    for f in range(n_files):
        plan = archetype_plan(per_file, mix, seed * 7919 + f)
        totals = {a: plan.count(a) for a in mix}
        seen = dict.fromkeys(mix, 0)
        for archetype in plan:
            i = len(docs)
            d = _Doc(i)
            _build(archetype, seen[archetype], totals[archetype], d,
                   random.Random(seed * 1_000_003 + i))
            seen[archetype] += 1
            docs.append(d.row)
            expected.append({
                "doc_id": d.doc_id, "collection_id": d.row["collection_id"],
                "archetype": archetype, "status": d.status, "provider": d.provider,
                "n_spans": d.n_spans, "n_chars": d.n_chars,
            })
    return (pa.Table.from_pylist(docs, schema=DOCS_SCHEMA),
            pa.Table.from_pylist(expected, schema=EXPECTED_SCHEMA))
