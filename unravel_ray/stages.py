"""Ray Data batch stages for the extraction pipeline.

Stage graph (pipeline.py composes these):

    docs ──map_batches──> explode_extract   (stateless: validate + page
         │                 resolution + per-doc explode to span work units,
         │                 html/text expansion inline; column-wise builder)
         ├─map_batches──> OCR               (actor pool when a provider
         │                 needs warm engine state, else worker-cached
         │                 tasks — see pipeline._ocr_stage)
         ├─map_batches──> finalize_block    (block-local merge + in-doc
         │                 sort(offset, sub); split docs become marker
         │                 rows, repaired from source in pipeline.py)
         └─> extracted (EXTRACTED_SCHEMA)

Skew note (SURVEY.md §4): a 400-page scanned PDF becomes 400 independent
work-unit rows; `map_batches` re-batches across block boundaries, so the
whale's pages spread across the whole OCR stage instead of straggling one
task — this is the explicit doc-size-skew defeat the north rule asks for.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .html_extract import extract_html_spans, split_plain_text
from .pages import PageSelectionError, resolve_pages
from .pdftext import join_direct, join_ocr, needs_ocr_mode
from .providers import ProviderRegistry
from .schema import (EXTRACTED_SCHEMA, PARTITION_TAG, SPLIT_MARKER_STATUS,
                     WORKUNIT_SCHEMA)
from .validate import ALLOWED_MIMES, SINGLE_FILE_MAX_BYTES


def _carry_tag(out: pa.Table, batch: pa.Table, take_idx) -> pa.Table:
    """Append ``batch``'s PARTITION_TAG column, taken at ``take_idx``, when
    the input has it; other callers get ``out`` (exactly its schema)."""
    if PARTITION_TAG not in batch.column_names:
        return out
    return out.append_column(PARTITION_TAG, pc.take(batch[PARTITION_TAG], take_idx))


class _ExplodeBuilder:
    """Column-wise work-unit builder. Unit-varying fields are Python lists;
    doc-constant fields are recorded ONCE per doc and expanded to unit rows
    with Arrow take/repeat at assembly — no per-unit Python churn for
    doc_id/collection_id/lang/status (the dict- and string-churn here was
    the memory-bandwidth hot spot at 32 workers)."""

    __slots__ = ("kind", "text", "media_ref", "offset", "sub", "page_no",
                 "needs_ocr", "pdf_mode",
                 "counts", "doc_status", "error_message", "size_bucket")

    def __init__(self) -> None:
        for f in self.__slots__:
            setattr(self, f, [])

    def unit(self, kind=None, text=None, media_ref=None, offset=0, sub=0,
             page_no=None, needs_ocr=False, pdf_mode=None) -> None:
        self.kind.append(kind)
        self.text.append(text)
        self.media_ref.append(media_ref)
        self.offset.append(offset)
        self.sub.append(sub)
        self.page_no.append(page_no)
        self.needs_ocr.append(needs_ocr)
        self.pdf_mode.append(pdf_mode)

    def runs(self, kinds, texts, off, seq0: int) -> int:
        """Bulk-append m text runs sharing one offset (html/text spans):
        eight list.extend calls instead of m unit() calls — the unit()
        call-per-run overhead was ~15% of explode profile time (r5).
        Returns the next sub sequence number."""
        m = len(kinds)
        self.kind.extend(kinds)
        self.text.extend(texts)
        self.media_ref.extend([None] * m)
        self.offset.extend([off] * m)
        self.sub.extend(range(seq0, seq0 + m))
        self.page_no.extend([None] * m)
        self.needs_ocr.extend([False] * m)
        self.pdf_mode.extend([None] * m)
        return seq0 + m

    def pdf_units(self, page_nos, texts, media_refs, off, seq0: int,
                  needs_ocr: bool, pdf_mode: str) -> int:
        """Bulk-append the selected pages of one PDF."""
        m = len(page_nos)
        self.kind.extend(["pdf_page"] * m)
        self.text.extend(texts)
        self.media_ref.extend(media_refs)
        self.offset.extend([off] * m)
        self.sub.extend(range(seq0, seq0 + m))
        self.page_no.extend(page_nos)
        self.needs_ocr.extend([needs_ocr] * m)
        self.pdf_mode.extend([pdf_mode] * m)
        return seq0 + m

    def end_doc(self, n_before: int, doc_status="ok", error_message=None,
                size_bucket=0) -> None:
        """Close the current doc: record per-doc metadata + unit count.
        A doc that emitted nothing gets one placeholder unit."""
        if len(self.kind) == n_before:
            self.unit()
        self.counts.append(len(self.kind) - n_before)
        self.doc_status.append(doc_status)
        self.error_message.append(error_message)
        self.size_bucket.append(size_bucket)

    def table(self, batch: pa.Table) -> pa.Table:
        counts = np.asarray(self.counts, dtype=np.int64)
        parent = pa.array(np.repeat(np.arange(len(counts)), counts))

        def doc_col(name, default=None):
            if name in batch.column_names:
                return pc.take(batch[name], parent)
            return pa.nulls(len(self.kind), pa.string())

        def per_doc(values, typ):
            return pc.take(pa.array(values, typ), parent)

        out = pa.Table.from_arrays(
            [
                doc_col("doc_id"),
                doc_col("collection_id"),
                pa.array(self.kind, pa.string()),
                pa.array(self.text, pa.string()),
                pa.array(self.media_ref, pa.string()),
                pa.array(self.offset, pa.int32()),
                pa.array(self.sub, pa.int32()),
                pa.array(self.page_no, pa.int32()),
                pa.array(self.needs_ocr, pa.bool_()),
                pa.array(self.pdf_mode, pa.string()),
                per_doc(self.doc_status, pa.string()),
                per_doc(self.error_message, pa.string()),
                doc_col("lang"),
                per_doc(self.size_bucket, pa.int32()),
                per_doc(counts, pa.int32()),
                doc_col("metadata"),
            ],
            schema=WORKUNIT_SCHEMA,
        )
        return _carry_tag(out, batch, parent)


def explode_extract(batch: pa.Table) -> pa.Table:
    """Validate + resolve pages + explode docs into span work units.

    One input doc row -> N work-unit rows (html fragments expanded to runs,
    pdf pages one row each, images one row each). Validation-failed docs
    emit a single placeholder row so the doc is never dropped
    (partial-success semantics, DocumentUploadImpl.java:111-120).

    Arrow-native data movement: the nested spans column is flattened ONCE
    (pc.list_flatten) into four parallel primitive arrays; per-doc slices
    index into them — no per-span dict materialization. Doc-constant
    output columns are derived by Arrow take on parent indices.
    """
    n = batch.num_rows
    cols = set(batch.column_names)

    def col(name, default=None):
        if name in cols:
            return batch[name].to_pylist()
        return [default] * n

    mimes = col("mime_type")
    sizes = col("file_size", 0)
    sps = col("start_page")
    eps = col("end_page")
    pgs = col("pages")
    prechecks = col("precheck_error")  # upstream gates (e.g. total-size cap)
    storage_errs = col("storage_error")  # upload failures, rows retained

    if "spans" in cols:
        spans_col = batch.column("spans")
        lengths = pc.fill_null(pc.list_value_length(spans_col), 0).to_pylist()
        flat = pc.list_flatten(spans_col)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        fk = flat.field("kind").to_pylist()
        ft = flat.field("text").to_pylist()
        fm = flat.field("media_ref").to_pylist()
        fo = flat.field("offset").to_pylist()
        # ONE stable lexsort for the whole batch replaces a Python
        # sorted() per doc: parent segments are contiguous, so
        # global_order[lo:hi] is doc i's span indices in (offset,
        # input-position) order — identical to sorted(range(lo,hi),
        # key=fo.__getitem__) (np.lexsort is a sequence of stable sorts)
        off_arr = flat.field("offset")
        parent_np = np.repeat(np.arange(n, dtype=np.int64),
                              np.asarray(lengths, dtype=np.int64))
        null_docs: set[int] = set()
        if off_arr.null_count:
            # A null offset is fatal ONLY for docs that pass validation
            # (the old per-doc sorted() raised on None the same way);
            # rejected docs never consult span order, so a malformed
            # rejected doc must not poison the rest of the batch — its
            # NaN sorts last within its own parent segment, harmlessly.
            null_mask = pc.is_null(off_arr).to_numpy(zero_copy_only=False)
            null_docs = set(parent_np[null_mask].tolist())
        fo_np = off_arr.to_numpy(zero_copy_only=False)
        global_order = np.lexsort((fo_np, parent_np)).tolist()
    else:
        lengths = [0] * n
        fk = ft = fm = fo = []
        global_order = []
        null_docs = set()

    out = _ExplodeBuilder()
    lo = 0
    for i in range(n):
        hi = lo + lengths[i]
        n_before = len(out.kind)
        if prechecks[i]:
            out.end_doc(n_before, doc_status="failed_validation",
                        error_message=prechecks[i])
        else:
            _explode_doc(out, n_before, mimes[i], sizes[i], sps[i], eps[i],
                         pgs[i], fk, ft, fm, fo, lo, hi, storage_errs[i],
                         global_order[lo:hi],
                         has_null_offset=(i in null_docs))
        lo = hi
    return out.table(batch)


def _explode_doc(out: _ExplodeBuilder, n_before: int, mime, size,
                 start_page, end_page, pages,
                 fk, ft, fm, fo, lo: int, hi: int,
                 storage_error=None, order=None,
                 has_null_offset: bool = False) -> None:
    """Explode one doc whose spans live at flat indices [lo, hi);
    ``order`` is the doc's slice of the batch-global (offset, position)
    lexsort (recomputed here only when called standalone)."""
    if mime not in ALLOWED_MIMES:
        out.end_doc(n_before, doc_status="failed_validation",
                    error_message=f"Invalid file type: {mime}")
        return
    if (size or 0) > SINGLE_FILE_MAX_BYTES:
        out.end_doc(n_before, doc_status="failed_validation",
                    error_message=(f"The file size must not exceed "
                                   f"{SINGLE_FILE_MAX_BYTES // (1024 * 1024)} MB."))
        return
    if storage_error:
        # upload failed; row retained with its error (partial-success
        # matrix, DocumentUploadImplTest storage-failure rows)
        out.end_doc(n_before, doc_status="failed_storage",
                    error_message=storage_error)
        return
    if has_null_offset:  # fail fast: span order is about to be consulted
        raise ValueError(
            "explode_extract: validated doc has spans with null offsets")

    if order is None:
        order = sorted(range(lo, hi), key=fo.__getitem__)
    pdf_pages = [j for j in order if fk[j] == "pdf_page"]

    selected: list[int] = []
    if pdf_pages:
        try:
            selected = resolve_pages(
                len(pdf_pages), start_page, end_page, list(pages or []) or None
            )
        except PageSelectionError as exc:
            out.end_doc(n_before, doc_status="failed_validation",
                        error_message=str(exc))
            return

    n_spans = hi - lo
    size_bucket = 0 if n_spans <= 16 else (1 if n_spans <= 64 else 2)
    seq = 0  # doc-global emission sequence: reassembly sorts (offset, sub),
             # and a per-span-restarting sub would interleave units of two
             # input spans sharing an offset; the global counter preserves
             # the oracle's stable input order exactly
    pdf_done = False
    unit = out.unit
    for j in order:
        kind, off = fk[j], fo[j]
        if kind == "html":
            spans = extract_html_spans(ft[j] or "")
            if spans:
                ks, ts = zip(*spans)
                seq = out.runs(ks, ts, off, seq)
        elif kind == "text":
            lines = [ln for ln in split_plain_text(ft[j]) if ln]
            if lines:
                seq = out.runs(["text"] * len(lines), lines, off, seq)
        elif kind == "image":
            unit(kind="image", media_ref=fm[j], offset=off, sub=seq,
                 needs_ocr=True)
            seq += 1
        elif kind == "pdf_page":
            if pdf_done:
                continue
            pdf_done = True
            sel_pages = [(i + 1, ft[pdf_pages[i]]) for i in selected]
            page_nos = [i + 1 for i in selected]
            if needs_ocr_mode(sel_pages):
                seq = out.pdf_units(page_nos, [None] * len(selected),
                                    [fm[pdf_pages[i]] for i in selected],
                                    off, seq, True, "ocr")
            else:
                seq = out.pdf_units(page_nos,
                                    [ft[pdf_pages[i]] for i in selected],
                                    [None] * len(selected),
                                    off, seq, False, "direct")
        elif ft[j] or fm[j]:
            unit(kind=kind, text=ft[j], media_ref=fm[j], offset=off, sub=seq)
            seq += 1
    out.end_doc(n_before, size_bucket=size_bucket)


def apply_ocr(batch: pa.Table, registry: ProviderRegistry) -> pa.Table:
    """Fill OCR'd text for rows with needs_ocr=True; failure-as-result.

    Vectorized scatter: only the needed rows' media_ref/lang leave Arrow
    (pc.take on indices); results go back via pc.replace_with_mask, so the
    text/error payload columns of the (majority) non-OCR rows are never
    round-tripped through Python. Appends ocr_provider, ocr_confidence_bp
    (basis points, OcrResult.java:34-41) and ocr_language columns.
    """
    needs = batch["needs_ocr"].to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(needs)
    if idx.size == 0:
        nulls_s = pa.nulls(batch.num_rows, pa.string())
        batch = batch.append_column("ocr_provider", nulls_s)
        batch = batch.append_column("ocr_confidence_bp", pa.nulls(batch.num_rows, pa.int32()))
        return batch.append_column("ocr_language", nulls_s)

    take_idx = pa.array(idx)
    media = pc.take(batch["media_ref"], take_idx).to_pylist()
    langs = pc.take(batch["lang"], take_idx).to_pylist()
    k = idx.size
    texts: list = [None] * k
    errs: list = [None] * k
    names: list = [None] * k
    confs: list = [None] * k
    out_langs: list = [None] * k
    # group by language: a batch mixes rows from many docs, and a real
    # engine loads language-specific models — one extract_batch per lang
    by_lang: dict = {}
    for p, lang in enumerate(langs):
        by_lang.setdefault(lang, []).append(p)
    for lang, rows in by_lang.items():
        outputs, pnames = registry.extract_batch([media[p] for p in rows], lang)
        for o, name, p in zip(outputs, pnames, rows):
            names[p] = name
            if o.success:
                texts[p] = o.text
                if o.confidence is not None:
                    confs[p] = int(round(o.confidence * 10000))
                out_langs[p] = o.language
            else:
                errs[p] = o.error_message

    mask = pa.array(needs)
    new_text = pc.replace_with_mask(
        batch["text"].combine_chunks(), mask, pa.array(texts, pa.string()))
    new_err = pc.replace_with_mask(
        batch["error_message"].combine_chunks(), mask, pa.array(errs, pa.string()))
    prov = pc.replace_with_mask(
        pa.nulls(batch.num_rows, pa.string()), mask, pa.array(names, pa.string()))
    conf = pc.replace_with_mask(
        pa.nulls(batch.num_rows, pa.int32()), mask, pa.array(confs, pa.int32()))
    olang = pc.replace_with_mask(
        pa.nulls(batch.num_rows, pa.string()), mask, pa.array(out_langs, pa.string()))
    batch = batch.set_column(batch.column_names.index("text"), "text", new_text)
    batch = batch.set_column(
        batch.column_names.index("error_message"), "error_message", new_err)
    batch = batch.append_column("ocr_provider", prov)
    batch = batch.append_column("ocr_confidence_bp", conf)
    return batch.append_column("ocr_language", olang)


_REGISTRY_CACHE: dict[tuple, ProviderRegistry] = {}


def ocr_task(batch: pa.Table, preferred: str, fallback_chain: tuple[str, ...],
             max_retries: int = 1) -> pa.Table:
    """Task-based OCR with per-WORKER-PROCESS cached registry.

    Ray reuses worker processes across tasks, so the registry (engine
    handles) is still built once per worker — same warm-state guarantee as
    the actor pool without pool spin-up/autoscale ramp, and the stage fuses
    with its task-based neighbors into one pass per block. Used when every
    provider in the chain declares requires_warm_state=False; providers
    holding heavyweight engines (Tesseract, Vision RPC channels) keep the
    dedicated actor pool (OcrStage).
    """
    key = (preferred, tuple(fallback_chain), max_retries)
    reg = _REGISTRY_CACHE.get(key)
    if reg is None:
        reg = _REGISTRY_CACHE[key] = ProviderRegistry(
            preferred, fallback_chain, max_retries=max_retries)
    return apply_ocr(batch, reg)


class OcrStage:
    """Actor-pool OCR stage (A1/A2, SURVEY.md §2.3).

    The provider registry (engine handles, fallback chain) is built ONCE in
    ``__init__`` — per actor, not per batch (the reference re-instantiates
    Tesseract per request, TesseractOcrProvider.java:210-228; fixed here).
    Rows with ``needs_ocr=False`` pass through untouched, so one stream
    serves both cheap and expensive rows without a branch-merge dance.
    Failures are per-row error columns, never exceptions (failure-as-result,
    TesseractOcrProvider.java:102-119).
    """

    def __init__(self, preferred: str = "fake", fallback_chain: tuple[str, ...] = ("fake",),
                 max_retries: int = 1):
        self.registry = ProviderRegistry(preferred, fallback_chain,
                                         max_retries=max_retries)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return apply_ocr(batch, self.registry)


_SPANS_TYPE = EXTRACTED_SCHEMA.field("spans").type


def finalize_block(batch: pa.Table) -> pa.Table:
    """Shuffle-free reassembly: merge + in-doc ordering + span assembly
    over one whole block of OCR'd work units (batch_size=None).

    Valid because explode_extract emits each doc's rows contiguously inside
    one output table, and Ray only splits a map output block mid-table when
    it exceeds target_max_block_size. Split detection is BLOCK-LOCAL: each
    work unit carries the doc's total unit count (n_units); a doc run
    whose row count falls short is an incomplete fragment and emits a slim
    SPLIT_MARKER_STATUS row (no payload) instead of a wrong partial doc.
    The repair/publish paths (pipeline.py) replace marker docs with an
    exact recompute from source — no groupby verification pass needed.

    Vectorized layout work: doc runs come from numpy boundary detection on
    dictionary codes; (offset, sub) order is verified vectorized (explode
    emits pre-sorted — the per-run Python sort only runs on violation);
    doc_id/collection_id never round-trip through Python (Arrow take on
    run starts); output spans build as flat arrays + offsets.
    """
    n = batch.num_rows
    if n == 0:
        return _carry_tag(EXTRACTED_SCHEMA.empty_table(), batch,
                          pa.array([], pa.int64()))
    cols = set(batch.column_names)

    codes = pc.dictionary_encode(
        batch["doc_id"].combine_chunks()).indices.to_numpy()
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(codes[1:], codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    run_ends = np.append(starts[1:], n)

    off = batch["offset"].to_numpy(zero_copy_only=False)
    sub = batch["sub"].to_numpy(zero_copy_only=False)
    # order violations within runs (never on the explode path — it emits
    # (offset, sub)-ascending): lexicographic descent not at a run start
    viol = ~change[1:] & ~(
        (off[1:] > off[:-1]) | ((off[1:] == off[:-1]) & (sub[1:] > sub[:-1]))
    )
    unsorted_runs: set[int] = set()
    if viol.any():
        for i in np.flatnonzero(viol):
            unsorted_runs.add(int(np.searchsorted(starts, i + 1, side="right")) - 1)

    kinds = batch["kind"].to_pylist()
    texts = batch["text"].to_pylist()
    medias = batch["media_ref"].to_pylist()
    page_no = batch["page_no"].to_pylist()
    pdf_mode = batch["pdf_mode"].to_pylist()
    if "n_units" in cols:
        nu = pc.fill_null(batch["n_units"], -1).to_numpy(zero_copy_only=False)
    else:
        nu = None

    # rare/sparse columns: numpy validity masks up front, strings fetched
    # lazily only when a run is flagged
    status_bad = pc.is_in(
        batch["doc_status"],
        value_set=pa.array(["failed_validation", "failed_storage"]),
    ).to_numpy(zero_copy_only=False)
    err_valid = pc.is_valid(batch["error_message"]).to_numpy(zero_copy_only=False)
    prov_valid = pc.is_valid(batch["ocr_provider"]).to_numpy(zero_copy_only=False)
    doc_status_l = batch["doc_status"].to_pylist() if status_bad.any() else None
    err_l = batch["error_message"].to_pylist() if err_valid.any() else None
    prov_l = batch["ocr_provider"].to_pylist() if prov_valid.any() else None
    if "ocr_confidence_bp" in cols:
        conf_valid = pc.is_valid(batch["ocr_confidence_bp"]).to_numpy(zero_copy_only=False)
        conf_fill = pc.fill_null(batch["ocr_confidence_bp"], 0).to_numpy(zero_copy_only=False)
        lang_l = (batch["ocr_language"].to_pylist()
                  if "ocr_language" in cols and conf_valid.any() else None)
    else:
        conf_valid = np.zeros(n, dtype=bool)
        conf_fill = None
        lang_l = None

    n_runs = len(starts)
    # per-run validity folds in three reduceat calls instead of ~3 tiny
    # .any()/.sum() slices per doc run (overhead-dominated at ~3 units/run)
    prov_any_r = np.add.reduceat(prov_valid, starts) > 0
    err_any_r = np.add.reduceat(err_valid, starts) > 0
    conf_cnt_r = np.add.reduceat(conf_valid, starts)
    conf_sum_r = (np.add.reduceat(conf_fill, starts)
                  if conf_fill is not None else None)
    # flat span output builders
    sk: list = []
    st: list = []
    sm: list = []
    span_offsets = np.empty(n_runs + 1, dtype=np.int32)
    span_offsets[0] = 0
    status_o: list = []
    error_o: list = []
    provider_o: list = []
    nchars_o = np.zeros(n_runs, dtype=np.int64)
    conf_o: list = []
    lang_o: list = []

    for r in range(n_runs):
        s, e = int(starts[r]), int(run_ends[r])
        rl = e - s
        if nu is not None and nu[s] >= 0 and rl < nu[s]:
            # incomplete fragment (doc split across blocks): emit a slim
            # marker row; repair recomputes this doc exactly from source
            status_o.append(SPLIT_MARKER_STATUS)
            error_o.append(None)
            provider_o.append(None)
            conf_o.append(None)
            lang_o.append(None)
            span_offsets[r + 1] = len(sk)
            continue
        if status_bad[s]:
            status_o.append(doc_status_l[s])
            error_o.append(err_l[s] if err_l else None)
            provider_o.append(None)
            conf_o.append(None)
            lang_o.append(None)
            span_offsets[r + 1] = len(sk)
            continue
        idx = (sorted(range(s, e), key=lambda i: (off[i], sub[i]))
               if r in unsorted_runs else range(s, e))
        used = None
        if prov_any_r[r]:
            used = next(prov_l[i] for i in idx if prov_valid[i])
        if err_any_r[r]:
            failure = next(i for i in idx if err_valid[i])
            status_o.append("failed")
            error_o.append(err_l[failure])
            provider_o.append(used)
            conf_o.append(None)
            lang_o.append(None)
            span_offsets[r + 1] = len(sk)
            continue
        n_chars = 0
        pdf_idx = None
        pdf_emitted = False
        for i in idx:
            k = kinds[i]
            if k is None:
                continue
            if k == "pdf_page":
                if pdf_emitted:
                    continue
                pdf_emitted = True
                if pdf_idx is None:
                    pdf_idx = [j for j in idx if kinds[j] == "pdf_page"]
                pages = [(page_no[j], texts[j]) for j in pdf_idx]
                joined = (join_ocr(pages) if pdf_mode[pdf_idx[0]] == "ocr"
                          else join_direct(pages))
                if joined:
                    sk.append("pdf_text")
                    st.append(joined)
                    sm.append(None)
                    n_chars += len(joined)
            elif k == "image":
                t = texts[i]
                sk.append("ocr_text")
                st.append(t)
                sm.append(medias[i])
                if t:
                    n_chars += len(t)
            else:
                t = texts[i]
                sk.append(k)
                st.append(t)
                sm.append(medias[i])
                if t:
                    n_chars += len(t)
        status_o.append("completed")
        error_o.append(None)
        provider_o.append(used or "direct")
        nchars_o[r] = n_chars
        span_offsets[r + 1] = len(sk)
        # doc-level OCR metadata: mean confidence over OCR'd units as exact
        # integer micros; language = first OCR'd unit in document order
        if conf_cnt_r[r]:
            conf_o.append(int(conf_sum_r[r]) * 100 // int(conf_cnt_r[r]))
            lang_o.append(next(lang_l[i] for i in idx if conf_valid[i]))
        else:
            conf_o.append(None)
            lang_o.append(None)

    span_type = _SPANS_TYPE.value_type
    spans_arr = pa.ListArray.from_arrays(
        pa.array(span_offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [pa.array(sk, pa.string()), pa.array(st, pa.string()),
             pa.array(sm, pa.string()),
             pa.array(_dense_offsets(span_offsets), pa.int32())],
            fields=list(span_type),
        ),
    )
    take_starts = pa.array(starts)
    n_spans = np.diff(span_offsets).astype(np.int32)
    meta_col = (pc.take(batch["metadata"], take_starts)
                if "metadata" in cols else pa.nulls(n_runs, pa.string()))
    out = pa.Table.from_arrays(
        [
            pc.take(batch["doc_id"], take_starts),
            pc.take(batch["collection_id"], take_starts),
            spans_arr,
            pa.array(status_o, pa.string()),
            pa.array(error_o, pa.string()),
            pa.array(provider_o, pa.string()),
            pa.array(n_spans, pa.int32()),
            pa.array(nchars_o, pa.int64()),
            pa.array(conf_o, pa.int32()),
            pa.array(lang_o, pa.string()),
            meta_col,
        ],
        schema=EXTRACTED_SCHEMA,
    )
    return _carry_tag(out, batch, take_starts)


def _dense_offsets(span_offsets: np.ndarray) -> np.ndarray:
    """Per-doc 0..k-1 span offset column from the flat list offsets."""
    n_flat = int(span_offsets[-1])
    out = np.arange(n_flat, dtype=np.int32)
    if len(span_offsets) > 1:
        out -= np.repeat(span_offsets[:-1].astype(np.int32),
                         np.diff(span_offsets))
    return out
