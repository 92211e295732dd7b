"""Text-analysis operators for training-data pipelines: language ID,
quality scoring, token counting, document fingerprinting.

No reference analog (the reference delegates text understanding to OCR
providers and an LLM); these are the large-scale-pipeline extensions.
All stages are batch transforms; the language profiles / regexes are
compiled once per actor (`__init__`), not per batch.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

# Tiny deterministic stopword profiles — enough for a frequency heuristic.
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for", "was", "with"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "zu", "mit", "von"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "du", "que", "pour"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "de", "que", "por", "para"},
}

# BPE-ish tokenizer: word pieces OR single non-space punctuation.
TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")


WORD_RE = r"[a-zäöüßéèêàçñáíóú]+"


class LangIdStage:
    """Stopword-frequency language heuristic, fully vectorized.

    Per-language hit counts are RE2 word-boundary occurrence counts of the
    profile words over lower(text) (pyarrow count_substring_regex — the
    same RE2 semantics DuckDB uses, so the oracle can recompute hits
    exactly). Winner = max hits with alphabetical tiebreak; 'und' when no
    profile word occurs. Patterns are compiled/held once per actor.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.patterns = {
            lang: [rf"\b{w}\b" for w in sorted(ws)]
            for lang, ws in STOPWORDS.items()
        }

    def _hits(self, low: pa.ChunkedArray | pa.Array) -> dict[str, np.ndarray]:
        out = {}
        for lang, pats in self.patterns.items():
            acc = None
            for p in pats:
                c = pc.count_substring_regex(low, p)
                acc = c if acc is None else pc.add(acc, c)
            out[lang] = pc.cast(acc, pa.int64()).to_numpy(zero_copy_only=False)
        return out

    def detect(self, text: str) -> tuple[str, float]:
        t = self(pa.table({self.text_col: pa.array([text], pa.string())}))
        return (t["lang_detected"][0].as_py(), t["lang_confidence"][0].as_py())

    def __call__(self, batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch[self.text_col], ""))
        n_words = pc.cast(
            pc.count_substring_regex(low, WORD_RE), pa.int64()
        ).to_numpy(zero_copy_only=False)
        hits = self._hits(low)
        langs = sorted(hits)  # alphabetical tiebreak: first argmax wins
        stack = np.stack([hits[lang] for lang in langs])
        best_idx = stack.argmax(axis=0)
        best_hits = stack.max(axis=0)
        lang_arr = np.array(langs, dtype=object)[best_idx]
        lang_arr[best_hits == 0] = "und"
        conf = np.round(best_hits / np.maximum(n_words, 1), 6)
        conf[n_words == 0] = 0.0
        return batch.append_column(
            "lang_detected", pa.array(lang_arr, pa.string())
        ).append_column("lang_confidence", pa.array(conf, pa.float64()))


MICRO = 1_000_000


class QualityStage:
    """Heuristic document-quality features + score, fully vectorized.

    Feature counts are RE2 occurrence counts (Arrow kernels — identical
    semantics in DuckDB, so every integer column is oracle-checkable):

    * n_words     = occurrences of \\S+
    * n_punct     = occurrences of [^\\sA-Za-z0-9]
    * n_stopwords = word-boundary occurrences of the EN stopword profile
                    over lower(text)

    quality_score_micros is EXACT integer arithmetic in micro-units
    (hash-stable across engines):
        a = min(n_words*M//50, M)                    # enough words
        b = M - min(4*n_punct*M//max(n_chars,1), M)  # moderate punctuation
        c = M//2 + n_stopwords*M//max(n_words,1)     # some stopwords
        score = min(a*b//M * c//M, M); 0 when n_words == 0
    Float convenience columns (ratios, quality_score) derive from the
    integers and are NOT part of the SQL-checked surface.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.stop_patterns = [rf"\b{w}\b" for w in sorted(STOPWORDS["en"])]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[self.text_col], "")
        low = pc.utf8_lower(text)
        n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy(zero_copy_only=False)
        n_words = pc.cast(
            pc.count_substring_regex(text, r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        n_punct = pc.cast(
            pc.count_substring_regex(text, r"[^\sA-Za-z0-9]"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        n_ws = pc.cast(
            pc.count_substring_regex(text, r"\s"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        acc = None
        for p in self.stop_patterns:
            c = pc.count_substring_regex(low, p)
            acc = c if acc is None else pc.add(acc, c)
        n_stop = pc.cast(acc, pa.int64()).to_numpy(zero_copy_only=False)

        nc1 = np.maximum(n_chars, 1)
        nw1 = np.maximum(n_words, 1)
        a = np.minimum(n_words * MICRO // 50, MICRO)
        b = MICRO - np.minimum(4 * n_punct * MICRO // nc1, MICRO)
        c = MICRO // 2 + n_stop * MICRO // nw1
        score_micros = np.minimum(a * b // MICRO * c // MICRO, MICRO)
        score_micros[n_words == 0] = 0  # an empty doc has no quality

        mean_wl = np.round((n_chars - n_ws) / nw1, 4)
        mean_wl[n_words == 0] = 0.0
        punct_ratio = np.round(n_punct / nc1, 6)
        stop_ratio = np.round(n_stop / nw1, 6)
        return (
            batch.append_column("n_words", pa.array(n_words, pa.int64()))
            .append_column("n_punct", pa.array(n_punct, pa.int64()))
            .append_column("n_stopwords", pa.array(n_stop, pa.int64()))
            .append_column("mean_word_len", pa.array(mean_wl, pa.float64()))
            .append_column("punct_ratio", pa.array(punct_ratio, pa.float64()))
            .append_column("stop_ratio", pa.array(stop_ratio, pa.float64()))
            .append_column("quality_score_micros", pa.array(score_micros, pa.int64()))
            .append_column("quality_score", pa.array(score_micros / MICRO, pa.float64()))
        )


def token_counts(ds: Dataset, text_col: str = "text") -> Dataset:
    """Whitespace words + BPE-ish regex tokens per doc (vectorized regex)."""

    def count(batch: pa.Table) -> pa.Table:
        words = pc.cast(pc.count_substring_regex(batch[text_col], pattern=r"\S+"), pa.int64())
        tokens = pc.cast(
            pc.count_substring_regex(batch[text_col], pattern=TOKEN_RE.pattern), pa.int64()
        )
        return batch.append_column("n_words", words).append_column("n_tokens", tokens)

    return ds.map_batches(count, batch_format="pyarrow")


def fingerprint64(text: str, window: int = 8) -> str:
    """Winnowing-style document fingerprint: min rolling hash over word
    windows, 16-hex-char rendering. Deterministic; robust to small edits
    outside the minimal window. Word and window hashes are polynomial
    folds mod P31 (exact int64 — see dedup.P31), so the DuckDB oracle
    reproduces the value verbatim."""
    from .dedup import P31, _POLY31, _split_words, _word_hash

    words = _split_words(text)
    if not words:
        return "0" * 16
    hashes = np.fromiter((_word_hash(w) for w in words),
                         dtype=np.int64, count=len(words))
    if len(hashes) <= window:
        combined = int(hashes.min())
    else:
        n = len(hashes) - window + 1
        acc = np.zeros(n, dtype=np.int64)
        for j in range(window):
            acc *= _POLY31
            acc += hashes[j:j + n]
            acc %= P31
        combined = int(acc.min())
    return f"{combined:016x}"


def fingerprint_batch(texts: pa.Array | pa.ChunkedArray,
                      window: int = 8) -> list[str]:
    """Winnowing fingerprints for a whole column at once — the vectorized
    twin of `fingerprint64` (pinned equal by tests). One `_flat_words`
    pass, word hashes once per DISTINCT word (dictionary encode + worker
    cache), ONE batch-wide window polynomial fold (``window`` shifted
    passes over the flat array), then per-doc minima via
    ``np.minimum.reduceat`` — per-doc Python is just the final hex
    format (VERDICT r4 item 5). Docs with <= window words take the min
    WORD hash (fingerprint64's convention); empty/null docs render
    ``'0'*16 == format(0, '016x')``."""
    from .dedup import P31, _POLY31, _word_hash

    n_rows = len(texts)
    out = np.zeros(n_rows, dtype=np.int64)
    enc = _flat_word_codes(texts)
    if enc is not None:
        codes, uniq, seg_starts, seg_docs = enc
        uh = np.fromiter((_word_hash(w) for w in uniq),
                         dtype=np.int64, count=len(uniq))
        wh = uh[codes]
        seg_lens = np.diff(np.r_[seg_starts, wh.size])
        combined = np.minimum.reduceat(wh, seg_starts)  # <= window docs
        big = seg_lens > window
        if big.any():
            m = wh.size - window + 1
            acc = np.zeros(m, dtype=np.int64)
            for j in range(window):
                acc *= _POLY31
                acc += wh[j:j + m]
                acc %= P31
            # windows crossing doc boundaries exist in acc but are never
            # reduced over: each doc's valid window starts are the
            # contiguous [s, s + len - window + 1) slice
            acc_ext = np.r_[acc, np.int64(np.iinfo(np.int64).max)]
            s = seg_starts[big]
            e = s + seg_lens[big] - window + 1
            idx = np.empty(2 * s.size, np.int64)
            idx[0::2] = s
            idx[1::2] = e
            combined[big] = np.minimum.reduceat(acc_ext, idx)[0::2]
        out[seg_docs] = combined
    return [f"{v:016x}" for v in out]


def fingerprints(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    def fp(batch: pa.Table) -> pa.Table:
        vals = pa.array(fingerprint_batch(batch[text_col]), pa.string())
        return pa.table({id_col: batch[id_col], "fingerprint": vals})

    return ds.map_batches(fp, batch_format="pyarrow")


def lang_distribution(ds: Dataset, text_col: str = "text", concurrency=2) -> Dataset:
    """Detected-language histogram over a corpus (actor-pool stage + tiny
    keyed count)."""
    from .relational import keyed_aggregate

    return keyed_aggregate(
        ds.map_batches(LangIdStage, fn_constructor_kwargs={"text_col": text_col},
                       batch_format="pyarrow", concurrency=concurrency),
        ["lang_detected"], [("n_docs", None, "count_all")])


# ---------------------------------------------------------------------------
# PII scrubbing — training-corpus hygiene operator
# ---------------------------------------------------------------------------

EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?\d{3}[-. ]\d{3}[-. ]\d{4}"


def scrub_pii(ds: Dataset, text_col: str = "text") -> Dataset:
    """Redact emails/phone-shaped substrings from a text column with RE2
    kernels (identical semantics in DuckDB's regexp_replace, so scrubbed
    output is oracle-checkable). Appends n_emails / n_phones counts and
    replaces matches with [EMAIL] / [PHONE] in place."""

    def scrub(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[text_col], "")
        n_email = pc.cast(pc.count_substring_regex(text, EMAIL_RE), pa.int64())
        n_phone = pc.cast(pc.count_substring_regex(text, PHONE_RE), pa.int64())
        out = pc.replace_substring_regex(text, pattern=EMAIL_RE,
                                         replacement="[EMAIL]")
        out = pc.replace_substring_regex(out, pattern=PHONE_RE,
                                         replacement="[PHONE]")
        idx = batch.column_names.index(text_col)
        return (batch.set_column(idx, text_col, out)
                .append_column("n_emails", n_email)
                .append_column("n_phones", n_phone))

    return ds.map_batches(scrub, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# sequence packing — LLM training-sample assembly operator
# ---------------------------------------------------------------------------

def pack_sequences(ds: Dataset, seq_len: int = 2048,
                   id_col: str = "doc_id", text_col: str = "text",
                   seg_size: int | None = None,
                   max_driver_segments: int = 1_000_000) -> Dataset:
    """Assign each doc to a fixed-token-budget training pack.

    Spec (deterministic, engine-independent): docs are laid out in
    ``id_col`` order; a doc whose running-start token offset is S goes to
    pack ``S // seq_len`` at offset ``S % seq_len`` (boundary-crossing
    docs belong to the pack they start in). Output columns:
    (id, n_tokens, pack_id, pack_offset).

    Scale shape — a GLOBAL running sum without a global sort: docs bucket
    into fixed ``seg_size`` id segments; a keyed sum yields per-segment
    token totals; the driver folds those into per-segment prefix offsets
    and broadcasts them; each segment group (bounded, co-located,
    skew-free by construction) then computes its local cumsum + prefix.
    Only (segment, n_tokens) ints ride the shuffles.

    ``seg_size=None`` (default) derives the segment width from the
    input's metadata row count so the driver never holds more than
    ~``max_driver_segments`` prefix ints (one int per segment) — at
    10^12 dense ids that is seg_size=10^6, a 1M-entry dict; beyond
    that, add one more folding level (same trick recursively).
    Derivation assumes roughly dense ids (segment = id // seg_size);
    pass an explicit ``seg_size`` for sparse id spaces.
    """
    import ray

    from .relational import _estimated_rows, keyed_aggregate, map_groups

    if seg_size is None:
        est = _estimated_rows(ds)
        seg_size = (1024 if est is None
                    else max(1024, -(-est // max_driver_segments)))

    def tokens(batch: pa.Table) -> pa.Table:
        n_tok = pc.cast(pc.count_substring_regex(
            pc.fill_null(batch[text_col], ""), r"\S+"), pa.int64())
        seg = pc.divide(batch[id_col], seg_size)
        return pa.table({id_col: batch[id_col], "n_tokens": n_tok,
                         "segment": pc.cast(seg, pa.int64())})

    with_tok = ds.map_batches(tokens, batch_format="pyarrow").materialize()

    seg_sums = keyed_aggregate(with_tok, ["segment"],
                               [("seg_tokens", "n_tokens", "sum")]).take_all()
    seg_sums.sort(key=lambda r: r["segment"])
    prefix: dict[int, int] = {}
    acc = 0
    for r in seg_sums:
        prefix[r["segment"]] = acc
        acc += r["seg_tokens"]
    prefix_ref = ray.put(prefix)

    def pack_segment(group: pa.Table) -> pa.Table:
        pre = ray.get(prefix_ref)
        g = group.sort_by([(id_col, "ascending")])
        n_tok = g["n_tokens"].to_numpy()
        starts = np.zeros(len(n_tok), dtype=np.int64)
        np.cumsum(n_tok[:-1], out=starts[1:])
        starts += pre[g["segment"][0].as_py()]
        return pa.table({
            id_col: g[id_col],
            "n_tokens": g["n_tokens"],
            "pack_id": pa.array(starts // seq_len),
            "pack_offset": pa.array(starts % seq_len),
        })

    return map_groups(with_tok, ["segment"], pack_segment)


# ---------------------------------------------------------------------------
# corpus vocabulary — global top-k word counts (combiner-first)
# ---------------------------------------------------------------------------

def vocab_top_words(ds: Dataset, k: int = 50,
                    text_col: str = "text") -> pa.Table:
    """Global top-k corpus vocabulary: (word, n_occurrences), ranked
    (count DESC, word ASC).

    Combiner-first end to end: a keyed count per word (words never
    leave a block un-aggregated), then per-batch partial top-k so the
    driver merge sees at most (#batches x k) rows — never the
    vocabulary, never the corpus.
    """
    from .relational import keyed_aggregate

    def split_words(batch: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(batch[text_col], "")), r"\s+"))
        return pa.table({"word": words.filter(pc.not_equal(words, ""))})

    summed = keyed_aggregate(
        ds.map_batches(split_words, batch_format="pyarrow", batch_size=None),
        ["word"], [("n_occurrences", None, "count_all")])

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=[
            ("n_occurrences", "descending"), ("word", "ascending")])
        return batch.take(idx[:k])

    merged = pa.Table.from_pylist(
        summed.map_batches(local_topk, batch_format="pyarrow").take_all(),
        schema=pa.schema([("word", pa.string()),
                          ("n_occurrences", pa.int64())]),
    )
    idx = pc.sort_indices(merged, sort_keys=[
        ("n_occurrences", "descending"), ("word", "ascending")])
    return merged.take(idx[:k])


SPLIT_THRESHOLDS = (204, 230)  # /256 of the hash byte: ~80/10/10


def assign_splits(ds: Dataset, id_col: str = "doc_id") -> Dataset:
    """Deterministic train/val/test assignment for corpus curation: the
    split byte is int(sha256('split:' + str(id))[:2], 16), so membership
    is a pure function of the row id — invariant under engine,
    parallelism, re-runs, and corpus growth (a new doc never moves an
    old one between splits; the property a 100 TB curation pipeline
    needs for stable held-out sets). Same sha256-gate technique as
    relational.sample_documents."""
    lo, hi = SPLIT_THRESHOLDS

    def add(batch: pa.Table) -> pa.Table:
        ids = [str(x) for x in batch[id_col].to_pylist()]
        b = np.fromiter(
            (int(hashlib.sha256(f"split:{i}".encode()).hexdigest()[:2], 16)
             for i in ids), np.int64, len(ids))
        split = np.where(b < lo, "train", np.where(b < hi, "val", "test"))
        return batch.append_column("split", pa.array(split.tolist(),
                                                     pa.string()))

    return ds.map_batches(add, batch_format="pyarrow")


def split_accounting(ds: Dataset, id_col: str = "doc_id") -> Dataset:
    """Per-(split, lang) doc count + char total — the stratification
    report for a train/val/test split. A keyed count and sum after the
    map-side assignment."""
    from .relational import keyed_aggregate

    return keyed_aggregate(
        assign_splits(ds, id_col=id_col), ["split", "lang"],
        [("n_docs", None, "count_all"), ("total_chars", "n_chars", "sum")])


def inverted_index(ds: Dataset, min_df: int = 1,
                   text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Distributed inverted-index build: (word, df, postings) rows where
    ``postings`` is the comma-joined ascending doc-id list — the
    search-sink payload a retrieval system bulk-loads.

    Scale shape: per-batch DISTINCT (word, doc) pairs (Arrow split /
    flatten / parent-indices kernels) -> relational.hash_exchange on the
    word (many words per reduce partition, never one Ray group per
    word) -> one run-length fold per reduce partition.
    The shuffle moves exactly the index's own payload (two slim columns)
    once.
    """
    from .relational import hash_exchange

    def pairs(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
        lists = pc.split_pattern_regex(low, "[^a-z]+")
        words = pc.list_flatten(lists)
        docs = batch[id_col].take(pc.list_parent_indices(lists))
        t = pa.table({"word": words, "doc": docs}).filter(
            pc.not_equal(words, ""))
        return (t.group_by(["word", "doc"]).aggregate([])
                .replace_schema_metadata(None))

    def fold(group: pa.Table) -> pa.Table:
        # cross-batch dupes survive the partial dedupe; final dedupe here
        d = group.group_by(["word", "doc"]).aggregate([])
        if d.num_rows == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "postings": pa.array([], pa.string())})
        d = d.take(pc.sort_indices(d, sort_keys=[
            ("word", "ascending"), ("doc", "ascending")]))
        words = d["word"].combine_chunks().to_numpy(zero_copy_only=False)
        docs = d["doc"].combine_chunks().to_numpy()
        starts = np.flatnonzero(np.r_[True, words[1:] != words[:-1]])
        ends = np.r_[starts[1:], len(words)]
        out_w, out_df, out_p = [], [], []
        for s, e in zip(starts, ends):  # one iteration per vocab word
            if e - s < min_df:
                continue
            out_w.append(words[s])
            out_df.append(e - s)
            out_p.append(",".join(map(str, docs[s:e])))
        return pa.table({"word": pa.array(out_w, pa.string()),
                         "df": pa.array(out_df, pa.int64()),
                         "postings": pa.array(out_p, pa.string())})

    return hash_exchange(ds.map_batches(pairs, batch_format="pyarrow"),
                         ["word"], fold)


# ---------------------------------------------------------------------------
# Gopher/C4-style repetition filters — training-corpus quality gates
# ---------------------------------------------------------------------------

def _flat_words(text: pa.ChunkedArray | pa.Array):
    """(lowered_text, flat_word_array, parent_row_indices) for one batch:
    non-empty whitespace tokens of lower(text), flattened with their row
    positions — the shared substrate for n-gram construction."""
    low = pc.utf8_lower(pc.fill_null(text, ""))
    lists = pc.split_pattern_regex(low, r"\s+")
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists)
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask)
    parent = parent.filter(mask)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if isinstance(parent, pa.ChunkedArray):
        parent = parent.combine_chunks()
    return low, flat, parent.to_numpy(zero_copy_only=False).astype(np.int64)


def _flat_word_codes(texts: pa.Array | pa.ChunkedArray):
    """Shared prologue of the batch signature kernels (simhash_batch,
    fingerprint_batch): one `_flat_words` pass, dictionary encode so each
    DISTINCT word is hashed once downstream, and the sorted parent-segment
    boundaries. Returns (codes, uniq_words, seg_starts, seg_docs), or
    None when the batch has no words. Factored so the tokenization /
    segmentation contract lives in exactly one place (r5 review)."""
    _, flat, parent = _flat_words(texts)
    if len(flat) == 0:
        return None
    denc = flat.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = denc.dictionary.to_pylist()
    seg_starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
    seg_docs = parent[seg_starts]
    return codes, uniq, seg_starts, seg_docs


def _ngrams(flat: pa.Array, parent: np.ndarray, n: int):
    """Space-joined n-grams of adjacent same-row words, fully vectorized:
    n shifted slices of the flat word array joined element-wise, rows
    where the window crosses a document boundary masked out. Returns
    (ngram_string_array, row_index_array)."""
    m = len(flat) - (n - 1)
    if m <= 0:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    shifted = [flat.slice(i, m) for i in range(n)]
    grams = pc.binary_join_element_wise(*shifted, " ")
    valid = parent[:m] == parent[n - 1:]
    return grams.filter(pa.array(valid)), parent[:m][valid]


def gopher_quality(ds: Dataset, text_col: str = "text",
                   dup_keep_below: int = 600_000,
                   top_keep_below: int = 100_000) -> Dataset:
    """Gopher-style repetition signals per document (Rae et al. 2021 §A1.1
    repetition filters, adapted to this corpus's single-line documents):

    * ``dup_word_frac_micros``  — (n_words - n_distinct_words) * M // n_words:
      the mass of repeated tokens (Gopher's duplicate-line fraction analog).
    * ``top_bigram_frac_micros`` — chars covered by the most frequent word
      2-gram (count x len(bigram)) * M // n_chars: Gopher's "fraction of
      characters in the most common 2-gram". Ties break to the
      lexicographically smallest bigram, so the winner is deterministic.
    * ``gopher_keep`` — 1 when both fractions sit under their thresholds
      (documents dominated by repetition are dropped from training data).

    All fractions are EXACT integer micro-ratios (hash-stable vs the
    DuckDB oracle). Per-batch and embarrassingly parallel: word/bigram
    tallies are Arrow group_by kernels inside the batch, nothing shuffles.
    """

    def features(batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        low, flat, parent = _flat_words(batch[text_col])
        n_chars = pc.cast(pc.utf8_length(low), pa.int64()).to_numpy(
            zero_copy_only=False)
        n_words = np.bincount(parent, minlength=nrows).astype(np.int64)

        distinct_pairs = pa.table({"d": parent, "w": flat}).group_by(
            ["d", "w"]).aggregate([])
        n_distinct = np.bincount(
            distinct_pairs["d"].combine_chunks().to_numpy(),
            minlength=nrows).astype(np.int64)

        grams, gdocs = _ngrams(flat, parent, 2)
        top_big = np.full(nrows, "", dtype=object)
        top_cnt = np.zeros(nrows, dtype=np.int64)
        if len(grams):
            bc = pa.table({"d": gdocs, "s": grams}).group_by(
                ["d", "s"]).aggregate([("s", "count")])
            idx = pc.sort_indices(bc, sort_keys=[
                ("d", "ascending"), ("s_count", "descending"),
                ("s", "ascending")])
            bc = bc.take(idx)
            dcol = bc["d"].combine_chunks().to_numpy()
            firsts = np.flatnonzero(np.r_[True, dcol[1:] != dcol[:-1]])
            rows = dcol[firsts]
            top_big[rows] = np.asarray(
                bc["s"].combine_chunks().to_numpy(zero_copy_only=False)
            )[firsts]
            top_cnt[rows] = bc["s_count"].combine_chunks().to_numpy()[firsts]

        nw1 = np.maximum(n_words, 1)
        nc1 = np.maximum(n_chars, 1)
        dup_micros = (n_words - n_distinct) * MICRO // nw1
        big_len = np.fromiter((len(b) for b in top_big), np.int64, nrows)
        top_micros = top_cnt * big_len * MICRO // nc1
        keep = ((dup_micros < dup_keep_below)
                & (top_micros < top_keep_below)).astype(np.int64)
        return (
            batch.append_column("n_words", pa.array(n_words, pa.int64()))
            .append_column("n_distinct_words", pa.array(n_distinct, pa.int64()))
            .append_column("dup_word_frac_micros", pa.array(dup_micros, pa.int64()))
            .append_column("top_bigram", pa.array(top_big.tolist(), pa.string()))
            .append_column("top_bigram_cnt", pa.array(top_cnt, pa.int64()))
            .append_column("top_bigram_frac_micros", pa.array(top_micros, pa.int64()))
            .append_column("gopher_keep", pa.array(keep, pa.int64()))
        )

    return ds.map_batches(features, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# benchmark decontamination — eval n-gram overlap against training docs
# ---------------------------------------------------------------------------

def decontaminate(ds: Dataset, eval_mod: int = 50, n: int = 3,
                  text_col: str = "text", id_col: str = "doc_id",
                  max_eval_shingles: int = 5_000_000) -> Dataset:
    """Benchmark decontamination: flag training documents sharing word
    n-grams with a held-out eval set (the pre-training hygiene step that
    keeps benchmark text out of the corpus — GPT-3 appendix C / PaLM §7
    style n-gram overlap).

    Eval membership here is the deterministic stand-in ``id % eval_mod
    == 0``; in production the eval side is the fixed benchmark suite. The
    scale shape relies on exactly that asymmetry: eval shingle sets are
    small and FIXED-SIZE (benchmarks are megabytes; they do not grow with
    the corpus), so the distinct eval shingles are collected once on the
    driver (guarded by ``max_eval_shingles`` — raises rather than
    silently OOMing), broadcast via ``ray.put`` as an Arrow value_set,
    and every training batch runs one vectorized ``pc.is_in`` hash-probe
    against it. The 100 TB training side streams; nothing about it ever
    materializes or shuffles.

    Output per training doc: distinct-shingle count, contaminated-shingle
    count, exact contamination micro-ratio, and a 0/1 flag.

    Contract note (ADVICE r3): unlike most ``queries()`` entries, the
    eval-shingle collection below executes EAGERLY at graph-construction
    time (a driver-side iter_batches over the bounded eval side); the
    returned training-side Dataset stays lazy. Deliberate: the eval set
    must be in hand before the broadcast ref can be embedded in the
    training-side transform.
    """
    import ray

    def _mod_mask(ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
        return ids.to_numpy(zero_copy_only=False) % eval_mod == 0

    def eval_shingles(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pa.array(_mod_mask(batch[id_col])))
        if sub.num_rows == 0:
            return pa.table({"s": pa.array([], pa.string())})
        _, flat, parent = _flat_words(sub[text_col])
        grams, _ = _ngrams(flat, parent, n)
        return pa.table({"s": pc.unique(grams)})

    seen: set[str] = set()
    for block in ds.map_batches(
            eval_shingles, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        seen.update(block["s"].to_pylist())
        if len(seen) > max_eval_shingles:
            raise ValueError(
                f"eval shingle set exceeded {max_eval_shingles}; the eval "
                "side of decontamination must be a bounded benchmark set")
    eval_ref = ray.put(pa.array(sorted(seen), pa.string()))

    def contaminate(batch: pa.Table) -> pa.Table:
        train = batch.filter(pa.array(~_mod_mask(batch[id_col])))
        nrows = train.num_rows
        n_sh = np.zeros(nrows, dtype=np.int64)
        n_cont = np.zeros(nrows, dtype=np.int64)
        if nrows:
            _, flat, parent = _flat_words(train[text_col])
            grams, gdocs = _ngrams(flat, parent, n)
            pairs = pa.table({"d": gdocs, "s": grams}).group_by(
                ["d", "s"]).aggregate([])
            d = pairs["d"].combine_chunks().to_numpy()
            n_sh += np.bincount(d, minlength=nrows).astype(np.int64)
            hit = pc.is_in(pairs["s"].combine_chunks(),
                           value_set=ray.get(eval_ref))
            hit_np = hit.to_numpy(zero_copy_only=False).astype(bool)
            n_cont += np.bincount(d[hit_np], minlength=nrows).astype(np.int64)
        cont_micros = n_cont * MICRO // np.maximum(n_sh, 1)
        return pa.table({
            id_col: train[id_col],
            "n_shingles": pa.array(n_sh, pa.int64()),
            "n_contaminated": pa.array(n_cont, pa.int64()),
            "contamination_micros": pa.array(cont_micros, pa.int64()),
            "contaminated": pa.array((n_cont > 0).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(contaminate, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# duplicate-passage detection — exact substring-window dedup across docs
# ---------------------------------------------------------------------------

def dup_passages(ds: Dataset, k: int = 5, text_col: str = "text",
                 id_col: str = "doc_id") -> Dataset:
    """Cross-document duplicate-passage detection: for every k-word window
    in every document, mark the window a DUPLICATE when the identical
    window text occurs anywhere else in the corpus EARLIER in the global
    (doc_id, position) order — the canonical first occurrence stays, all
    repeats are removable training-data mass (the exact-substring dedup
    of Lee et al. 2021, "Deduplicating Training Data Makes Language
    Models Better", at word-window granularity instead of suffix arrays).

    Ray shape (never all-pairs, never corpus-in-memory):
      1. per-batch `map_batches`: vectorized k-gram construction
         (shifted-slice join over the flat word array), COMBINED inside
         the batch to one slim row per (gram, doc): (min_pos, cnt).
         A document's windows all live in its own row, so the per-doc
         combine is complete here — payload text never shuffles, and a
         gram repeated 10^6 times inside one doc ships ONE row;
      2. `relational.hash_exchange` on the gram — many grams per reduce
         partition, not one Ray group per distinct gram (group count
         would equal corpus k-gram cardinality: billions at scale, a
         Python call + scheduling unit each — VERDICT r3 item 3).
         Equal-gram runs are recovered VECTORIZED inside each reduce
         partition (sort + run boundaries + reduceat, the same fold
         minhash_candidate_pairs and inverted_index use). Within a run,
         the min-doc row is canonical — it contributes cnt-1 duplicates,
         every other doc cnt. Per-run width is still bounded by DISTINCT
         DOCS containing the gram (not raw occurrences), the hot-phrase
         skew bound;
      3. per-doc window totals (computed batch-locally in pass 1) union
         the duplicate partials and fold in ONE `relational.keyed_aggregate`
         sum per doc (no per-doc UDF).

    At 100 TB the gram strings would be 64-bit-hashed before the shuffle
    (same universal-hash treatment as the MinHash family); kept verbatim
    here so the DuckDB oracle is value-exact.

    Output per doc: n_windows, n_dup_windows, dup_frac_micros (exact
    integer micro-ratio of removable windows).
    """

    from .relational import hash_exchange, keyed_aggregate

    def occurrences(batch: pa.Table) -> pa.Table:
        _, flat, parent = _flat_words(batch[text_col])
        grams, gdocs = _ngrams(flat, parent, k)
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "gram": grams,
            id_col: pa.array(ids[gdocs], pa.int64()),
        }).group_by(["gram", id_col]).aggregate(
            [([], "count_all")]
        ).rename_columns(["gram", id_col, "cnt"])

    def window_totals(batch: pa.Table) -> pa.Table:
        _, flat, parent = _flat_words(batch[text_col])
        n_win = np.maximum(
            np.bincount(parent, minlength=batch.num_rows) - (k - 1), 0
        ).astype(np.int64)
        return pa.table({
            id_col: batch[id_col].combine_chunks().cast(pa.int64()),
            "n_windows": pa.array(n_win, pa.int64()),
            "n_dup_windows": pa.array(np.zeros(batch.num_rows, np.int64)),
        })

    def dup_fold(group: pa.Table) -> pa.Table:
        # one reduce partition holding many grams: combine cross-batch
        # (gram, doc) partials, sort, recover equal-gram runs vectorized;
        # within a run every occurrence after the global (doc_id, min_pos)
        # minimum is a duplicate — the min-doc row contributes cnt-1, the
        # rest cnt each. No per-gram Python.
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "n_windows": pa.array([], pa.int64()),
            "n_dup_windows": pa.array([], pa.int64())})
        d = group.group_by(["gram", id_col]).aggregate([("cnt", "sum")])
        if d.num_rows == 0:
            return empty
        d = d.take(pc.sort_indices(d, sort_keys=[
            ("gram", "ascending"), (id_col, "ascending")]))
        grams = d["gram"].combine_chunks().to_numpy(zero_copy_only=False)
        docs = d[id_col].combine_chunks().to_numpy()
        cnt = d["cnt_sum"].combine_chunks().to_numpy().astype(np.int64)
        starts = np.flatnonzero(np.r_[True, grams[1:] != grams[:-1]])
        run_len = np.diff(np.r_[starts, grams.shape[0]])
        run_total = np.add.reduceat(cnt, starts)
        dups = cnt.copy()
        dups[starts] -= 1  # min-doc row holds the global first occurrence
        run_id = np.repeat(np.arange(starts.size), run_len)
        keep = (run_total[run_id] >= 2) & (dups > 0)
        m = int(keep.sum())
        if m == 0:
            return empty
        return pa.table({
            id_col: pa.array(docs[keep], pa.int64()),
            "n_windows": pa.array(np.zeros(m, np.int64)),
            "n_dup_windows": pa.array(dups[keep], pa.int64()),
        })

    occ = ds.map_batches(occurrences, batch_format="pyarrow")
    dup = hash_exchange(occ, ["gram"], dup_fold)
    tot = ds.map_batches(window_totals, batch_format="pyarrow")

    def ratio(t: pa.Table) -> pa.Table:
        nw = t["n_windows"].combine_chunks().to_numpy()
        nd = t["n_dup_windows"].combine_chunks().to_numpy()
        return pa.table({
            id_col: t[id_col],
            "n_windows": pa.array(nw, pa.int64()),
            "n_dup_windows": pa.array(nd, pa.int64()),
            "dup_frac_micros": pa.array(nd * MICRO // np.maximum(nw, 1),
                                        pa.int64()),
        })

    return keyed_aggregate(
        tot.union(dup), [id_col],
        [("n_windows", "n_windows", "sum"),
         ("n_dup_windows", "n_dup_windows", "sum")],
    ).map_batches(ratio, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# domain mixture — per-source token budgets -> sampling weights
# ---------------------------------------------------------------------------

def domain_mixture(ds: Dataset, source_col: str = "source",
                   text_col: str = "text") -> Dataset:
    """Per-domain token accounting and mixture weights for training-data
    sampling (the domain-reweighting step of multi-corpus pre-training:
    proportional weights oversample big crawls, sqrt-tempered weights
    upweight small high-quality domains — the temperature trick of
    multilingual/multi-corpus sampling).

    Combiner-first end to end: ONE ``relational.keyed_aggregate`` folds
    per-doc token counts (tokens = whitespace words of lower(text), the
    corpus-wide convention) to (source, n_docs, n_tokens); the final
    weight normalization runs in ONE task over the whole per-source
    table (``hash_exchange`` with no keys; bounded by the domain count —
    domains are inherently few; zero driver state).

    Weights are exact integers: ``w_prop_micros`` = n_tokens * M //
    total_tokens; ``w_sqrt_micros`` = floor(sqrt(n_tokens)) * M //
    sum(floor(sqrt(n_tokens))). IEEE-754 sqrt is correctly rounded, so
    floor(sqrt) matches DuckDB's CAST(floor(sqrt(..)) AS BIGINT) bit for
    bit at any count below 2^52.
    """

    from .relational import hash_exchange, keyed_aggregate

    def doc_tokens(batch: pa.Table) -> pa.Table:
        _, _, parent = _flat_words(batch[text_col])
        n_words = np.bincount(parent, minlength=batch.num_rows).astype(np.int64)
        return pa.table({
            "source": batch[source_col],
            "n_tokens": pa.array(n_words, pa.int64()),
        })

    def weights(group: pa.Table) -> pa.Table:
        nd = group["n_docs"].combine_chunks().to_numpy()
        nt = group["n_tokens"].combine_chunks().to_numpy()
        rt = np.floor(np.sqrt(nt.astype(np.float64))).astype(np.int64)
        return pa.table({
            "source": group["source"],
            "n_docs": pa.array(nd, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "w_prop_micros": pa.array(nt * MICRO // max(int(nt.sum()), 1),
                                      pa.int64()),
            "w_sqrt_micros": pa.array(rt * MICRO // max(int(rt.sum()), 1),
                                      pa.int64()),
        })

    agg = keyed_aggregate(
        ds.map_batches(doc_tokens, batch_format="pyarrow"), ["source"],
        [("n_docs", None, "count_all"), ("n_tokens", "n_tokens", "sum")])
    return hash_exchange(agg, [], weights)


# ---------------------------------------------------------------------------
# corpus curation — the composed training-data pipeline
# ---------------------------------------------------------------------------

def curate_corpus(ds: Dataset, text_col: str = "text",
                  id_col: str = "doc_id",
                  source_col: str = "source") -> Dataset:
    """End-to-end corpus curation in ONE lazy chain: Gopher repetition
    gate -> deterministic train/val/test assignment -> exact dedup
    (keep-first per text hash among the kept docs) -> per-(split, source)
    doc/token accounting. The composition a pre-training data pipeline
    runs nightly, expressed as streaming Ray Data stages:

      * gopher_quality: per-batch feature map, zero shuffle;
      * slim projection: payload text REDUCED to (id, source, n_words,
        md5) before anything shuffles — the full text never leaves the
        scoring stage;
      * assign_splits: pure map (sha256 gate, corpus-growth invariant);
      * text_hash keep-first: the only wide op, over slim rows;
      * final ``relational.keyed_aggregate`` count/sum.

    Output: (split, source, n_docs, n_tokens) — the corpus card numbers.
    """
    from .dedup import _md5

    feats = gopher_quality(ds, text_col=text_col)

    def slim(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["gopher_keep"], 1))
        th = pa.array(
            ["__null__" if t is None else _md5(t)
             for t in b[text_col].to_pylist()], pa.string())
        return pa.table({
            id_col: b[id_col],
            source_col: b[source_col],
            "n_words": b["n_words"],
            "text_hash": th,
        })

    slimmed = assign_splits(
        feats.map_batches(slim, batch_format="pyarrow"), id_col=id_col)

    # exact dedupe keeps the min-id row per text_hash. Combiner-first
    # (<=1 row per (hash, batch) shuffles), then ``hash_exchange`` on the
    # hash — never one Ray group per distinct hash — with the same
    # vectorized sorted run-head pick per reduce partition.
    from .relational import _partial_group_head, hash_exchange, keyed_aggregate

    def first(t: pa.Table) -> pa.Table:
        return _partial_group_head(t, group_col="text_hash",
                                   sort_keys=[(id_col, "ascending")], k=1)

    keepers = hash_exchange(slimmed.map_batches(first, batch_format="pyarrow"),
                            ["text_hash"], first)
    return keyed_aggregate(
        keepers, ["split", source_col],
        [("n_docs", None, "count_all"), ("n_tokens", "n_words", "sum")])


# ---------------------------------------------------------------------------
# budgeted domain sampling — apply the mixture weights to select docs
# ---------------------------------------------------------------------------

def sample_to_budget(ds: Dataset, total_tokens: int,
                     source_col: str = "source", text_col: str = "text",
                     id_col: str = "doc_id", seg_size: int | None = None,
                     max_driver_segments: int = 1_000_000) -> Dataset:
    """Apply sqrt-tempered domain-mixture weights as actual doc selection:
    each source gets ``total_tokens * w_sqrt_micros // 1M`` tokens, and
    docs are taken in deterministic corpus order (ascending id within
    source; production would pre-shuffle ids with a hash) until the
    budget fills — a doc is selected when the tokens BEFORE it are still
    under budget, so the boundary doc is included (same convention as
    pack_sequences pack assignment).

    Scale shape (the pack_sequences hierarchical fold, per source): docs
    bucket into fixed id segments; ONE keyed sum yields per
    (source, segment) token sums; the driver folds prefix offsets (one
    int per (source, segment) — bounded by ``max_driver_segments``, never
    row data) and broadcasts them with the per-source budgets; each
    (source, segment) group then selects locally with a vectorized
    cumsum. Output: (source, budget_tokens, n_selected, tokens_selected)
    — exact integers.
    """
    import ray

    from .relational import _estimated_rows, keyed_aggregate, map_groups

    if seg_size is None:
        est = _estimated_rows(ds)
        seg_size = (1024 if est is None
                    else max(1024, -(-est // max_driver_segments)))

    def tokens(batch: pa.Table) -> pa.Table:
        _, _, parent = _flat_words(batch[text_col])
        n_tok = np.bincount(parent, minlength=batch.num_rows).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            source_col: batch[source_col],
            "n_tokens": pa.array(n_tok, pa.int64()),
            "segment": pc.cast(pc.divide(batch[id_col], seg_size), pa.int64()),
        })

    with_tok = ds.map_batches(tokens, batch_format="pyarrow").materialize()

    seg_rows = keyed_aggregate(with_tok, [source_col, "segment"],
                               [("seg_tokens", "n_tokens", "sum")]).take_all()
    # per-source totals -> sqrt-tempered budgets (exact ints, same math
    # as domain_mixture), then per (source, segment) exclusive prefixes
    totals: dict[str, int] = {}
    for r in seg_rows:
        totals[r[source_col]] = totals.get(r[source_col], 0) + r["seg_tokens"]
    rt = {s: int(np.floor(np.sqrt(float(t)))) for s, t in totals.items()}
    rt_sum = max(sum(rt.values()), 1)
    budgets = {s: total_tokens * rt[s] // rt_sum for s in totals}
    seg_rows.sort(key=lambda r: (r[source_col], r["segment"]))
    prefix: dict[tuple, int] = {}
    acc = 0
    last_src = None
    for r in seg_rows:
        if r[source_col] != last_src:
            acc, last_src = 0, r[source_col]
        prefix[(r[source_col], r["segment"])] = acc
        acc += r["seg_tokens"]
    state_ref = ray.put((prefix, budgets))

    def select(group: pa.Table) -> pa.Table:
        pre, bud = ray.get(state_ref)
        g = group.sort_by([(id_col, "ascending")])
        src = g[source_col][0].as_py()
        nt = g["n_tokens"].to_numpy()
        before = np.zeros(len(nt), dtype=np.int64)
        np.cumsum(nt[:-1], out=before[1:])
        before += pre[(src, g["segment"][0].as_py())]
        sel = before < bud[src]
        return pa.table({
            source_col: pa.array([src], pa.string()),
            "budget_tokens": pa.array([bud[src]], pa.int64()),
            "n_selected": pa.array([int(sel.sum())], pa.int64()),
            "tokens_selected": pa.array([int(nt[sel].sum())], pa.int64()),
        })

    return keyed_aggregate(
        map_groups(with_tok, [source_col, "segment"], select),
        [source_col],
        [("budget_tokens", "budget_tokens", "max"),
         ("n_selected", "n_selected", "sum"),
         ("tokens_selected", "tokens_selected", "sum")])
