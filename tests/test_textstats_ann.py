"""Text analysis + similarity search behavior."""

import numpy as np
import pyarrow as pa

import ray.data

from unravel_ray.ann import LshIndexStage, brute_force_topk, lsh_topk
from unravel_ray.textstats import (
    LangIdStage,
    QualityStage,
    fingerprint64,
    token_counts,
)


def test_langid_detects_planted_languages():
    stage = LangIdStage()
    assert stage.detect("the cat and the dog went to the house of a friend")[0] == "en"
    assert stage.detect("der hund und die katze sind nicht in der stadt")[0] == "de"
    assert stage.detect("le chat est dans la maison et les oiseaux")[0] == "fr"
    assert stage.detect("el perro es un animal y la casa es grande")[0] == "es"
    assert stage.detect("")[0] == "und"


def test_quality_features():
    stage = QualityStage()
    batch = pa.table({"text": ["The quick brown fox, it jumps; over the lazy dog!",
                               "", "!!! ??? ;;; ..."]})
    out = stage(batch)
    assert out["n_words"].to_pylist() == [10, 0, 4]
    assert out["n_punct"].to_pylist()[0] == 3
    scores = out["quality_score"].to_pylist()
    assert scores[0] > scores[2]
    assert scores[1] == 0.0


def test_token_counts(ray_session):
    ds = ray.data.from_arrow(pa.table({"text": ["Hello, world! 42 tokens?"]}))
    row = token_counts(ds).take_all()[0]
    assert row["n_words"] == 4
    # Hello , world ! 42 tokens ?  -> 7 BPE-ish tokens
    assert row["n_tokens"] == 7


def test_fingerprint_stability_and_sensitivity():
    text = " ".join(f"word{i}" for i in range(50))
    assert fingerprint64(text) == fingerprint64(text)
    # an edit far from the minimal window usually keeps the fingerprint;
    # wholesale change must alter it
    assert fingerprint64(text) != fingerprint64("entirely other content here")
    assert fingerprint64("") == "0" * 16


def test_fingerprint_batch_matches_per_doc():
    """The vectorized fingerprint_batch kernel (r5) must equal the
    per-doc fingerprint64 reference on every row, across the len<=window
    (min word hash) vs len>window (window fold) boundary and on
    null/empty/whitespace/repeated-word rows."""
    from unravel_ray.textstats import fingerprint_batch

    texts = [
        "", None, "one",
        "a b c d e f g",                    # 7 words  (< window)
        "a b c d e f g h",                  # 8 words  (== window: min word)
        "a b c d e f g h i",                # 9 words  (> window: fold)
        " ".join(f"word{i}" for i in range(50)),
        "  spaced\t\tout\nwords  ",
        "dup dup dup dup dup dup dup dup dup dup",
        "UPPER case Mixed",
        # non-ASCII whitespace: RE2 \s does not split NBSP/VT — scalar
        # reference, kernel and oracle must all agree (r5 review finding)
        "hello\xa0world again and more words to cross the window size yes",
        "a\x0bb c d e f g h i j",
        # full-casefold codepoint: str.lower('İ') adds U+0307 but Arrow
        # utf8_lower == DuckDB lower == 'i'; scalar reference, kernel and
        # oracle must share the simple mapping (r5 review finding)
        "İ tane büyük İSTANBUL harfi over the window "
        "size boundary now",
    ]
    got = fingerprint_batch(pa.array(texts, pa.string()))
    assert got == [fingerprint64(t or "") for t in texts]
    assert fingerprint_batch(pa.array([], pa.string())) == []


def _embeddings(n=200, dim=16, seed=3):
    rng = np.random.RandomState(seed)
    mat = rng.normal(size=(n, dim))
    rows = [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(n)]
    return ray.data.from_arrow(pa.Table.from_pylist(rows)), mat


def test_brute_force_topk_matches_numpy(ray_session):
    ds, mat = _embeddings()
    q = mat[:2]
    out = brute_force_topk(ds, q, k=5)
    matn = mat / np.linalg.norm(mat, axis=1)[:, None]
    qn = q / np.linalg.norm(q, axis=1)[:, None]
    sims = matn @ qn.T
    for qi in range(2):
        want = list(np.argsort(-sims[:, qi])[:5])
        got = [r["vec_id"] for r in out.to_pylist() if r["query_idx"] == qi]
        assert got == want
        ranks = [r["rank"] for r in out.to_pylist() if r["query_idx"] == qi]
        assert ranks == [0, 1, 2, 3, 4]


def test_lsh_topk_self_recall(ray_session):
    ds, mat = _embeddings()
    q = mat[:3]
    out = lsh_topk(ds, q, k=1, n_bits=8)
    # each query's own vector shares its bucket -> rank-0 hit is itself
    top = {r["query_idx"]: r["vec_id"] for r in out.to_pylist() if r["rank"] == 0}
    assert top == {0: 0, 1: 1, 2: 2}


def test_ivf_topk_self_recall_and_quality(ray_session):
    """ivf_topk_quantized finds each query at rank 0 with k rows per
    query; probing every cell makes it exactly the brute-force top-k."""
    from unravel_ray.ann import ivf_topk_quantized

    ds, mat = _embeddings(300)
    q = mat[:3]
    rows = ivf_topk_quantized(ds, q, k=5, n_centroids=8, n_probe=3).to_pylist()
    top = {r["query_idx"]: r["vec_id"] for r in rows if r["rank"] == 0}
    assert top == {0: 0, 1: 1, 2: 2}  # each query finds itself
    assert all(len([r for r in rows if r["query_idx"] == qi]) == 5 for qi in range(3))

    full = ivf_topk_quantized(ds, q, k=5, n_centroids=8, n_probe=8)
    exact = brute_force_topk(ds, q, k=5).select(["query_idx", "rank", "vec_id"])
    assert full.to_pylist() == exact.to_pylist()


def test_ivf_topk_quantized_self_recall_and_determinism(ray_session):
    """The quantized (integer-exact, SQL-reproducible) IVF fit keeps the
    recall contract: each query finds itself at rank 0, k rows per query,
    and two runs return identical rows (no RNG anywhere)."""
    from unravel_ray.ann import ivf_topk_quantized

    ds, mat = _embeddings(300)
    q = mat[:2]
    out = ivf_topk_quantized(ds, q, k=5, n_centroids=8, n_iters=4, n_probe=2)
    rows = out.to_pylist()
    top = {r["query_idx"]: r["vec_id"] for r in rows if r["rank"] == 0}
    assert top == {0: 0, 1: 1}
    assert all(len([r for r in rows if r["query_idx"] == qi]) == 5 for qi in range(2))
    again = ivf_topk_quantized(ds, q, k=5, n_centroids=8, n_iters=4, n_probe=2)
    assert again.to_pylist() == rows


def test_quantized_kmeans_partition_invariant(ray_session):
    """The distributed integer k-means must return IDENTICAL centroids
    regardless of block layout (int sums are associative; floor-division
    happens once on the combined sums) — the property that makes the fit
    reproducible on any cluster size."""
    from unravel_ray.ann import kmeans_fit_quantized

    ds, _ = _embeddings(200)
    c_a = kmeans_fit_quantized(ds.repartition(3), n_centroids=8, n_iters=4)
    c_b = kmeans_fit_quantized(ds.repartition(13), n_centroids=8, n_iters=4)
    assert (c_a == c_b).all()


def test_persisted_quantized_ivf_index_matches_streamed(ray_session, tmp_path):
    """Quantized persisted index returns exactly the streamed
    ivf_topk_quantized rows (same fit, partition-pruned read)."""
    from unravel_ray.ann import (
        build_ivf_index_quantized,
        ivf_query_index_quantized,
        ivf_topk_quantized,
    )

    ds, mat = _embeddings(250)
    q = mat[:2]
    idx_dir = str(tmp_path / "qivf")
    meta = build_ivf_index_quantized(ds, idx_dir, n_centroids=8, n_iters=4)
    assert meta["quantized"] is True
    via_index = ivf_query_index_quantized(idx_dir, q, k=5, n_probe=2).to_pylist()
    streamed = ivf_topk_quantized(ds, q, k=5, n_centroids=8,
                                  n_iters=4, n_probe=2).to_pylist()
    assert via_index == streamed


def test_persisted_ivf_index_roundtrip(ray_session, tmp_path):
    """build_ivf_index_quantized commits a partition-pruned layout;
    querying it touches only probed cell dirs and keeps the recall
    contract (self-query returns itself at rank 0)."""
    import json
    import os

    import numpy as np
    import pyarrow.dataset as pads

    from unravel_ray.ann import build_ivf_index_quantized, ivf_query_index_quantized

    rng = np.random.RandomState(11)
    rows = [{"vec_id": i, "embedding": rng.normal(size=12).tolist()}
            for i in range(300)]
    ds = ray.data.from_items(rows)
    idx_dir = str(tmp_path / "ivf")
    meta = build_ivf_index_quantized(ds, idx_dir, n_centroids=8, n_iters=4)
    assert meta["quantized"] is True
    assert os.path.exists(os.path.join(idx_dir, "INDEX.json"))
    cell_dirs = [d for d in os.listdir(os.path.join(idx_dir, "cells"))
                 if d.startswith("ivf_cell=")]
    assert len(cell_dirs) >= 2  # data actually spread across partitions
    # every row landed in exactly one cell
    ids = [i for d in cell_dirs for i in pads.dataset(
        os.path.join(idx_dir, "cells", d)).to_table(columns=["vec_id"])
        ["vec_id"].to_pylist()]
    assert sorted(ids) == list(range(300))
    with open(os.path.join(idx_dir, "INDEX.json")) as f:
        assert json.load(f)["n_centroids"] == 8

    queries = np.stack([np.asarray(rows[i]["embedding"]) for i in (3, 42)])
    out = ivf_query_index_quantized(idx_dir, queries, k=5, n_probe=3).to_pylist()
    by_q = {}
    for r in out:
        by_q.setdefault(r["query_idx"], []).append(r)
    # self-query: the vector itself is in its own nearest cell -> rank 0
    assert by_q[0][0]["vec_id"] == 3 and by_q[0][0]["rank"] == 0
    assert by_q[1][0]["vec_id"] == 42


def test_pack_sequences_layout(ray_session):
    """Docs lay out in id order; pack = start_offset // seq_len; boundary-
    crossing docs belong to the pack they start in; empty/null text = 0
    tokens."""
    import pyarrow as pa
    import ray.data

    from unravel_ray.textstats import pack_sequences

    rows = [{"doc_id": 0, "text": "a b c"},        # start 0
            {"doc_id": 1, "text": None},           # 0 tokens, start 3
            {"doc_id": 2, "text": "d e f g"},      # start 3, crosses 5
            {"doc_id": 3, "text": "h"}]            # start 7 -> pack 1
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = {r["doc_id"]: (r["pack_id"], r["pack_offset"], r["n_tokens"])
           for r in pack_sequences(ds, seq_len=5, seg_size=2).take_all()}
    assert out == {0: (0, 0, 3), 1: (0, 3, 0), 2: (0, 3, 4), 3: (1, 2, 1)}

    # layout is invariant to segment width — the adaptive default
    # (seg_size derived from the metadata row count) must agree
    auto = {r["doc_id"]: (r["pack_id"], r["pack_offset"], r["n_tokens"])
            for r in pack_sequences(ds, seq_len=5).take_all()}
    assert auto == out


def test_vocab_top_words_rank_and_ties(ray_session):
    import pyarrow as pa
    import ray.data

    from unravel_ray.textstats import vocab_top_words

    rows = [{"text": "b b a a c"}, {"text": "B A\tz"}, {"text": None}]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(2)
    t = vocab_top_words(ds, k=3)
    assert t.to_pylist() == [
        {"word": "a", "n_occurrences": 3},   # ties broken word ASC
        {"word": "b", "n_occurrences": 3},
        {"word": "c", "n_occurrences": 1},
    ]


# ---------------------------------------------------------------------------
# Gopher repetition filters + benchmark decontamination
# ---------------------------------------------------------------------------

def test_gopher_quality_edge_cases(ray_session):
    from unravel_ray.textstats import gopher_quality

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": [
            "a a a a a a",          # one repeated word: max dup + max bigram
            "",                      # empty
            "one",                   # single word: no bigram
            "x y x y z",             # 'x y' twice (5 chars x 2 of 9 chars)
        ],
    }))
    out = {r["doc_id"]: r for r in gopher_quality(ds).take_all()}
    assert out[0]["n_words"] == 6 and out[0]["n_distinct_words"] == 1
    assert out[0]["dup_word_frac_micros"] == 5 * 1_000_000 // 6
    assert out[0]["top_bigram"] == "a a" and out[0]["top_bigram_cnt"] == 5
    assert out[0]["gopher_keep"] == 0
    assert out[1]["n_words"] == 0 and out[1]["top_bigram"] == ""
    assert out[1]["dup_word_frac_micros"] == 0 and out[1]["gopher_keep"] == 1
    assert out[2]["top_bigram_cnt"] == 0
    assert out[3]["top_bigram"] == "x y"
    assert out[3]["top_bigram_frac_micros"] == 2 * 3 * 1_000_000 // 9


def test_gopher_bigram_tiebreak_lexicographic(ray_session):
    from unravel_ray.textstats import gopher_quality

    # 'b c' and 'a b' both occur once; lexicographically smaller wins
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()), "text": ["a b c"]}))
    row = gopher_quality(ds).take_all()[0]
    assert row["top_bigram"] == "a b"


def test_decontaminate_flags_planted_overlap(ray_session):
    from unravel_ray.textstats import decontaminate

    # doc 0 is EVAL (0 % 5 == 0); doc 6 copies its trigram; doc 7 doesn't
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 6, 7, 8], pa.int64()),
        "text": [
            "alpha beta gamma delta",
            "zz alpha beta gamma yy",   # shares 'alpha beta gamma'
            "zz qq rr ss",
            "a b",                       # fewer than n words: 0 shingles
        ],
    }))
    out = {r["doc_id"]: r for r in
           decontaminate(ds, eval_mod=5, n=3).take_all()}
    assert set(out) == {6, 7, 8}  # eval doc excluded from the output
    assert out[6]["n_contaminated"] == 1 and out[6]["contaminated"] == 1
    assert out[6]["n_shingles"] == 3
    assert out[6]["contamination_micros"] == 1_000_000 // 3
    assert out[7]["n_contaminated"] == 0 and out[7]["contaminated"] == 0
    assert out[8]["n_shingles"] == 0 and out[8]["contamination_micros"] == 0


def test_decontaminate_eval_guard(ray_session):
    import pytest

    from unravel_ray.textstats import decontaminate

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 5], pa.int64()),
        "text": ["one two three four five six", "seven eight nine ten"],
    }))
    with pytest.raises(ValueError, match="eval shingle set"):
        decontaminate(ds, eval_mod=5, n=3, max_eval_shingles=2)


# ---------------------------------------------------------------------------
# duplicate-passage detection + domain mixture
# ---------------------------------------------------------------------------

def test_dup_passages_marks_repeats_after_global_first(ray_session):
    from unravel_ray.textstats import dup_passages

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": [
            "a b c d e f g",            # canonical 'a b c d e' at (0,0)
            "x a b c d e y",            # one copied window
            "a b c d e a b c d e",      # copy at pos0 AND self-repeat at pos5
            "short one",                # <k words: zero windows
        ],
    }))
    out = {r["doc_id"]: r for r in dup_passages(ds, k=5).take_all()}
    assert out[0] == {"doc_id": 0, "n_windows": 3, "n_dup_windows": 0,
                      "dup_frac_micros": 0}
    assert out[1]["n_dup_windows"] == 1
    assert out[1]["dup_frac_micros"] == 1_000_000 // 3
    assert out[2]["n_windows"] == 6 and out[2]["n_dup_windows"] == 2
    assert out[3] == {"doc_id": 3, "n_windows": 0, "n_dup_windows": 0,
                      "dup_frac_micros": 0}


def test_dup_passages_within_doc_repeat_counts(ray_session):
    from unravel_ray.textstats import dup_passages

    # one doc repeating its own 3-gram: 'p q r' at pos 0 and pos 3
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": ["p q r p q r"],
    }))
    row = dup_passages(ds, k=3).take_all()[0]
    assert row["n_windows"] == 4 and row["n_dup_windows"] == 1


def test_domain_mixture_weights_exact(ray_session):
    from unravel_ray.textstats import domain_mixture

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "source": ["s0", "s1", "s0"],
        "text": ["w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16",
                 "t1 t2 t3 t4 t5 t6 t7 t8 t9",
                 "u1"],
    }))
    out = {r["source"]: r for r in domain_mixture(ds).take_all()}
    # s0: 17 tokens, s1: 9; floor sqrt = 4 and 3
    assert out["s0"]["n_docs"] == 2 and out["s0"]["n_tokens"] == 17
    assert out["s0"]["w_prop_micros"] == 17 * 1_000_000 // 26
    assert out["s1"]["w_prop_micros"] == 9 * 1_000_000 // 26
    assert out["s0"]["w_sqrt_micros"] == 4 * 1_000_000 // 7
    assert out["s1"]["w_sqrt_micros"] == 3 * 1_000_000 // 7
    assert out["s0"]["w_prop_micros"] + out["s1"]["w_prop_micros"] <= 1_000_000


def test_curate_corpus_gate_dedup_split_composition(ray_session):
    from unravel_ray.textstats import curate_corpus

    # doc 0/1: identical text (dedup keeps 0); doc 2: repetition-heavy
    # (gopher drops); doc 3: unique keeper. Texts are ~26 distinct words
    # so the 10% top-bigram character gate passes for clean docs (the
    # gate is calibrated for document-scale text, not 4-word snippets).
    clean_a = " ".join(f"w{i}" for i in range(26))
    clean_b = " ".join(f"v{i}" for i in range(26))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "source": ["s0", "s1", "s0", "s1"],
        "text": [clean_a, clean_a,
                 "spam spam spam spam spam spam", clean_b],
    }))
    rows = curate_corpus(ds).take_all()
    total_docs = sum(r["n_docs"] for r in rows)
    total_tokens = sum(r["n_tokens"] for r in rows)
    assert total_docs == 2            # doc 0 (keeper) + doc 3
    assert total_tokens == 52         # 26 + 26 words
    assert all(r["split"] in {"train", "val", "test"} for r in rows)
    srcs = {r["source"] for r in rows}
    assert srcs == {"s0", "s1"}       # keeper 0 from s0, keeper 3 from s1


def test_sample_to_budget_boundary_and_partition_invariance(ray_session):
    from unravel_ray.textstats import sample_to_budget

    # source s0: docs of 10, 10, 10 tokens; s1: 5, 5 tokens
    texts = {
        0: " ".join(["a"] * 10), 2: " ".join(["b"] * 10),
        4: " ".join(["c"] * 10),
        1: " ".join(["d"] * 5), 3: " ".join(["e"] * 5),
    }
    t = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": [texts[k] for k in sorted(texts)],
        "source": ["s0" if k % 2 == 0 else "s1" for k in sorted(texts)],
    })
    # totals: s0=30 (sqrt 5), s1=10 (sqrt 3); budget 16 -> s0: 16*5//8=10,
    # s1: 16*3//8=6. s0 selects docs 0 (before 0<10) and 2 (before 10,
    # NOT <10 -> excluded)... before(doc2)=10 == budget -> excluded;
    # s1: doc1 (before 0<6) and doc3 (before 5<6 -> included, boundary doc)
    for nparts in (1, 5):
        ds = ray.data.from_arrow(t).repartition(nparts)
        out = {r["source"]: r for r in
               sample_to_budget(ds, total_tokens=16, seg_size=2).take_all()}
        assert out["s0"]["budget_tokens"] == 10
        assert out["s0"]["n_selected"] == 1
        assert out["s0"]["tokens_selected"] == 10
        assert out["s1"]["budget_tokens"] == 6
        assert out["s1"]["n_selected"] == 2
        assert out["s1"]["tokens_selected"] == 10  # boundary doc included


def test_dup_passages_partition_invariant(ray_session):
    """Duplicate-window counts are a pure function of the corpus — block
    layout must not change them (the property that makes the slim
    (gram, doc) shuffle correct at any parallelism)."""
    from unravel_ray.textstats import dup_passages

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=20)) for _ in range(40)]
    t = pa.table({"doc_id": pa.array(range(40), pa.int64()), "text": texts})
    outs = []
    for nparts in (1, 7):
        ds = ray.data.from_arrow(t).repartition(nparts)
        rows = sorted(dup_passages(ds, k=3).take_all(),
                      key=lambda r: r["doc_id"])
        outs.append(rows)
    assert outs[0] == outs[1]


def test_curate_corpus_partition_invariant(ray_session):
    from unravel_ray.textstats import curate_corpus

    rng = np.random.default_rng(5)
    words = [f"tok{i}" for i in range(60)]
    texts = [" ".join(rng.choice(words, size=26)) for _ in range(30)]
    texts[7] = texts[3]   # plant an exact dup
    t = pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "source": [f"s{i % 3}" for i in range(30)],
        "text": texts,
    })
    outs = []
    for nparts in (1, 6):
        ds = ray.data.from_arrow(t).repartition(nparts)
        rows = sorted(curate_corpus(ds).take_all(),
                      key=lambda r: (r["split"], r["source"]))
        outs.append(rows)
    assert outs[0] == outs[1]


def test_dup_passages_fuzz_vs_bruteforce(ray_session):
    """Randomized corpora vs an O(all-windows) pure-Python model: dup
    counts equal 'occurrences after the global (doc_id, pos) first' for
    every doc, at any k."""
    import numpy as np

    from unravel_ray.textstats import dup_passages

    rng = np.random.default_rng(99)
    for trial in range(8):
        k = int(rng.integers(2, 5))
        n_docs = int(rng.integers(1, 25))
        vocab = [f"w{i}" for i in range(int(rng.integers(2, 12)))]
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 18))))
                 for _ in range(n_docs)]
        # brute force
        seen: dict[tuple, tuple] = {}
        occs = []
        for d, t in enumerate(texts):
            ws = t.split()
            for p in range(max(len(ws) - k + 1, 0)):
                occs.append((tuple(ws[p:p + k]), d, p))
        nw = [max(len(t.split()) - k + 1, 0) for t in texts]
        nd = [0] * n_docs
        for gram, d, p in sorted(occs, key=lambda o: (o[1], o[2])):
            if gram in seen:
                nd[d] += 1
            else:
                seen[gram] = (d, p)
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": texts,
        })).repartition(int(rng.integers(1, 5)))
        got = {r["doc_id"]: r for r in dup_passages(ds, k=k).take_all()}
        for d in range(n_docs):
            assert got[d]["n_windows"] == nw[d], (trial, d)
            assert got[d]["n_dup_windows"] == nd[d], (trial, d, k, texts)
