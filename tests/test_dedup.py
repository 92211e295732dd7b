"""Dedup family behavior: planted near-duplicates must be found; unrelated
docs must not pair."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from unravel_ray.dedup import (
    embedding_neardup,
    exact_dedup,
    jaccard_verified_pairs,
    minhash_candidate_pairs,
    minhash_dedup,
    minhash_signature,
    ngram_jaccard,
    simhash62,
    simhash_buckets,
)

BASE = ("the quick brown fox jumps over the lazy dog while the band plays "
        "a slow tune in the old town hall near the river bank every evening")
NEAR = BASE.replace("slow tune", "fast tune")  # tiny edit -> near-dup
OTHER = ("completely different content about distributed query engines and "
         "columnar formats with vectorized execution kernels and shuffles "
         "spilling to disk under memory pressure in large clusters")


def _docs():
    rows = [
        {"doc_id": 1, "text": BASE},
        {"doc_id": 2, "text": NEAR},
        {"doc_id": 3, "text": OTHER},
        {"doc_id": 4, "text": BASE},  # exact dup of 1
    ]
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def test_exact_dedup_keeps_min_id(ray_session):
    out = {r["text_hash"]: r["doc_id"] for r in exact_dedup(_docs()).take_all()}
    assert len(out) == 3  # BASE, NEAR, OTHER
    assert 1 in out.values() and 4 not in out.values()


def test_minhash_estimates_track_true_jaccard():
    a, b = minhash_signature(BASE), minhash_signature(NEAR)
    est = float(np.mean(a == b))
    true = ngram_jaccard(BASE, NEAR)
    assert abs(est - true) < 0.25
    c = minhash_signature(OTHER)
    assert float(np.mean(a == c)) < 0.2


def test_minhash_pairs_and_clusters(ray_session):
    pairs = minhash_candidate_pairs(_docs(), threshold=0.5).take_all()
    found = {(p["a"], p["b"]) for p in pairs}
    assert (1, 2) in found and (1, 4) in found and (2, 4) in found
    assert not any(3 in p for p in found)

    clusters = {r["doc_id"]: r["cluster_id"] for r in
                minhash_dedup(_docs(), threshold=0.5).take_all()}
    assert clusters[1] == clusters[2] == clusters[4] == 1
    assert clusters[3] == 3


def test_jaccard_verified_pairs_micros_match_tuple_jaccard(ray_session):
    """The SQL-exact hash-set micros form equals the tuple-set
    ngram_jaccard (no mod-P31 collisions at this size); exact dups hit
    exactly 1_000_000 and the threshold filters."""
    pairs = minhash_candidate_pairs(_docs(), threshold=0.5)
    out = {(p["a"], p["b"]): p["jaccard_micros"]
           for p in jaccard_verified_pairs(_docs(), pairs,
                                           threshold_micros=700_000).take_all()}
    assert out[(1, 4)] == 1_000_000
    for (a, b), micros in out.items():
        texts = {1: BASE, 2: NEAR, 3: OTHER, 4: BASE}
        true = ngram_jaccard(texts[a], texts[b])
        assert micros == int(true * 1_000_000) or abs(micros / 1e6 - true) < 1e-6
        assert micros >= 700_000
    assert (1, 2) in out and not any(3 in p for p in out)


def test_jaccard_verification_filters(ray_session):
    pairs = minhash_candidate_pairs(_docs(), threshold=0.5)
    verified = jaccard_verified_pairs(_docs(), pairs,
                                      threshold_micros=700_000).take_all()
    vset = {(p["a"], p["b"]) for p in verified}
    assert (1, 4) in vset  # exact dup: jaccard 1.0
    assert (1, 2) in vset  # one-word edit: jaccard ~0.79
    for p in verified:
        assert p["jaccard_micros"] >= 700_000


def test_simhash_near_and_far():
    h1, h2, h3 = simhash62(BASE), simhash62(NEAR), simhash62(OTHER)
    assert bin(h1 ^ h2).count("1") <= 8
    assert bin(h1 ^ h3).count("1") > 12
    assert simhash62(BASE) == h1  # deterministic


def test_simhash_batch_matches_per_doc():
    """The block-vectorized simhash_batch kernel (r5) must produce the
    identical 62-bit hash as the per-doc simhash62 reference on every
    row — empty, null, multi-whitespace, repeated-word and mixed-case
    texts included."""
    from unravel_ray.dedup import simhash_batch

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        None,
        "  leading and   internal\t\twhitespace\nnewlines  ",
        "repeat repeat repeat repeat distinct",
        "UPPER Case MiXeD tokens",
        "single",
        # non-ASCII whitespace: RE2 \s does NOT split on NBSP/VT (unlike
        # Python str.split()) — the scalar reference must agree with the
        # kernel AND the DuckDB oracle here (r5 review finding)
        "hello\xa0world",
        "vertical\x0btab and\x1cfs",
        # full-casefold codepoints: Python str.lower('İ') = 'i'+U+0307
        # but Arrow utf8_lower == DuckDB lower == plain 'i' — the scalar
        # reference must use the SAME simple mapping as the kernel and
        # the oracle (r5 review finding)
        "İstanbul İ DOĞU words",
        BASE, NEAR, OTHER,
    ]
    got = simhash_batch(pa.array(texts, pa.string()))
    want = np.array([simhash62(t or "") for t in texts], dtype=np.int64)
    assert np.array_equal(got, want)
    # empty column
    assert simhash_batch(pa.array([], pa.string())).size == 0


def test_simhash_buckets_find_planted_pair(ray_session):
    out = simhash_buckets(_docs(), max_hamming=8).take_all()
    found = {(p["a"], p["b"]) for p in out}
    assert (1, 4) in found
    assert (1, 2) in found


def test_embedding_neardup_pairs(ray_session):
    rng = np.random.RandomState(7)
    base = rng.normal(size=16)
    rows = [
        {"vec_id": 0, "embedding": base.tolist()},
        {"vec_id": 1, "embedding": (base + rng.normal(scale=0.05, size=16)).tolist()},
        {"vec_id": 2, "embedding": rng.normal(size=16).tolist()},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    pairs = {(p["a"], p["b"]): p["cos"] for p in
             embedding_neardup(ds, threshold=0.95).take_all()}
    assert (0, 1) in pairs and pairs[(0, 1)] > 0.95
    assert not any(2 in k for k in pairs)


def test_simhash_pigeonhole_guard_and_wide_hamming(ray_session):
    import pytest as _pt

    with _pt.raises(ValueError, match="pigeonhole"):
        simhash_buckets(_docs(), n_tables=2, max_hamming=3)
    # max_hamming=6 derives 7 tables and still finds the planted pairs
    out = {(p["a"], p["b"]) for p in simhash_buckets(_docs(), max_hamming=6).take_all()}
    assert (1, 4) in out


def test_minhash_dedup_degrades_to_distributed(ray_session):
    """Above max_pairs the clustering must auto-switch to the distributed
    label-propagation + hash_join path and produce the SAME clusters as
    the driver union-find (no raise, no driver pair materialization)."""
    via_driver = {r["doc_id"]: r["cluster_id"]
                  for r in minhash_dedup(_docs(), threshold=0.1).take_all()}
    via_dist = {r["doc_id"]: r["cluster_id"]
                for r in minhash_dedup(_docs(), threshold=0.1,
                                       max_pairs=0).take_all()}
    assert via_dist == via_driver
    assert via_driver[4] == 1  # exact dup clusters to min member id


def test_shingle_hashes_batch_matches_scalar_per_row():
    """The batch shingle kernel gives every row exactly the scalar
    `_shingle_hashes` output, in order: null, empty, 1 and 2 words (one
    fold over all words), whitespace the tokenizer does and does not
    split on, simple-mapping lowercase, and the sf0.001 documents."""
    import pyarrow.parquet as pq

    from unravel_ray.dedup import _shingle_hashes, _shingle_hashes_batch

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["text"])["text"].to_pylist()
    texts = [None, "", "   ", "one", "one two", "a b c", "a b c d",
             "tab\tseparated\twords here", "vertical\x0btab and\x1cfs",
             "hello\xa0world", "İstanbul İ DOĞU words", " x ", None,
             "two words"] + docs
    flat, counts = _shingle_hashes_batch(pa.array(texts, pa.string()))
    assert counts.size == len(texts) and counts.sum() == flat.size
    ends = np.cumsum(counts)
    for t, c, e in zip(texts, counts, ends):
        assert np.array_equal(flat[e - c:e], _shingle_hashes(t)), t
    # a chunked column gives the same, and an empty one gives nothing
    chunked = pa.chunked_array([pa.array(texts[:5], pa.string()),
                                pa.array(texts[5:], pa.string())])
    f2, c2 = _shingle_hashes_batch(chunked)
    assert np.array_equal(f2, flat) and np.array_equal(c2, counts)
    f0, c0 = _shingle_hashes_batch(pa.array([], pa.string()))
    assert f0.size == 0 and c0.size == 0


def test_minhash_stage_vectorized_matches_per_doc_reference():
    """The batched signature kernel (flat concat + reduceat + in-place
    scratch) must be byte-identical to the naive per-doc form — bucket
    assignment and candidate output depend on it."""
    from unravel_ray.dedup import P31, _POLY31, MinHashStage, _shingle_hashes

    stage = MinHashStage()
    texts = [BASE, "", NEAR, None, OTHER, "a b",
             "w " + " ".join(f"t{i}" for i in range(3000))]
    ids = list(range(len(texts)))
    batch = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out_band, out_hash, out_id, out_sig = [], [], [], []
    for did, text in zip(ids, texts):
        h = _shingle_hashes(text)
        if h.size == 0:
            sig = np.zeros(stage.num_perm, dtype=np.int64)
        else:
            vals = (stage.a[:, None] * h[None, :] + stage.b[:, None]) % P31
            sig = vals.min(axis=1)
        for band in range(stage.bands):
            chunk = sig[band * stage.rows_per_band:(band + 1) * stage.rows_per_band]
            bh = 0
            for v in chunk:
                bh = (bh * int(_POLY31) + int(v)) % P31
            out_band.append(band)
            out_hash.append(bh)
            out_id.append(did)
            out_sig.append(sig.tobytes())
    ref = pa.table({"band": pa.array(out_band, pa.int32()),
                    "band_hash": pa.array(out_hash, pa.int64()),
                    "id": pa.array(out_id, pa.int64()),
                    "sig": pa.array(out_sig, pa.binary(stage.num_perm * 8))})
    assert stage(batch).equals(ref)
    # tiny scratch cap exercises both the sliced and the whale-doc path
    small = MinHashStage()
    small._SLICE_ENTRIES = 64 * 500
    assert small(batch).equals(ref)


def test_distributed_components_match_union_find(ray_session):
    from unravel_ray.dedup import propagate_min_labels_distributed

    # two chains and a triangle; singletons excluded by construction
    edges = [(1, 2), (2, 3), (3, 4), (10, 11), (20, 21), (21, 22), (20, 22)]
    ds = ray.data.from_items([{"a": a, "b": b} for a, b in edges]).materialize()
    got = {r["node"]: r["label"]
           for r in propagate_min_labels_distributed(ds, n_rounds=6).take_all()}
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}


def test_distributed_components_long_chain_converges(ray_session):
    """Diameter-14 chain (VERDICT r4 item 1): the old fixed-8-round loop
    under-merged any component deeper than 8 hops; the convergence loop
    must match driver union-find exactly, and must RAISE (not silently
    under-merge) when capped below the diameter."""
    import pytest

    from unravel_ray.dedup import propagate_min_labels_distributed

    # worst case for min-label propagation: the min id sits at one END of
    # the chain, so the label must travel the full diameter
    chain = [(i, i + 1) for i in range(100, 114)]  # nodes 100..114, diam 14
    extra = [(500, 501), (501, 502)]
    ds = ray.data.from_items(
        [{"a": a, "b": b} for a, b in chain + extra]).materialize()

    # union-find oracle
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in chain + extra:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {x: find(x) for x in parent}

    got = {r["node"]: r["label"]
           for r in propagate_min_labels_distributed(ds).take_all()}
    assert got == want

    with pytest.raises(RuntimeError, match="still changing"):
        propagate_min_labels_distributed(ds, n_rounds=4).take_all()


def test_distributed_components_random_graph_matches_union_find(ray_session):
    """Randomized differential: Erdős–Rényi-ish edge sets (mixed cluster
    sizes, self-loop-free, duplicate edges allowed) must produce the
    exact union-find labelling under the convergence loop."""
    from unravel_ray.dedup import propagate_min_labels_distributed

    # seed 2: 58 nodes / 69 edges / 4 components, converges in 7
    # propagation rounds — deep-diameter coverage lives in the chain
    # test above; this one exercises mixed component shapes cheaply.
    rng = np.random.RandomState(2)
    a = rng.randint(0, 80, 70)
    b = rng.randint(0, 80, 70)
    mask = a != b
    edges = list(zip(a[mask].tolist(), b[mask].tolist()))

    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    want = {x: find(x) for x in parent}

    ds = ray.data.from_items(
        [{"a": x, "b": y} for x, y in edges]).materialize()
    got = {r["node"]: r["label"]
           for r in propagate_min_labels_distributed(ds).take_all()}
    assert got == want


def test_distributed_components_label_blocks_do_not_grow(ray_session):
    """Each round's shuffles write a fixed partition count, so the labels'
    block count does not grow with the rounds: labels that took one
    changing round and labels that took twelve (a chain with its min id at
    one end) come back in the same number of blocks as the edge input."""
    from unravel_ray.dedup import propagate_min_labels_distributed

    def labels(edges):
        ds = ray.data.from_items([{"a": a, "b": b} for a, b in edges],
                                 override_num_blocks=4).materialize()
        out = propagate_min_labels_distributed(ds).materialize()
        return out.num_blocks(), {r["node"]: r["label"] for r in out.take_all()}

    pairs_blocks, pairs = labels([(1, 2), (3, 4), (5, 6), (7, 8)])
    chain_blocks, chain = labels([(i, i + 1) for i in range(12)])
    assert pairs == {1: 1, 2: 1, 3: 3, 4: 3, 5: 5, 6: 5, 7: 7, 8: 7}
    assert chain == {i: 0 for i in range(13)}
    assert pairs_blocks == chain_blocks == 4


def test_embedding_neardup_bucketed_matches_broadcast(ray_session):
    """High-threshold regime: the LSH-banded path must find the same pairs
    the exact broadcast path finds on clustered vectors."""
    import numpy as np

    from unravel_ray.dedup import embedding_neardup, embedding_neardup_bucketed

    rng = np.random.RandomState(7)
    base = rng.normal(size=(6, 16))
    rows = []
    vid = 0
    for c in range(6):
        for _ in range(3):  # 3 near-identical members per cluster
            v = base[c] + rng.normal(scale=0.01, size=16)
            rows.append({"vec_id": vid, "embedding": v.tolist()})
            vid += 1
    ds = ray.data.from_items(rows)

    exact = {(r["a"], r["b"])
             for r in embedding_neardup(ds, threshold=0.98).take_all()}
    approx = {(r["a"], r["b"])
              for r in embedding_neardup_bucketed(
                  ds, threshold=0.98, n_bands=12, n_bits=6).take_all()}
    assert exact  # the planted clusters produce pairs
    assert approx == exact


def test_embedding_neardup_degrades_to_bucketed(ray_session):
    """Above the broadcast guard the operator must take the bucketed path
    automatically instead of raising."""
    import numpy as np

    from unravel_ray.dedup import embedding_neardup

    rng = np.random.RandomState(3)
    v = rng.normal(size=16)
    rows = [{"vec_id": i, "embedding": (v + rng.normal(scale=0.005, size=16)).tolist()}
            for i in range(8)]
    ds = ray.data.from_items(rows)
    out = embedding_neardup(ds, threshold=0.99, max_broadcast_rows=4).take_all()
    pairs = {(r["a"], r["b"]) for r in out}
    assert (0, 1) in pairs  # near-identical vectors found via buckets


def _two_shuffle_minhash_pairs(ds, threshold, num_perm=64, bands=16):
    """The pre-exactly-once plan, kept here as the reference: one Ray group
    per raw (band, band_hash) bucket, per-pair Python inside it, then a
    second (a, b) shuffle whose Min collapses pairs found in several
    bands."""
    from ray.data.aggregate import Min

    from unravel_ray.dedup import MinHashStage

    def bucket_pairs(group):
        ids = group["id"].to_pylist()
        sigs = [np.frombuffer(x, dtype=np.int64) for x in group["sig"].to_pylist()]
        uniq = sorted({d: i for i, d in reversed(list(enumerate(ids)))}.items())
        a_o, b_o, j_o = [], [], []
        for x in range(len(uniq)):
            for y in range(x + 1, len(uniq)):
                est = float(np.mean(sigs[uniq[x][1]] == sigs[uniq[y][1]]))
                if est >= threshold:
                    a_o.append(uniq[x][0])
                    b_o.append(uniq[y][0])
                    j_o.append(round(est, 6))
        return pa.table({"a": pa.array(a_o, pa.int64()),
                         "b": pa.array(b_o, pa.int64()),
                         "est_jaccard": pa.array(j_o, pa.float64())})

    banded = ds.map_batches(
        MinHashStage, fn_constructor_kwargs=dict(num_perm=num_perm, bands=bands),
        batch_format="pyarrow", concurrency=2)
    return (banded.groupby(["band", "band_hash"])
            .map_groups(bucket_pairs, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(Min("est_jaccard", alias_name="est_jaccard")))


def _pair_rows(ds, cols):
    return sorted(tuple(r[c] for c in cols) for r in ds.take_all())


def test_blocked_grouping_matches_per_bucket_reference(ray_session):
    """The keyed exchange on (band, band_hash) (many buckets per reduce
    partition + equal-hash-run recovery + lowest-band emission) must
    produce exactly the rows — no
    duplicated (a, b) — of grouping by the raw (band, band_hash) bucket
    key and collapsing repeats in a second shuffle."""
    rows = [{"doc_id": i, "text": BASE if i % 3 == 0 else (NEAR if i % 3 == 1 else OTHER)}
            for i in range(30)]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(4)

    cols = ("a", "b", "est_jaccard")
    got = _pair_rows(minhash_candidate_pairs(ds, threshold=0.5), cols)
    ref = _pair_rows(_two_shuffle_minhash_pairs(ds, 0.5), cols)
    assert got == ref and got  # identical, and non-empty (planted dups)


def _near_dup_families(seed, n_families=12, members=5, n_noise=20):
    """Seeded corpus of near-dup families: each member is its family's
    base text with a few words swapped, so members collide in several LSH
    bands and several simhash tables; exact copies and unrelated docs mix
    in. Ids are shuffled so family order says nothing about id order."""
    rng = np.random.RandomState(seed)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for _ in range(n_families):
        base = list(rng.choice(vocab, size=60))
        for m in range(members):
            doc = list(base)
            for pos in rng.choice(len(doc), size=m, replace=False):
                doc[pos] = vocab[rng.randint(len(vocab))]
            texts.append(" ".join(doc))
        texts.append(" ".join(base))  # exact copy of the family base
    texts += [" ".join(rng.choice(vocab, size=60)) for _ in range(n_noise)]
    ids = rng.permutation(len(texts)) * 7 + 3
    return [{"doc_id": int(i), "text": t} for i, t in zip(ids, texts)]


def test_lsh_pairs_exactly_once_matches_two_shuffle_plan(ray_session):
    """Randomized differential: families that collide in many bands must
    give, row for row, the old two-shuffle plan's output for MinHash, and
    the brute-force all-pairs scan for SimHash — each pair exactly once."""
    from unravel_ray.dedup import MinHashStage, simhash62

    rows = _near_dup_families(seed=11)
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(5)

    # the data must actually exercise the rule: some pair shares >1 band
    t = MinHashStage()(pa.Table.from_pylist(rows))
    per_bucket = {}
    for bnd, bh, i in zip(t["band"].to_pylist(), t["band_hash"].to_pylist(),
                          t["id"].to_pylist()):
        per_bucket.setdefault((bnd, bh), []).append(i)
    shared = {}
    for members in per_bucket.values():
        for x in members:
            for y in members:
                if x < y:
                    shared[(x, y)] = shared.get((x, y), 0) + 1
    assert max(shared.values()) > 1

    for threshold in (0.3, 0.7):
        cols = ("a", "b", "est_jaccard")
        got = _pair_rows(minhash_candidate_pairs(ds, threshold=threshold), cols)
        ref = _pair_rows(_two_shuffle_minhash_pairs(ds, threshold), cols)
        assert got == ref and got

    hs = {r["doc_id"]: simhash62(r["text"]) for r in rows}
    want = sorted((a, b, bin(hs[a] ^ hs[b]).count("1"))
                  for a in hs for b in hs
                  if a < b and bin(hs[a] ^ hs[b]).count("1") <= 6)
    got = _pair_rows(simhash_buckets(ds, max_hamming=6), ("a", "b", "hamming"))
    assert got == want and got


def test_exact_dedup_matches_python_min_id_per_md5(ray_session):
    """Combiner-first exact dedup equals a pure-Python min id per md5,
    with NULL (its own '__null__' group) and empty strings (md5 of '')
    kept apart, across several input blocks."""
    import hashlib

    rng = np.random.RandomState(5)
    pool = [None, "", "alpha", "beta", "alpha ", "gamma delta", "ünïcode"]
    texts = [pool[i] for i in rng.randint(len(pool), size=200)]
    ids = rng.permutation(200) + 1000
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())})).repartition(6)

    want = {}
    for d, t in zip(ids.tolist(), texts):
        h = "__null__" if t is None else hashlib.md5(t.encode("utf-8")).hexdigest()
        want[h] = min(d, want.get(h, d))
    got = _pair_rows(exact_dedup(ds), ("text_hash", "doc_id"))
    assert got == sorted(want.items())
    assert "__null__" in want and hashlib.md5(b"").hexdigest() in want


def test_simhash_blocked_matches_bruteforce(ray_session):
    """Pigeonhole + blocked grouping must find EXACTLY the pairs a brute
    force all-pairs hamming scan finds at the same threshold."""
    from unravel_ray.dedup import simhash62

    texts = {i: (BASE if i % 4 == 0 else NEAR if i % 4 == 1 else
                 OTHER if i % 4 == 2 else BASE.replace("dog", "cat"))
             for i in range(24)}
    ds = ray.data.from_arrow(pa.Table.from_pylist(
        [{"doc_id": i, "text": t} for i, t in texts.items()])).repartition(4)
    got = _pair_rows(simhash_buckets(ds, max_hamming=6), ("a", "b", "hamming"))
    hs = {i: simhash62(t) for i, t in texts.items()}
    want = []
    for a in texts:
        for b in texts:
            if a < b:
                ham = bin(hs[a] ^ hs[b]).count("1")
                if ham <= 6:
                    want.append((a, b, ham))
    assert got == sorted(want) and got
