"""Make one workload's inputs and expected outputs from a seed.

Runs as its own process so that generation and the DuckDB oracle stay out
of the memory and time of the process that calls the engine:

    python3 perfbench/prepare.py --workload bulk_extract --seed 7 --out DIR

Writes into DIR:

* bulk_extract / checkpoint_resume: ``docs/part-NN.parquet`` (the corpus,
  interleaved archetypes), ``expected.parquet`` (closed-form status,
  provider, n_spans, n_chars per document) and ``reference.json`` (a
  seeded sample extracted by the sequential reference ``oracle/pyref.py``);
* sf01_analytics: ``sf/<table>.parquet`` and ``oracle.json`` (the digest
  of each query's DuckDB ``oracle_sql()`` result over the same files).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import pyarrow.parquet as pq

import checks
import corpus
import star_tables

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CORPORA = {
    # workload -> (documents, parquet files, archetype mix)
    "bulk_extract": (8_000, 32, corpus.BULK_MIX),
    "checkpoint_resume": (3_000, 12, corpus.CHECKPOINT_MIX),
}
SAMPLE_PER_ARCHETYPE = 4
QUERIES = {
    "relational": ["lineitem_pricing", "user_event_totals", "event_hourly_windows",
                   "orders_customer_join", "orders_customer_full_join",
                   "word_counts_by_lang", "search_content"],
    "dedup": ["dedup_exact", "minhash_pairs", "jaccard_pairs"],
}


def prepare_corpus(workload: str, seed: int, out: str) -> None:
    n_docs, n_files, mix = CORPORA[workload]
    docs, expected = corpus.make_corpus(n_docs, mix, seed, n_files)
    os.makedirs(os.path.join(out, "docs"))
    per_file = n_docs // n_files
    for f in range(n_files):
        pq.write_table(docs.slice(f * per_file, per_file),
                       os.path.join(out, "docs", f"part-{f:02d}.parquet"))
    pq.write_table(expected, os.path.join(out, "expected.parquet"))

    sys.path.insert(0, REPO)
    from oracle.pyref import extract_doc

    archetypes = expected["archetype"].to_pylist()
    rng = random.Random(seed)
    sample = sorted(
        i for a in mix
        for i in rng.sample([j for j, x in enumerate(archetypes) if x == a],
                            SAMPLE_PER_ARCHETYPE)
    )
    reference = {}
    for i in sample:
        row = extract_doc(docs.slice(i, 1).to_pylist()[0])
        reference[row["doc_id"]] = row
    with open(os.path.join(out, "reference.json"), "w") as f:
        json.dump(reference, f)


def prepare_analytics(seed: int, out: str) -> None:
    import duckdb

    sf = os.path.join(out, "sf")
    star_tables.write_tables(star_tables.make_tables(seed), sf)

    sys.path.insert(0, REPO)
    import __ray_entry__

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    for name in sorted(os.listdir(sf)):
        t = name.removesuffix(".parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(sf, name)}')")
    digests = {q: checks.table_digest(con.execute(sql[q]).arrow())
               for group in QUERIES.values() for q in group}
    con.close()
    with open(os.path.join(out, "oracle.json"), "w") as f:
        json.dump(digests, f)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out)
    if args.workload == "sf01_analytics":
        prepare_analytics(args.seed, args.out)
    else:
        prepare_corpus(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
