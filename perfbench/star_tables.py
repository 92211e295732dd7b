"""Seeded star-schema tables in the shape of the sf0.1 test data.

Row counts, columns and value domains follow the sf0.1 tables the
relational and dedup queries read (orders 150k, lineitem 600k,
customer 15k, events 100k, documents 5k). Money columns carry two
decimals and quantities whole numbers, so the queries' integer-cent
aggregates are exact. The documents table plants the two kinds of
duplicates the dedup queries look for: exact copies and near copies
(an earlier text plus the token ``dup``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_CUSTOMER = 15_000
N_ORDERS = 150_000
N_LINEITEM = 600_000
N_EVENTS = 100_000
N_DOCUMENTS = 5_000
N_USERS = 1_500

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
LANGS = ["en", "de", "es", "fr", "zh"]
LANG_P = [0.4, 0.15, 0.15, 0.15, 0.15]
WORDS = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
N_EXACT_DUPS = 8
N_NEAR_DUPS = 250


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.integers(round(lo * 100), round(hi * 100), n) / 100.0


def _ts(start: str, seconds: np.ndarray) -> pa.Array:
    base = np.datetime64(start, "us")
    return pa.array(base + (seconds * 1_000_000).astype(np.int64).astype("timedelta64[us]"))


def _documents(rng: np.random.Generator) -> pa.Table:
    lengths = rng.integers(10, 101, N_DOCUMENTS)
    flat = rng.integers(0, len(WORDS), int(lengths.sum()))
    words = np.array(WORDS, dtype=object)
    texts, pos = [], 0
    for n in lengths.tolist():
        texts.append(" ".join(words[flat[pos:pos + n]]))
        pos += n
    # near copies: an earlier document's text plus one token; exact copies
    # of earlier documents after that (targets never overlap sources)
    targets = rng.choice(np.arange(N_DOCUMENTS // 2, N_DOCUMENTS),
                         N_NEAR_DUPS + N_EXACT_DUPS, replace=False)
    for j, t in enumerate(targets.tolist()):
        src = texts[int(rng.integers(0, N_DOCUMENTS // 2))]
        texts[t] = src + " dup" if j < N_NEAR_DUPS else src
    return pa.table({
        "doc_id": pa.array(np.arange(N_DOCUMENTS), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(LANGS, N_DOCUMENTS, p=LANG_P), pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(N_DOCUMENTS)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def make_tables(seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    customer = pa.table({
        "c_custkey": pa.array(np.arange(N_CUSTOMER), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(N_CUSTOMER)]),
        "c_nationkey": pa.array(rng.integers(0, 25, N_CUSTOMER), pa.int32()),
        "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, N_CUSTOMER)),
        "c_mktsegment": pa.array(rng.choice(SEGMENTS, N_CUSTOMER)),
    })
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(N_ORDERS), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, N_CUSTOMER, N_ORDERS), pa.int64()),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], N_ORDERS)),
        "o_totalprice": pa.array(_money(rng, 1000, 500_000, N_ORDERS)),
        "o_orderdate": _ts("1992-01-01", rng.integers(0, 2400, N_ORDERS) * 86_400),
        "o_orderpriority": pa.array(rng.choice(PRIORITIES, N_ORDERS)),
    })
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, N_ORDERS, N_LINEITEM), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 20_000, N_LINEITEM), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 1_000, N_LINEITEM), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, N_LINEITEM), pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, N_LINEITEM).astype(np.float64)),
        "l_extendedprice": pa.array(_money(rng, 900, 105_000, N_LINEITEM)),
        "l_discount": pa.array(rng.integers(0, 11, N_LINEITEM) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, N_LINEITEM) / 100.0),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], N_LINEITEM)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], N_LINEITEM)),
        "l_shipdate": _ts("1992-01-02", rng.integers(0, 2500, N_LINEITEM) * 86_400),
    })
    ev_seconds = np.sort(rng.uniform(0, 30 * 86_400, N_EVENTS))
    events = pa.table({
        "event_id": pa.array(np.arange(N_EVENTS), pa.int64()),
        "ts": _ts("2024-01-01", ev_seconds),
        "user_id": pa.array(rng.integers(0, N_USERS, N_EVENTS), pa.int64()),
        "event_type": pa.array(rng.choice(EVENT_TYPES, N_EVENTS)),
        "value": pa.array(_money(rng, 0, 560, N_EVENTS)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, N_EVENTS).tolist()]),
    })
    return {"customer": customer, "orders": orders, "lineitem": lineitem,
            "events": events, "documents": _documents(rng)}


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
