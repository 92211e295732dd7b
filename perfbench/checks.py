"""Output checks, each computed apart from the engine, and their self-tests.

Every checker returns a list of error strings; an empty list means the
output passed. ``mutation_selftest`` feeds each checker corrupted copies
of a real output and reports every corruption a checker let through.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_STATUS_FAILED = ("failed", "failed_validation", "failed_storage")


def check_extracted(out: pa.Table, expected: pa.Table) -> list[str]:
    """Every expected document exactly once, with the closed-form status,
    provider, n_spans and n_chars."""
    errors = []
    ids = out["doc_id"]
    if out.num_rows != expected.num_rows:
        errors.append(f"{out.num_rows} rows for {expected.num_rows} documents")
    n_unique = pc.count_distinct(ids).as_py()
    if n_unique != out.num_rows:
        errors.append(f"{out.num_rows - n_unique} duplicated doc_id rows")
    cols = ["doc_id", "status", "provider", "n_spans", "n_chars"]
    got = out.select(cols).join(expected.select(cols), "doc_id", join_type="full outer",
                                right_suffix="_want", coalesce_keys=True)
    for c in cols[1:]:
        same = pc.fill_null(pc.equal(got[c], got[c + "_want"]), False)
        both_null = pc.and_(pc.is_null(got[c]), pc.is_null(got[c + "_want"]))
        bad = pc.invert(pc.or_(same, both_null))
        n_bad = pc.sum(pc.cast(bad, pa.int64())).as_py() or 0
        if n_bad:
            first = got.filter(bad).slice(0, 1).to_pylist()[0]
            errors.append(f"{n_bad} documents with wrong {c}, e.g. {first['doc_id']}: "
                          f"{first[c]!r} != {first[c + '_want']!r}")
    return errors


def check_spans(rows: dict[str, dict], reference: dict[str, dict]) -> list[str]:
    """Sampled documents equal the sequential reference extractor span for
    span. ``rows``/``reference``: doc_id -> extracted row."""
    fields = ("spans", "status", "provider", "n_spans", "n_chars", "error_message",
              "confidence_micros", "language_detected")
    errors = []
    for doc_id, want in reference.items():
        got = rows.get(doc_id)
        if got is None:
            errors.append(f"sampled {doc_id} missing")
            continue
        for f in fields:
            g, w = got.get(f), want.get(f)
            if f == "spans":
                g = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in g or []]
                w = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in w or []]
            if g != w:
                errors.append(f"{doc_id}: {f} differs from the reference extractor")
    return errors


def recount_rollup(expected: pa.Table) -> dict[str, dict]:
    """Per-collection counts from the generator's statuses (ProcessOcr
    roll-up truth table, FIXTURES.md §3)."""
    by_col: dict[str, dict] = {}
    for cid, status in zip(expected["collection_id"].to_pylist(),
                           expected["status"].to_pylist()):
        c = by_col.setdefault(cid, {"n_docs": 0, "n_completed": 0, "n_failed": 0,
                                    "n_pending": 0})
        c["n_docs"] += 1
        if status == "completed":
            c["n_completed"] += 1
        elif status in _STATUS_FAILED:
            c["n_failed"] += 1
        else:
            c["n_pending"] += 1
    for c in by_col.values():
        if c["n_completed"] == c["n_docs"]:
            c["collection_status"] = "processed"
        elif c["n_completed"] + c["n_failed"] == c["n_docs"]:
            c["collection_status"] = "failed_ocr"
        else:
            c["collection_status"] = "processing"
    return by_col


def check_rollup(rollup: pa.Table, want: dict[str, dict]) -> list[str]:
    errors = []
    rows = rollup.to_pylist()
    got = {r["collection_id"]: r for r in rows}
    if len(got) != len(rows):
        errors.append(f"{len(rows) - len(got)} collections appear twice")
    if set(got) != set(want):
        errors.append(f"collections differ: {len(set(got) ^ set(want))} not in both")
    for cid, w in want.items():
        g = got.get(cid)
        if g is None:
            continue
        if g["n_completed"] + g["n_failed"] + g["n_pending"] != g["n_docs"]:
            errors.append(f"{cid}: n_completed + n_failed + n_pending != n_docs")
        for k, v in w.items():
            if g.get(k) != v:
                errors.append(f"{cid}: {k} {g.get(k)!r} != recount {v!r}")
                break
    return errors


def check_manifest_rows(manifest: dict[int, dict], n_read: int) -> list[str]:
    total = sum(int(m["n_rows"]) for m in manifest.values())
    return [] if total == n_read else [f"manifests count {total} rows, {n_read} read back"]


def read_manifests(out_dir: str) -> dict[int, dict]:
    mdir = os.path.join(out_dir, "_manifest")
    rows = {}
    for name in sorted(os.listdir(mdir)):
        if name.endswith(".json") and not name.startswith("."):
            with open(os.path.join(mdir, name)) as f:
                row = json.load(f)
            rows[int(row["partition_id"])] = row
    return rows


# ---------------------------------------------------------------------------
# order-insensitive table digest (query results against their DuckDB oracle)
# ---------------------------------------------------------------------------

def _canonical(t: pa.Table) -> pa.Table:
    """Columns by name; integers as int64, floats rounded to 6 digits,
    timestamps in microseconds, dictionaries decoded."""
    cols, names = [], sorted(t.column_names)
    for name in names:
        c = t[name]
        typ = c.type
        if pa.types.is_dictionary(typ):
            c = c.cast(typ.value_type)
            typ = c.type
        if pa.types.is_integer(typ):
            c = c.cast(pa.int64())
        elif pa.types.is_floating(typ) or pa.types.is_decimal(typ):
            c = pc.round(c.cast(pa.float64()), 6)
        elif pa.types.is_timestamp(typ):
            c = c.cast(pa.timestamp("us"))
        elif pa.types.is_large_string(typ):
            c = c.cast(pa.string())
        cols.append(c)
    return pa.table(cols, names=names)


def table_digest(t: pa.Table) -> str:
    """Digest equal for two tables with the same rows in any order."""
    import pandas as pd

    c = _canonical(t)
    row_hashes = np.sort(pd.util.hash_pandas_object(c.to_pandas(), index=False).to_numpy())
    h = hashlib.sha256()
    h.update(repr([(f.name, str(f.type)) for f in c.schema]).encode())
    h.update(row_hashes.tobytes())
    return f"{c.num_rows}:{h.hexdigest()[:32]}"


def check_digest(name: str, result: pa.Table, want: str) -> list[str]:
    got = table_digest(result)
    return [] if got == want else [f"{name}: result {got} != oracle {want}"]


# ---------------------------------------------------------------------------
# self-tests: each checker must reject a corrupted copy of a real output
# ---------------------------------------------------------------------------

def _replace_value(t: pa.Table, column: str, row: int, value) -> pa.Table:
    vals = t[column].to_pylist()
    vals[row] = value
    idx = t.column_names.index(column)
    return t.set_column(idx, t.schema.field(idx), pa.array(vals, t.schema.field(idx).type))


def _altered(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float)):
        return v + 1
    if isinstance(v, str):
        return v + "x"
    if isinstance(v, datetime.datetime):
        return v + datetime.timedelta(microseconds=1)
    raise TypeError(type(v))


def mutation_selftest(*, out: pa.Table | None = None, expected: pa.Table | None = None,
                      rows: dict | None = None, reference: dict | None = None,
                      rollup: pa.Table | None = None, rollup_want: dict | None = None,
                      results: dict[str, pa.Table] | None = None,
                      digests: dict[str, str] | None = None) -> list[str]:
    """Run each applicable corruption; return the ones NOT rejected.
    The untouched inputs must pass first (else the self-test itself is void)."""
    missed = []

    def expect_reject(label, errors):
        if not errors:
            missed.append(label)

    if out is not None:
        if check_extracted(out, expected):
            return ["untouched extraction output fails its check"]
        expect_reject("one document dropped", check_extracted(out.slice(1), expected))
        expect_reject("one document duplicated",
                      check_extracted(pa.concat_tables([out, out.slice(0, 1)]), expected))
        i = pc.index(out["status"], "completed").as_py()
        expect_reject("one status changed",
                      check_extracted(_replace_value(out, "status", i, "failed"), expected))
    if rows is not None:
        if check_spans(rows, reference):
            return missed + ["untouched sample fails the span check"]
        swappable = [d for d, r in rows.items() if d in reference and len(r["spans"]) >= 2
                     and r["spans"][0]["text"] != r["spans"][1]["text"]]
        if not swappable:
            missed.append("two spans swapped (no sampled document has two spans)")
        else:
            doc_id = swappable[0]
            row = dict(rows[doc_id])
            spans = [dict(s) for s in row["spans"]]
            spans[0], spans[1] = spans[1], spans[0]
            spans[0]["offset"], spans[1]["offset"] = 0, 1
            row["spans"] = spans
            expect_reject("two spans swapped", check_spans({**rows, doc_id: row}, reference))
    if rollup is not None:
        if check_rollup(rollup, rollup_want):
            return missed + ["untouched rollup fails its check"]
        n = rollup["n_completed"][0].as_py()
        expect_reject("one rollup count off by one",
                      check_rollup(_replace_value(rollup, "n_completed", 0, n + 1), rollup_want))
    for name, t in (results or {}).items():
        if t.num_rows == 0:
            continue
        if check_digest(name, t, digests[name]):
            return missed + [f"untouched {name} result fails its check"]
        col = t.column_names[0]
        i = pc.index(pc.is_valid(t[col]), True).as_py()
        altered = _replace_value(t, col, i, _altered(t[col][i].as_py()))
        expect_reject(f"one {name} row altered", check_digest(name, altered, digests[name]))
    return missed
