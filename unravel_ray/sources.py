"""Sources & sinks (SURVEY.md §2.1 S1-S9) and set-op state updates (§2.7).

Lance note (§7.0): ``pylance`` is not installable offline, so the store is
Parquet with identical dataset/partition semantics (directory of part
files + manifest). ``read_docs``/``write_extracted`` are the single choke
points — a Lance backend swaps in here without touching pipelines.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data
from ray.data import Dataset


# ---------------------------------------------------------------------------
# S1 — ingest
# ---------------------------------------------------------------------------

def read_docs(path: str, columns: list[str] | None = None) -> Dataset:
    """Interleaved docs table from the columnar store (S1 ingest analog)."""
    return ray.data.read_parquet(path, columns=columns)


# ---------------------------------------------------------------------------
# S6 — columnar result sink (idempotent partition overwrite)
# ---------------------------------------------------------------------------

def write_extracted(extracted: Dataset, out_dir: str) -> None:
    """Partitioned parquet sink (S6 Postgres-save analog). For resumable
    partition-granular commits use checkpoint.run_with_checkpoint_files."""
    extracted.write_parquet(out_dir)


# ---------------------------------------------------------------------------
# S7/S8 — search-index projection sink (Elasticsearch analog)
# ---------------------------------------------------------------------------

def search_projection(extracted: Dataset) -> Dataset:
    """Derived search rows (DocumentSearchIndex analog,
    elasticsearch/document/DocumentSearchIndex.java:25-111 +
    sync pipeline ElasticsearchSyncService.java:103-150): keyword fields +
    a 200-char preview of the rendered text (M15)."""
    import pyarrow.compute as pc

    from .export import render_spans_column

    def project(batch: pa.Table) -> pa.Table:
        full = render_spans_column(batch["spans"])
        truncated = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(full, 0, 200),
            pa.array(["..."] * batch.num_rows), "")
        preview = pc.if_else(pc.greater(pc.utf8_length(full), 200),
                             truncated, full)
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.string()),
            "collection_id": pc.cast(batch["collection_id"], pa.string()),
            "status": pc.cast(batch["status"], pa.string()),
            "provider": pc.cast(batch["provider"], pa.string()),
            "preview": preview,
            "n_chars": pc.cast(batch["n_chars"], pa.int64()),
        })

    return extracted.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# D3/D4 — tombstone delete & collection move (set-op state updates)
# ---------------------------------------------------------------------------

def apply_tombstones(ds: Dataset, deleted_collection_ids: set[str]) -> Dataset:
    """Anti-join vs tombstones (D3 delete-collection,
    DocumentDeleteImpl.java:44-160): broadcast the (small) tombstone set,
    filter inside map_batches — no shuffle."""
    ref = ray.put(frozenset(deleted_collection_ids))

    def keep(batch: pa.Table) -> pa.Table:
        dead = ray.get(ref)
        import pyarrow.compute as pc

        mask = pc.invert(pc.is_in(
            batch["collection_id"], value_set=pa.array(sorted(dead), pa.string())
        ))
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def move_documents(ds: Dataset, moves: dict[str, str]) -> Dataset:
    """Repartition-by-key update (D4 move-between-collections,
    DocumentMoveServiceImpl.java:45-): doc_id -> new collection_id mapping
    broadcast and applied per batch."""
    ref = ray.put(dict(moves))

    def remap(batch: pa.Table) -> pa.Table:
        mv = ray.get(ref)
        ids = batch["doc_id"].to_pylist()
        cols = batch["collection_id"].to_pylist()
        new = pa.array([mv.get(d, c) for d, c in zip(ids, cols)], pa.string())
        return batch.set_column(batch.column_names.index("collection_id"),
                                "collection_id", new)

    return ds.map_batches(remap, batch_format="pyarrow")


def point_lookup(ds: Dataset, doc_id: str) -> list[dict]:
    """J3 point lookup with predicate pushdown-ish filter (small control
    path; not for hot loops)."""
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda b: b.filter(pc.equal(b["doc_id"], doc_id)), batch_format="pyarrow"
    ).take_all()


# ---------------------------------------------------------------------------
# encrypted-blob ingest/export (FileEntry.java:46-51 isEncrypted +
# encryptionIv; AesEncryptionServiceImpl.java:53-94)
# ---------------------------------------------------------------------------

BLOB_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("blob", pa.binary()),
        pa.field("is_encrypted", pa.bool_()),
        pa.field("encryption_iv", pa.string()),  # base64, null when clear
    ]
)


def encrypt_blobs(ds: Dataset, key: bytes) -> Dataset:
    """Storage-side encryption stage: AES-256-GCM per blob with a
    deterministic per-doc IV (functions.derive_iv), emitting the
    FileEntry row shape (is_encrypted=True + base64 IV). The key ships
    once per task via ray.put — the KMS-handle analog; blobs already
    marked encrypted pass through untouched (idempotent re-run)."""
    from .functions import aes_gcm_encrypt, derive_iv

    key_ref = ray.put(key)

    def enc(batch: pa.Table) -> pa.Table:
        k = ray.get(key_ref)
        rows_blob, rows_enc, rows_iv = [], [], []
        encd = batch["is_encrypted"].to_pylist() if "is_encrypted" in batch.column_names \
            else [False] * batch.num_rows
        ivs = batch["encryption_iv"].to_pylist() if "encryption_iv" in batch.column_names \
            else [None] * batch.num_rows
        for did, blob, already, iv in zip(
                batch["doc_id"].to_pylist(), batch["blob"].to_pylist(), encd, ivs):
            if already:
                rows_blob.append(blob)
                rows_enc.append(True)
                rows_iv.append(iv)
            else:
                ct, iv_b64 = aes_gcm_encrypt(blob or b"", k, derive_iv(did))
                rows_blob.append(ct)
                rows_enc.append(True)
                rows_iv.append(iv_b64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "blob": pa.array(rows_blob, pa.binary()),
            "is_encrypted": pa.array(rows_enc, pa.bool_()),
            "encryption_iv": pa.array(rows_iv, pa.string()),
        })

    return ds.map_batches(enc, batch_format="pyarrow")


def decrypt_blobs(ds: Dataset, key: bytes) -> Dataset:
    """Fetch-side decryption stage (the download path decrypts before any
    extraction — DownloadOcrServiceImpl analog): rows with
    is_encrypted=True are decrypted with their stored IV; clear rows pass
    through. Failure-as-result: a bad key/IV yields blob=null +
    decrypt_error instead of killing the batch."""
    key_ref = ray.put(key)

    def dec(batch: pa.Table) -> pa.Table:
        from .functions import aes_gcm_decrypt

        k = ray.get(key_ref)
        rows_blob, errs = [], []
        for blob, enc_flag, iv in zip(
                batch["blob"].to_pylist(),
                batch["is_encrypted"].to_pylist(),
                batch["encryption_iv"].to_pylist()):
            if not enc_flag:
                rows_blob.append(blob)
                errs.append(None)
                continue
            try:
                rows_blob.append(aes_gcm_decrypt(blob, k, iv))
                errs.append(None)
            except Exception as exc:  # noqa: BLE001 — poison keys must not kill the task
                rows_blob.append(None)
                errs.append(f"{type(exc).__name__}: decrypt failed")
        return pa.table({
            "doc_id": batch["doc_id"],
            "blob": pa.array(rows_blob, pa.binary()),
            "is_encrypted": pa.array([False] * batch.num_rows, pa.bool_()),
            "encryption_iv": pa.array([None] * batch.num_rows, pa.string()),
            "decrypt_error": pa.array(errs, pa.string()),
        })

    return ds.map_batches(dec, batch_format="pyarrow")
