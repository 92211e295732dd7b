"""Per-partition checkpointing + exact resume (SURVEY.md §4, north rule).

The reference's idempotency contract — COMPLETED docs are skipped on
reprocess, enforced by UNIQUE(document_id)
(ProcessOcr.java:71-74, ExtractTextFromDocumentImpl.java:50-54,
V11__create_ocr_data_table.sql) — has no transactional store here, so
idempotency comes from partition-granularity commit:

* Each partition's extracted output is written to a temp (attempt) dir
  and committed by a single atomic ``os.rename`` to ``part-{pid}``; a
  manifest row (json, temp+rename too) records input fingerprint, row
  counts, per-status metrics and wall time — the lineage record.
* Resume = anti-join pending partitions against the manifest: committed
  partitions are skipped entirely (their inputs are never re-read).
  A crash mid-partition leaves only a temp dir, which is ignored and
  removed on rerun — exactly-once output per partition.

Two variants:

* ``run_with_checkpoint_files`` (fragment-aligned, the scale shape):
  partitions are groups of input files. One call runs ONE streaming Ray
  Data execution over every pending partition; workers write the rows
  and return slim per-block summaries, and the driver commits each
  partition as soon as its summaries account for every input row — it
  never touches a data row except split docs' recompute.
* ``run_with_checkpoint``: the doc space is split into ``n_partitions``
  by crc32(doc_id) — stable under any input order or block layout — and
  partitions run one after another, each re-reading the full input.

At 10^12-doc scale the partition count is the unit of restart work;
fingerprints let a changed input invalidate only its partition.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
import zlib

import pyarrow as pa
import pyarrow.compute as pc

from .config import PipelineConfig


class PartitionInterrupted(RuntimeError):
    """Injected by tests to simulate a driver crash between partitions."""


def partition_filter(batch: pa.Table, pid: int, n_partitions: int) -> pa.Table:
    ids = batch["doc_id"].to_pylist()
    mask = pa.array(
        [zlib.crc32(s.encode()) % n_partitions == pid for s in ids], pa.bool_()
    )
    return batch.filter(mask)


def _fingerprint(batch_ids: list[str]) -> tuple[int, int]:
    """Order-independent (xor-of-crc32, count) over doc ids."""
    acc = 0
    for s in batch_ids:
        acc ^= zlib.crc32(s.encode())
    return acc, len(batch_ids)


_SEP = b"\x1f"  # unit separator: cannot appear in the cast scalar strings


def _col_str(col, n: int) -> pa.Array:
    """Column -> per-row string with \\x00-null sentinel, via Arrow kernels.
    Nested list / list<struct> columns are flattened, stringified and
    re-joined with their original offsets (pc.binary_join) — no per-row
    Python."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if n == 0:
        return pa.array([], pa.string())
    t = arr.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        values = arr.flatten()  # null-list elements contribute no values
        if pa.types.is_struct(values.type):
            parts = [
                pc.fill_null(pc.cast(values.field(i), pa.string()), "\x00")
                for i in range(values.type.num_fields)
            ]
            inner = pc.binary_join_element_wise(*parts, ";")
        else:
            inner = pc.fill_null(pc.cast(values, pa.string()), "\x00")
        # rebuild offsets relative to flatten()'s value ordering (flatten
        # drops values under null lists, so recompute from value lengths)
        import numpy as np

        lens = pc.fill_null(pc.list_value_length(arr), 0)
        off = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(lens.to_numpy(zero_copy_only=False), out=off[1:])
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(off), inner), ",")
        return pc.if_else(pc.is_valid(arr), joined, pa.scalar("\x00", pa.string()))
    return pc.fill_null(pc.cast(arr, pa.string()), "\x00")


def _row_keys(batch: pa.Table) -> list[bytes]:
    """Per-row serialized fingerprint keys over the audited columns,
    assembled with vectorized Arrow kernels (cast/fill_null/binary_join);
    only the final crc32 accumulation is a Python loop."""
    n = batch.num_rows
    cols = ["doc_id", "spans", "mime_type", "file_size",
            "start_page", "end_page", "pages"]
    parts = [_col_str(batch[c], n) for c in cols if c in batch.column_names]
    key_arr = pc.binary_join_element_wise(*parts, _SEP.decode("latin-1"))
    return [b.encode("utf-8", "surrogatepass") for b in key_arr.to_pylist()]


def input_fingerprint(docs, pid: int, n_partitions: int) -> str:
    """Order-independent content fingerprint of one partition's INPUT:
    xor of crc32 over (doc_id, spans, mime, size, page selection) per row.
    This is what makes ``verify_inputs`` able to invalidate a committed
    partition whose source rows changed — identical ids with edited
    content produce a different fingerprint."""
    filtered = docs.map_batches(
        partition_filter, fn_kwargs={"pid": pid, "n_partitions": n_partitions},
        batch_format="pyarrow",
    )

    def partial(batch: pa.Table) -> pa.Table:
        keys = _row_keys(batch)
        acc = 0
        for k in keys:
            acc ^= zlib.crc32(k)
        return pa.table({"acc": pa.array([acc], pa.int64()),
                         "n": pa.array([batch.num_rows], pa.int64())})

    acc = n = 0
    for row in filtered.map_batches(partial, batch_format="pyarrow").take_all():
        acc ^= row["acc"]
        n += row["n"]
    return f"{acc:08x}:{n}"


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def read_manifest(out_dir: str) -> dict[int, dict]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return {}
    out: dict[int, dict] = {}
    for name in os.listdir(mdir):
        if name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                row = json.load(f)
            out[int(row["partition_id"])] = row
    return out


def _commit_manifest(out_dir: str, row: dict) -> None:
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    tmp = os.path.join(mdir, f".tmp-{row['partition_id']}.json")
    with open(tmp, "w") as f:
        json.dump(row, f)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, os.path.join(mdir, f"part-{row['partition_id']}.json"))



def _write_partition_streaming(docs, cfg: PipelineConfig, tmp: str):
    """Stream the CORE extraction of one partition to ``tmp`` with NO
    materialization anywhere: core output (possibly containing
    SPLIT_MARKER_STATUS fragment rows) goes to data.parquet; the
    parquet-FOOTER audit finds marked docs; an exact recompute of just
    those docs goes to data-repair.parquet. Returns
    (final_ids, status_counts, n_rows) over the FINAL (marker-free) rows.
    """
    import pyarrow.parquet as pq

    from .pipeline import _audit_split_ids, _build_extraction_core, _recompute_docs
    from .schema import EXTRACTED_SCHEMA, SPLIT_MARKER_STATUS

    os.makedirs(tmp, exist_ok=True)
    ids: list[str] = []
    counts = {"completed": 0, "failed": 0, "failed_validation": 0}
    n_rows = 0

    def stream(ds, path) -> bool:
        nonlocal n_rows
        writer = None
        try:
            for batch in ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
                if writer is None:
                    writer = pq.ParquetWriter(path, batch.schema)
                writer.write_table(batch)
                keep = batch.filter(
                    pc.not_equal(batch["status"], SPLIT_MARKER_STATUS))
                n_rows += keep.num_rows
                ids.extend(keep["doc_id"].to_pylist())
                vc = pc.value_counts(keep["status"])
                for status, n in zip(vc.field("values").to_pylist(),
                                     vc.field("counts").to_pylist()):
                    counts[status] = counts.get(status, 0) + n
        finally:
            if writer is not None:
                writer.close()
        return writer is not None

    if not stream(_build_extraction_core(docs, cfg),
                  os.path.join(tmp, "data.parquet")):
        # still record the empty partition so resume skips it
        pq.write_table(EXTRACTED_SCHEMA.empty_table(),
                       os.path.join(tmp, "data.parquet"))
    split_ids, _, _ = _audit_split_ids(tmp)
    if split_ids:
        stream(_recompute_docs(docs, split_ids, cfg),
               os.path.join(tmp, "data-repair.parquet"))
    return ids, counts, n_rows


def run_with_checkpoint(
    make_docs,
    out_dir: str,
    n_partitions: int = 8,
    cfg: PipelineConfig | None = None,
    fail_after: int | None = None,
    verify_inputs: bool = False,
) -> dict:
    """Run extraction partition-by-partition with commit + resume.

    ``make_docs()`` must return a fresh DOCS_SCHEMA Dataset (called once
    per pending partition; at scale, swap the post-read filter for
    fragment-aligned partitions so each partition reads only its shard).
    ``fail_after=k`` aborts after k newly-committed partitions (test hook
    simulating a driver kill; the commit protocol is rename-atomic, so a
    real SIGKILL can only lose an uncommitted temp dir).

    Every executed partition's manifest records an INPUT content
    fingerprint (one extra input scan per executed partition — the
    lineage cost that makes change detection possible at all).
    ``verify_inputs=True`` additionally recomputes committed partitions'
    fingerprints on resume and re-executes those whose source rows
    changed; default False skips straight to pending partitions (the
    plain resume-after-crash contract).

    Returns {"executed": [pids], "skipped": [pids]}.
    """
    cfg = cfg or PipelineConfig()
    os.makedirs(out_dir, exist_ok=True)
    done = read_manifest(out_dir)
    executed, skipped = [], []
    for pid in range(n_partitions):
        if pid in done:
            if verify_inputs:
                current_fp = input_fingerprint(make_docs(), pid, n_partitions)
                if current_fp != done[pid]["input_fingerprint"]:
                    # source changed -> invalidate and re-run this partition.
                    # Manifest row FIRST, data dir second: a crash in between
                    # leaves a stale data dir with no manifest row, which the
                    # rerun's rmtree(final) cleans up before re-executing.
                    # The reverse order could leave a committed manifest row
                    # pointing at missing data — a default resume would then
                    # skip the partition and silently drop its rows.
                    os.remove(os.path.join(manifest_dir(out_dir), f"part-{pid}.json"))
                    shutil.rmtree(os.path.join(out_dir, f"part-{pid}"),
                                  ignore_errors=True)
                    known_fp = current_fp  # reuse — identical input, no rescan
                else:
                    skipped.append(pid)
                    continue
            else:
                skipped.append(pid)
                continue
        else:
            known_fp = None
        t0 = time.time()
        in_fp = known_fp or input_fingerprint(make_docs(), pid, n_partitions)
        ds = make_docs().map_batches(
            partition_filter, fn_kwargs={"pid": pid, "n_partitions": n_partitions},
            batch_format="pyarrow",
        )

        final = os.path.join(out_dir, f"part-{pid}")
        tmp = os.path.join(out_dir, f".tmp-part-{pid}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        ids, counts, n_rows = _write_partition_streaming(ds, cfg, tmp)
        os.rename(tmp, final)
        out_fp, n = _fingerprint(ids)
        _commit_manifest(out_dir, {
            "partition_id": pid,
            "input_fingerprint": in_fp,
            "output_ids_fingerprint": f"{out_fp:08x}:{n}",
            "n_rows": n_rows,
            "n_completed": counts.get("completed", 0),
            # n_rows - n_completed covers every failure status (failed,
            # failed_validation, failed_storage) — same accounting as
            # run_with_checkpoint_files, so manifests agree across variants.
            "n_failed": n_rows - counts.get("completed", 0),
            "wall_time_s": round(time.time() - t0, 3),
        })
        executed.append(pid)
        if fail_after is not None and len(executed) >= fail_after:
            raise PartitionInterrupted(f"injected failure after {fail_after} partitions")
    return {"executed": executed, "skipped": skipped}


def load_extracted(out_dir: str):
    """Read the committed output (only part-* dirs; temp dirs ignored).
    data.parquet may contain SPLIT_MARKER_STATUS fragment rows whose doc
    lives in the partition's data-repair.parquet — markers are filtered
    on read (a vectorized no-op in the common zero-split case)."""
    import ray.data

    from .schema import SPLIT_MARKER_STATUS

    parts = sorted(
        os.path.join(out_dir, d, f)
        for d in os.listdir(out_dir)
        if d.startswith("part-") and os.path.isdir(os.path.join(out_dir, d))
        for f in os.listdir(os.path.join(out_dir, d))
        if f.endswith(".parquet")
    )
    ds = ray.data.read_parquet(parts)
    return ds.map_batches(
        lambda t: t.filter(pc.not_equal(t["status"], SPLIT_MARKER_STATUS)),
        batch_format="pyarrow",
    )


def _files_fingerprint(group: list[str]) -> str:
    """(basename, size, mtime) per file: change detection without reading."""
    parts = []
    for f in group:
        st = os.stat(f)
        parts.append(f"{os.path.basename(f)}:{st.st_size}:{int(st.st_mtime)}")
    return "|".join(parts)


def _tag_partitions(batch: pa.Table, pid_of: dict[str, int]) -> pa.Table:
    """Swap read_parquet's ``path`` column for the int32 partition tag."""
    from .schema import PARTITION_TAG

    paths = batch["path"]
    uniq = pc.unique(paths)
    pids = pa.array([pid_of[os.path.normpath(p)] for p in uniq.to_pylist()],
                    pa.int32())
    tags = pc.take(pids, pc.index_in(paths, value_set=uniq))
    return batch.drop_columns(["path"]).append_column(PARTITION_TAG, tags)


_SUMMARY_SCHEMA = pa.schema([
    pa.field("pid", pa.int32()),
    pa.field("file", pa.string()),
    pa.field("n_kept", pa.int64()),
    pa.field("n_completed", pa.int64()),
    pa.field("marker_ids", pa.list_(pa.string())),
])


def _n_completed(t: pa.Table) -> int:
    return pc.sum(pc.cast(pc.equal(t["status"], "completed"), pa.int64())).as_py() or 0


def _attempt_dir(out_dir: str, pid: int, attempt: str) -> str:
    return os.path.join(out_dir, f".tmp-part-{pid}.{attempt}")


def _write_tagged_block(block: pa.Table, out_dir: str, attempt: str) -> pa.Table:
    """Worker side of run_with_checkpoint_files: write one finalized
    block's rows, per partition and without the tag, into that partition's
    attempt dir; return one slim summary row per partition in the block.

    Split-marker rows are not written; their doc_ids ride in the summary
    and the commit recomputes those docs. The file name hashes the written
    doc_ids, so a retried task overwrites its own file and the driver can
    drop the repeated summary row."""
    import pyarrow.parquet as pq

    from .schema import PARTITION_TAG, SPLIT_MARKER_STATUS

    if not block.num_rows:
        return _SUMMARY_SCHEMA.empty_table()
    rows = []
    tags = block[PARTITION_TAG]
    for pid in pc.unique(tags).to_pylist():
        part = block.filter(pc.equal(tags, pid)).drop_columns([PARTITION_TAG])
        is_marker = pc.equal(part["status"], SPLIT_MARKER_STATUS)
        keep = part.filter(pc.invert(is_marker))
        name = None
        if keep.num_rows:
            ids = "\x1f".join(keep["doc_id"].to_pylist()).encode()
            name = hashlib.blake2b(ids, digest_size=12).hexdigest() + ".parquet"
            attempt_dir = _attempt_dir(out_dir, pid, attempt)
            os.makedirs(attempt_dir, exist_ok=True)
            pq.write_table(keep, os.path.join(attempt_dir, name))
        rows.append({
            "pid": pid,
            "file": name,
            "n_kept": keep.num_rows,
            "n_completed": _n_completed(keep),
            "marker_ids": pc.unique(part.filter(is_marker)["doc_id"]).to_pylist(),
        })
    return pa.Table.from_pylist(rows, schema=_SUMMARY_SCHEMA)


class _Pending:
    """Driver-side state of one partition awaiting its commit."""

    def __init__(self, group: list[str], in_fp: str, n_input: int) -> None:
        self.group, self.in_fp, self.n_input = group, in_fp, n_input
        self.files: set[str] = set()
        self.markers: set[str] = set()
        self.n_kept = self.n_completed = 0
        self.committed = False

    def add(self, row: dict) -> bool:
        """Fold one summary row in; True once every input doc is
        accounted for (kept rows + distinct split-marker ids)."""
        if row["file"] is not None:
            if row["file"] in self.files:
                return False  # a retried task's repeated summary
            self.files.add(row["file"])
            self.n_kept += row["n_kept"]
            self.n_completed += row["n_completed"]
        self.markers.update(row["marker_ids"])
        return self.n_kept + len(self.markers) == self.n_input


def run_with_checkpoint_files(
    input_files: list[str],
    out_dir: str,
    files_per_partition: int = 1,
    cfg: PipelineConfig | None = None,
    fail_after: int | None = None,
) -> dict:
    """Fragment-aligned checkpointing — the 100 TB shape.

    Partitions are contiguous groups of the sorted input files; the
    manifest fingerprint is (name, size, mtime) per file, so change
    detection reads no content and a touched file re-runs only its
    partition. One call is ONE streaming Ray Data execution over every
    pending partition's files:

        read_parquet(pending files, include_paths) -> path -> partition tag
        -> _build_extraction_core (the tag rides as a doc-constant column)
        -> map_batches(_write_tagged_block): workers write each block's rows
           into ``.tmp-part-{pid}.{attempt}/`` and return slim summary rows

    The driver reads only the summary rows. A partition closes when its
    kept rows plus distinct split-marker doc_ids equal its input row count
    (from the parquet footers); it is then committed at once: split docs
    are recomputed from the partition's own files into
    ``data-repair.parquet``, the attempt dir is renamed to ``part-{pid}``
    and the manifest row is written (``wall_time_s`` = call start to this
    commit). Zero-row partitions commit before the execution starts.
    Workers write straight into ``out_dir``, so on a multi-node cluster it
    must be shared storage.

    A crash loses at most the uncommitted partitions; attempt dirs are
    unique per call, so tasks of an abandoned execution can never land in
    a later commit. ``fail_after=k`` stops after k commits and abandons
    the execution (test hook). Needs ``cfg.reassembly == "local"``.

    Returns {"executed": [pids, ascending], "skipped": [pids]}.
    """
    import pyarrow.parquet as pq
    import ray.data

    from . import pipeline
    from .schema import EXTRACTED_SCHEMA

    cfg = cfg or PipelineConfig()
    if cfg.reassembly != "local":
        raise ValueError("run_with_checkpoint_files needs reassembly='local' "
                         f"(got {cfg.reassembly!r})")
    t_start = time.time()
    os.makedirs(out_dir, exist_ok=True)
    files = [os.path.abspath(f) for f in sorted(input_files)]
    groups = [files[i:i + files_per_partition]
              for i in range(0, len(files), files_per_partition)]
    done = read_manifest(out_dir)
    skipped: list[int] = []
    pending: dict[int, _Pending] = {}
    for pid, group in enumerate(groups):
        in_fp = _files_fingerprint(group)
        if pid in done and done[pid]["input_fingerprint"] == in_fp:
            skipped.append(pid)
        else:
            n_input = sum(pq.ParquetFile(f).metadata.num_rows for f in group)
            pending[pid] = _Pending(group, in_fp, n_input)
    attempt = uuid.uuid4().hex[:12]
    executed: list[int] = []

    def commit(pid: int, p: _Pending) -> None:
        tmp = _attempt_dir(out_dir, pid, attempt)
        os.makedirs(tmp, exist_ok=True)
        n_rows, n_completed = p.n_kept, p.n_completed
        if not p.n_input:
            pq.write_table(EXTRACTED_SCHEMA.empty_table(),
                           os.path.join(tmp, "data.parquet"))
        if p.markers:
            redo = pipeline._recompute_docs(
                ray.data.read_parquet(p.group), frozenset(p.markers), cfg)
            repair = pa.concat_tables(
                [EXTRACTED_SCHEMA.empty_table()]
                + list(redo.iter_batches(batch_size=None, batch_format="pyarrow")))
            pq.write_table(repair, os.path.join(tmp, "data-repair.parquet"))
            n_rows += repair.num_rows
            n_completed += _n_completed(repair)
        final = os.path.join(out_dir, f"part-{pid}")
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        _commit_manifest(out_dir, {
            "partition_id": pid,
            "input_fingerprint": p.in_fp,
            "n_rows": n_rows,
            "n_completed": n_completed,
            # every failure status (failed, failed_validation, failed_storage)
            "n_failed": n_rows - n_completed,
            "wall_time_s": round(time.time() - t_start, 3),
        })
        p.committed = True
        executed.append(pid)
        if fail_after is not None and len(executed) >= fail_after:
            raise PartitionInterrupted(f"injected failure after {fail_after} partitions")

    try:
        for pid, p in pending.items():
            if not p.n_input:
                commit(pid, p)
        live = {pid: p for pid, p in pending.items() if p.n_input}
        if live:
            pid_of = {f: pid for pid, p in live.items() for f in p.group}
            docs = ray.data.read_parquet(list(pid_of), include_paths=True).map_batches(
                _tag_partitions, fn_kwargs={"pid_of": pid_of},
                batch_format="pyarrow", batch_size=None)
            summaries = pipeline._build_extraction_core(docs, cfg).map_batches(
                _write_tagged_block,
                fn_kwargs={"out_dir": out_dir, "attempt": attempt},
                batch_format="pyarrow", batch_size=None)
            it = iter(summaries.iter_batches(batch_size=None, batch_format="pyarrow"))
            try:
                for batch in it:
                    for row in batch.to_pylist():
                        p = live[row["pid"]]
                        # a late marker-only row for a committed partition
                        # carries nothing new
                        if not p.committed and p.add(row):
                            commit(row["pid"], p)
            finally:
                it.close()  # abandons the execution on fail_after
            unclosed = {pid: (p.n_kept + len(p.markers), p.n_input)
                        for pid, p in live.items() if not p.committed}
            if unclosed:
                # e.g. a doc_id repeated in the input: finalize merges the
                # copies, so the partition can never account for every row
                raise RuntimeError(
                    f"partitions did not close (rows seen, rows in): {unclosed}")
    finally:
        _remove_attempt_dirs(out_dir)
    return {"executed": sorted(executed), "skipped": skipped}


def _remove_attempt_dirs(out_dir: str) -> None:
    """Drop every uncommitted ``.tmp-part-*`` attempt dir: this call's and
    any left by a crashed or abandoned earlier call (never read —
    load_extracted trusts only ``part-*``)."""
    for name in os.listdir(out_dir):
        if name.startswith(".tmp-part-"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
