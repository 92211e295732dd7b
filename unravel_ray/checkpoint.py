"""Per-partition checkpointing + exact resume (SURVEY.md §4, north rule).

The reference's idempotency contract — COMPLETED docs are skipped on
reprocess, enforced by UNIQUE(document_id)
(ProcessOcr.java:71-74, ExtractTextFromDocumentImpl.java:50-54,
V11__create_ocr_data_table.sql) — has no transactional store here, so
idempotency comes from partition-granularity commit:

* A partition is one input parquet file. Its extracted output is written
  to an attempt dir and committed by a single ``os.rename`` to
  ``part-{pid}``; a manifest row (json, temp+rename too) records the
  file's (name, size, mtime) fingerprint, row counts, per-status metrics
  and wall time — the lineage record.
* Resume = anti-join the partitions against the manifest: committed
  partitions whose file is unchanged are skipped entirely (their inputs
  are never re-read). A crash mid-partition leaves only an attempt dir,
  which is ignored and removed on rerun — exactly-once output per
  partition.
* ``run_with_checkpoint_files`` runs ONE streaming Ray Data execution
  over every pending partition; workers write the rows and return slim
  per-block summaries, and the driver commits each partition as soon as
  its summaries account for every input row — it never touches a data
  row except split docs' recompute.

At 10^12-doc scale the partition count is the unit of restart work; the
fingerprints let a changed input file invalidate only its partition.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc

from .config import PipelineConfig


class PartitionInterrupted(RuntimeError):
    """Injected by tests to simulate a driver crash between partitions."""


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def read_manifest(out_dir: str) -> dict[int, dict]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return {}
    out: dict[int, dict] = {}
    for name in os.listdir(mdir):
        # committed rows only: a ``.tmp-*`` row may be half-written
        if name.startswith("part-") and name.endswith(".json"):
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


def load_extracted(out_dir: str):
    """Read the committed output (only part-* dirs; attempt dirs ignored).
    Committed partitions hold no SPLIT_MARKER_STATUS rows: workers never
    write them, and the split docs' recompute sits in each partition's
    data-repair.parquet."""
    import ray.data

    parts = sorted(
        os.path.join(out_dir, d, f)
        for d in os.listdir(out_dir)
        if d.startswith("part-") and os.path.isdir(os.path.join(out_dir, d))
        for f in os.listdir(os.path.join(out_dir, d))
        if f.endswith(".parquet")
    )
    return ray.data.read_parquet(parts)


def _file_fingerprint(path: str) -> str:
    """(basename, size, mtime): change detection without reading."""
    st = os.stat(path)
    return f"{os.path.basename(path)}:{st.st_size}:{int(st.st_mtime)}"


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

    def __init__(self, path: str, in_fp: str, n_input: int) -> None:
        self.path, self.in_fp, self.n_input = path, in_fp, n_input
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
    cfg: PipelineConfig | None = None,
    fail_after: int | None = None,
) -> dict:
    """Fragment-aligned checkpointing — the 100 TB shape.

    Partition ``pid`` is the ``pid``-th of the sorted input files; the
    manifest fingerprint is the file's (name, size, mtime), so change
    detection reads no content and a touched file re-runs only its
    partition. One call is ONE streaming Ray Data execution over every
    pending partition's file:

        read_parquet(pending files, include_paths) -> path -> partition tag
        -> _build_extraction_core (the tag rides as a doc-constant column)
        -> map_batches(_write_tagged_block): workers write each block's rows
           into ``.tmp-part-{pid}.{attempt}/`` and return slim summary rows

    The driver reads only the summary rows. A partition closes when its
    kept rows plus distinct split-marker doc_ids equal its input row count
    (from the parquet footers); it is then committed at once: split docs
    are recomputed from the partition's own file into
    ``data-repair.parquet``, the attempt dir is renamed to ``part-{pid}``
    and the manifest row is written (``wall_time_s`` = call start to this
    commit). Zero-row partitions commit before the execution starts.
    Workers write straight into ``out_dir``, so on a multi-node cluster it
    must be shared storage.

    A crash loses at most the uncommitted partitions; attempt dirs are
    unique per call, so tasks of an abandoned execution can never land in
    a later commit. ``fail_after=k`` stops after k commits and abandons
    the execution (test hook).

    Returns {"executed": [pids, ascending], "skipped": [pids]}.
    """
    import pyarrow.parquet as pq
    import ray.data

    from . import pipeline
    from .schema import EXTRACTED_SCHEMA

    cfg = cfg or PipelineConfig()
    t_start = time.time()
    os.makedirs(out_dir, exist_ok=True)
    done = read_manifest(out_dir)
    skipped: list[int] = []
    pending: dict[int, _Pending] = {}
    for pid, path in enumerate(os.path.abspath(f) for f in sorted(input_files)):
        in_fp = _file_fingerprint(path)
        if pid in done and done[pid]["input_fingerprint"] == in_fp:
            skipped.append(pid)
        else:
            pending[pid] = _Pending(path, in_fp,
                                    pq.ParquetFile(path).metadata.num_rows)
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
                ray.data.read_parquet(p.path), frozenset(p.markers), cfg)
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
            pid_of = {p.path: pid for pid, p in live.items()}
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
